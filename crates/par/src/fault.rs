//! Cooperative cancellation, deadlines, and deterministic fault
//! injection for parallel regions.
//!
//! All three are *cooperative*: they are observed at chunk boundaries
//! (every chunk of every region checks before running) and, inside long
//! chunk bodies, at coarse strides via
//! [`Executor::checkpoint`](crate::Executor::checkpoint). Nothing here
//! interrupts a running computation preemptively.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperative cancellation.
///
/// Clones share the same flag; any clone can cancel, and regions running
/// under an executor configured with the token abort at the next chunk
/// boundary or checkpoint with
/// [`ParError::Cancelled`](crate::ParError::Cancelled).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        // Release/Acquire: whatever the canceller wrote before cancelling
        // is visible to a region that observes the flag.
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        // Acquire: pairs with the Release in `cancel`.
        self.flag.load(Ordering::Acquire)
    }
}

/// A wall-clock deadline, checked at the same points as [`CancelToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn from_now(timeout: Duration) -> Self {
        Deadline {
            at: Instant::now() + timeout,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline { at: instant }
    }

    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero if already expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// A fault to inject at one `(region, chunk)` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the chunk body (exercises panic containment).
    Panic,
    /// Sleep this many microseconds before the body runs (exercises
    /// stragglers and deadline expiry).
    Delay(u64),
    /// Trip the executor's cancel token, as if an external caller had
    /// cancelled mid-region.
    Cancel,
}

/// A named IO boundary at which a [`FaultPlan`] can schedule a simulated
/// process crash. Crash points are *polled* by IO code (the serve
/// layer's WAL writer and checkpointer) via
/// [`Executor::crash_point`](crate::Executor::crash_point); when the
/// plan schedules a crash at the polled occurrence, the caller abandons
/// the write mid-flight exactly as a killed process would, leaving the
/// on-disk state torn for recovery to deal with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CrashPoint {
    /// Before any byte of a WAL record is written: the batch is lost
    /// entirely, the log is untouched.
    WalPreAppend,
    /// After a prefix of the record's bytes: the log ends in a torn
    /// record.
    WalMidRecord,
    /// After the record is fully written but before fsync: the bytes may
    /// never have reached the disk (simulated as page-cache loss).
    WalPreFsync,
    /// After the checkpoint temp file is written + fsynced but before
    /// the atomic rename: the old checkpoint remains current.
    CkptPreRename,
    /// After the rename publishes the new checkpoint: the checkpoint is
    /// durable, anything after it (acks, in-memory state) is lost.
    CkptPostRename,
}

impl CrashPoint {
    /// Every crash point, in WAL-then-checkpoint order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::WalPreAppend,
        CrashPoint::WalMidRecord,
        CrashPoint::WalPreFsync,
        CrashPoint::CkptPreRename,
        CrashPoint::CkptPostRename,
    ];

    /// Stable kebab-case name (CLI flag / harness label).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalPreAppend => "wal-pre-append",
            CrashPoint::WalMidRecord => "wal-mid-record",
            CrashPoint::WalPreFsync => "wal-pre-fsync",
            CrashPoint::CkptPreRename => "ckpt-pre-rename",
            CrashPoint::CkptPostRename => "ckpt-post-rename",
        }
    }

    /// Parses the kebab-case name produced by [`CrashPoint::name`].
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// A deterministic schedule of faults, keyed by `(region, chunk)`.
///
/// Regions are numbered in execution order from the moment the plan is
/// installed (installing a plan resets the executor's region counter);
/// chunks are numbered `0..p` within a region. The same plan against the
/// same algorithm and worker count therefore hits the same sites in
/// every mode — the injection points are mode-independent, like chunk
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    sites: HashMap<(usize, usize), Fault>,
    /// Scheduled process-crash simulations, keyed by
    /// `(crash point, occurrence)`: the Nth time the point is polled
    /// since the plan was installed, the crash fires.
    crashes: HashSet<(CrashPoint, usize)>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault at `(region, chunk)`, replacing any previous fault at
    /// that site. Builder-style.
    pub fn inject(mut self, region: usize, chunk: usize, fault: Fault) -> Self {
        self.sites.insert((region, chunk), fault);
        self
    }

    /// A pseudo-random plan of `count` faults over the site grid
    /// `(0..regions) x (0..chunks)`, derived from `seed` (SplitMix64).
    /// The same seed always produces the same plan.
    pub fn seeded(seed: u64, regions: usize, chunks: usize, count: usize) -> Self {
        let mut plan = FaultPlan::new();
        if regions == 0 || chunks == 0 {
            return plan;
        }
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..count {
            let region = (next() % regions as u64) as usize;
            let chunk = (next() % chunks as u64) as usize;
            let fault = match next() % 3 {
                0 => Fault::Panic,
                1 => Fault::Delay(next() % 500),
                _ => Fault::Cancel,
            };
            plan.sites.insert((region, chunk), fault);
        }
        plan
    }

    /// The fault scheduled at `(region, chunk)`, if any.
    pub fn get(&self, region: usize, chunk: usize) -> Option<Fault> {
        self.sites.get(&(region, chunk)).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// All scheduled sites in deterministic (sorted) order.
    pub fn sites(&self) -> Vec<((usize, usize), Fault)> {
        let mut v: Vec<_> = self.sites.iter().map(|(&k, &f)| (k, f)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Schedules a simulated process crash at the `occurrence`-th poll
    /// (0-based) of `point`. Builder-style.
    pub fn crash(mut self, point: CrashPoint, occurrence: usize) -> Self {
        self.crashes.insert((point, occurrence));
        self
    }

    /// Whether a crash is scheduled at the given poll of `point`.
    pub fn crash_at(&self, point: CrashPoint, occurrence: usize) -> bool {
        self.crashes.contains(&(point, occurrence))
    }

    /// Whether any crash points are scheduled at all (fast path for the
    /// executor's poll).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// All scheduled crash sites in deterministic (sorted) order.
    pub fn crash_sites(&self) -> Vec<(CrashPoint, usize)> {
        let mut v: Vec<_> = self.crashes.iter().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t2.is_cancelled());
    }

    #[test]
    fn deadline_expiry() {
        let past = Deadline::from_now(Duration::ZERO);
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
        let future = Deadline::from_now(Duration::from_secs(3600));
        assert!(!future.expired());
        assert!(future.remaining() > Duration::from_secs(3599));
        let abs = Deadline::at(Instant::now() + Duration::from_secs(10));
        assert!(!abs.expired());
    }

    #[test]
    fn plan_builder_and_lookup() {
        let plan = FaultPlan::new()
            .inject(0, 0, Fault::Panic)
            .inject(2, 1, Fault::Delay(50))
            .inject(0, 0, Fault::Cancel); // replaces
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.get(0, 0), Some(Fault::Cancel));
        assert_eq!(plan.get(2, 1), Some(Fault::Delay(50)));
        assert_eq!(plan.get(1, 0), None);
        assert_eq!(
            plan.sites(),
            vec![((0, 0), Fault::Cancel), ((2, 1), Fault::Delay(50))]
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 8, 4, 6);
        let b = FaultPlan::seeded(42, 8, 4, 6);
        assert_eq!(a.sites(), b.sites());
        assert!(!a.is_empty());
        assert!(a.len() <= 6);
        for ((r, c), _) in a.sites() {
            assert!(r < 8 && c < 4);
        }
        let c = FaultPlan::seeded(43, 8, 4, 6);
        // Different seeds almost surely differ somewhere.
        assert_ne!(a.sites(), c.sites());
    }

    #[test]
    fn crash_sites_are_independent_of_chunk_sites() {
        let plan = FaultPlan::new()
            .inject(0, 0, Fault::Panic)
            .crash(CrashPoint::WalMidRecord, 2)
            .crash(CrashPoint::CkptPreRename, 0);
        assert!(plan.has_crashes());
        assert!(plan.crash_at(CrashPoint::WalMidRecord, 2));
        assert!(!plan.crash_at(CrashPoint::WalMidRecord, 1));
        assert!(!plan.crash_at(CrashPoint::WalPreFsync, 2));
        assert_eq!(
            plan.crash_sites(),
            vec![
                (CrashPoint::WalMidRecord, 2),
                (CrashPoint::CkptPreRename, 0)
            ]
        );
        // Chunk-site accounting is untouched by crash sites.
        assert_eq!(plan.len(), 1);
        assert!(!FaultPlan::new().has_crashes());
    }

    #[test]
    fn crash_point_names_round_trip() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.name()), Some(p));
        }
        assert_eq!(CrashPoint::parse("not-a-point"), None);
    }

    #[test]
    fn seeded_plan_handles_degenerate_grid() {
        assert!(FaultPlan::seeded(1, 0, 4, 10).is_empty());
        assert!(FaultPlan::seeded(1, 4, 0, 10).is_empty());
    }
}
