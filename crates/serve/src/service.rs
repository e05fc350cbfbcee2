//! The snapshot-isolated query service.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hcd_core::query::{core_containing, hierarchy_position, in_k_core, same_k_core};
use hcd_dynamic::{BatchReport, DynamicCore, EdgeUpdate};
use hcd_graph::{CsrGraph, VertexId};
use hcd_par::{intern, EpochCell, Executor, ParError, CHECKPOINT_STRIDE};
use hcd_search::{try_pbks_on, BestCore, Metric};
use parking_lot::Mutex;

use crate::cache::{CacheConfig, CacheKey, CacheStats, CachedAnswer, QueryCache};
use crate::checkpoint::{self, CheckpointError};
use crate::events::EventLog;
use crate::snapshot::Snapshot;
use crate::wal::{FsyncPolicy, WalError, WalWriter, WAL_FILE_NAME};

/// Why a service write failed.
///
/// Read paths still speak plain [`ParError`]; writes gained a
/// durability layer, so their failures split into "the parallel
/// pipeline failed" and "the write-ahead append failed".
#[derive(Debug)]
pub enum ServeError {
    /// The rebuild/publish pipeline failed (contained panic,
    /// cancellation, expired deadline, injected fault). Nothing was
    /// published; any WAL record written for the batch stays — the
    /// maintained writer state keeps the batch too, so log and memory
    /// agree.
    Par(ParError),
    /// The write-ahead append failed (real IO error or injected crash).
    /// The batch was neither logged, applied, nor acknowledged; the old
    /// snapshot keeps serving.
    Wal(WalError),
    /// Setting up durability failed (initial checkpoint write).
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Par(e) => write!(f, "{e}"),
            ServeError::Wal(e) => write!(f, "{e}"),
            ServeError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl From<ParError> for ServeError {
    fn from(e: ParError) -> Self {
        ServeError::Par(e)
    }
}

impl From<WalError> for ServeError {
    fn from(e: WalError) -> Self {
        ServeError::Wal(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl ServeError {
    /// Whether this failure is a scheduled [`hcd_par::CrashPoint`]
    /// firing (the kill-and-recover harness's signal that the simulated
    /// process died) rather than an organic error.
    pub fn is_simulated_crash(&self) -> bool {
        matches!(
            self,
            ServeError::Wal(WalError::Crashed(_))
                | ServeError::Checkpoint(CheckpointError::Crashed(_))
        )
    }
}

/// Knobs for the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When the WAL is fsynced relative to appends.
    pub fsync: FsyncPolicy,
    /// Write a snapshot checkpoint every this-many applied batches
    /// (`0` = never after the initial one; recovery then replays the
    /// whole log).
    pub checkpoint_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 8,
        }
    }
}

/// The writer-side durability state, held under the same lock discipline
/// as the [`DynamicCore`] writer (always writer lock first).
pub(crate) struct Durable {
    pub(crate) dir: PathBuf,
    pub(crate) wal: WalWriter,
    pub(crate) cfg: DurabilityConfig,
    /// Sequence number of the newest on-disk checkpoint.
    pub(crate) last_checkpoint_seq: u64,
    /// A simulated crash fired somewhere in the durability path: the
    /// "process" is dead, so every later durable write is refused. (The
    /// read side keeps answering — the harness just stops using the
    /// instance, like the real dead process it stands in for.)
    pub(crate) poisoned: bool,
}

/// A query against one snapshot. All variants are answered from the
/// index alone (no graph traversal beyond the HCD structures), so a
/// batch of them parallelizes embarrassingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The vertex set of the k-core containing `v` (`None` when `v` is
    /// unknown to the snapshot or its coreness is below `k`).
    CoreContaining(VertexId, u32),
    /// `(depth, subtree size)` of `v`'s tree node.
    HierarchyPosition(VertexId),
    /// Whether `v` belongs to some k-core.
    InKCore(VertexId, u32),
    /// Whether `u` and `v` share a k-core.
    SameKCore(VertexId, VertexId, u32),
}

/// The answer to one [`Query`], same variant order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Sorted member list, or `None` (unknown vertex / `k` too large).
    CoreContaining(Option<Vec<VertexId>>),
    /// `None` for a vertex the snapshot does not know.
    HierarchyPosition(Option<(usize, usize)>),
    /// Unknown vertices are in no k-core for `k >= 1` (and in the 0-core
    /// of nothing — membership is simply `false`).
    InKCore(bool),
    /// `false` unless both vertices are known and share the core.
    SameKCore(bool),
}

/// A service response: the value plus the generation of the snapshot it
/// was answered from. Consumers correlate responses with published
/// epochs (and validators check no response ever names an unpublished
/// generation).
#[derive(Debug, Clone, PartialEq)]
pub struct Response<T> {
    /// Generation of the snapshot that produced `value`.
    pub generation: u64,
    /// The answer.
    pub value: T,
}

/// Answers for a whole query batch, all from one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswers {
    /// Generation of the snapshot every answer was computed from.
    pub generation: u64,
    /// One answer per query, in input order.
    pub answers: Vec<QueryAnswer>,
}

/// Answers `q` from `snap`. Total: out-of-range vertex ids (e.g. ids
/// that only exist in a newer snapshot) answer negatively instead of
/// panicking, so readers holding an old snapshot are always safe.
fn answer(snap: &Snapshot, q: &Query) -> QueryAnswer {
    let n = snap.graph.num_vertices();
    let known = |v: VertexId| (v as usize) < n;
    match *q {
        Query::CoreContaining(v, k) => QueryAnswer::CoreContaining(if known(v) {
            core_containing(&snap.hcd, &snap.cores, v, k).map(|mut members| {
                members.sort_unstable();
                members
            })
        } else {
            None
        }),
        Query::HierarchyPosition(v) => {
            QueryAnswer::HierarchyPosition(known(v).then(|| hierarchy_position(&snap.hcd, v)))
        }
        Query::InKCore(v, k) => QueryAnswer::InKCore(known(v) && in_k_core(&snap.cores, v, k)),
        Query::SameKCore(u, v, k) => QueryAnswer::SameKCore(
            known(u) && known(v) && same_k_core(&snap.hcd, &snap.cores, u, v, k),
        ),
    }
}

/// The full set of counter and *region* names one service instance
/// ticks. Single-tenant services use the historical global literals
/// (so every existing test, baseline, and dashboard is untouched);
/// tenant services swap in interned `serve.<tenant>.*` names wholesale,
/// which is what isolates one tenant's metrics from another's.
///
/// **Histogram names are deliberately not here.** The histogram
/// registry has a small fixed slot budget ([`hcd_par::hist`] caps
/// distinct names), so latency histograms stay global — per-tenant
/// latency splits come from the per-tenant counters and regions, while
/// the histograms aggregate the process-wide latency distribution the
/// p99 gate actually cares about.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServeNames {
    pub(crate) queries: &'static str,
    pub(crate) stale_reads: &'static str,
    pub(crate) noop_batches: &'static str,
    pub(crate) wal_appends: &'static str,
    pub(crate) wal_bytes: &'static str,
    pub(crate) wal_errors: &'static str,
    pub(crate) batches: &'static str,
    pub(crate) swaps: &'static str,
    pub(crate) checkpoints: &'static str,
    pub(crate) ckpt_errors: &'static str,
    pub(crate) cache_hits: &'static str,
    pub(crate) cache_misses: &'static str,
    pub(crate) cache_evictions: &'static str,
    pub(crate) cache_bytes: &'static str,
    pub(crate) region_query_core: &'static str,
    pub(crate) region_query_position: &'static str,
    pub(crate) region_query_member: &'static str,
    pub(crate) region_query_same: &'static str,
    pub(crate) region_query_batch: &'static str,
    pub(crate) region_rebuild: &'static str,
}

impl ServeNames {
    pub(crate) const GLOBAL: ServeNames = ServeNames {
        queries: "serve.queries",
        stale_reads: "serve.stale_reads",
        noop_batches: "serve.noop_batches",
        wal_appends: "serve.wal_appends",
        wal_bytes: "serve.wal_bytes",
        wal_errors: "serve.wal_errors",
        batches: "serve.batches",
        swaps: "serve.swaps",
        checkpoints: "serve.checkpoints",
        ckpt_errors: "serve.ckpt_errors",
        cache_hits: "serve.cache.hits",
        cache_misses: "serve.cache.misses",
        cache_evictions: "serve.cache.evictions",
        cache_bytes: "serve.cache.bytes",
        region_query_core: "serve.query.core",
        region_query_position: "serve.query.position",
        region_query_member: "serve.query.member",
        region_query_same: "serve.query.same",
        region_query_batch: "serve.query.batch",
        region_rebuild: "serve.rebuild",
    };

    pub(crate) fn for_tenant(tenant: &str) -> ServeNames {
        let n = |suffix: &str| intern(&format!("serve.{tenant}.{suffix}"));
        ServeNames {
            queries: n("queries"),
            stale_reads: n("stale_reads"),
            noop_batches: n("noop_batches"),
            wal_appends: n("wal_appends"),
            wal_bytes: n("wal_bytes"),
            wal_errors: n("wal_errors"),
            batches: n("batches"),
            swaps: n("swaps"),
            checkpoints: n("checkpoints"),
            ckpt_errors: n("ckpt_errors"),
            cache_hits: n("cache.hits"),
            cache_misses: n("cache.misses"),
            cache_evictions: n("cache.evictions"),
            cache_bytes: n("cache.bytes"),
            region_query_core: n("query.core"),
            region_query_position: n("query.position"),
            region_query_member: n("query.member"),
            region_query_same: n("query.same"),
            region_query_batch: n("query.batch"),
            region_rebuild: n("rebuild"),
        }
    }
}

/// A snapshot-isolated HCD query service (see the crate docs).
///
/// Reads and writes are fully decoupled:
///
/// * **readers** load the current [`Snapshot`] with one `Arc` clone and
///   answer from it — a publication happening mid-query is invisible;
///   the response's `generation` says exactly which state it saw;
/// * the **writer** (serialized by an internal lock; any thread may
///   call it) applies an [`EdgeUpdate`] batch to the maintained
///   [`DynamicCore`], which builds one CSR of the new graph and
///   recomputes coreness on it with PKC; the writer then runs PHCD on
///   that same CSR and publishes the result with an atomic epoch swap.
///   Batches that change nothing publish no new generation at all.
///
/// A rebuild failure (contained panic, cancellation, expired deadline —
/// including injected faults in the `pkc.*`, `serve.rebuild` and
/// `phcd.*` regions) publishes nothing: the service keeps serving the
/// previous snapshot, the writer keeps the batch, and the next
/// successful [`HcdService::try_apply_batch`] publishes the cumulative
/// state.
pub struct HcdService {
    cell: EpochCell<Snapshot>,
    writer: Mutex<DynamicCore>,
    /// Durability state; `None` for a purely in-memory service.
    durable: Mutex<Option<Durable>>,
    /// Cumulative count of reads answered from a superseded snapshot.
    stale_reads: std::sync::atomic::AtomicU64,
    /// Whether the maintained writer state has run ahead of the
    /// published snapshot (a publish attempt failed after its batch was
    /// applied). While set, the no-op fast path is disabled, so even an
    /// all-no-op batch publishes the cumulative state. Logically guarded
    /// by the writer lock; atomic so readers of the flag don't need it.
    writer_dirty: std::sync::atomic::AtomicBool,
    /// Structured writer event log (see [`crate::events`]); `None`
    /// unless attached. Leaf lock: taken only while already holding the
    /// writer lock, released before returning.
    events: Mutex<Option<EventLog>>,
    /// Counter/region names this instance ticks (global literals for
    /// single-tenant services, `serve.<tenant>.*` for registry tenants).
    names: ServeNames,
    /// The tenant this service is registered as, when any.
    tenant: Option<&'static str>,
    /// Generation-keyed memo cache for expensive answers; `None` keeps
    /// every query on the compute path (the cache-disarmed baseline the
    /// differential tests compare against).
    cache: Option<QueryCache>,
}

impl HcdService {
    /// Builds the generation-0 snapshot from `g` and starts serving it.
    pub fn try_new(g: &CsrGraph, exec: &Executor) -> Result<Self, ParError> {
        let snapshot = Snapshot::try_build(g, 0, exec)?;
        let writer = DynamicCore::from_csr(g);
        Ok(HcdService {
            cell: EpochCell::new(snapshot),
            writer: Mutex::new(writer),
            durable: Mutex::new(None),
            stale_reads: std::sync::atomic::AtomicU64::new(0),
            writer_dirty: std::sync::atomic::AtomicBool::new(false),
            events: Mutex::new(None),
            names: ServeNames::GLOBAL,
            tenant: None,
            cache: None,
        })
    }

    /// Re-namespaces this instance's counters and regions to
    /// `serve.<tenant>.*` (interned once per distinct tenant). Latency
    /// histograms stay global: the histogram registry has a fixed slot
    /// budget. Call before the service is shared;
    /// [`crate::ServiceRegistry`] does this for every tenant it hosts.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.names = ServeNames::for_tenant(tenant);
        self.tenant = Some(intern(tenant));
        self
    }

    /// Arms the generation-keyed memo cache (see [`crate::cache`]).
    /// Disarmed services compute every answer; armed services return
    /// bit-identical answers (the differential harness proves it) while
    /// skipping recomputation within a generation.
    pub fn with_cache(mut self, cfg: CacheConfig) -> Self {
        self.cache = Some(QueryCache::new(cfg));
        self
    }

    /// The tenant name this service was registered under, if any.
    pub fn tenant(&self) -> Option<&'static str> {
        self.tenant
    }

    /// Whether the memo cache is armed.
    pub fn cache_armed(&self) -> bool {
        self.cache.is_some()
    }

    /// Point-in-time cache statistics (`None` when disarmed).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(QueryCache::stats)
    }

    /// The armed cache, when any. Exposed so the negative-path tests
    /// can plant doctored entries ([`QueryCache::doctor`]).
    pub fn cache(&self) -> Option<&QueryCache> {
        self.cache.as_ref()
    }

    /// [`HcdService::try_new`] plus durability: writes the seq-0
    /// checkpoint and an empty WAL into `dir` (created if missing,
    /// existing durable state overwritten — use
    /// [`HcdService::recover`](crate::recover) to resume a directory),
    /// then logs every acknowledged batch ahead of applying it.
    pub fn try_new_durable<P: AsRef<Path>>(
        g: &CsrGraph,
        dir: P,
        cfg: DurabilityConfig,
        exec: &Executor,
    ) -> Result<Self, ServeError> {
        let svc = Self::try_new(g, exec)?;
        svc.try_attach_durability(dir, cfg, exec)?;
        Ok(svc)
    }

    /// Makes an in-memory service durable after the fact: writes a
    /// checkpoint of the current state at the writer's sequence number
    /// and opens a fresh WAL in `dir` (created if missing, existing
    /// durable state overwritten). The registry uses this to give each
    /// tenant its own durability directory after namespacing.
    pub fn try_attach_durability<P: AsRef<Path>>(
        &self,
        dir: P,
        cfg: DurabilityConfig,
        exec: &Executor,
    ) -> Result<(), ServeError> {
        let writer = self.writer.lock();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(WalError::Io)?;
        let seq = writer.seq();
        let snap = self.cell.load();
        checkpoint::write_checkpoint(&dir, seq, &snap.graph, exec)?;
        let wal = WalWriter::create(dir.join(WAL_FILE_NAME), cfg.fsync).map_err(WalError::Io)?;
        *self.durable.lock() = Some(Durable {
            dir,
            wal,
            cfg,
            last_checkpoint_seq: seq,
            poisoned: false,
        });
        Ok(())
    }

    /// Assembles a recovered service: the snapshot keeps its replayed
    /// epoch numbering and the durability state resumes appending where
    /// the pre-crash log left off.
    pub(crate) fn from_recovered(
        snapshot: Snapshot,
        writer: DynamicCore,
        durable: Durable,
    ) -> Self {
        let generation = snapshot.generation;
        HcdService {
            cell: EpochCell::new_at(snapshot, generation),
            writer: Mutex::new(writer),
            durable: Mutex::new(Some(durable)),
            stale_reads: std::sync::atomic::AtomicU64::new(0),
            writer_dirty: std::sync::atomic::AtomicBool::new(false),
            events: Mutex::new(None),
            names: ServeNames::GLOBAL,
            tenant: None,
            cache: None,
        }
    }

    /// Whether this service write-ahead-logs its batches.
    pub fn is_durable(&self) -> bool {
        self.durable.lock().is_some()
    }

    /// The durability directory, when the service is durable.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.durable.lock().as_ref().map(|d| d.dir.clone())
    }

    /// Attaches a structured writer event log: every later write-path
    /// decision (batch applied, published, no-op, checkpoint, fault)
    /// is appended as one JSONL record. Replaces any previous log.
    pub fn attach_event_log(&self, log: EventLog) {
        *self.events.lock() = Some(log);
    }

    /// Runs `f` against the attached event log, if any.
    fn with_events(&self, f: impl FnOnce(&EventLog)) {
        if let Some(log) = self.events.lock().as_ref() {
            f(log);
        }
    }

    /// Infallible [`HcdService::try_new`] (panics on construction
    /// failure).
    pub fn new(g: &CsrGraph, exec: &Executor) -> Self {
        match Self::try_new(g, exec) {
            Ok(s) => s,
            Err(e) => e.raise(),
        }
    }

    /// The currently served snapshot. The returned `Arc` stays valid and
    /// immutable across later publications — hold it for as long as a
    /// consistent view is needed.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// The generation of the newest published snapshot.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Runs one closure-shaped query in a named `serve.query.*` region:
    /// the snapshot is loaded once, the closure runs under the
    /// executor's deadline/cancellation/fault plan, and the stale-read
    /// counter ticks when a publication raced the query. The region
    /// name is per-tenant; `hist` is the global latency histogram the
    /// sample lands in (see [`ServeNames`] on why they differ).
    fn try_query_one<T, F>(
        &self,
        region: &'static str,
        hist: &'static str,
        exec: &Executor,
        f: F,
    ) -> Result<Response<T>, ParError>
    where
        T: Send,
        F: Fn(&Snapshot) -> T + Sync,
    {
        let _lat = exec.time(hist);
        let snap = self.cell.load();
        let slot: Mutex<Option<T>> = Mutex::new(None);
        exec.region(region).try_for_each_chunk(
            1,
            || (),
            |_, _, _| {
                exec.checkpoint()?;
                *slot.lock() = Some(f(&snap));
                Ok(())
            },
        )?;
        self.note_reads(exec, 1, snap.generation);
        let value = slot.into_inner().expect("query region ran its one chunk");
        Ok(Response {
            generation: snap.generation,
            value,
        })
    }

    /// Counter bookkeeping shared by all read paths. Stale reads —
    /// answers from a snapshot superseded while the query ran — are
    /// still internally consistent (snapshot isolation), just not the
    /// newest; counting them helps size batch cadence. The cumulative
    /// total goes out as a gauge so a zero is still visible in metrics
    /// (`add_counter` elides zero deltas).
    fn note_reads(&self, exec: &Executor, queries: u64, served_gen: u64) {
        use std::sync::atomic::Ordering;
        exec.add_counter(self.names.queries, queries);
        if served_gen < self.cell.generation() {
            self.stale_reads.fetch_add(queries, Ordering::Relaxed);
        }
        exec.gauge(
            self.names.stale_reads,
            self.stale_reads.load(Ordering::Relaxed),
        );
    }

    /// Counter bookkeeping for one cache lookup round: `hits`/`misses`
    /// tick as sums, the byte footprint goes out as a gauge (so a
    /// shrinking cache is still visible — sums cannot go down).
    fn note_cache(&self, exec: &Executor, cache: &QueryCache, hits: u64, misses: u64) {
        exec.add_counter(self.names.cache_hits, hits);
        exec.add_counter(self.names.cache_misses, misses);
        exec.gauge(self.names.cache_bytes, cache.stats().bytes);
    }

    /// Total reads (so far) answered from a snapshot that had already
    /// been superseded when they completed.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The k-core containing `v` (region `serve.query.core`). With the
    /// cache armed, a repeat of the same `(v, k)` against the same
    /// generation is answered from the memo — bit-identically, because
    /// the cached value *is* the value computed from that immutable
    /// snapshot.
    pub fn try_core_containing(
        &self,
        v: VertexId,
        k: u32,
        exec: &Executor,
    ) -> Result<Response<Option<Vec<VertexId>>>, ParError> {
        if let Some(cache) = &self.cache {
            let key = CacheKey::Core(v, k);
            let snap = self.cell.load();
            let found = {
                let _lat = exec.time("serve.cache.lookup");
                cache.get(snap.generation, &key)
            };
            if let Some(CachedAnswer::Core(members)) = found {
                self.note_cache(exec, cache, 1, 0);
                self.note_reads(exec, 1, snap.generation);
                return Ok(Response {
                    generation: snap.generation,
                    value: members,
                });
            }
            let resp = self.try_query_one(
                self.names.region_query_core,
                "serve.query.core",
                exec,
                |snap| match answer(snap, &Query::CoreContaining(v, k)) {
                    QueryAnswer::CoreContaining(m) => m,
                    _ => unreachable!("answer() preserves the variant"),
                },
            )?;
            // Key by the generation the answer was actually computed
            // from — a publication racing the miss inserts under the
            // *new* generation, never poisoning the old one.
            let evicted =
                cache.insert(resp.generation, key, CachedAnswer::Core(resp.value.clone()));
            exec.add_counter(self.names.cache_evictions, evicted);
            self.note_cache(exec, cache, 0, 1);
            return Ok(resp);
        }
        self.try_query_one(
            self.names.region_query_core,
            "serve.query.core",
            exec,
            |snap| match answer(snap, &Query::CoreContaining(v, k)) {
                QueryAnswer::CoreContaining(m) => m,
                _ => unreachable!("answer() preserves the variant"),
            },
        )
    }

    /// `(depth, subtree size)` of `v`'s tree node (region
    /// `serve.query.position`).
    pub fn try_hierarchy_position(
        &self,
        v: VertexId,
        exec: &Executor,
    ) -> Result<Response<Option<(usize, usize)>>, ParError> {
        self.try_query_one(
            self.names.region_query_position,
            "serve.query.position",
            exec,
            |snap| match answer(snap, &Query::HierarchyPosition(v)) {
                QueryAnswer::HierarchyPosition(p) => p,
                _ => unreachable!("answer() preserves the variant"),
            },
        )
    }

    /// k-core membership of `v` (region `serve.query.member`).
    pub fn try_in_k_core(
        &self,
        v: VertexId,
        k: u32,
        exec: &Executor,
    ) -> Result<Response<bool>, ParError> {
        self.try_query_one(
            self.names.region_query_member,
            "serve.query.member",
            exec,
            |snap| {
                matches!(
                    answer(snap, &Query::InKCore(v, k)),
                    QueryAnswer::InKCore(true)
                )
            },
        )
    }

    /// Whether `u` and `v` share a k-core (region `serve.query.same`).
    pub fn try_same_k_core(
        &self,
        u: VertexId,
        v: VertexId,
        k: u32,
        exec: &Executor,
    ) -> Result<Response<bool>, ParError> {
        self.try_query_one(
            self.names.region_query_same,
            "serve.query.same",
            exec,
            move |snap| {
                matches!(
                    answer(snap, &Query::SameKCore(u, v, k)),
                    QueryAnswer::SameKCore(true)
                )
            },
        )
    }

    /// PBKS best-community search on the current snapshot under
    /// `metric`. The heavy regions are PBKS's own (`search.preprocess`,
    /// `pbks.*`); the service accounts it as one read.
    pub fn try_best_community(
        &self,
        metric: &Metric,
        exec: &Executor,
    ) -> Result<Response<Option<BestCore>>, ParError> {
        let snap = self.cell.load();
        if let Some(cache) = &self.cache {
            let key = CacheKey::for_metric(metric);
            let found = {
                let _lat = exec.time("serve.cache.lookup");
                cache.get(snap.generation, &key)
            };
            if let Some(CachedAnswer::Best(best)) = found {
                self.note_cache(exec, cache, 1, 0);
                self.note_reads(exec, 1, snap.generation);
                return Ok(Response {
                    generation: snap.generation,
                    value: best,
                });
            }
        }
        let best = {
            let _lat = exec.time("serve.query.pbks");
            try_pbks_on(&snap.graph, &snap.cores, &snap.hcd, metric, exec)?
        };
        if let Some(cache) = &self.cache {
            let evicted = cache.insert(
                snap.generation,
                CacheKey::for_metric(metric),
                CachedAnswer::Best(best.clone()),
            );
            exec.add_counter(self.names.cache_evictions, evicted);
            self.note_cache(exec, cache, 0, 1);
        }
        self.note_reads(exec, 1, snap.generation);
        Ok(Response {
            generation: snap.generation,
            value: best,
        })
    }

    /// Answers many independent queries in **one parallel region**
    /// (`serve.query.batch`), all from the same snapshot — the batched
    /// read path. Answers come back in input order.
    pub fn try_query_batch(
        &self,
        queries: &[Query],
        exec: &Executor,
    ) -> Result<BatchAnswers, ParError> {
        let _lat = exec.time("serve.query.batch");
        let snap = self.cell.load();
        let slots: Vec<Mutex<Option<QueryAnswer>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        // Prefill cacheable answers from the memo before the region
        // opens. The region still iterates every index with identical
        // chunk boundaries and checkpoint cadence — a cache hit only
        // skips the recomputation of an answer this same snapshot
        // already produced, so armed and disarmed runs are
        // bit-identical by construction.
        let mut from_cache = vec![false; queries.len()];
        let (mut hits, mut misses) = (0u64, 0u64);
        if let Some(cache) = &self.cache {
            let _lk = exec.time("serve.cache.lookup");
            for (i, q) in queries.iter().enumerate() {
                if let Some(key) = CacheKey::for_query(q) {
                    match cache.get(snap.generation, &key) {
                        Some(CachedAnswer::Core(m)) => {
                            *slots[i].lock() = Some(QueryAnswer::CoreContaining(m));
                            from_cache[i] = true;
                            hits += 1;
                        }
                        _ => misses += 1,
                    }
                }
            }
        }
        let from_cache_ref = &from_cache;
        exec.region(self.names.region_query_batch)
            .try_for_each_chunk(
                queries.len(),
                || (),
                |_, _, range| {
                    for (done, i) in range.enumerate() {
                        if done % CHECKPOINT_STRIDE == 0 {
                            exec.checkpoint()?;
                        }
                        if from_cache_ref[i] {
                            continue;
                        }
                        *slots[i].lock() = Some(answer(&snap, &queries[i]));
                    }
                    Ok(())
                },
            )?;
        self.note_reads(exec, queries.len() as u64, snap.generation);
        let answers: Vec<QueryAnswer> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every query index was answered"))
            .collect();
        if let Some(cache) = &self.cache {
            let mut evicted = 0;
            for (i, q) in queries.iter().enumerate() {
                if from_cache[i] {
                    continue;
                }
                if let (Some(key), QueryAnswer::CoreContaining(m)) =
                    (CacheKey::for_query(q), &answers[i])
                {
                    evicted += cache.insert(snap.generation, key, CachedAnswer::Core(m.clone()));
                }
            }
            exec.add_counter(self.names.cache_evictions, evicted);
            self.note_cache(exec, cache, hits, misses);
        }
        Ok(BatchAnswers {
            generation: snap.generation,
            answers,
        })
    }

    /// Applies an update batch and publishes the next snapshot, rebuilt
    /// from scratch on one fresh CSR.
    ///
    /// Pipeline (all under the writer lock, never blocking readers):
    /// a **no-op fast path** — when every update is a duplicate insert,
    /// self-loop, or absent removal and the published snapshot is
    /// current, nothing is logged, applied, or published (the WAL, the
    /// sequence counter, and the generation all stand still and
    /// `serve.noop_batches` ticks); otherwise a **write-ahead log
    /// append + fsync** when the service is durable (the batch is on
    /// disk before anything observes it), the batch applied to the
    /// writer's edge set with coreness recomputed by PKC on the one CSR
    /// the batch builds ([`DynamicCore::try_apply_batch`], regions
    /// `pkc.*`), PHCD on that same CSR in the fault-injectable
    /// `serve.rebuild` region (regions `phcd.*` nested inside, timed as
    /// the `serve.rebuild` histogram), one atomic epoch swap, then (per
    /// [`DurabilityConfig::checkpoint_every`]) a snapshot checkpoint.
    ///
    /// On `Err`, nothing was published and the previous snapshot keeps
    /// serving. A WAL failure ([`ServeError::Wal`]) means the batch was
    /// not even logged or applied — `serve.wal_errors` ticks and the
    /// service stays exactly where it was. A pipeline failure
    /// ([`ServeError::Par`]) happens *after* the append: the writer's
    /// graph and coreness keep the batch (riding along with the next
    /// successful publication) and so does the log, so memory and disk
    /// agree. Checkpoint IO errors never fail the batch — the WAL
    /// already covers it; `serve.ckpt_errors` ticks and recovery simply
    /// replays a longer suffix.
    pub fn try_apply_batch(
        &self,
        updates: &[EdgeUpdate],
        exec: &Executor,
    ) -> Result<Response<BatchReport>, ServeError> {
        use std::sync::atomic::Ordering;
        let mut writer = self.writer.lock();
        let mut durable = self.durable.lock();
        if let Some(d) = durable.as_mut() {
            if d.poisoned {
                return Err(ServeError::Wal(WalError::Poisoned));
            }
        }
        let was_dirty = self.writer_dirty.load(Ordering::Relaxed);
        if !was_dirty && writer.batch_is_noop(updates) {
            // Nothing would change and the published snapshot already
            // reflects the writer state exactly: acknowledge without
            // logging, bumping the sequence, or publishing.
            exec.add_counter(self.names.noop_batches, 1);
            self.with_events(|log| {
                log.noop(writer.seq(), self.cell.generation(), updates.len() as u64)
            });
            return Ok(Response {
                generation: self.cell.generation(),
                value: BatchReport {
                    seq: writer.seq(),
                    applied: 0,
                    skipped: updates.len(),
                    ..BatchReport::default()
                },
            });
        }
        // Everything past the fast path is real write work: time it as
        // one `serve.apply` histogram sample and stamp the event-log
        // records with durations from the same clock reading.
        let started = std::time::Instant::now();
        let _apply_lat = exec.time("serve.apply");
        let seq_attempt = writer.seq() + 1;
        let elapsed_ns =
            |s: std::time::Instant| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(d) = durable.as_mut() {
            // Log under the sequence number apply_batch is about to
            // stamp, so replay and live application agree exactly.
            match d.wal.append(writer.seq() + 1, updates, exec) {
                Ok(bytes) => {
                    exec.add_counter(self.names.wal_appends, 1);
                    exec.add_counter(self.names.wal_bytes, bytes);
                }
                Err(e) => {
                    if matches!(e, WalError::Crashed(_)) {
                        d.poisoned = true;
                    }
                    exec.add_counter(self.names.wal_errors, 1);
                    let e = ServeError::Wal(e);
                    self.with_events(|log| {
                        log.fault_kept_old_snapshot(
                            seq_attempt,
                            self.cell.generation(),
                            &e.to_string(),
                            elapsed_ns(started),
                        )
                    });
                    return Err(e);
                }
            }
        }
        // From here until the swap succeeds, any failure leaves the
        // writer ahead of the published snapshot: the batch is applied
        // (and logged) but not served. Mark the forest stale up front;
        // a completed publish clears it.
        self.writer_dirty.store(true, Ordering::Relaxed);
        let report = match writer.try_apply_batch(updates, exec) {
            Ok(r) => r,
            Err(e) => {
                let e = ServeError::Par(e);
                self.with_events(|log| {
                    log.fault_kept_old_snapshot(
                        seq_attempt,
                        self.cell.generation(),
                        &e.to_string(),
                        elapsed_ns(started),
                    )
                });
                return Err(e);
            }
        };
        exec.add_counter(self.names.batches, 1);
        let affected = (report.changed.len() + report.touched.len()) as u64;

        // Rebuild the hierarchy on the CSR the writer just built, inside
        // the named rebuild region so deadlines, cancellation, and the
        // fault matrix govern it.
        let csr = writer.take_csr();
        let cores = writer.decomposition();
        let built: Mutex<Option<hcd_core::Hcd>> = Mutex::new(None);
        let rebuilt = exec.region(self.names.region_rebuild).try_for_each_chunk(
            1,
            || (),
            |_, _, _| {
                exec.checkpoint()?;
                let _lat = exec.time("serve.rebuild");
                *built.lock() = Some(hcd_core::try_phcd(&csr, &cores, exec)?);
                Ok(())
            },
        );
        if let Err(e) = rebuilt {
            let e = ServeError::Par(e);
            self.with_events(|log| {
                log.fault_kept_old_snapshot(
                    report.seq,
                    self.cell.generation(),
                    &e.to_string(),
                    elapsed_ns(started),
                )
            });
            return Err(e);
        }
        let hcd = built.into_inner().expect("rebuild region ran");

        self.with_events(|log| {
            log.batch_applied(
                report.seq,
                self.cell.generation(),
                report.applied as u64,
                report.skipped as u64,
                affected,
                elapsed_ns(started),
            )
        });
        let generation = self.cell.generation() + 1;
        let snapshot = Arc::new(Snapshot::from_parts(csr, cores, hcd, generation));
        // Hold the retiring snapshot until the batch returns: freeing it
        // inside `publish` would run under the cell's write lock, which
        // stalls readers and is timed as the swap.
        let _retired = self.cell.load();
        let published = {
            let _lat = exec.time("serve.publish");
            self.cell.publish(Arc::clone(&snapshot))
        };
        // The writer lock serializes publications, so the generation we
        // stamped is the one the cell advanced to.
        debug_assert_eq!(published, generation);
        self.writer_dirty.store(false, Ordering::Relaxed);
        exec.add_counter(self.names.swaps, 1);
        if let Some(cache) = &self.cache {
            // Every pre-publication generation just became stale; the
            // sweep is what guarantees no reader can be handed an old
            // answer under the new generation's key.
            let evicted = cache.evict_stale(published);
            exec.add_counter(self.names.cache_evictions, evicted);
            exec.gauge(self.names.cache_bytes, cache.stats().bytes);
        }
        self.with_events(|log| log.published(report.seq, published, affected, elapsed_ns(started)));

        if let Some(d) = durable.as_mut() {
            // Saturating: recovery can restore a checkpoint newer than
            // the replayed WAL tail, leaving `last_checkpoint_seq`
            // ahead of the live sequence for a while.
            let due = d.cfg.checkpoint_every > 0
                && report.seq.saturating_sub(d.last_checkpoint_seq) >= d.cfg.checkpoint_every;
            if due {
                let ckpt_started = std::time::Instant::now();
                match checkpoint::write_checkpoint(&d.dir, report.seq, &snapshot.graph, exec) {
                    Ok(_) => {
                        d.last_checkpoint_seq = report.seq;
                        exec.add_counter(self.names.checkpoints, 1);
                        self.with_events(|log| {
                            log.checkpoint(report.seq, published, elapsed_ns(ckpt_started))
                        });
                    }
                    Err(CheckpointError::Crashed(_)) => {
                        // The batch is already durable (WAL) and
                        // acknowledged (published); the simulated
                        // process dies here without affecting either,
                        // so the caller still gets its ack.
                        d.poisoned = true;
                    }
                    Err(CheckpointError::Io(_)) => {
                        exec.add_counter(self.names.ckpt_errors, 1);
                    }
                }
            }
        }
        Ok(Response {
            generation: published,
            value: report,
        })
    }
}

impl std::fmt::Debug for HcdService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HcdService(generation={})", self.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcd_graph::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build()
    }

    #[test]
    fn initial_snapshot_serves_generation_zero() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        assert_eq!(svc.generation(), 0);
        let r = svc.try_in_k_core(0, 2, &exec).unwrap();
        assert_eq!(r.generation, 0);
        assert!(r.value);
        let r = svc.try_core_containing(0, 2, &exec).unwrap();
        assert_eq!(r.value, Some(vec![0, 1, 2]));
        let r = svc.try_hierarchy_position(4, &exec).unwrap();
        assert!(r.value.is_some());
    }

    #[test]
    fn publication_advances_generation_and_answers() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        let before = svc.snapshot();
        let resp = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        assert_eq!(resp.generation, 1);
        assert_eq!(svc.generation(), 1);
        // K4 now: vertex 3 reaches coreness 3.
        let r = svc.try_core_containing(3, 3, &exec).unwrap();
        assert_eq!(r.generation, 1);
        assert_eq!(r.value, Some(vec![0, 1, 2, 3]));
        // The held pre-publication snapshot still answers the old state.
        assert_eq!(before.generation, 0);
        assert_eq!(before.cores.coreness(3), 1);
        svc.snapshot().validate().unwrap();
    }

    #[test]
    fn out_of_range_vertices_answer_negatively() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        assert_eq!(svc.try_core_containing(99, 1, &exec).unwrap().value, None);
        assert_eq!(svc.try_hierarchy_position(99, &exec).unwrap().value, None);
        assert!(!svc.try_in_k_core(99, 0, &exec).unwrap().value);
        let batch = svc
            .try_query_batch(&[Query::SameKCore(0, 99, 1)], &exec)
            .unwrap();
        assert_eq!(batch.answers, vec![QueryAnswer::SameKCore(false)]);
    }

    #[test]
    fn query_batch_answers_in_order_from_one_snapshot() {
        for exec in [
            Executor::sequential(),
            Executor::assist(4),
            Executor::simulated(4),
        ] {
            let svc = HcdService::new(&triangle_plus_tail(), &exec);
            let queries = vec![
                Query::InKCore(0, 2),
                Query::InKCore(4, 2),
                Query::SameKCore(0, 1, 2),
                Query::SameKCore(0, 4, 1),
                Query::HierarchyPosition(2),
                Query::CoreContaining(4, 1),
            ];
            let batch = svc.try_query_batch(&queries, &exec).unwrap();
            assert_eq!(batch.generation, 0, "{}", exec.mode_name());
            let pos2 = hierarchy_position(&svc.snapshot().hcd, 2);
            assert_eq!(
                batch.answers,
                vec![
                    QueryAnswer::InKCore(true),
                    QueryAnswer::InKCore(false),
                    QueryAnswer::SameKCore(true),
                    QueryAnswer::SameKCore(true), // whole graph is one 1-core
                    QueryAnswer::HierarchyPosition(Some(pos2)),
                    QueryAnswer::CoreContaining(Some(vec![0, 1, 2, 3, 4])),
                ],
                "{}",
                exec.mode_name()
            );
        }
    }

    #[test]
    fn best_community_runs_on_the_snapshot() {
        let exec = Executor::sequential();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        let r = svc
            .try_best_community(&Metric::AverageDegree, &exec)
            .unwrap();
        let best = r.value.expect("non-empty graph");
        assert!(best.k >= 1);
    }

    #[test]
    fn failed_rebuild_keeps_serving_the_old_snapshot() {
        use hcd_par::{Fault, FaultPlan};
        let exec = Executor::sequential();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        // Panic in the first region of the next batch: PKC's level-0
        // pkc.scan, which runs a chunk because the batch isolates 4.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Remove(3, 4)], &exec)
            .unwrap_err();
        assert!(matches!(err, ServeError::Par(ParError::Panicked { .. })));
        // Cancel in the next region of the batch after: the level-1
        // pkc.scan (level 0 has no vertex once 4 is reattached).
        exec.set_fault_plan(FaultPlan::new().inject(1, 0, Fault::Cancel));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(0, 4)], &exec)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Par(ParError::Cancelled)),
            "{err:?}"
        );
        exec.clear_fault_plan();
        // Nothing was published.
        assert_eq!(svc.generation(), 0);
        let r = svc.try_core_containing(3, 1, &exec).unwrap();
        assert_eq!(r.generation, 0);
        // The writer kept both batches: the next successful batch
        // publishes the cumulative state.
        let resp = svc.try_apply_batch(&[], &exec).unwrap();
        assert_eq!(resp.generation, 1);
        let snap = svc.snapshot();
        let edges: Vec<_> = snap.graph.edges().collect();
        assert_eq!(edges, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)]);
        snap.validate().unwrap();
        let fresh = Snapshot::try_build(&snap.graph, 1, &exec).unwrap();
        assert_eq!(snap.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn counters_tick_when_metrics_enabled() {
        let exec = Executor::sequential().with_metrics();
        let svc = HcdService::new(&triangle_plus_tail(), &exec);
        svc.try_in_k_core(0, 1, &exec).unwrap();
        svc.try_query_batch(&[Query::InKCore(1, 1), Query::InKCore(2, 1)], &exec)
            .unwrap();
        svc.try_apply_batch(&[EdgeUpdate::Insert(3, 0)], &exec)
            .unwrap();
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.queries").unwrap().value, 3);
        assert_eq!(m.get_counter("serve.batches").unwrap().value, 1);
        assert_eq!(m.get_counter("serve.swaps").unwrap().value, 1);
        // Recorded as a gauge precisely so a zero still shows up.
        let stale = m.get_counter("serve.stale_reads").unwrap();
        assert_eq!(stale.kind, "max");
        assert_eq!(stale.value, 0);
        assert_eq!(svc.stale_reads(), 0);
        let names: Vec<_> = m.regions.iter().map(|r| r.name).collect();
        assert!(names.contains(&"serve.query.member"), "{names:?}");
        assert!(names.contains(&"serve.query.batch"), "{names:?}");
        assert!(names.contains(&"serve.rebuild"), "{names:?}");
        // The batch recomputed coreness with PKC and rebuilt the
        // hierarchy with PHCD on the same CSR.
        assert!(names.contains(&"pkc.scan"), "{names:?}");
        assert!(names.contains(&"pkc.wave"), "{names:?}");
        assert!(names.contains(&"phcd.union"), "{names:?}");
        assert!(
            !names.iter().any(|n| n.starts_with("dynamic.")),
            "{names:?}"
        );
        // ... over the whole new graph: n = 5, 2m = 12.
        assert_eq!(m.get_counter("dynamic.affected_vertices").unwrap().value, 5);
        assert_eq!(m.get_counter("dynamic.traversal_edges").unwrap().value, 12);
    }

    #[test]
    fn noop_batches_publish_nothing_and_log_nothing() {
        let exec = Executor::sequential().with_metrics();
        let dir = tempdir();
        let svc = HcdService::try_new_durable(
            &triangle_plus_tail(),
            &dir,
            DurabilityConfig::default(),
            &exec,
        )
        .unwrap();
        let resp = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 3)], &exec)
            .unwrap();
        assert_eq!(resp.generation, 1);
        let snap_before = svc.snapshot();
        exec.take_metrics();

        // Every update is a no-op: duplicate insert, self-loop, absent
        // or out-of-range removal.
        let noops = [
            EdgeUpdate::Insert(1, 3),
            EdgeUpdate::Insert(2, 2),
            EdgeUpdate::Remove(0, 4),
            EdgeUpdate::Remove(90, 91),
        ];
        let resp = svc.try_apply_batch(&noops, &exec).unwrap();
        // Acknowledged against the current state, but nothing moved:
        // no generation, no sequence bump, no swap, no WAL append.
        assert_eq!(resp.generation, 1);
        assert_eq!(resp.value.seq, 1);
        assert_eq!(resp.value.applied, 0);
        assert_eq!(resp.value.skipped, noops.len());
        assert_eq!(svc.generation(), 1);
        assert!(Arc::ptr_eq(&snap_before, &svc.snapshot()));
        let m = exec.take_metrics();
        assert!(m.get_counter("serve.swaps").is_none(), "swap on a no-op");
        assert!(
            m.get_counter("serve.wal_appends").is_none(),
            "WAL append on a no-op"
        );
        assert!(
            m.get_counter("serve.batches").is_none(),
            "batch counted on a no-op"
        );
        assert_eq!(m.get_counter("serve.noop_batches").unwrap().value, 1);
        // An empty batch takes the same fast path.
        let resp = svc.try_apply_batch(&[], &exec).unwrap();
        assert_eq!(resp.generation, 1);
        assert_eq!(svc.generation(), 1);
        // A real update afterwards still publishes with the next
        // uninterrupted sequence number (the no-ops consumed none).
        let resp = svc
            .try_apply_batch(&[EdgeUpdate::Insert(0, 4)], &exec)
            .unwrap();
        assert_eq!(resp.generation, 2);
        assert_eq!(resp.value.seq, 2);
        svc.snapshot().validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hcd-serve-test-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_service_logs_every_acknowledged_batch_and_checkpoints() {
        use crate::wal::{scan_wal_file, TailStatus};
        let dir = tempdir();
        let exec = Executor::sequential().with_metrics();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 2,
        };
        let svc = HcdService::try_new_durable(&triangle_plus_tail(), &dir, cfg, &exec).unwrap();
        assert!(svc.is_durable());
        assert_eq!(svc.durability_dir().unwrap(), dir);
        for i in 0..3u32 {
            svc.try_apply_batch(&[EdgeUpdate::Insert(i, i + 5)], &exec)
                .unwrap();
        }
        let scan = scan_wal_file(dir.join(WAL_FILE_NAME)).unwrap();
        assert_eq!(scan.tail, TailStatus::Clean);
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // checkpoint_every = 2: the initial seq-0 checkpoint plus one at
        // seq 2 (seq 3 is one batch past it, not yet due).
        let seqs: Vec<u64> = checkpoint::list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![0, 2]);
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.wal_appends").unwrap().value, 3);
        assert!(m.get_counter("serve.wal_bytes").unwrap().value > 0);
        assert_eq!(m.get_counter("serve.checkpoints").unwrap().value, 1);
        assert!(m.get_counter("serve.wal_errors").is_none());
    }

    #[test]
    fn wal_crash_rejects_the_batch_and_keeps_serving() {
        use hcd_par::{CrashPoint, FaultPlan};
        let dir = tempdir();
        let exec = Executor::sequential().with_metrics();
        let svc = HcdService::try_new_durable(
            &triangle_plus_tail(),
            &dir,
            DurabilityConfig::default(),
            &exec,
        )
        .unwrap();
        svc.try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreAppend, 0));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 4)], &exec)
            .unwrap_err();
        assert!(err.is_simulated_crash(), "{err}");
        exec.clear_fault_plan();
        // Nothing moved: the crashed batch was never acknowledged.
        assert_eq!(svc.generation(), 1);
        let r = svc.try_in_k_core(3, 2, &exec).unwrap();
        assert_eq!(r.generation, 1);
        // The dead "process" refuses all further durable writes.
        assert!(matches!(
            svc.try_apply_batch(&[], &exec).unwrap_err(),
            ServeError::Wal(WalError::Poisoned)
        ));
        let m = exec.take_metrics();
        assert_eq!(m.get_counter("serve.wal_errors").unwrap().value, 1);
        assert_eq!(m.get_counter("fault.crashes").unwrap().value, 1);
    }

    #[test]
    fn checkpoint_crash_still_acknowledges_the_batch() {
        use hcd_par::{CrashPoint, FaultPlan};
        let dir = tempdir();
        let exec = Executor::sequential();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1,
        };
        let svc = HcdService::try_new_durable(&triangle_plus_tail(), &dir, cfg, &exec).unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::CkptPreRename, 0));
        // The batch is WAL-durable and published before the checkpoint
        // dies, so the caller still gets its acknowledgement.
        let resp = svc
            .try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap();
        assert_eq!(resp.generation, 1);
        assert_eq!(exec.crashes_fired(), 1);
        exec.clear_fault_plan();
        // But the process is dead: no further durable writes.
        assert!(matches!(
            svc.try_apply_batch(&[], &exec).unwrap_err(),
            ServeError::Wal(WalError::Poisoned)
        ));
    }
}
