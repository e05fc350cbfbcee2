//! The snapshot-isolated query service.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

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

/// The writer-side durability state (part of [`Writer`]).
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
            core_containing(&snap.hcd, &snap.cores, v, k)
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

/// The memo entry for `q`'s answer `a`, when `q` is cacheable
/// ([`CacheKey::for_query`]).
fn memo_entry(q: &Query, a: &QueryAnswer) -> Option<(CacheKey, CachedAnswer)> {
    match (CacheKey::for_query(q)?, a) {
        (key, QueryAnswer::CoreContaining(m)) => Some((key, CachedAnswer::Core(m.clone()))),
        _ => None,
    }
}

/// The query answer a memo hit holds; `None` for a miss.
fn memo_answer(hit: Option<CachedAnswer>) -> Option<QueryAnswer> {
    match hit? {
        CachedAnswer::Core(m) => Some(QueryAnswer::CoreContaining(m)),
        CachedAnswer::Best(_) => None,
    }
}

/// The full set of counter and region names one service instance
/// ticks. Single-tenant services use the global `serve.*` names;
/// tenant services use `serve.<tenant>.*` names wholesale, which is
/// what isolates one tenant's metrics from another's.
///
/// Regions time themselves, so each region name here is also the name
/// of its latency histogram: a tenant's query and rebuild latencies
/// land in `serve.<tenant>.query.batch`, `serve.<tenant>.rebuild`, ….
/// The standalone timers (`serve.apply`, `serve.publish`,
/// `serve.cache.lookup`, `serve.query.pbks`, the WAL and checkpoint
/// stages) are not regions and keep their global names.
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
    /// Every name under `prefix`: `"serve"` for a single-tenant
    /// service, `"serve.<tenant>"` for a tenant's. Each name is interned,
    /// so a prefix's names are the same `&'static str` in every service.
    pub(crate) fn new(prefix: &str) -> ServeNames {
        let n = |suffix: &str| intern(&format!("{prefix}.{suffix}"));
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
///   [`DynamicCore`], which merges the batch into the next CSR of the
///   graph and recomputes coreness on it (bin-sort peeling on a
///   one-worker executor, PKC otherwise); the writer then runs
///   PHCD on that same CSR and publishes the result with an atomic epoch
///   swap. The published snapshot and the writer share that CSR.
///   Batches that change nothing publish no new generation at all.
///
/// A rebuild failure (contained panic, cancellation, expired deadline —
/// including injected faults in the `bz.peel` or `pkc.*`,
/// `serve.rebuild` and `phcd.*` regions) publishes nothing: the service
/// keeps serving the previous snapshot, the writer keeps the batch, and
/// the next successful [`HcdService::try_apply_batch`] publishes the
/// cumulative state.
pub struct HcdService {
    cell: EpochCell<Snapshot>,
    writer: Mutex<Writer>,
    /// Cumulative count of reads answered from a superseded snapshot.
    /// A statistic: no other memory is published through it, so every
    /// access is `Relaxed`.
    stale_reads: std::sync::atomic::AtomicU64,
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

/// Everything only the writer touches, behind the service's one writer
/// lock. Readers never take it.
struct Writer {
    core: DynamicCore,
    /// Durability state; `None` for a purely in-memory service.
    durable: Option<Durable>,
    /// Structured writer event log (see [`crate::events`]); `None`
    /// unless attached.
    events: Option<EventLog>,
    /// The maintained state has run ahead of the published snapshot (a
    /// publish attempt failed after its batch was applied). While set,
    /// the no-op fast path is off, so even an all-no-op batch publishes
    /// the cumulative state.
    dirty: bool,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl HcdService {
    /// Builds the generation-0 snapshot from `g` and starts serving it.
    pub fn try_new(g: &CsrGraph, exec: &Executor) -> Result<Self, ParError> {
        let snapshot = Snapshot::try_build(g, 0, exec)?;
        let core = DynamicCore::from_parts(Arc::clone(&snapshot.graph), snapshot.cores.clone());
        Ok(Self::from_parts(snapshot, core, None))
    }

    /// Assembles a service that serves `snapshot` at its own generation
    /// (a recovered snapshot keeps its replayed epoch numbering) and
    /// writes through `core` and, when durable, `durable`.
    pub(crate) fn from_parts(
        snapshot: Snapshot,
        core: DynamicCore,
        durable: Option<Durable>,
    ) -> Self {
        let generation = snapshot.generation;
        HcdService {
            cell: EpochCell::new_at(snapshot, generation),
            writer: Mutex::new(Writer {
                core,
                durable,
                events: None,
                dirty: false,
            }),
            stale_reads: std::sync::atomic::AtomicU64::new(0),
            names: ServeNames::new("serve"),
            tenant: None,
            cache: None,
        }
    }

    /// Re-namespaces this instance's counters, regions and region
    /// latency histograms to `serve.<tenant>.*` (interned once per
    /// distinct tenant); the timers that are not regions (`serve.apply`,
    /// `serve.cache.lookup`, …) keep their global names. Call before
    /// the service is shared;
    /// [`crate::ServiceRegistry`] does this for every tenant it hosts.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.names = ServeNames::new(&format!("serve.{tenant}"));
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
        let mut svc = Self::try_new(g, exec)?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(WalError::Io)?;
        checkpoint::write_checkpoint(&dir, 0, &svc.snapshot().graph, exec)?;
        let wal = WalWriter::create(dir.join(WAL_FILE_NAME), cfg.fsync).map_err(WalError::Io)?;
        svc.writer.get_mut().durable = Some(Durable {
            dir,
            wal,
            cfg,
            last_checkpoint_seq: 0,
            poisoned: false,
        });
        Ok(svc)
    }

    /// Whether this service write-ahead-logs its batches. Waits for an
    /// in-flight write.
    pub fn is_durable(&self) -> bool {
        self.writer.lock().durable.is_some()
    }

    /// The durability directory, when the service is durable. Waits for
    /// an in-flight write.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.writer.lock().durable.as_ref().map(|d| d.dir.clone())
    }

    /// Attaches a structured writer event log: every later write-path
    /// decision (batch applied, published, no-op, checkpoint, fault)
    /// is appended as one JSONL record. Replaces any previous log.
    /// Waits for an in-flight write.
    pub fn attach_event_log(&self, log: EventLog) {
        self.writer.lock().events = Some(log);
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

    /// The one single-query read path. It loads the snapshot once; with
    /// the cache armed and `q` cacheable, a hit opens no region. A miss
    /// is answered in `q`'s `serve.query.*` region and a cacheable
    /// answer is stored under that snapshot's generation (after a racing
    /// publication, under the superseded one, which the next publish
    /// sweeps). `unpack` turns the answer into the typed value.
    fn try_read<T>(
        &self,
        q: Query,
        exec: &Executor,
        unpack: fn(QueryAnswer) -> T,
    ) -> Result<Response<T>, ParError> {
        let snap = self.cell.load();
        let generation = snap.generation;
        let memo = self.cache.as_ref().zip(CacheKey::for_query(&q));
        let hit = memo.and_then(|(cache, key)| {
            let mut found = self.memo_lookup(cache, exec, generation, [Some(key)]);
            memo_answer(found.pop()?)
        });
        let value = match hit {
            Some(value) => value,
            None => {
                let region = match q {
                    Query::CoreContaining(..) => self.names.region_query_core,
                    Query::HierarchyPosition(_) => self.names.region_query_position,
                    Query::InKCore(..) => self.names.region_query_member,
                    Query::SameKCore(..) => self.names.region_query_same,
                };
                let value = exec
                    .region(region)
                    .try_map_chunks(1, |_, _| {
                        exec.checkpoint()?;
                        Ok(answer(&snap, &q))
                    })?
                    .pop()
                    .expect("a one-item region runs one chunk");
                if let Some((cache, _)) = memo {
                    self.memo_store(cache, exec, generation, memo_entry(&q, &value));
                }
                value
            }
        };
        self.note_reads(exec, 1, generation);
        Ok(Response {
            generation,
            value: unpack(value),
        })
    }

    /// The memo's lookup step: the cached answer under `generation` for
    /// each key (`None` for a miss and for an uncacheable query's
    /// `None` key). The whole round is one `serve.cache.lookup` sample;
    /// each key looked up ticks `serve.cache.hits` or
    /// `serve.cache.misses`.
    fn memo_lookup(
        &self,
        cache: &QueryCache,
        exec: &Executor,
        generation: u64,
        keys: impl IntoIterator<Item = Option<CacheKey>>,
    ) -> Vec<Option<CachedAnswer>> {
        let (mut looked_up, mut hits) = (0u64, 0u64);
        let found = {
            let _lat = exec.time("serve.cache.lookup");
            keys.into_iter()
                .map(|key| {
                    let found = cache.get(generation, &key?);
                    looked_up += 1;
                    hits += u64::from(found.is_some());
                    found
                })
                .collect()
        };
        exec.add_counter(self.names.cache_hits, hits);
        exec.add_counter(self.names.cache_misses, looked_up - hits);
        found
    }

    /// The memo's store step: inserts each answer under the generation
    /// of the snapshot it was computed from, counts the capacity
    /// evictions, and takes the `serve.cache.bytes` high-water mark (a
    /// gauge, so a shrinking cache is still visible; sums cannot go
    /// down).
    fn memo_store(
        &self,
        cache: &QueryCache,
        exec: &Executor,
        generation: u64,
        entries: impl IntoIterator<Item = (CacheKey, CachedAnswer)>,
    ) {
        let evicted = entries
            .into_iter()
            .map(|(key, value)| cache.insert(generation, key, value))
            .sum();
        exec.add_counter(self.names.cache_evictions, evicted);
        exec.gauge(self.names.cache_bytes, cache.stats().bytes);
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
        self.try_read(Query::CoreContaining(v, k), exec, |a| match a {
            QueryAnswer::CoreContaining(m) => m,
            _ => unreachable!("answer() preserves the variant"),
        })
    }

    /// `(depth, subtree size)` of `v`'s tree node (region
    /// `serve.query.position`).
    pub fn try_hierarchy_position(
        &self,
        v: VertexId,
        exec: &Executor,
    ) -> Result<Response<Option<(usize, usize)>>, ParError> {
        self.try_read(Query::HierarchyPosition(v), exec, |a| match a {
            QueryAnswer::HierarchyPosition(p) => p,
            _ => unreachable!("answer() preserves the variant"),
        })
    }

    /// k-core membership of `v` (region `serve.query.member`).
    pub fn try_in_k_core(
        &self,
        v: VertexId,
        k: u32,
        exec: &Executor,
    ) -> Result<Response<bool>, ParError> {
        self.try_read(Query::InKCore(v, k), exec, |a| {
            a == QueryAnswer::InKCore(true)
        })
    }

    /// Whether `u` and `v` share a k-core (region `serve.query.same`).
    pub fn try_same_k_core(
        &self,
        u: VertexId,
        v: VertexId,
        k: u32,
        exec: &Executor,
    ) -> Result<Response<bool>, ParError> {
        self.try_read(Query::SameKCore(u, v, k), exec, |a| {
            a == QueryAnswer::SameKCore(true)
        })
    }

    /// PBKS best-community search on the current snapshot under
    /// `metric`. The heavy regions are PBKS's own (`search.preprocess`,
    /// `pbks.*`); the service accounts it as one read. With the cache
    /// armed, the answer is memoised per metric like
    /// [`HcdService::try_core_containing`]'s.
    pub fn try_best_community(
        &self,
        metric: &Metric,
        exec: &Executor,
    ) -> Result<Response<Option<BestCore>>, ParError> {
        let snap = self.cell.load();
        let generation = snap.generation;
        let key = CacheKey::for_metric(metric);
        let hit = self.cache.as_ref().and_then(|cache| {
            match self
                .memo_lookup(cache, exec, generation, [Some(key)])
                .pop()?
            {
                Some(CachedAnswer::Best(best)) => Some(best),
                _ => None,
            }
        });
        let value = match hit {
            Some(best) => best,
            None => {
                let best = {
                    let _lat = exec.time("serve.query.pbks");
                    try_pbks_on(&snap.graph, &snap.cores, &snap.hcd, metric, exec)?
                };
                if let Some(cache) = &self.cache {
                    let entry = (key, CachedAnswer::Best(best.clone()));
                    self.memo_store(cache, exec, generation, [entry]);
                }
                best
            }
        };
        self.note_reads(exec, 1, generation);
        Ok(Response { generation, value })
    }

    /// Answers many independent queries in **one parallel region**
    /// (`serve.query.batch`), all from the same snapshot — the batched
    /// read path. Answers come back in input order.
    pub fn try_query_batch(
        &self,
        queries: &[Query],
        exec: &Executor,
    ) -> Result<BatchAnswers, ParError> {
        let snap = self.cell.load();
        let generation = snap.generation;
        // Prefill cacheable answers from the memo before the region
        // opens. The region still iterates every index with identical
        // chunk boundaries and checkpoint cadence — a cache hit only
        // skips the recomputation of an answer this same snapshot
        // already produced, so armed and disarmed runs are
        // bit-identical by construction.
        let prefilled: Vec<Option<QueryAnswer>> = match &self.cache {
            Some(cache) => self
                .memo_lookup(
                    cache,
                    exec,
                    generation,
                    queries.iter().map(CacheKey::for_query),
                )
                .into_iter()
                .map(memo_answer)
                .collect(),
            None => vec![None; queries.len()],
        };
        // Each chunk returns its range's answers, `None` where the
        // prefill already holds one.
        let computed: Vec<Option<QueryAnswer>> = exec
            .region(self.names.region_query_batch)
            .try_map_chunks(queries.len(), |_, range| {
                let mut out = Vec::with_capacity(range.len());
                for (done, i) in range.enumerate() {
                    if done % CHECKPOINT_STRIDE == 0 {
                        exec.checkpoint()?;
                    }
                    out.push(prefilled[i].is_none().then(|| answer(&snap, &queries[i])));
                }
                Ok(out)
            })?
            .into_iter()
            .flatten()
            .collect();
        self.note_reads(exec, queries.len() as u64, generation);
        if let Some(cache) = &self.cache {
            let fresh =
                (queries.iter().zip(&computed)).filter_map(|(q, a)| memo_entry(q, a.as_ref()?));
            self.memo_store(cache, exec, generation, fresh);
        }
        let answers = prefilled
            .into_iter()
            .zip(computed)
            .map(|(hit, fresh)| hit.or(fresh).expect("every query index was answered"))
            .collect();
        Ok(BatchAnswers {
            generation,
            answers,
        })
    }

    /// Applies an update batch and publishes the next snapshot, rebuilt
    /// from scratch on the CSR the batch was merged into.
    ///
    /// Pipeline (all under the writer lock, never blocking readers):
    /// a **no-op fast path** — when every update is a duplicate insert,
    /// self-loop, or absent removal and the published snapshot is
    /// current, nothing is logged, applied, or published (the WAL, the
    /// sequence counter, and the generation all stand still and
    /// `serve.noop_batches` ticks); otherwise a **write-ahead log
    /// append + fsync** when the service is durable (the batch is on
    /// disk before anything observes it), the batch merged into the
    /// writer's CSR (histogram `dynamic.merge`) with coreness recomputed
    /// on it ([`DynamicCore::try_apply_batch`]: region `bz.peel` on a
    /// one-worker executor, regions `pkc.*` otherwise),
    /// PHCD on that same CSR in the fault-injectable
    /// `serve.rebuild` region (regions `phcd.*` nested inside; the
    /// region times itself), one atomic epoch swap, then (per
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
        let mut guard = self.writer.lock();
        let w = &mut *guard;
        if w.durable.as_ref().is_some_and(|d| d.poisoned) {
            return Err(ServeError::Wal(WalError::Poisoned));
        }
        if !w.dirty && w.core.batch_is_noop(updates) {
            // Nothing would change and the published snapshot already
            // reflects the writer state exactly: acknowledge without
            // logging, bumping the sequence, or publishing.
            exec.add_counter(self.names.noop_batches, 1);
            let (seq, generation) = (w.core.seq(), self.cell.generation());
            if let Some(log) = &mut w.events {
                log.noop(seq, generation, updates.len() as u64);
            }
            return Ok(Response {
                generation,
                value: BatchReport {
                    seq,
                    applied: 0,
                    skipped: updates.len(),
                    ..BatchReport::default()
                },
            });
        }
        // Everything past the fast path is real write work. One clock
        // reading times it as one `serve.apply` sample and stamps every
        // event's `duration_ns`; every failure comes back here, so its
        // fault event is written in one place.
        let started = Instant::now();
        let seq = w.core.seq() + 1;
        let result = self.write_batch(w, updates, exec, started);
        if let (Err(e), Some(log)) = (&result, &mut w.events) {
            let generation = self.cell.generation();
            log.fault_kept_old_snapshot(seq, generation, &e.to_string(), ns_since(started));
        }
        exec.observe("serve.apply", started.elapsed());
        result
    }

    /// The write pipeline past the no-op fast path: WAL append, apply,
    /// rebuild, publish, then a due checkpoint. Each failure returns at
    /// once through `?` and publishes nothing.
    fn write_batch(
        &self,
        w: &mut Writer,
        updates: &[EdgeUpdate],
        exec: &Executor,
        started: Instant,
    ) -> Result<Response<BatchReport>, ServeError> {
        if let Some(d) = &mut w.durable {
            // Log under the sequence number apply_batch is about to
            // stamp, so replay and live application agree exactly.
            match d.wal.append(w.core.seq() + 1, updates, exec) {
                Ok(bytes) => {
                    exec.add_counter(self.names.wal_appends, 1);
                    exec.add_counter(self.names.wal_bytes, bytes);
                }
                Err(e) => {
                    if matches!(e, WalError::Crashed(_)) {
                        d.poisoned = true;
                    }
                    exec.add_counter(self.names.wal_errors, 1);
                    return Err(e.into());
                }
            }
        }
        // From here until the swap succeeds, any failure leaves the
        // writer ahead of the published snapshot: the batch is applied
        // (and logged) but not served. A completed publish clears it.
        w.dirty = true;
        let report = w.core.try_apply_batch(updates, exec)?;
        exec.add_counter(self.names.batches, 1);
        let affected = (report.changed.len() + report.touched.len()) as u64;

        // Rebuild the hierarchy on the CSR the writer just merged, inside
        // the named rebuild region so deadlines, cancellation, and the
        // fault matrix govern it.
        let csr = Arc::clone(w.core.graph().csr());
        let cores = w.core.decomposition();
        let hcd = exec
            .region(self.names.region_rebuild)
            .try_map_chunks(1, |_, _| {
                exec.checkpoint()?;
                hcd_core::try_phcd(&csr, &cores, exec)
            })?
            .pop()
            .expect("a one-item region runs one chunk");

        let serving = self.cell.generation();
        if let Some(log) = &mut w.events {
            log.batch_applied(
                report.seq,
                serving,
                report.applied as u64,
                report.skipped as u64,
                affected,
                ns_since(started),
            );
        }
        let snapshot = Arc::new(Snapshot::from_parts(csr, cores, hcd, serving + 1));
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
        debug_assert_eq!(published, serving + 1);
        w.dirty = false;
        exec.add_counter(self.names.swaps, 1);
        if let Some(cache) = &self.cache {
            // Every pre-publication generation just became stale; the
            // sweep is what guarantees no reader can be handed an old
            // answer under the new generation's key.
            let evicted = cache.evict_stale(published);
            exec.add_counter(self.names.cache_evictions, evicted);
            exec.gauge(self.names.cache_bytes, cache.stats().bytes);
        }
        if let Some(log) = &mut w.events {
            log.published(report.seq, published, affected, ns_since(started));
        }

        if let Some(d) = &mut w.durable {
            // Saturating: recovery can restore a checkpoint newer than
            // the replayed WAL tail, leaving `last_checkpoint_seq`
            // ahead of the live sequence for a while.
            let due = d.cfg.checkpoint_every > 0
                && report.seq.saturating_sub(d.last_checkpoint_seq) >= d.cfg.checkpoint_every;
            if due {
                let ckpt_started = Instant::now();
                match checkpoint::write_checkpoint(&d.dir, report.seq, &snapshot.graph, exec) {
                    Ok(_) => {
                        d.last_checkpoint_seq = report.seq;
                        exec.add_counter(self.names.checkpoints, 1);
                        if let Some(log) = &mut w.events {
                            log.checkpoint(report.seq, published, ns_since(ckpt_started));
                        }
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
    use crate::testutil::TempDir;
    use hcd_graph::GraphBuilder;

    fn triangle_plus_tail() -> CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
            .build()
    }

    #[test]
    fn initial_snapshot_serves_generation_zero() {
        let exec = Executor::sequential();
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
            let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
        // Panic in the first region of the next batch: the one-worker
        // recompute's single `bz.peel` region.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Remove(3, 4)], &exec)
            .unwrap_err();
        assert!(matches!(err, ServeError::Par(ParError::Panicked { .. })));
        // Cancel in the same region of the batch after.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Cancel));
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
        let svc = HcdService::try_new(&triangle_plus_tail(), &exec).unwrap();
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
        // The batch recomputed coreness with the one-worker bin-sort
        // peel and rebuilt the hierarchy with PHCD on the same CSR.
        assert!(names.contains(&"bz.peel"), "{names:?}");
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
        let dir = TempDir::new("serve-test");
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
    }

    #[test]
    fn durable_service_logs_every_acknowledged_batch_and_checkpoints() {
        use crate::wal::{scan_wal_file, TailStatus};
        let dir = TempDir::new("serve-test");
        let exec = Executor::sequential().with_metrics();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 2,
        };
        let svc = HcdService::try_new_durable(&triangle_plus_tail(), &dir, cfg, &exec).unwrap();
        assert!(svc.is_durable());
        assert_eq!(svc.durability_dir().unwrap(), *dir);
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
        let dir = TempDir::new("serve-test");
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
    fn every_writer_exit_writes_its_events() {
        use crate::events::EventLog;
        use hcd_par::diff::Json;
        use hcd_par::{CrashPoint, Fault, FaultPlan};
        let exec = Executor::sequential().with_metrics().with_histograms();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1,
        };
        let durable = |dir: &Path| {
            let svc = HcdService::try_new_durable(&triangle_plus_tail(), dir, cfg, &exec).unwrap();
            let path = dir.join("events.jsonl");
            svc.attach_event_log(EventLog::create(&path).unwrap());
            (svc, path)
        };
        let events = |path: &Path| -> Vec<(String, u64, u64)> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(|line| {
                    let doc = Json::parse(line).unwrap();
                    let num = |key| doc.get(key).and_then(Json::as_f64).unwrap() as u64;
                    let kind = doc.get("kind").and_then(Json::as_str).unwrap();
                    (kind.to_string(), num("seq"), num("generation"))
                })
                .collect()
        };
        let count = |name| {
            exec.histogram_snapshots()
                .iter()
                .find(|h| h.name == name)
                .map_or(0, |h| h.count)
        };

        // One service runs every exit but the WAL crash, ending with the
        // checkpoint crash that poisons it.
        let (dir_a, dir_b) = (TempDir::new("serve-test"), TempDir::new("serve-test"));
        let (svc, path_a) = durable(&dir_a);
        // Count from here: the initial build ran the peel too.
        exec.take_metrics();
        svc.try_apply_batch(&[EdgeUpdate::Insert(0, 1)], &exec)
            .unwrap();
        // Region 0 is the one-worker recompute's `bz.peel`.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
        svc.try_apply_batch(&[EdgeUpdate::Insert(1, 3), EdgeUpdate::Remove(3, 4)], &exec)
            .unwrap_err();
        assert_eq!((count("bz.peel"), count("serve.rebuild")), (1, 0));
        // The writer is dirty, so an empty batch takes the full path but
        // changes no edge: no peel runs and region 0 is the rebuild.
        exec.set_fault_plan(FaultPlan::new().inject(0, 0, Fault::Panic));
        svc.try_apply_batch(&[], &exec).unwrap_err();
        assert_eq!((count("bz.peel"), count("serve.rebuild")), (1, 1));
        exec.clear_fault_plan();
        svc.try_apply_batch(&[EdgeUpdate::Insert(0, 4)], &exec)
            .unwrap();
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::CkptPreRename, 0));
        svc.try_apply_batch(&[EdgeUpdate::Insert(1, 4)], &exec)
            .unwrap();
        assert_eq!(exec.crashes_fired(), 1);

        let (svc, path_b) = durable(&dir_b);
        exec.set_fault_plan(FaultPlan::new().crash(CrashPoint::WalPreAppend, 0));
        let err = svc
            .try_apply_batch(&[EdgeUpdate::Insert(0, 3)], &exec)
            .unwrap_err();
        assert!(err.is_simulated_crash(), "{err}");
        exec.clear_fault_plan();

        let fault = "fault-kept-old-snapshot";
        let a = events(&path_a);
        let b = events(&path_b);
        let kinds: Vec<&str> = a.iter().chain(&b).map(|e| e.0.as_str()).collect();
        assert_eq!(
            kinds,
            [
                "no-op",
                fault,
                fault,
                "batch-applied",
                "published",
                "checkpoint",
                "batch-applied",
                "published",
                fault
            ]
        );
        // (seq, generation) of each event: faults name the batch they
        // dropped and the generation that kept serving.
        let stamps: Vec<(u64, u64)> = a.iter().chain(&b).map(|e| (e.1, e.2)).collect();
        assert_eq!(
            stamps,
            [
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (3, 1),
                (3, 1),
                (4, 1),
                (4, 2),
                (1, 0)
            ]
        );
        // Every write past the no-op fast path is one `serve.apply`
        // sample, whichever way it left.
        assert_eq!(count("serve.apply"), 5);
        let m = exec.take_metrics();
        let counter = |name| m.get_counter(name).map_or(0, |c| c.value);
        let tally = |kind| kinds.iter().filter(|&&k| k == kind).count() as u64;
        assert_eq!(tally("published"), counter("serve.swaps"));
        assert_eq!(tally("no-op"), counter("serve.noop_batches"));
        assert_eq!(tally("checkpoint"), counter("serve.checkpoints"));
    }

    #[test]
    fn checkpoint_crash_still_acknowledges_the_batch() {
        use hcd_par::{CrashPoint, FaultPlan};
        let dir = TempDir::new("serve-test");
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
