//! One-stop imports for the common workflow:
//! build graph → core decomposition → HCD → subgraph search.

pub use hcd_graph::{CsrGraph, GraphBuilder, InducedSubgraph, VertexId};

pub use hcd_unionfind::{ConcurrentPivotUnionFind, PivotUnionFind, UfCounts, UnionFindPivot};

pub use hcd_decomp::{
    core_decomposition, pkc_core_decomposition, try_core_decomposition, try_pkc_core_decomposition,
    CoreDecomposition,
};

pub use hcd_core::phcd::try_phcd_with_ranks;
pub use hcd_core::query::{
    core_containing, core_node_at, cores_per_level, hierarchy_position, in_k_core, same_k_core,
};
pub use hcd_core::{lcps, naive_hcd, phcd, try_phcd, Hcd, TreeNode, VertexRanks};

pub use hcd_par::{
    diff_metrics, intern, BuildError, CancelToken, CounterValue, CrashPoint, Deadline, DiffEntry,
    DiffOptions, DiffReport, EventKind, Executor, Fault, FaultPlan, HistogramSnapshot, ParError,
    RegionMetrics, RunMetrics, Snapshot, SnapshotHistogram, Trace, TraceEvent, CHECKPOINT_STRIDE,
    METRICS_SCHEMA, TRACE_SCHEMA,
};

pub use hcd_search::bestk::{best_k, core_set_scores, try_best_k, try_core_set_scores};
pub use hcd_search::bks::bks_scores;
pub use hcd_search::densest::{coreapp, opt_d, pbks_d};
pub use hcd_search::pbks::pbks_scores;
pub use hcd_search::{
    bks, max_clique, pbks, try_pbks, try_pbks_on, try_pbks_scores, BestCore, Metric, MetricKind,
    SearchContext,
};

pub use hcd_flow::densest_subgraph;

pub use hcd_dynamic::{BatchReport, DynamicCore, DynamicGraph, EdgeUpdate};

// `hcd_serve::Snapshot` is aliased to avoid colliding with the metrics
// snapshot exported from `hcd_par`.
pub use hcd_serve::{
    run_open_loop, run_workload, run_workload_with, AdmissionConfig, BatchAnswers, CacheConfig,
    CacheKey, CacheStats, CachedAnswer, CheckpointError, DrainReport, DurabilityConfig, EventLog,
    FsyncPolicy, HcdService, IngressQueue, OpenLoopConfig, OpenLoopSummary, Query, QueryAnswer,
    QueryCache, RecoverError, RecoveryReport, RegistryError, Rejected, Response, ServeError,
    ServiceRegistry, Snapshot as ServeSnapshot, TailStatus, TenantConfig, WalError, WalScan,
    WalWriter, WorkloadConfig, WorkloadSummary, EVENTS_SCHEMA, WAL_FILE_NAME,
};

pub use hcd_truss::{
    naive_htd, phtd, truss_decomposition, try_phtd, EdgeIndex, Htd, TrussDecomposition,
};

pub use hcd_datasets::{
    barabasi_albert, clique_overlay, core_tree, gnp, rmat, watts_strogatz, Dataset, Scale, DATASETS,
};
