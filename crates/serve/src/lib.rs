//! Snapshot-isolated HCD query serving (the paper's §VII use case,
//! productionized).
//!
//! The HCD is positioned as a *reusable index* for repeated core and
//! community queries; this crate is the first step from "reproduce the
//! construction" to "serve the index":
//!
//! * [`Snapshot`] — one immutable, internally consistent index state
//!   (`CsrGraph` + `CoreDecomposition` + `Hcd`), stamped with the
//!   generation it was published at;
//! * [`HcdService`] — concurrent readers answer [`Query`]s against the
//!   current snapshot (loaded with one `Arc` clone from an
//!   `hcd_par::EpochCell`) while a single writer applies **batched**
//!   edge updates through `hcd_dynamic::DynamicCore` (merged into the
//!   next CSR, which the published snapshot shares), rebuilds the
//!   hierarchy, and publishes the next snapshot with an atomic epoch
//!   swap. Readers never wait on a rebuild and never observe a torn
//!   index; every response carries the generation it was answered from;
//! * batched execution — [`HcdService::try_query_batch`]
//!   answers many independent queries in one parallel region
//!   (`serve.query.batch`), all from the *same* snapshot;
//! * [`workload`] — the seeded mixed read/update workload behind
//!   `hcd-cli serve-bench`;
//! * **durability** ([`wal`], [`checkpoint`], [`recover`]) — an opt-in
//!   crash-safety layer: every acknowledged batch is appended to a
//!   checksummed write-ahead log *before* it is applied, snapshot
//!   checkpoints are written atomically in the checksummed v2 binary
//!   format, and [`HcdService::recover`] rebuilds the exact
//!   last-acknowledged state from the newest valid checkpoint plus the
//!   WAL suffix — torn tails (kill-mid-write) are truncated with a
//!   warning, mid-log corruption is refused. The `Wal*`/`Ckpt*`
//!   [`hcd_par::CrashPoint`]s let the kill-and-recover harness die at
//!   every IO boundary deterministically.
//!
//! Every query and rebuild runs through the shared `Executor`, so the
//! full observability and failure machinery (metrics regions
//! `serve.query.*` / `serve.rebuild`, each also a latency histogram
//! when histograms are armed, counters `serve.queries`,
//! `serve.batches`, `serve.swaps`, `serve.stale_reads`, deadlines,
//! cancellation, fault injection) applies to the service for free. A
//! failed rebuild (panic, cancellation, deadline) never unpublishes
//! anything: the service keeps serving the previous snapshot, and the
//! pending graph state is picked up by the next successful publication.

pub mod admission;
pub mod cache;
pub mod checkpoint;
pub mod events;
pub mod ingress;
pub mod openloop;
#[cfg(test)]
mod proptests;
pub mod recover;
pub mod registry;
pub mod service;
pub mod snapshot;
pub mod wal;
pub mod workload;

pub use admission::{AdmissionConfig, Rejected};
pub use cache::{CacheConfig, CacheKey, CacheStats, CachedAnswer, QueryCache};
pub use checkpoint::CheckpointError;
pub use events::{EventLog, EVENTS_SCHEMA};
pub use ingress::{DrainReport, IngressQueue};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopSummary};
pub use recover::{RecoverError, RecoveryReport};
pub use registry::{RegistryError, ServiceRegistry, TenantConfig};
pub use service::{
    BatchAnswers, DurabilityConfig, HcdService, Query, QueryAnswer, Response, ServeError,
};
pub use snapshot::Snapshot;
pub use wal::{FsyncPolicy, TailStatus, WalError, WalScan, WalWriter, WAL_FILE_NAME};
pub use workload::{run_workload, run_workload_with, WorkloadConfig, WorkloadSummary};
