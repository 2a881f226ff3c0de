//! # orchestra-engine
//!
//! The reliable distributed query execution engine of Section V of the
//! paper, running over the versioned storage layer (`orchestra-storage`),
//! the hashing substrate (`orchestra-substrate`) and the simulated cluster
//! (`orchestra-simnet`).
//!
//! ## Execution model
//!
//! Queries are physical operator trees ([`plan::PhysicalPlan`]) built from
//! the operators of Table I: distributed and covering-index scans, select,
//! project, compute-function, pipelined (symmetric) hash join, hash
//! aggregation with re-aggregation, rehash and ship.  Execution is
//! push-based: every participant runs an instance of every operator below
//! the `Ship` boundary; leaf scans read that node's partition of the
//! versioned store and push tuples through the local pipeline; `Rehash`
//! repartitions tuples by hashing a column subset and consulting the
//! routing snapshot; `Ship` forwards results to the query initiator, which
//! runs the operators above the boundary (final aggregation, output
//! collection).  Tuples are batched per destination and
//! dictionary-compressed before crossing the (simulated) wire
//! ([`batch`]).
//!
//! Between operators the data path is columnar: batches travel as typed
//! column vectors with interned strings and parallel sign / provenance /
//! phase tag columns, and the operators are vectorized over that layout.
//! Simulated figures are bit-identical to the row-at-a-time engine this
//! layout replaced; host CPU cost is exposed per operator class by
//! [`exec::QueryReport::wall_clock`].
//!
//! ## Reliability
//!
//! Every in-flight tuple carries a provenance tag — the set of nodes that
//! processed it or any tuple used to derive it — and a phase number
//! ([`provenance`]).  On node failure the executor supports both
//! strategies of Section V-D ([`exec::RecoveryStrategy`]):
//!
//! * **Restart** — discard all state, reassign the failed node's ranges to
//!   its replica holders, and re-run the query on the survivors.
//! * **Incremental** — purge exactly the tainted state (tuples and
//!   aggregate sub-groups whose provenance intersects the failed set),
//!   bump the phase, re-run leaf scans over the inherited ranges only, and
//!   re-transmit from the rehash/ship output caches the tuples that had
//!   been sent to the failed node — guaranteeing a correct, complete and
//!   duplicate-free answer without redoing unaffected work.
//!
//! The executor returns both the answer set and an execution report
//! ([`exec::QueryReport`]) with simulated running time and exact traffic
//! counts — the quantities plotted in the paper's figures.
//!
//! ## Layout
//!
//! The executor is a layered module tree under [`exec`]: `exec/mod.rs`
//! holds the public driver ([`exec::QueryExecutor`] and its
//! configuration), `exec/pipeline.rs` the per-node operator pipelines and
//! the push loop, `exec/scan.rs` the leaf scans over the versioned store,
//! `exec/exchange.rs` the rehash/ship batching and recovery output
//! caches, `exec/recovery.rs` the two Section V-D strategies, and
//! `exec/report.rs` the report assembly.  The building blocks the layers
//! share live beside them: [`plan`], [`expr`], [`ops`], [`batch`] and
//! [`provenance`].

pub mod batch;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod plan;
pub mod provenance;

pub use exec::{
    refresh_view, AdmissionPolicy, CacheStats, CachedAnswer, EngineConfig, EntryStats,
    EvictionPolicy, FailureSpec, FoldMode, MaintenanceLeg, MaintenanceMode, MaintenancePlan,
    MaintenanceRun, MaterializedView, QueryExecutor, QueryReport, QuerySession, RecoveryStrategy,
    RegistryRefresh, ResultCache, ScanOverrides, SchedulerConfig, SessionId, SessionReport,
    SessionScheduler, ShedEvent, ViewDiff, ViewRegistry, WallClock, WorkloadReport,
};
pub use expr::{AggFunc, CmpOp, Predicate, ScalarExpr};
pub use ops::{ExtremumKind, ExtremumSketch, EXTREMUM_SKETCH_K};
pub use plan::{AggMode, OpId, Operator, OperatorKind, PhysicalPlan, PlanBuilder};
pub use provenance::{Phase, TaggedTuple};
