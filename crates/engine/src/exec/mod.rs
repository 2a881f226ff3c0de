//! The reliable distributed query executor (paper Sections V-A to V-D).
//!
//! [`QueryExecutor`] runs a [`PhysicalPlan`] over the versioned store,
//! routing every inter-node byte through the deterministic simulator so
//! that running time and traffic are measured, not estimated.  Execution
//! is event-driven and push-based:
//!
//! 1. The initiator disseminates the plan plus a routing snapshot to every
//!    participant (paper Section V-C: queries run against an immutable
//!    snapshot taken at initiation).
//! 2. Each participant scans its partition of every leaf relation and
//!    pushes the tuples through its local operator pipeline.  `Rehash` and
//!    `Ship` buffer rows per destination and flush them as compressed
//!    batches ([`crate::batch::TupleBatch`]) through the simulator.
//! 3. Delivered batches continue through the receiving node's pipeline
//!    above the exchange.  When a node has exhausted every input feeding
//!    an exchange it closes the segment: blocking aggregates emit their
//!    unemitted sub-groups, pending buffers flush, and an end-of-stream
//!    marker goes to every destination.  The query completes when the
//!    initiator's `Output` segment closes.
//!
//! ## Failure and recovery (Section V-D)
//!
//! A [`FailureSpec`] kills one node at a virtual instant: the simulator
//! drops its in-flight and future messages, so the end-of-stream cascade
//! stalls and the event queue quiesces with the query incomplete.  The
//! executor then recovers under the configured [`RecoveryStrategy`]:
//!
//! * **Restart** — discard all operator state, reassign the failed node's
//!   ranges to its surviving replica holders, and re-run the query from
//!   scratch on the survivors.
//! * **Incremental** — the four-stage protocol: (1) derive the recovery
//!   routing snapshot; (2) purge exactly the tainted state — tuples,
//!   join rows and aggregate sub-groups whose provenance intersects the
//!   failed set; (3) bump the phase and re-run leaf scans over the
//!   *inherited* ranges only; (4) re-transmit, from the rehash/ship output
//!   caches, the untainted rows that had been sent to the failed node —
//!   re-routed to the heirs under the recovery snapshot.  The result is
//!   correct, complete and duplicate-free without redoing unaffected work.
//!
//! The answer comes back in a [`QueryReport`] together with the simulated
//! running time and the exact per-link traffic counts — the quantities
//! plotted in the paper's figures.
//!
//! ## Module layout
//!
//! This module is the thin driver: configuration ([`EngineConfig`],
//! [`FailureSpec`], [`RecoveryStrategy`]) and the [`QueryExecutor`] entry
//! points.  The layers underneath have one file each, with the `Runtime`
//! state machine (defined in `pipeline`) threading through them:
//!
//! * `pipeline` — per-node operator pipeline instantiation, the
//!   push loop, and the end-of-stream segment-closure cascade;
//! * `scan` — leaf scans over the versioned store (distributed,
//!   replicated and covering-index);
//! * `exchange` — rehash/ship batching, routing-snapshot consultation,
//!   the recovery output caches (`ExchangeLayer`), and the
//!   session-tagged wire envelope ([`SessionId`]);
//! * `session` — the per-session handle onto a simulator shared by
//!   several concurrent queries (shared-clock multiplexing);
//! * `scheduler` — the multi-query [`SessionScheduler`]: open-loop
//!   arrivals, admission control over a bounded run queue with load
//!   shedding, N runtimes interleaved over one simulator, per-session
//!   recovery, [`WorkloadReport`] assembly with tail-latency and
//!   SLO-miss accounting;
//! * `cache` — the epoch-keyed [`ResultCache`]: complete answers
//!   memoized under `(fingerprint, epoch)` keys with LRU or cost-aware
//!   eviction — immutable epochs mean no invalidation logic at all;
//! * `ivm` — incremental view maintenance: maintenance-plan rewriting,
//!   [`MaterializedView`] state, and the [`refresh_view`] driver that
//!   pushes signed epoch deltas through the pipeline as scheduler
//!   sessions;
//! * `registry` — the standing-query subscription layer
//!   ([`ViewRegistry`]): many registered views kept exact by one shared
//!   maintenance workload per epoch — deltas derived once per changed
//!   relation, colliding delta legs executed once and forked at the
//!   initiator — with per-subscriber signed result diffs;
//! * `recovery` — the Restart and Incremental strategies;
//! * `report` — [`QueryReport`] assembly and per-link traffic
//!   accounting (`RunStats`).

pub mod cache;
mod exchange;
pub mod ivm;
mod pipeline;
mod recovery;
pub mod registry;
mod report;
mod scan;
pub mod scheduler;
mod session;

#[cfg(test)]
mod tests;

use crate::plan::PhysicalPlan;
use orchestra_common::{Epoch, NodeId, NodeSet, OrchestraError, Result};
use orchestra_simnet::{ClusterProfile, SimTime};
use orchestra_storage::DistributedStorage;
use orchestra_substrate::RoutingTable;

use pipeline::Runtime;
use session::SessionSim;

pub use cache::{CacheStats, CachedAnswer, EntryStats, EvictionPolicy, ResultCache};
pub use exchange::SessionId;
pub use ivm::{
    refresh_view, FoldMode, MaintenanceLeg, MaintenanceMode, MaintenancePlan, MaintenanceRun,
    MaterializedView, ScanOverrides,
};
pub use registry::{RegistryRefresh, ViewDiff, ViewRegistry};
pub use report::{QueryReport, WallClock};
pub use scheduler::{
    AdmissionPolicy, QuerySession, SchedulerConfig, SessionReport, SessionScheduler, ShedEvent,
    WorkloadReport,
};

/// How the executor reacts to a node failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Throw away all state and re-run the query on the survivors.
    Restart,
    /// Purge tainted state, rescan inherited ranges, re-transmit cached
    /// output — the paper's low-overhead strategy.
    Incremental,
}

/// Configuration of the query engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Timing and bandwidth model of the simulated cluster.
    pub profile: ClusterProfile,
    /// Tuples buffered per destination before a batch is flushed.
    pub batch_size: usize,
    /// Dictionary-compress batches before computing their wire size.
    pub compress: bool,
    /// Recovery support: carry provenance tags on the wire and keep
    /// rehash/ship output caches.  Adds the paper's "at most 2%" traffic
    /// overhead; required for [`RecoveryStrategy::Incremental`].
    pub recovery: bool,
    /// Strategy applied when a failure interrupts the query.
    pub strategy: RecoveryStrategy,
    /// Upper bound on recovery rounds before the query is abandoned.
    pub max_recovery_rounds: u32,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            profile: ClusterProfile::lan_cluster(),
            batch_size: 256,
            compress: true,
            recovery: true,
            strategy: RecoveryStrategy::Incremental,
            max_recovery_rounds: 4,
        }
    }
}

/// A failure to inject: `node` dies at virtual time `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureSpec {
    /// The node that fails.
    pub node: NodeId,
    /// The virtual instant at which it fails.
    pub at: SimTime,
}

impl FailureSpec {
    /// Kill `node` at virtual time `at`.
    pub fn at_time(node: NodeId, at: SimTime) -> FailureSpec {
        FailureSpec { node, at }
    }
}

/// The storage a run executes against: the caller's store for normal
/// runs, or an owned scratch copy for failure runs so the dead node's
/// local state can be made unreachable at recovery time without
/// disturbing the caller.  A scratch copy shares the caller's tuple maps
/// and index pages copy-on-write, so making one costs O(nodes +
/// relations + pages), not O(tuples).  Normal runs still borrow: only a
/// borrowed store shares the caller's delta memo, which keeps delta
/// derivation at one per interval across every consumer.
enum StorageHandle<'a> {
    Borrowed(&'a DistributedStorage),
    Scratch(Box<DistributedStorage>),
}

impl StorageHandle<'_> {
    fn get(&self) -> &DistributedStorage {
        match self {
            StorageHandle::Borrowed(s) => s,
            StorageHandle::Scratch(s) => s,
        }
    }
}

/// The reliable distributed query executor.
pub struct QueryExecutor<'a> {
    storage: &'a DistributedStorage,
    config: EngineConfig,
}

impl<'a> QueryExecutor<'a> {
    /// Build an executor over `storage` with `config`.
    pub fn new(storage: &'a DistributedStorage, config: EngineConfig) -> QueryExecutor<'a> {
        QueryExecutor { storage, config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Execute `plan` against the version of the data visible at `epoch`,
    /// initiated by `initiator`, with no failure injected.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
    ) -> Result<QueryReport> {
        let sim = SessionSim::exclusive(self.storage.routing(), self.config.profile);
        Runtime::new(
            StorageHandle::Borrowed(self.storage),
            &self.config,
            plan,
            epoch,
            initiator,
            sim,
        )?
        .run()
    }

    /// Execute `plan` while killing `failure.node` at `failure.at`.
    ///
    /// The caller's storage is not disturbed: the run executes against a
    /// scratch copy that behaves exactly like the original until the
    /// failure is detected; recovery then marks the node failed so
    /// rescans cannot read the dead node's local state.  The copy shares
    /// the caller's data copy-on-write, so it is cheap to make and drop.
    pub fn execute_with_failure(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
        failure: FailureSpec,
    ) -> Result<QueryReport> {
        let table = self.storage.routing();
        if !table.contains_node(failure.node) {
            return Err(OrchestraError::Execution(format!(
                "failure target {} is not a member of the routing table",
                failure.node
            )));
        }
        let mut sim = SessionSim::exclusive(table, self.config.profile);
        sim.fail_node(failure.node, failure.at);
        let scratch = Box::new(self.storage.clone());
        Runtime::new(
            StorageHandle::Scratch(scratch),
            &self.config,
            plan,
            epoch,
            initiator,
            sim,
        )?
        .run()
    }

    /// Execute `plan` against a possibly **stale** routing snapshot — the
    /// view a gossip-informed initiator derived locally, which may still
    /// list nodes in `departed` that are in truth already gone.
    ///
    /// The run plans and routes strictly by `snapshot`, while the
    /// simulated network reflects the truth: every node in `departed` is
    /// dead from the first instant, so messages addressed to it drop and
    /// its local state is unreachable.  If the snapshot never touches a
    /// departed node the query completes normally; if it does, the
    /// end-of-stream cascade stalls and the ordinary Restart/Incremental
    /// recovery reassigns the departed ranges — exactly the machinery a
    /// same-epoch failure would invoke.  Staleness therefore costs
    /// recovery time, never correctness.
    ///
    /// Errors if the initiator itself is in `departed` (a dead node
    /// cannot initiate) or is absent from the snapshot.
    pub fn execute_with_stale_snapshot(
        &self,
        plan: &PhysicalPlan,
        epoch: Epoch,
        initiator: NodeId,
        snapshot: &RoutingTable,
        departed: &NodeSet,
    ) -> Result<QueryReport> {
        if departed.contains(initiator) {
            return Err(OrchestraError::Execution(format!(
                "initiator {initiator} has departed and cannot run the query"
            )));
        }
        let mut sim = SessionSim::exclusive(snapshot, self.config.profile);
        for node in departed.iter() {
            // A departed node the snapshot no longer lists cannot be
            // addressed at all (the simulator is sized to the snapshot's
            // members), so only snapshot members need killing.
            if snapshot.contains_node(node) {
                sim.fail_node(node, SimTime::ZERO);
            }
        }
        let mut scratch = Box::new(self.storage.clone());
        scratch.set_routing(snapshot.clone());
        // The departed nodes' local state is unreachable from the first
        // instant: storage lookups must fail over to surviving replicas
        // rather than pretend to read a dead node's disk.
        for node in departed.iter() {
            scratch.mark_failed(node);
        }
        Runtime::new(
            StorageHandle::Scratch(scratch),
            &self.config,
            plan,
            epoch,
            initiator,
            sim,
        )?
        .run()
    }
}
