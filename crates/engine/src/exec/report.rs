//! Query-report assembly and traffic accounting.
//!
//! [`RunStats`] accumulates the executor-side counters (scan volumes,
//! recovery work, round count) while the simulator keeps the ground-truth
//! per-link traffic; `Runtime::into_report` folds both into the
//! [`QueryReport`] the caller receives — the quantities plotted in the
//! paper's figures.

use super::pipeline::Runtime;
use orchestra_common::{NodeId, Tuple};
use orchestra_simnet::SimTime;

/// Executor-side counters of one run, folded into the [`QueryReport`].
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct RunStats {
    /// Completed recovery rounds.
    pub(super) rounds: u32,
    /// Index pages consulted by all scans.
    pub(super) pages_read: usize,
    /// Tuple versions fetched by all scans.
    pub(super) tuples_scanned: usize,
    /// Tuple fetches that had to leave the scanning node.
    pub(super) remote_lookups: usize,
    /// Rows and sub-groups purged as tainted (incremental recovery).
    pub(super) purged: usize,
    /// Rows re-transmitted from output caches (incremental recovery).
    pub(super) retransmitted: usize,
    /// Host wall-clock: rows processed per operator class.
    pub(super) op_rows: [u64; 8],
    /// Host wall-clock: nanoseconds of operator compute per class.
    pub(super) op_nanos: [u64; 8],
}

/// Host wall-clock cost of one run, broken down by operator class.
///
/// Unlike every other figure in [`QueryReport`], these measure the real
/// machine the simulation ran on — compute time inside the engine's
/// operators, excluding the simulated network.  They are nondeterministic
/// by nature, so the bench binary never prints them; the repository
/// benchmark (`perfbench --trace 1`) reports them per operator class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallClock {
    /// Rows processed per operator class, indexed as [`WallClock::NAMES`].
    pub op_rows: [u64; 8],
    /// Nanoseconds of operator compute per class.
    pub op_nanos: [u64; 8],
}

impl WallClock {
    /// Labels of the operator classes, in slot order.
    pub const NAMES: [&'static str; 8] = [
        "select",
        "project",
        "compute",
        "join",
        "aggregate",
        "exchange",
        "scan",
        "output",
    ];
}

/// The answer set and execution measurements of one query run.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The final answer rows, sorted for deterministic comparison.
    pub rows: Vec<Tuple>,
    /// The answer rows with their delta signs, sorted.  Ordinary queries
    /// only ever produce `+1` rows; maintenance sessions (`exec::ivm`)
    /// read the signed form, where a `-1` row retracts state from the
    /// materialized view being maintained.
    pub signed_rows: Vec<(Tuple, i8)>,
    /// Simulated wall-clock running time of the query (including any
    /// recovery rounds).
    pub running_time: SimTime,
    /// Total bytes shipped between distinct nodes.
    pub total_bytes: u64,
    /// Total inter-node messages.
    pub total_messages: u64,
    /// Exact per-directed-link byte counts, in `(src, dst)` order.
    pub link_traffic: Vec<((NodeId, NodeId), u64)>,
    /// Messages the simulator dropped because a party had failed.
    pub dropped_messages: u64,
    /// Did a recovery round run?
    pub recovered: bool,
    /// Number of execution phases (1 for a failure-free run).
    pub phases: u32,
    /// Index pages consulted by all scans.
    pub pages_read: usize,
    /// Tuple versions fetched by all scans.
    pub tuples_scanned: usize,
    /// Tuple fetches that had to leave the scanning node.
    pub remote_lookups: usize,
    /// Rows and sub-groups purged as tainted (incremental recovery).
    pub purged: usize,
    /// Rows re-transmitted from output caches (incremental recovery).
    pub retransmitted: usize,
    /// Host wall-clock operator costs (nondeterministic; excluded from
    /// the determinism gates).
    pub wall_clock: WallClock,
}

impl QueryReport {
    /// The measured output cardinality — the answer's row count.  With
    /// the predicted root cardinality from the optimizer's cost walk,
    /// this is the predicted-vs-actual pair the adaptive feedback loop
    /// folds into its calibration.
    pub fn output_rows(&self) -> usize {
        self.rows.len()
    }

    /// Measured rows processed per operator class (slot order
    /// [`WallClock::NAMES`]).  Unlike the nanosecond timings beside
    /// them, these counts are a function of the data alone and are
    /// deterministic across runs.
    pub fn operator_rows(&self) -> &[u64; 8] {
        &self.wall_clock.op_rows
    }
}

impl Runtime<'_> {
    pub(super) fn into_report(self) -> QueryReport {
        let out = self.output.into_columnar();
        let mut signed_rows: Vec<(Tuple, i8)> = (0..out.len())
            .map(|i| (out.tuple_at(i), out.sign_at(i)))
            .collect();
        signed_rows.sort();
        let mut rows: Vec<Tuple> = signed_rows.iter().map(|(t, _)| t.clone()).collect();
        rows.sort();
        let stats = self.sim.stats();
        QueryReport {
            rows,
            signed_rows,
            running_time: self.finish_time,
            total_bytes: stats.total_bytes(),
            total_messages: stats.total_messages(),
            link_traffic: stats.links().collect(),
            dropped_messages: self.sim.dropped_messages(),
            recovered: self.stats.rounds > 0,
            phases: self.stats.rounds + 1,
            pages_read: self.stats.pages_read,
            tuples_scanned: self.stats.tuples_scanned,
            remote_lookups: self.stats.remote_lookups,
            purged: self.stats.purged,
            retransmitted: self.stats.retransmitted,
            wall_clock: WallClock {
                op_rows: self.stats.op_rows,
                op_nanos: self.stats.op_nanos,
            },
        }
    }
}
