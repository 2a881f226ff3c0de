//! Seeded inputs of the three workloads.
//!
//! One seed drives both the data generators (every catalogue workload
//! and the epoch stream take it) and the op sequence.  A workload has a
//! small set of *distinct ops*; a *round* is [`POSITIONS`] op positions,
//! each distinct op filling the same share of them: in a seeded order
//! for the reads, as successive replays of the stream for
//! publish-and-maintain.
//! A run repeats whole rounds, so every distinct op runs many times, and
//! the mix is the same on every seed: only the order, the victims, the
//! instants and the data change.  Every repeat of a distinct op must
//! reproduce its simulated figures exactly, and its host time is the
//! median repeat (see `report`).

use orchestra_core::common::rng::{self, StdRng};
use orchestra_core::{
    epoch_stream, ConcatenateScenario, CopyScenario, EpochSpec, EpochStream, NodeId, SimTime,
    TpchQuery, TpchWorkload, Workload,
};

/// Simulated cluster size.
pub const NODES: u16 = 8;
/// The node that initiates every query and maintenance session.
pub const INITIATOR: NodeId = NodeId(0);
/// Nominal row count of every catalogue workload (`lineitem` rows for
/// TPC-H); see [`rows`].
pub const ROWS: usize = 6000;
/// Op positions in one round.
pub const POSITIONS: usize = 200;
/// Failure scenarios per query kind: its failure window is cut into this
/// many equal strata, one instant drawn uniformly in each.
pub const STRATA: usize = 5;
/// Epochs of the publish-and-maintain stream.  A round replays it
/// `POSITIONS / EPOCHS` times, each replay from the primed deployment.
pub const EPOCHS: usize = 25;
/// Churn of one published epoch, per TPC-H relation: 27 touched rows
/// each, 81 in all, about 1% of the trio's ~8,100 base rows.
pub const CHURN: EpochSpec = EpochSpec {
    inserts: 9,
    modifies: 9,
    deletes: 9,
};
/// The failure instant lies in this share of the query's failure-free
/// simulated time, in percent.
pub const FAILURE_WINDOW_PCT: (u64, u64) = (5, 95);
/// Number of query kinds in the catalogue.
pub const QUERIES: usize = 5;

/// The row count `seed` deploys: within 1% of [`ROWS`], so that the
/// simulated figures of every query, not only their data, depend on the
/// seed.
pub fn rows(seed: u64) -> usize {
    let spread = ROWS / 100;
    ROWS - spread + rng::seeded_stream(seed, "perfbench-rows").random_range(0..=2 * spread)
}

/// The five catalogue workloads every workload deploys, in query-kind
/// order: STBenchmark `Copy` and `Concatenate`, then TPC-H Q1, Q3, Q6.
pub fn catalogue(seed: u64, rows: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(CopyScenario { seed, rows }),
        Box::new(ConcatenateScenario { seed, rows }),
        Box::new(TpchWorkload::scaled(TpchQuery::Q1, seed, rows)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q3, seed, rows)),
        Box::new(TpchWorkload::scaled(TpchQuery::Q6, seed, rows)),
    ]
}

/// One op of the mid-query failure workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureOp {
    /// Catalogue index of the query.
    pub query: usize,
    /// The node killed mid-query; never [`INITIATOR`].
    pub victim: NodeId,
    /// The simulated instant it dies.
    pub at: SimTime,
}

/// A round's order over `distinct` ops: each op index fills
/// `POSITIONS / distinct` positions, shuffled by `seed`.
pub fn round_order(seed: u64, distinct: usize, label: &str) -> Vec<usize> {
    assert!(
        distinct > 0 && POSITIONS.is_multiple_of(distinct),
        "{distinct} distinct ops must divide the round evenly"
    );
    let mut order: Vec<usize> = (0..distinct)
        .flat_map(|op| std::iter::repeat_n(op, POSITIONS / distinct))
        .collect();
    shuffle(&mut order, &mut rng::seeded_stream(seed, label));
    order
}

/// The ad-hoc read round: catalogue indices in a seeded order.
pub fn read_round(seed: u64) -> Vec<usize> {
    round_order(seed, QUERIES, "perfbench-read-round")
}

/// The distinct failure scenarios over queries whose failure-free
/// simulated times are `free` (catalogue order): query `q`'s `j`-th
/// instant is uniform within the `j`-th of [`STRATA`] equal strata of
/// its failure window, and victims are uniform over the non-initiator
/// nodes.
pub fn failure_ops(seed: u64, free: &[SimTime]) -> Vec<FailureOp> {
    assert_eq!(free.len(), QUERIES, "one failure-free time per query kind");
    let mut r = rng::seeded_stream(seed, "perfbench-failure-ops");
    let candidates: Vec<NodeId> = (0..NODES).map(NodeId).filter(|n| *n != INITIATOR).collect();
    let mut ops = Vec::with_capacity(QUERIES * STRATA);
    for (query, time) in free.iter().enumerate() {
        let (lo, hi) = failure_window(*time);
        for stratum in 0..STRATA {
            let offset = (hi - lo) as f64 * (stratum as f64 + r.random_f64()) / STRATA as f64;
            let at = SimTime::from_micros((lo + offset as u64).min(hi));
            let victim = candidates[r.random_range(0..candidates.len())];
            ops.push(FailureOp { query, victim, at });
        }
    }
    ops
}

/// The mid-query failure round: indices into [`failure_ops`] in a
/// seeded order.
pub fn failure_round(seed: u64) -> Vec<usize> {
    round_order(seed, QUERIES * STRATA, "perfbench-failure-round")
}

/// The window, in simulated microseconds, that failure instants of a
/// query with failure-free time `free` are drawn from.
pub fn failure_window(free: SimTime) -> (u64, u64) {
    let us = free.as_micros();
    let (lo, hi) = FAILURE_WINDOW_PCT;
    ((us * lo).div_ceil(100), us * hi / 100)
}

/// The publish-and-maintain stream: [`EPOCHS`] batches of [`CHURN`],
/// donated by TPC-H Q3 at `rows` lineitems.
pub fn publish_stream(seed: u64, rows: usize) -> orchestra_core::common::Result<EpochStream> {
    let donor = TpchWorkload::scaled(TpchQuery::Q3, seed, rows);
    epoch_stream(&donor, seed, &[CHURN; EPOCHS])
}

fn shuffle<T>(items: &mut [T], r: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = r.random_range(0..i + 1);
        items.swap(i, j);
    }
}
