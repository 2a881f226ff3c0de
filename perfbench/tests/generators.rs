//! The benchmark's seeded inputs: same seed, same ops; another seed,
//! other ops; never the initiator as victim; every failure instant
//! inside its query's failure-free window.

use orchestra_core::SimTime;
use perfbench::gen::{
    failure_ops, failure_round, failure_window, publish_stream, read_round, rows, FailureOp,
    EPOCHS, INITIATOR, NODES, POSITIONS, QUERIES, ROWS, STRATA,
};

/// Failure-free times shaped like the deployed catalogue's.
fn free_times() -> Vec<SimTime> {
    [9_873, 10_828, 12_095, 11_402, 10_311]
        .map(SimTime::from_micros)
        .to_vec()
}

/// The failure round as the ops it runs, position by position.
fn failure_sequence(seed: u64) -> Vec<FailureOp> {
    let ops = failure_ops(seed, &free_times());
    failure_round(seed).into_iter().map(|i| ops[i]).collect()
}

#[test]
fn the_same_seed_yields_the_same_ops() {
    assert_eq!(read_round(7), read_round(7));
    assert_eq!(failure_sequence(7), failure_sequence(7));
    let (a, b) = (
        publish_stream(7, 240).unwrap(),
        publish_stream(7, 240).unwrap(),
    );
    assert_eq!(a.len(), EPOCHS);
    for i in 0..a.len() {
        assert_eq!(a.batch(i), b.batch(i), "epoch {i}");
    }
}

#[test]
fn row_counts_stay_within_one_percent_and_follow_the_seed() {
    let counts: Vec<usize> = (0..20).map(rows).collect();
    assert_eq!(counts, (0..20).map(rows).collect::<Vec<_>>());
    for n in &counts {
        assert!(ROWS * 99 <= n * 100 && n * 100 <= ROWS * 101, "{n}");
    }
    assert!(counts.iter().any(|n| *n != counts[0]), "{counts:?}");
}

#[test]
fn another_seed_yields_other_ops() {
    assert_ne!(read_round(7), read_round(8));
    let (a, b) = (failure_sequence(7), failure_sequence(8));
    let field = |ops: &[FailureOp], f: fn(&FailureOp) -> u64| ops.iter().map(f).collect::<Vec<_>>();
    assert_ne!(field(&a, |o| o.query as u64), field(&b, |o| o.query as u64));
    assert_ne!(
        field(&a, |o| o.victim.index() as u64),
        field(&b, |o| o.victim.index() as u64)
    );
    assert_ne!(
        field(&a, |o| o.at.as_micros()),
        field(&b, |o| o.at.as_micros())
    );
    let (a, b) = (
        publish_stream(7, 240).unwrap(),
        publish_stream(8, 240).unwrap(),
    );
    assert_ne!(a.batch(0), b.batch(0));
}

#[test]
fn rounds_give_every_distinct_op_the_same_share() {
    let reads = read_round(3);
    let failures = failure_round(3);
    for (round, distinct) in [(reads, QUERIES), (failures, QUERIES * STRATA)] {
        assert_eq!(round.len(), POSITIONS);
        for op in 0..distinct {
            let share = round.iter().filter(|&&k| k == op).count();
            assert_eq!(share, POSITIONS / distinct, "op {op}");
        }
    }
    let ops = failure_ops(3, &free_times());
    for q in 0..QUERIES {
        assert_eq!(
            ops.iter().filter(|o| o.query == q).count(),
            STRATA,
            "query {q}"
        );
    }
}

#[test]
fn the_initiator_is_never_the_victim() {
    for seed in 0..50 {
        for op in failure_ops(seed, &free_times()) {
            assert_ne!(op.victim, INITIATOR, "seed {seed}");
            assert!(op.victim.index() < NODES as usize, "seed {seed}");
        }
    }
}

#[test]
fn every_failure_instant_lies_in_its_failure_free_window() {
    let free = free_times();
    for seed in 0..50 {
        for op in failure_ops(seed, &free) {
            let free_us = free[op.query].as_micros();
            let (lo, hi) = failure_window(free[op.query]);
            let at = op.at.as_micros();
            assert!(
                lo <= at && at <= hi,
                "seed {seed}: {at} outside [{lo}, {hi}]"
            );
            assert!(
                at * 100 >= free_us * 5 && at * 100 <= free_us * 95,
                "seed {seed}"
            );
        }
    }
}
