//! Queries planned against **stale** routing snapshots.
//!
//! Under gossip membership every initiator derives its own view, so a
//! query may be planned against a snapshot that still lists a node that
//! has in truth already departed.  The contract of
//! [`QueryExecutor::execute_with_stale_snapshot`]: such a query either
//! completes normally (the snapshot never touches the departed node) or
//! stalls and is absorbed by the ordinary Restart/Incremental recovery —
//! staleness costs time, never correctness.

use orchestra_common::{ColumnType, Epoch, NodeId, NodeSet, Relation, Schema, Tuple, Value};
use orchestra_engine::{EngineConfig, PlanBuilder, QueryExecutor, RecoveryStrategy};
use orchestra_storage::{DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};

const DEPARTED: NodeId = NodeId(5);
const INITIATOR: NodeId = NodeId(0);

fn row(k: i64, v: &str) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::str(v)])
}

fn scan_plan() -> orchestra_engine::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 2, None);
    let ship = b.ship(scan);
    b.output(ship)
}

fn seeded_cluster() -> (DistributedStorage, Vec<Tuple>) {
    let routing = RoutingTable::build(
        &(0..8).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
    ));
    let mut expected = Vec::new();
    let mut batch = UpdateBatch::new();
    for k in 0..200 {
        let t = row(k, "v0");
        batch.insert("R", t.clone());
        expected.push(t);
    }
    storage.publish(&batch).unwrap();
    expected.sort();
    (storage, expected)
}

#[test]
fn stale_snapshot_touching_a_departed_node_recovers_to_the_exact_answer() {
    let (storage, expected) = seeded_cluster();
    // The initiator's view is stale: its snapshot still assigns ranges to
    // the departed node.
    let stale = storage.routing().clone();
    assert!(stale.contains_node(DEPARTED));
    let departed = NodeSet::singleton(DEPARTED);
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let report = QueryExecutor::new(&storage, config)
            .execute_with_stale_snapshot(&scan_plan(), Epoch(0), INITIATOR, &stale, &departed)
            .unwrap();
        assert!(
            report.recovered,
            "{strategy:?}: touching a departed node must engage recovery"
        );
        assert_eq!(report.rows, expected, "{strategy:?}: wrong answer");
    }
}

#[test]
fn fresh_snapshot_avoiding_the_departed_node_completes_without_recovery() {
    let (storage, expected) = seeded_cluster();
    // A converged view already excludes the departed node; its data is
    // reachable through the surviving replica holders.
    let fresh = storage
        .routing()
        .reassign_failed(&NodeSet::singleton(DEPARTED))
        .unwrap();
    let report = QueryExecutor::new(&storage, EngineConfig::default())
        .execute_with_stale_snapshot(
            &scan_plan(),
            Epoch(0),
            INITIATOR,
            &fresh,
            &NodeSet::singleton(DEPARTED),
        )
        .unwrap();
    assert!(
        !report.recovered,
        "a snapshot that never touches the departed node must not stall"
    );
    assert_eq!(report.rows, expected);
}

#[test]
fn departed_initiator_is_rejected() {
    let (storage, _) = seeded_cluster();
    let stale = storage.routing().clone();
    let err = QueryExecutor::new(&storage, EngineConfig::default())
        .execute_with_stale_snapshot(
            &scan_plan(),
            Epoch(0),
            DEPARTED,
            &stale,
            &NodeSet::singleton(DEPARTED),
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("departed"),
        "unexpected error: {err}"
    );
}

#[test]
fn stale_snapshot_with_several_departed_nodes_recovers_or_reports_lost_data() {
    let (storage, expected) = seeded_cluster();
    let stale = storage.routing().clone();
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let exec = QueryExecutor::new(
            &storage,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        );
        // Every departed node is still listed by the snapshot, so each
        // one is a failure of the run; replication 3 keeps a surviving
        // copy of every range.
        for nodes in [&[5, 6][..], &[3, 6], &[5, 6, 7]] {
            let departed: NodeSet = nodes.iter().map(|&n| NodeId(n)).collect();
            let report = exec
                .execute_with_stale_snapshot(&scan_plan(), Epoch(0), INITIATOR, &stale, &departed)
                .unwrap();
            assert!(report.recovered, "{strategy:?} {nodes:?}: no recovery");
            assert_eq!(
                report.rows, expected,
                "{strategy:?} {nodes:?}: wrong answer"
            );
        }
        // Four departures exceed replication 3: some range has lost every
        // copy, which is a typed error, never a panic or a hang.
        let departed: NodeSet = (1..=4).map(NodeId).collect();
        let err = exec
            .execute_with_stale_snapshot(&scan_plan(), Epoch(0), INITIATOR, &stale, &departed)
            .unwrap_err();
        assert!(
            err.to_string().contains("storage-missing"),
            "{strategy:?}: unexpected error: {err}"
        );
    }
}
