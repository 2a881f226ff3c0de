//! Unit tests of the executor driver and its layers, exercised through
//! the public `QueryExecutor` API only — the layer split under `exec/` is
//! an implementation detail these tests must survive.

use super::*;
use crate::expr::{AggFunc, CmpOp, Predicate};
use crate::plan::PlanBuilder;
use orchestra_common::{ColumnType, Relation, Schema, Tuple, Value};
use orchestra_storage::{StorageConfig, UpdateBatch};
use orchestra_substrate::{AllocationScheme, RoutingTable};
use std::collections::HashMap;

fn cluster(nodes: u16) -> DistributedStorage {
    let routing = RoutingTable::build(
        &(0..nodes).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    let mut s = DistributedStorage::new(
        routing,
        StorageConfig {
            partitions_per_relation: 8,
        },
    );
    s.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![
            ("k", ColumnType::Int),
            ("g", ColumnType::Str),
            ("v", ColumnType::Int),
        ]),
    ));
    s.register_relation(Relation::partitioned(
        "S",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("w", ColumnType::Int)]),
    ));
    s
}

fn r_row(k: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(if k % 3 == 0 { "a" } else { "b" }),
        Value::Int(k * 10),
    ])
}

fn publish_r(s: &mut DistributedStorage, count: i64) {
    let mut b = UpdateBatch::new();
    for k in 0..count {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap();
}

fn scan_ship_plan() -> crate::plan::PhysicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    b.output(ship)
}

#[test]
fn scan_ship_returns_every_tuple_exactly_once() {
    let mut s = cluster(4);
    publish_r(&mut s, 100);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(report.rows.len(), 100);
    let mut expected: Vec<Tuple> = (0..100).map(r_row).collect();
    expected.sort();
    assert_eq!(report.rows, expected);
    assert!(!report.recovered);
    assert_eq!(report.phases, 1);
    assert!(report.running_time > SimTime::ZERO);
    assert!(report.total_bytes > 0);
}

#[test]
fn per_link_traffic_sums_to_total() {
    let mut s = cluster(4);
    publish_r(&mut s, 100);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let sum: u64 = report.link_traffic.iter().map(|(_, b)| b).sum();
    assert_eq!(sum, report.total_bytes);
    assert!(report.total_messages > 0);
}

#[test]
fn select_predicate_filters_rows() {
    let mut s = cluster(4);
    publish_r(&mut s, 60);
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let sel = b.select(scan, Predicate::cmp(2, CmpOp::Lt, 200i64));
    let ship = b.ship(sel);
    let plan = b.output(ship);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(1)).unwrap();
    // v = k * 10 < 200  =>  k in 0..20.
    assert_eq!(report.rows.len(), 20);
    assert!(report.rows.iter().all(|t| t.value(2) < &Value::Int(200)));
}

#[test]
fn sargable_scan_predicate_matches_select() {
    let mut s = cluster(4);
    publish_r(&mut s, 60);
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, Some(Predicate::cmp(2, CmpOp::Lt, 200i64)));
    let ship = b.ship(scan);
    let plan = b.output(ship);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(1)).unwrap();
    assert_eq!(report.rows.len(), 20);
}

#[test]
fn pipelined_join_matches_nested_loop() {
    let mut s = cluster(4);
    publish_r(&mut s, 40);
    let mut b = UpdateBatch::new();
    for k in 0..40 {
        if k % 2 == 0 {
            b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k + 1000)]));
        }
    }
    s.publish(&b).unwrap();

    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let sc = pb.scan("S", 2, None);
    let r_re = pb.rehash(r, vec![0]);
    let s_re = pb.rehash(sc, vec![0]);
    let join = pb.hash_join(r_re, s_re, vec![0], vec![0]);
    let ship = pb.ship(join);
    let plan = pb.output(ship);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(1), NodeId(0)).unwrap();
    // Every even k joins once: R(k, g, v) ++ S(k, w).
    assert_eq!(report.rows.len(), 20);
    for row in &report.rows {
        assert_eq!(row.value(0), row.value(3));
        let k = row.value(0).as_int().unwrap();
        assert_eq!(row.value(4), &Value::Int(k + 1000));
    }
}

#[test]
fn two_phase_aggregation_matches_direct_computation() {
    let mut s = cluster(4);
    publish_r(&mut s, 90);
    let mut pb = PlanBuilder::new();
    let scan = pb.scan("R", 3, None);
    let re = pb.rehash(scan, vec![1]);
    let agg = pb.two_phase_aggregate(re, vec![1], vec![(AggFunc::Sum, 2), (AggFunc::Count, 2)]);
    let plan = pb.output(agg);

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let report = exec.execute(&plan, Epoch(0), NodeId(2)).unwrap();

    // Ground truth computed directly.
    let mut expected: HashMap<&str, (i64, i64)> = HashMap::new();
    for k in 0..90i64 {
        let g = if k % 3 == 0 { "a" } else { "b" };
        let e = expected.entry(g).or_default();
        e.0 += k * 10;
        e.1 += 1;
    }
    assert_eq!(report.rows.len(), 2);
    for row in &report.rows {
        let g = row.value(0).as_str().unwrap();
        let (sum, count) = expected[g];
        assert_eq!(row.value(1), &Value::Int(sum), "group {g}");
        assert_eq!(row.value(2), &Value::Int(count), "group {g}");
    }
}

#[test]
fn execution_is_deterministic() {
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let a = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let b = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.running_time, b.running_time);
    assert_eq!(a.link_traffic, b.link_traffic);
}

#[test]
fn incremental_without_recovery_support_is_rejected() {
    let mut s = cluster(4);
    publish_r(&mut s, 50);
    let config = EngineConfig {
        recovery: false,
        strategy: RecoveryStrategy::Incremental,
        ..EngineConfig::default()
    };
    let exec = QueryExecutor::new(&s, config);
    let baseline = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(2),
        baseline
            .running_time
            .saturating_sub(SimTime::from_micros(baseline.running_time.as_micros() / 2)),
    );
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert_eq!(err.category(), "execution");
}

#[test]
fn unknown_failure_target_is_an_error_not_a_panic() {
    // Regression: an out-of-range node id in the failure spec used to
    // panic inside the simulator instead of returning an error.
    let mut s = cluster(4);
    publish_r(&mut s, 10);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let failure = FailureSpec::at_time(NodeId(99), SimTime::from_micros(1));
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert!(err.message().contains("not a member"), "{err}");
}

#[test]
fn remote_scan_fetches_are_charged_to_the_network() {
    // A heir's rescan after a failure is served from its own replica
    // copies (that is why it inherits the range), so to exercise the
    // remote-fetch path we instead scan under a routing table the
    // data was never placed for: a membership change without
    // anti-entropy, exactly as storage models a fresh join.
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let baseline = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(
        baseline.remote_lookups, 0,
        "co-location holds in steady state"
    );

    let grown = RoutingTable::build(
        &(0..7).map(NodeId).collect::<Vec<_>>(),
        AllocationScheme::Balanced,
        3,
    );
    s.set_routing(grown);
    let report = QueryExecutor::new(&s, EngineConfig::default())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    assert_eq!(report.rows, baseline.rows, "answers survive the reshuffle");
    assert!(report.remote_lookups > 0, "the joiner must fetch remotely");
    // The remote fetches must show up as measured traffic, not just
    // as a counter: more bytes flow than in the steady-state run.
    assert!(
        report.total_bytes > baseline.total_bytes,
        "remote fetch bytes must be charged ({} vs {})",
        report.total_bytes,
        baseline.total_bytes
    );
}

#[test]
fn initiator_failure_is_fatal() {
    let mut s = cluster(4);
    publish_r(&mut s, 50);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let failure = FailureSpec::at_time(NodeId(0), SimTime::from_micros(1));
    let err = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap_err();
    assert!(err.message().contains("initiator"));
}

#[test]
fn restart_recovery_returns_the_full_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let config = EngineConfig {
        strategy: RecoveryStrategy::Restart,
        ..EngineConfig::default()
    };
    let exec = QueryExecutor::new(&s, config);
    let baseline = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(3),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(report.phases, 2);
    assert_eq!(report.rows, baseline.rows);
    assert!(report.running_time > baseline.running_time);
}

#[test]
fn failure_runs_leave_the_callers_storage_untouched() {
    // Each failure run works on a copy-on-write scratch copy: recovery
    // marks the victim failed there, never in the caller's store, so a
    // second identical run must see exactly what the first one saw.
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let scans = |s: &DistributedStorage| -> Vec<Vec<Tuple>> {
        s.routing()
            .nodes()
            .into_iter()
            .map(|n| {
                let ranges = s.routing().ranges_of(n);
                s.scan_partition("R", Epoch(0), n, &ranges).unwrap().tuples
            })
            .collect()
    };
    let before = scans(&s);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let baseline = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(3),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let deterministic = |r: &QueryReport| {
        (
            r.rows.clone(),
            r.signed_rows.clone(),
            r.running_time,
            r.total_bytes,
            r.total_messages,
            r.link_traffic.clone(),
            r.dropped_messages,
            (r.recovered, r.phases),
            (r.pages_read, r.tuples_scanned, r.remote_lookups),
            (r.purged, r.retransmitted),
        )
    };
    let first = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    let second = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    assert!(first.recovered);
    assert_eq!(first.rows, baseline.rows);
    assert_eq!(deterministic(&first), deterministic(&second));
    assert!(s.failed_nodes().is_empty());
    assert_eq!(scans(&s), before);
}

#[test]
fn incremental_join_recovery_retransmits_cached_output() {
    // A join rehashed on a high-cardinality key sends rows to every
    // node, so killing one mid-query must exercise recovery stage 4:
    // untainted cached rows re-routed to the heirs.
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let mut b = UpdateBatch::new();
    for k in 0..120 {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    s.publish(&b).unwrap();

    // Join on R.v = S.w — neither side's join key is its storage
    // partitioning key, so the rehash genuinely moves rows between
    // nodes (rehashing on the partitioning key would be a pure
    // self-send thanks to co-location).
    let plan = || {
        let mut pb = PlanBuilder::new();
        let r = pb.scan("R", 3, None);
        let sc = pb.scan("S", 2, None);
        let r_re = pb.rehash(r, vec![2]);
        let s_re = pb.rehash(sc, vec![1]);
        let join = pb.hash_join(r_re, s_re, vec![2], vec![1]);
        let ship = pb.ship(join);
        pb.output(ship)
    };

    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let baseline = exec.execute(&plan(), Epoch(1), NodeId(0)).unwrap();
    assert_eq!(baseline.rows.len(), 120);

    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&plan(), Epoch(1), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(
        report.rows, baseline.rows,
        "join answer must be duplicate-free"
    );
    assert!(report.purged > 0, "tainted join state must be purged");
    assert!(
        report.retransmitted > 0,
        "stage-4 output-cache retransmission must fire"
    );
}

#[test]
fn incremental_recovery_returns_the_full_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let exec = QueryExecutor::new(&s, EngineConfig::default());
    let baseline = exec
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(3),
        SimTime::from_micros(baseline.running_time.as_micros() / 2),
    );
    let report = exec
        .execute_with_failure(&scan_ship_plan(), Epoch(0), NodeId(0), failure)
        .unwrap();
    assert!(report.recovered);
    assert_eq!(report.rows, baseline.rows);
}

// ----------------------------------------------------------------------
// The multi-query session scheduler
// ----------------------------------------------------------------------

/// A join plan whose rehash keys are not the partitioning keys, so its
/// batches genuinely cross the shared links.
fn join_plan() -> crate::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new();
    let r = pb.scan("R", 3, None);
    let sc = pb.scan("S", 2, None);
    let r_re = pb.rehash(r, vec![2]);
    let s_re = pb.rehash(sc, vec![1]);
    let join = pb.hash_join(r_re, s_re, vec![2], vec![1]);
    let ship = pb.ship(join);
    pb.output(ship)
}

fn agg_plan() -> crate::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new();
    let scan = pb.scan("R", 3, None);
    let re = pb.rehash(scan, vec![1]);
    let agg = pb.two_phase_aggregate(re, vec![1], vec![(AggFunc::Sum, 2), (AggFunc::Count, 2)]);
    pb.output(agg)
}

fn session(name: &str, plan: crate::plan::PhysicalPlan, epoch: Epoch, cost: f64) -> QuerySession {
    QuerySession {
        name: name.into(),
        plan,
        epoch,
        initiator: NodeId(0),
        arrival: SimTime::ZERO,
        fingerprint: None,
        estimated_cost: cost,
        overrides: Default::default(),
        plan_resident: false,
    }
}

/// The S rows `join_plan` reads (R.v = S.w joins k with 10·k).
fn publish_s_matching(s: &mut DistributedStorage, count: i64) {
    let mut b = UpdateBatch::new();
    for k in 0..count {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    s.publish(&b).unwrap();
}

#[test]
fn single_session_workload_matches_the_stand_alone_executor() {
    let mut s = cluster(4);
    publish_r(&mut s, 100);
    let config = EngineConfig::default();
    let stand_alone = QueryExecutor::new(&s, config.clone())
        .execute(&scan_ship_plan(), Epoch(0), NodeId(0))
        .unwrap();

    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let workload = scheduler
        .run(
            &s,
            &config,
            &[session("only", scan_ship_plan(), Epoch(0), 1.0)],
            &[],
            None,
        )
        .unwrap();
    assert_eq!(workload.sessions.len(), 1);
    let report = &workload.sessions[0].report;
    assert_eq!(report.rows, stand_alone.rows);
    assert_eq!(report.total_bytes, stand_alone.total_bytes);
    assert_eq!(report.running_time, stand_alone.running_time);
    assert_eq!(report.link_traffic, stand_alone.link_traffic);
    assert_eq!(workload.makespan, stand_alone.running_time);
    assert_eq!(workload.total_bytes, stand_alone.total_bytes);
    assert_eq!(workload.peak_concurrency, 1);
    assert_eq!(workload.sessions[0].queue_wait, SimTime::ZERO);
}

#[test]
fn concurrent_sessions_share_the_network_and_keep_their_answers() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let exec = QueryExecutor::new(&s, config.clone());
    let expected: Vec<_> = [scan_ship_plan(), join_plan(), agg_plan()]
        .iter()
        .map(|p| exec.execute(p, Epoch(1), NodeId(0)).unwrap().rows)
        .collect();

    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 3,
        ..SchedulerConfig::default()
    });
    let sessions = [
        session("scan", scan_ship_plan(), Epoch(1), 3.0),
        session("join", join_plan(), Epoch(1), 2.0),
        session("agg", agg_plan(), Epoch(1), 1.0),
    ];
    let workload = scheduler.run(&s, &config, &sessions, &[], None).unwrap();

    // Every query keeps its exact stand-alone answer despite contending
    // for the same links, CPUs and clock.
    for (i, sr) in workload.sessions.iter().enumerate() {
        assert_eq!(sr.report.rows, expected[i], "session {i} answer");
    }
    assert_eq!(workload.peak_concurrency, 3);
    // Per-session traffic partitions the shared network's aggregate.
    let per_session: u64 = workload
        .sessions
        .iter()
        .map(|sr| sr.report.total_bytes)
        .sum();
    assert_eq!(per_session, workload.total_bytes);
    assert!(workload.link_utilization > 0.0 && workload.link_utilization <= 1.0);
    // The makespan is the last completion.
    let last = workload
        .sessions
        .iter()
        .map(|sr| sr.finished_at)
        .fold(SimTime::ZERO, SimTime::max);
    assert_eq!(workload.makespan, last);
}

#[test]
fn fifo_and_cost_first_admission_orders_are_deterministic() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // Costs deliberately out of submission order: 30, 10, 20.
    let sessions = [
        session("expensive", scan_ship_plan(), Epoch(0), 30.0),
        session("cheap", scan_ship_plan(), Epoch(0), 10.0),
        session("middle", scan_ship_plan(), Epoch(0), 20.0),
    ];

    let run = |policy| {
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 1,
            policy,
            ..SchedulerConfig::default()
        });
        scheduler.run(&s, &config, &sessions, &[], None).unwrap()
    };

    let fifo = run(AdmissionPolicy::Fifo);
    let ids = |w: &WorkloadReport| w.admission_order.iter().map(|s| s.0).collect::<Vec<_>>();
    assert_eq!(ids(&fifo), vec![0, 1, 2]);
    let cost_first = run(AdmissionPolicy::ShortestCostFirst);
    assert_eq!(ids(&cost_first), vec![1, 2, 0]);

    // With one slot, later admissions wait in the queue.
    assert_eq!(fifo.peak_concurrency, 1);
    assert_eq!(fifo.sessions[0].queue_wait, SimTime::ZERO);
    assert!(fifo.sessions[1].queue_wait > SimTime::ZERO);
    assert!(fifo.sessions[2].queue_wait > fifo.sessions[1].queue_wait);
    // Under cost-first, the expensive submission waits longest.
    assert!(cost_first.sessions[0].queue_wait > cost_first.sessions[2].queue_wait);

    // Bit-for-bit deterministic replay.
    let again = run(AdmissionPolicy::ShortestCostFirst);
    assert_eq!(ids(&again), ids(&cost_first));
    assert_eq!(again.makespan, cost_first.makespan);
    assert_eq!(again.total_bytes, cost_first.total_bytes);
    for (a, b) in again.sessions.iter().zip(&cost_first.sessions) {
        assert_eq!(a.report.rows, b.report.rows);
        assert_eq!(a.latency, b.latency);
    }
}

#[test]
fn run_queue_overflow_sheds_instead_of_erroring() {
    let mut s = cluster(4);
    publish_r(&mut s, 20);
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 2,
        queue_capacity: 2,
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });
    let sessions: Vec<QuerySession> = (0..3)
        .map(|i| session(&format!("q{i}"), scan_ship_plan(), Epoch(0), i as f64))
        .collect();
    // A burst beyond the queue bound drops the overflow as a recorded
    // shed event — the overloaded server answers what it admitted.
    let workload = scheduler
        .run(&s, &EngineConfig::default(), &sessions, &[], None)
        .unwrap();
    assert_eq!(workload.sessions.len(), 2);
    assert_eq!(workload.shed.len(), 1);
    assert_eq!(workload.shed[0].session.0, 2);
    assert_eq!(workload.shed[0].name, "q2");
    assert_eq!(workload.shed[0].at, SimTime::ZERO);
    // The admitted sessions still complete with real answers.
    assert!(workload
        .sessions
        .iter()
        .all(|sr| !sr.report.rows.is_empty()));

    // Within the bound, nothing is shed and concurrency never exceeds
    // the configured slots.
    let workload = scheduler
        .run(&s, &EngineConfig::default(), &sessions[..2], &[], None)
        .unwrap();
    assert!(workload.shed.is_empty());
    assert!(workload.peak_concurrency <= 2);
}

#[test]
fn staggered_arrivals_split_latency_into_wait_and_service() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // One execution slot and three staggered arrivals: the first runs
    // immediately, the later ones queue behind it.
    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        ..SchedulerConfig::default()
    });
    let solo = scheduler
        .run(
            &s,
            &config,
            &[session("solo", scan_ship_plan(), Epoch(0), 1.0)],
            &[],
            None,
        )
        .unwrap();
    let service = solo.sessions[0].latency;
    assert!(service > SimTime::ZERO);

    let mut sessions = [
        session("first", scan_ship_plan(), Epoch(0), 1.0),
        session("second", scan_ship_plan(), Epoch(0), 1.0),
        session("third", scan_ship_plan(), Epoch(0), 1.0),
    ];
    // The second arrives mid-service of the first; the third arrives
    // long after everything drained (the clock must jump to it).
    sessions[1].arrival = SimTime::from_micros(service.as_micros() / 2);
    sessions[2].arrival = SimTime::from_micros(service.as_micros() * 10);
    let workload = scheduler.run(&s, &config, &sessions, &[], None).unwrap();
    let [first, second, third] = &workload.sessions[..] else {
        panic!("all three sessions complete");
    };

    // Latency measures from *arrival*, not admission: the client's view.
    assert_eq!(first.arrival, SimTime::ZERO);
    assert_eq!(first.queue_wait, SimTime::ZERO);
    assert_eq!(first.latency, first.finished_at);

    // The second waited in the queue for most of the first's service
    // (the slot frees when the first's output closes, just before its
    // answer-complete instant).
    assert!(second.admitted_at > second.arrival);
    assert!(second.admitted_at <= first.finished_at);
    assert_eq!(
        second.queue_wait,
        second.admitted_at.saturating_sub(second.arrival)
    );
    assert!(second.queue_wait > SimTime::ZERO);
    assert_eq!(
        second.latency,
        second.finished_at.saturating_sub(second.arrival)
    );
    assert!(second.latency > second.queue_wait);

    // The third arrived into an idle system: zero wait, pure service,
    // and its completion (not its arrival) defines the makespan.
    assert_eq!(third.admitted_at, third.arrival);
    assert_eq!(third.queue_wait, SimTime::ZERO);
    assert_eq!(third.latency, service);
    assert_eq!(workload.makespan, third.finished_at);
    assert!(workload.makespan >= sessions[2].arrival);
}

/// A distinct fingerprint per logical query for serving tests (the real
/// canonical form is the optimizer's business; here any stable key does).
fn fp(tag: &str) -> orchestra_common::QueryFingerprint {
    orchestra_common::QueryFingerprint::of_bytes(tag.as_bytes())
}

#[test]
fn serving_hits_cache_within_an_epoch_and_misses_across_publications() {
    let mut s = cluster(4);
    publish_r(&mut s, 80); // epoch 0
    let config = EngineConfig::default();
    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let mut cache = ResultCache::new(8, EvictionPolicy::Lru);
    let mut q = session("q", scan_ship_plan(), Epoch(0), 1.0);
    q.fingerprint = Some(fp("scan_ship"));

    // Cold: executes, fills the cache.
    let cold = scheduler
        .run(&s, &config, &[q.clone()], &[], Some(&mut cache))
        .unwrap();
    assert!(!cold.sessions[0].served_from_cache);
    assert_eq!(cold.cache.misses, 1);
    assert_eq!(cold.cache.insertions, 1);
    assert!(cold.total_bytes > 0);

    // Warm: the identical answer at zero latency and zero traffic.
    let warm = scheduler
        .run(&s, &config, &[q.clone()], &[], Some(&mut cache))
        .unwrap();
    assert!(warm.sessions[0].served_from_cache);
    assert_eq!(warm.sessions[0].latency, SimTime::ZERO);
    assert_eq!(warm.sessions[0].report.rows, cold.sessions[0].report.rows);
    assert_eq!(warm.total_bytes, 0);
    assert_eq!(warm.cache.hits, 1);
    assert!(warm.cache.bytes_saved >= cold.sessions[0].report.total_bytes);

    // A publication bumps the epoch: same fingerprint, new key — the
    // stale answer is never served, the query re-executes and sees the
    // new data.
    let mut b = UpdateBatch::new();
    for k in 80..100 {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap(); // epoch 1
    q.epoch = Epoch(1);
    let bumped = scheduler
        .run(&s, &config, &[q.clone()], &[], Some(&mut cache))
        .unwrap();
    assert!(!bumped.sessions[0].served_from_cache);
    assert_eq!(bumped.cache.misses, 1);
    assert_ne!(
        bumped.sessions[0].report.rows, cold.sessions[0].report.rows,
        "the re-executed answer must reflect the publication"
    );
    assert_eq!(
        bumped.sessions[0].report.rows,
        full_run(&s, &scan_ship_plan(), Epoch(1))
    );
}

#[test]
fn cache_fill_survives_a_mid_query_failure_and_serves_the_recovered_answer() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    let config = EngineConfig::default();
    let expected = full_run(&s, &scan_ship_plan(), Epoch(0));
    let mut q = session("q", scan_ship_plan(), Epoch(0), 1.0);
    q.fingerprint = Some(fp("scan_ship"));
    let scheduler = SessionScheduler::new(SchedulerConfig::default());
    let baseline = scheduler.run(&s, &config, &[q.clone()], &[], None).unwrap();
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.makespan.as_micros() / 2),
    );

    let mut cache = ResultCache::new(8, EvictionPolicy::Lru);
    let failed_run = scheduler
        .run(&s, &config, &[q.clone()], &[failure], Some(&mut cache))
        .unwrap();
    assert!(failed_run.sessions[0].report.recovered);
    assert_eq!(failed_run.sessions[0].report.rows, expected);
    // Only the *completed* (recovered) answer was cached — a hit right
    // after the failure run returns it verbatim.
    assert_eq!(cache.stats().insertions, 1);
    let warm = scheduler
        .run(&s, &config, &[q], &[], Some(&mut cache))
        .unwrap();
    assert!(warm.sessions[0].served_from_cache);
    assert_eq!(warm.sessions[0].report.rows, expected);
}

#[test]
fn workload_report_percentiles_and_slo_misses_track_latencies() {
    let mut s = cluster(4);
    publish_r(&mut s, 80);
    let config = EngineConfig::default();
    // One slot, a burst of four at time zero: latencies grow linearly
    // with queue position.
    let sessions: Vec<QuerySession> = (0..4)
        .map(|i| session(&format!("q{i}"), scan_ship_plan(), Epoch(0), 1.0 + i as f64))
        .collect();
    let service = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        ..SchedulerConfig::default()
    })
    .run(&s, &config, &sessions[..1], &[], None)
    .unwrap()
    .sessions[0]
        .latency;

    let workload = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 1,
        slo: Some(service), // only the first session can meet this
        ..SchedulerConfig::default()
    })
    .run(&s, &config, &sessions, &[], None)
    .unwrap();
    let mut latencies: Vec<SimTime> = workload.sessions.iter().map(|sr| sr.latency).collect();
    latencies.sort();
    // Nearest-rank percentiles over 4 samples: p50 = 2nd, p99/p999 = 4th.
    assert_eq!(workload.latency_p50, latencies[1]);
    assert_eq!(workload.latency_p99, latencies[3]);
    assert_eq!(workload.latency_p999, latencies[3]);
    assert_eq!(workload.slo_misses, 3);
}

#[test]
fn concurrency_reduces_makespan_over_serial_execution() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let sessions = [
        session("scan", scan_ship_plan(), Epoch(1), 1.0),
        session("join", join_plan(), Epoch(1), 2.0),
        session("agg", agg_plan(), Epoch(1), 3.0),
    ];
    let run = |slots| {
        SessionScheduler::new(SchedulerConfig {
            max_concurrent: slots,
            ..SchedulerConfig::default()
        })
        .run(&s, &config, &sessions, &[], None)
        .unwrap()
    };
    let serial = run(1);
    let concurrent = run(3);
    assert!(
        concurrent.makespan < serial.makespan,
        "interleaving must shorten the makespan: {} vs {}",
        concurrent.makespan,
        serial.makespan
    );
    assert!(
        concurrent.link_utilization > serial.link_utilization,
        "a shorter window moving the same bytes is busier: {} vs {}",
        concurrent.link_utilization,
        serial.link_utilization
    );
}

#[test]
fn failure_during_concurrent_sessions_recovers_each_one() {
    let mut s = cluster(6);
    publish_r(&mut s, 120);
    publish_s_matching(&mut s, 120);
    let config = EngineConfig::default();
    let exec = QueryExecutor::new(&s, config.clone());
    let expected: Vec<_> = [scan_ship_plan(), join_plan(), agg_plan()]
        .iter()
        .map(|p| exec.execute(p, Epoch(1), NodeId(0)).unwrap().rows)
        .collect();
    let baseline = SessionScheduler::new(SchedulerConfig {
        max_concurrent: 3,
        ..SchedulerConfig::default()
    })
    .run(
        &s,
        &config,
        &[
            session("scan", scan_ship_plan(), Epoch(1), 1.0),
            session("join", join_plan(), Epoch(1), 2.0),
            session("agg", agg_plan(), Epoch(1), 3.0),
        ],
        &[],
        None,
    )
    .unwrap();

    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let run_config = EngineConfig {
            strategy,
            ..config.clone()
        };
        let failure = FailureSpec::at_time(
            NodeId(4),
            SimTime::from_micros(baseline.makespan.as_micros() / 2),
        );
        let workload = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 3,
            ..SchedulerConfig::default()
        })
        .run(
            &s,
            &run_config,
            &[
                session("scan", scan_ship_plan(), Epoch(1), 1.0),
                session("join", join_plan(), Epoch(1), 2.0),
                session("agg", agg_plan(), Epoch(1), 3.0),
            ],
            &[failure],
            None,
        )
        .unwrap();
        let recovered = workload
            .sessions
            .iter()
            .filter(|sr| sr.report.recovered)
            .count();
        assert!(
            recovered > 0,
            "{strategy:?}: the mid-makespan failure must interrupt at least one session"
        );
        for (i, sr) in workload.sessions.iter().enumerate() {
            assert_eq!(
                sr.report.rows, expected[i],
                "{strategy:?}: session {i} must recover to its exact answer"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental view maintenance (exec/ivm.rs)
// ---------------------------------------------------------------------------

/// A modified version of [`r_row`]: same key, flipped group, bumped value.
fn r_row_v2(k: i64) -> Tuple {
    Tuple::new(vec![
        Value::Int(k),
        Value::str(if k % 3 == 0 { "b" } else { "a" }),
        Value::Int(k * 10 + 7),
    ])
}

/// Fresh full run of `plan` at `epoch` — the oracle every maintained
/// answer must equal tuple for tuple.
fn full_run(s: &DistributedStorage, plan: &crate::plan::PhysicalPlan, epoch: Epoch) -> Vec<Tuple> {
    QueryExecutor::new(s, EngineConfig::default())
        .execute(plan, epoch, NodeId(0))
        .unwrap()
        .rows
}

#[test]
fn maintenance_plan_strips_final_and_appends_support_count() {
    let original = agg_plan();
    let m = MaintenancePlan::derive(&original).unwrap();
    // No initiator-side aggregate survives the rewrite.
    assert!(!m.plan().operators().iter().any(|o| matches!(
        o.kind,
        crate::plan::OperatorKind::Aggregate {
            mode: crate::plan::AggMode::Single | crate::plan::AggMode::Final,
            ..
        }
    )));
    let FoldMode::Partial {
        group_by,
        aggs,
        count_col,
    } = m.fold()
    else {
        panic!("two-phase aggregate folds as Partial, got {:?}", m.fold());
    };
    assert_eq!(group_by, &[0]);
    assert_eq!(aggs.len(), 2, "sum + count of the original query");
    // The hidden support count is the last column the ship forwards:
    // group key + sum state + count state + hidden count.
    assert_eq!(*count_col, 3);
    assert_eq!(m.plan().op(m.plan().root()).arity, 4);
    assert_eq!(m.scans().len(), 1);
    assert_eq!(m.scans()[0].1, "R");
    assert!(m.recompute_only().is_none());

    // A scan-and-ship plan folds as a counted multiset.
    let m = MaintenancePlan::derive(&scan_ship_plan()).unwrap();
    assert_eq!(*m.fold(), FoldMode::Multiset);

    // An initiator-side (Single) MIN folds raw input rows, so its
    // retractions route through the bounded extremum sketch: the view
    // stays incremental.
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    let agg = b.aggregate(
        ship,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Single,
    );
    let min_plan = b.output(agg);
    let m = MaintenancePlan::derive(&min_plan).unwrap();
    assert!(m.recompute_only().is_none());

    // A distributed partial MIN collapses runner-up multiplicity before
    // shipping: still recompute-only.
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let partial = b.aggregate(
        scan,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Partial,
    );
    let ship = b.ship(partial);
    let fin = b.aggregate(
        ship,
        vec![0],
        vec![(AggFunc::Min, 1)],
        crate::plan::AggMode::Final,
    );
    let partial_min_plan = b.output(fin);
    let m = MaintenancePlan::derive(&partial_min_plan).unwrap();
    assert!(m.recompute_only().unwrap().contains("runners-up"));
}

#[test]
fn multiset_view_tracks_insert_modify_delete_epochs() {
    let mut s = cluster(4);
    publish_r(&mut s, 60); // epoch 0
    let plan = scan_ship_plan();
    let mut view = MaterializedView::new("copy", &plan).unwrap();
    assert!(view.supports_incremental());

    // First refresh must recompute (there is no state to maintain yet).
    let err = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap_err();
    assert!(err.message().contains("recompute"), "{err}");
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));
    assert_eq!(view.epoch(), Some(Epoch(0)));

    // Epoch 1: inserts, modifies and deletes in one batch.
    let mut b = UpdateBatch::new();
    for k in 100..110 {
        b.insert("R", r_row(k));
    }
    for k in 0..8 {
        b.modify("R", r_row_v2(k));
    }
    b.delete("R", vec![Value::Int(30)])
        .delete("R", vec![Value::Int(31)]);
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(1),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 1);
    assert!(run.rows_folded > 0);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(1)));

    // An epoch that does not touch R is absorbed with zero legs.
    let mut b = UpdateBatch::new();
    b.insert("S", Tuple::new(vec![Value::Int(999), Value::Int(0)]));
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 0);
    assert_eq!(run.shipped_bytes, 0);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(2)));
}

#[test]
fn aggregate_view_incremental_matches_full_runs_across_epochs() {
    let mut s = cluster(5);
    publish_r(&mut s, 80); // epoch 0
    let plan = agg_plan();
    let mut view = MaterializedView::new("agg", &plan).unwrap();
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));

    for epoch in 1..=4u64 {
        let mut b = UpdateBatch::new();
        let base = 80 + epoch as i64 * 10;
        for k in base..base + 5 {
            b.insert("R", r_row(k));
        }
        // Modifies move rows between groups; deletes shrink them.
        for k in (0..epoch as i64 * 6).step_by(2) {
            b.modify("R", r_row_v2(k));
        }
        b.delete("R", vec![Value::Int(epoch as i64)]);
        s.publish(&b).unwrap();
        let run = refresh_view(
            &mut view,
            &s,
            &EngineConfig::default(),
            MaintenanceMode::Incremental,
            Epoch(epoch),
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(run.mode, MaintenanceMode::Incremental);
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(epoch)),
            "maintained answer diverged at epoch {epoch}"
        );
    }
}

#[test]
fn min_view_absorbs_a_delete_heavy_stream_incrementally() {
    // Before the extremum sketch, a MIN view was recompute-only: every
    // one of the 8 delete-heavy epochs below would have recomputed.
    // With the sketch, retractions fold from the tracked runners-up and
    // only genuine exhaustion falls back — the recompute count drops
    // from one-per-epoch to the handful of exhaustion events.
    let mut s = cluster(4);
    publish_r(&mut s, 60); // epoch 0
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    let agg = b.aggregate(
        ship,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Single,
    );
    let plan = b.output(agg);
    let mut view = MaterializedView::new("min", &plan).unwrap();
    assert!(view.supports_incremental());
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(0),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(0)));

    // Eight epochs that do nothing but delete the smallest surviving
    // keys — each one retracts the current per-group minima.
    let mut fallbacks = 0usize;
    for epoch in 1..=8u64 {
        let mut b = UpdateBatch::new();
        for k in (epoch as i64 - 1) * 6..epoch as i64 * 6 {
            b.delete("R", vec![Value::Int(k)]);
        }
        s.publish(&b).unwrap();
        let run = refresh_view(
            &mut view,
            &s,
            &EngineConfig::default(),
            MaintenanceMode::Incremental,
            Epoch(epoch),
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(run.mode, MaintenanceMode::Incremental);
        fallbacks += run.sketch_fallback as usize;
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(epoch)),
            "maintained MIN diverged at epoch {epoch}"
        );
    }
    assert!(
        fallbacks >= 1,
        "the stream deletes past the tracked runners-up at least once"
    );
    assert!(
        fallbacks < 8,
        "recompute decisions must drop well below one-per-epoch, got {fallbacks}"
    );
}

#[test]
fn join_view_runs_one_leg_per_changed_relation() {
    let mut s = cluster(5);
    publish_r(&mut s, 50);
    publish_s_matching(&mut s, 50); // epoch 1 (S rows join R.v = S.w)
    let plan = join_plan();
    let mut view = MaterializedView::new("join", &plan).unwrap();
    refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(1),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(1)));

    // Epoch 2 touches both relations: two telescoped legs.
    let mut b = UpdateBatch::new();
    for k in 200..206 {
        b.insert("R", r_row(k));
    }
    b.delete("R", vec![Value::Int(5)]);
    for k in 200..206 {
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    b.delete("S", vec![Value::Int(7)]);
    s.publish(&b).unwrap();
    let run = refresh_view(
        &mut view,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(run.legs, 2);
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(2)));

    // Recompute lands on the same answer from scratch.
    let mut recomputed = MaterializedView::new("join2", &plan).unwrap();
    refresh_view(
        &mut recomputed,
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Recompute,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    assert_eq!(recomputed.answer(), view.answer());
}

#[test]
fn maintenance_survives_a_mid_maintenance_node_failure() {
    for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
        let mut s = cluster(5);
        publish_r(&mut s, 80);
        publish_s_matching(&mut s, 80);
        let plan = join_plan();
        let mut view = MaterializedView::new("join", &plan).unwrap();
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        refresh_view(
            &mut view,
            &s,
            &config,
            MaintenanceMode::Recompute,
            Epoch(1),
            NodeId(0),
            None,
        )
        .unwrap();

        let mut b = UpdateBatch::new();
        for k in 300..330 {
            b.insert("R", r_row(k));
            b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
        }
        for k in 0..20 {
            b.modify("R", r_row_v2(k));
        }
        s.publish(&b).unwrap();

        // Learn the failure-free makespan on a throwaway clone, then
        // kill a node halfway through the real refresh.
        let mut probe = view.clone();
        let baseline = refresh_view(
            &mut probe,
            &s,
            &config,
            MaintenanceMode::Incremental,
            Epoch(2),
            NodeId(0),
            None,
        )
        .unwrap();
        let failure = FailureSpec::at_time(
            NodeId(4),
            SimTime::from_micros(baseline.makespan.as_micros() / 2),
        );
        let run = refresh_view(
            &mut view,
            &s,
            &config,
            MaintenanceMode::Incremental,
            Epoch(2),
            NodeId(0),
            Some(failure),
        )
        .unwrap();
        assert!(
            run.recovered,
            "{strategy:?}: the mid-makespan failure must interrupt maintenance"
        );
        assert_eq!(
            view.answer(),
            full_run(&s, &plan, Epoch(2)),
            "{strategy:?}: maintained answer must survive the failure exactly"
        );
        assert_eq!(view.answer(), probe.answer());
    }
}

#[test]
fn epoch_pinned_scans_read_the_past() {
    let mut s = cluster(4);
    publish_r(&mut s, 30); // epoch 0
    let mut b = UpdateBatch::new();
    for k in 30..60 {
        b.insert("R", r_row(k));
    }
    s.publish(&b).unwrap(); // epoch 1

    let plan = scan_ship_plan();
    let mut overrides = ScanOverrides::new();
    overrides.read_at(plan.scans()[0], Epoch(0));
    assert!(!overrides.is_empty());
    let workload = SessionScheduler::new(SchedulerConfig::default())
        .run(
            &s,
            &EngineConfig::default(),
            &[QuerySession {
                name: "pinned".into(),
                plan: plan.clone(),
                epoch: Epoch(1),
                initiator: NodeId(0),
                arrival: SimTime::ZERO,
                fingerprint: None,
                estimated_cost: 0.0,
                overrides,
                plan_resident: false,
            }],
            &[],
            None,
        )
        .unwrap();
    assert_eq!(
        workload.sessions[0].report.rows,
        full_run(&s, &plan, Epoch(0)),
        "the pinned scan must see epoch 0 despite the session reading epoch 1"
    );
}

// ---------------------------------------------------------------------------
// Standing-query fan-out (exec/registry.rs)
// ---------------------------------------------------------------------------

/// Apply one subscriber's signed diff to its previously acknowledged
/// answer — what a real subscriber would do on notification.
fn apply_diff(acked: &[Tuple], diff: &ViewDiff) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = acked.to_vec();
    for retract in &diff.retracts {
        let pos = rows
            .iter()
            .position(|t| t == retract)
            .expect("retracted row must be acknowledged");
        rows.remove(pos);
    }
    rows.extend(diff.inserts.iter().cloned());
    rows.sort();
    rows
}

#[test]
fn registry_shares_sessions_across_views_and_stays_exact() {
    let mut s = cluster(5);
    publish_r(&mut s, 80); // epoch 0
    publish_s_matching(&mut s, 80); // epoch 1
    let config = EngineConfig::default();

    let mut registry = ViewRegistry::new(NodeId(0));
    let plans: Vec<crate::plan::PhysicalPlan> = vec![
        join_plan(),
        join_plan(),
        join_plan(),
        join_plan(),
        agg_plan(),
        scan_ship_plan(),
    ];
    for (i, plan) in plans.iter().enumerate() {
        registry.register(MaterializedView::new(format!("view-{i}"), plan).unwrap());
    }
    assert_eq!(registry.len(), 6);

    // Priming refresh: every view recomputes, but the four identical
    // join views collide on one fingerprint — three sessions, not six.
    let primed = registry.refresh(&s, &config, Epoch(1), None).unwrap();
    assert_eq!(primed.leg_instances, 6);
    assert_eq!(primed.sessions_run, 3, "duplicate recomputes are shared");
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(registry.view(i).answer(), full_run(&s, plan, Epoch(1)));
    }
    // The first notification ships the full answer as inserts.
    assert!(primed.diffs.iter().all(|d| d.retracts.is_empty()));
    assert!(primed.diff_bytes > 0);
    let mut acked: Vec<Vec<Tuple>> = primed.diffs.iter().map(|d| d.inserts.clone()).collect();

    // Epoch 2 touches both relations.
    let mut b = UpdateBatch::new();
    for k in 200..208 {
        b.insert("R", r_row(k));
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    for k in 0..6 {
        b.modify("R", r_row_v2(k));
    }
    b.delete("S", vec![Value::Int(7)]);
    s.publish(&b).unwrap();

    let refresh = registry.refresh(&s, &config, Epoch(2), None).unwrap();
    // Independent maintenance would run 4×2 join legs + 1 agg leg +
    // 1 copy leg; sharing collapses the join legs to one per relation.
    assert_eq!(refresh.leg_instances, 10);
    assert_eq!(refresh.sessions_run, 4);
    // Deltas are derived once per changed relation, not once per view.
    assert_eq!(
        refresh.delta_derivations, 2,
        "six views over two changed relations must derive exactly two diffs"
    );
    for (i, plan) in plans.iter().enumerate() {
        let expected = full_run(&s, plan, Epoch(2));
        assert_eq!(registry.view(i).answer(), expected, "view-{i} diverged");
        // The signed diff reconstructs the new answer from the old one.
        assert_eq!(apply_diff(&acked[i], &refresh.diffs[i]), expected);
        acked[i] = expected;
    }

    // Epoch 3 touches only S: the agg and copy views (which scan R
    // alone) ride along with zero sessions and empty diffs.
    let mut b = UpdateBatch::new();
    b.insert("S", Tuple::new(vec![Value::Int(900), Value::Int(9000)]));
    s.publish(&b).unwrap();
    let refresh = registry.refresh(&s, &config, Epoch(3), None).unwrap();
    assert_eq!(refresh.sessions_run, 1, "only the shared S leg runs");
    assert_eq!(refresh.delta_derivations, 1);
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(registry.view(i).answer(), full_run(&s, plan, Epoch(3)));
        assert_eq!(registry.view(i).epoch(), Some(Epoch(3)));
    }
    assert_eq!(refresh.diffs[4].shipped_bytes, 0, "agg view is unchanged");
    assert_eq!(refresh.diffs[5].shipped_bytes, 0, "copy view is unchanged");
}

#[test]
fn registry_refresh_survives_a_mid_maintenance_failure() {
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    publish_s_matching(&mut s, 80); // epoch 1
    let config = EngineConfig::default();

    let mut registry = ViewRegistry::new(NodeId(0));
    for i in 0..3 {
        registry.register(MaterializedView::new(format!("join-{i}"), &join_plan()).unwrap());
    }
    registry.refresh(&s, &config, Epoch(1), None).unwrap();

    let mut b = UpdateBatch::new();
    for k in 300..330 {
        b.insert("R", r_row(k));
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    for k in 0..20 {
        b.modify("R", r_row_v2(k));
    }
    s.publish(&b).unwrap();

    // Probe the failure-free refresh on a clone to aim mid-makespan.
    let mut probe = registry.clone();
    let baseline = probe.refresh(&s, &config, Epoch(2), None).unwrap();
    assert!(baseline.makespan > SimTime::ZERO);
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(baseline.makespan.as_micros() / 2),
    );
    let refresh = registry
        .refresh(&s, &config, Epoch(2), Some(failure))
        .unwrap();
    assert!(
        refresh.recovered,
        "the mid-makespan failure must interrupt the shared workload"
    );
    let expected = full_run(&s, &join_plan(), Epoch(2));
    for i in 0..3 {
        assert_eq!(
            registry.view(i).answer(),
            expected,
            "join-{i} must survive the failure exactly"
        );
    }
}

/// Refresh `view` with [`refresh_view`] and `registry` (holding one copy
/// of the same view) to `epoch`, and require both drivers to land on the
/// same answer at the same simulated cost.  The first refresh of an
/// unprimed view recomputes; later ones are incremental.
fn refresh_both(
    view: &mut MaterializedView,
    registry: &mut ViewRegistry,
    s: &DistributedStorage,
    epoch: Epoch,
    failure: Option<FailureSpec>,
) -> MaintenanceRun {
    let mode = match view.epoch() {
        None => MaintenanceMode::Recompute,
        Some(_) => MaintenanceMode::Incremental,
    };
    let config = EngineConfig::default();
    let run = refresh_view(view, s, &config, mode, epoch, NodeId(0), failure).unwrap();
    let refresh = registry.refresh(s, &config, epoch, failure).unwrap();
    assert_eq!(
        registry.view(0).answer(),
        view.answer(),
        "answer at {epoch}"
    );
    assert_eq!(
        (
            refresh.shipped_bytes,
            refresh.shipped_messages,
            refresh.makespan
        ),
        (run.shipped_bytes, run.shipped_messages, run.makespan),
        "cost at {epoch}"
    );
    assert_eq!(refresh.recovered, run.recovered, "recovery at {epoch}");
    assert_eq!(
        refresh.sketch_fallbacks, run.sketch_fallback as usize,
        "fallback at {epoch}"
    );
    run
}

#[test]
fn refresh_view_and_a_one_view_registry_agree_epoch_by_epoch() {
    // The join stream of `maintenance_survives_a_mid_maintenance_node_failure`,
    // its second epoch interrupted by a node failure mid-maintenance.
    let mut s = cluster(5);
    publish_r(&mut s, 80);
    publish_s_matching(&mut s, 80); // epoch 1
    let plan = join_plan();
    let mut view = MaterializedView::new("join", &plan).unwrap();
    let mut registry = ViewRegistry::new(NodeId(0));
    registry.register(view.clone());
    refresh_both(&mut view, &mut registry, &s, Epoch(1), None);

    let mut b = UpdateBatch::new();
    for k in 300..330 {
        b.insert("R", r_row(k));
        b.insert("S", Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]));
    }
    for k in 0..20 {
        b.modify("R", r_row_v2(k));
    }
    s.publish(&b).unwrap();
    let probe = refresh_view(
        &mut view.clone(),
        &s,
        &EngineConfig::default(),
        MaintenanceMode::Incremental,
        Epoch(2),
        NodeId(0),
        None,
    )
    .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(4),
        SimTime::from_micros(probe.makespan.as_micros() / 2),
    );
    let run = refresh_both(&mut view, &mut registry, &s, Epoch(2), Some(failure));
    assert!(run.recovered, "the failure must interrupt maintenance");
    assert_eq!(view.answer(), full_run(&s, &plan, Epoch(2)));

    // The delete-heavy MIN stream of
    // `min_view_absorbs_a_delete_heavy_stream_incrementally`: some epochs
    // exhaust a sketch and take the recompute fallback.
    let mut s = cluster(4);
    publish_r(&mut s, 60); // epoch 0
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 3, None);
    let ship = b.ship(scan);
    let agg = b.aggregate(
        ship,
        vec![1],
        vec![(AggFunc::Min, 2)],
        crate::plan::AggMode::Single,
    );
    let plan = b.output(agg);
    let mut view = MaterializedView::new("min", &plan).unwrap();
    let mut registry = ViewRegistry::new(NodeId(0));
    registry.register(view.clone());
    refresh_both(&mut view, &mut registry, &s, Epoch(0), None);
    let mut fallbacks = 0usize;
    for epoch in 1..=8u64 {
        let mut b = UpdateBatch::new();
        for k in (epoch as i64 - 1) * 6..epoch as i64 * 6 {
            b.delete("R", vec![Value::Int(k)]);
        }
        s.publish(&b).unwrap();
        let run = refresh_both(&mut view, &mut registry, &s, Epoch(epoch), None);
        fallbacks += run.sketch_fallback as usize;
        assert_eq!(view.answer(), full_run(&s, &plan, Epoch(epoch)));
    }
    assert!(fallbacks >= 1, "the stream must take the sketch fallback");
}
