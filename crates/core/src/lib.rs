//! # orchestra-core
//!
//! Facade over the ORCHESTRA reproduction (Taylor & Ives, *Reliable
//! Storage and Querying for Collaborative Data Sharing Systems*, ICDE
//! 2010): one crate to depend on when a consumer wants the whole stack —
//! the shared primitives, the hashing substrate, the versioned storage
//! layer, the simulated cluster and the reliable query engine — without
//! naming five crates.
//!
//! The layering mirrors the paper's architecture:
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | primitives | [`common`] | III-A (key space), IV (tuple IDs) |
//! | partitioning substrate | [`substrate`] | III |
//! | versioned storage | [`storage`] | IV |
//! | simulated deployment | [`simnet`] | VI (testbeds) |
//! | query engine + recovery | [`engine`] | V |
//! | cost-based optimizer | [`optimizer`] | V (System-R planning) |
//! | workload catalogue | [`workloads`] | VI-B/VI-C |
//! | experiment harness | [`bench`](mod@bench) | VI (figures) |

/// The repository README, compiled so its Rust examples keep building
/// against this facade.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub use orchestra_bench as bench;
pub use orchestra_common as common;
pub use orchestra_engine as engine;
pub use orchestra_optimizer as optimizer;
pub use orchestra_simnet as simnet;
pub use orchestra_storage as storage;
pub use orchestra_substrate as substrate;
pub use orchestra_workloads as workloads;

pub use orchestra_bench::{
    failure_sweep_points, poisson_arrivals, run_adaptivity, run_churn, run_maintenance,
    run_plan_quality, run_recovery_sweep, run_scale_out, run_serving_experiment, run_subscriptions,
    run_tagging_overhead, run_throughput, trace_arrivals, AdaptivityReport, AdaptivitySpec,
    ChurnBenchSpec, ChurnReport, MaintenanceReport, MaintenanceSweepSpec, PlanQuality,
    RecoverySweep, ScaleOutPoint, ServingPoint, ServingSpec, ServingSweep, SubscriptionSweep,
    SubscriptionsReport, SubscriptionsSpec, TaggingOverhead, ThroughputPoint, ThroughputSweep,
};
pub use orchestra_common::{Epoch, NodeId, QueryFingerprint, Relation, Schema, Tuple, Value};
pub use orchestra_engine::{
    refresh_view, AdmissionPolicy, CacheStats, EngineConfig, EvictionPolicy, FailureSpec,
    MaintenanceMode, MaintenancePlan, MaintenanceRun, MaterializedView, PhysicalPlan, PlanBuilder,
    QueryExecutor, QueryReport, QuerySession, RecoveryStrategy, RegistryRefresh, ResultCache,
    ScanOverrides, SchedulerConfig, SessionId, SessionReport, SessionScheduler, ShedEvent,
    ViewDiff, ViewRegistry, WorkloadReport,
};
pub use orchestra_optimizer::{
    choose_maintenance, compile, compile_delta_legs, estimate_plan_cost, fingerprint, LogicalExpr,
    LogicalQuery, MaintenanceChoice, MaintenanceDecision, PlanCost, Statistics, TableStats,
};
pub use orchestra_simnet::{ClusterProfile, SimTime};
pub use orchestra_storage::{DistributedStorage, RelationDelta, StorageConfig, UpdateBatch};
pub use orchestra_substrate::{
    AllocationScheme, Gossip, GossipConfig, MembershipChange, ReplicationPolicy, RoutingTable,
};
pub use orchestra_workloads::{
    compiled_plan, deploy, deploy_all, epoch_stream, mixed_stream, ConcatenateScenario,
    CopyScenario, EpochSpec, EpochStream, TpchDataset, TpchQuery, TpchWorkload, Workload,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reaches_every_layer() {
        // A miniature end-to-end pass using only facade re-exports.
        let routing = RoutingTable::build(
            &(0..3).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut store = DistributedStorage::new(routing, StorageConfig::default());
        store.register_relation(Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![
                ("k", common::ColumnType::Int),
                ("v", common::ColumnType::Int),
            ]),
        ));
        let mut batch = UpdateBatch::new();
        for k in 0..10 {
            batch.insert("R", Tuple::new(vec![Value::Int(k), Value::Int(k * k)]));
        }
        store.publish(&batch).unwrap();

        let mut b = PlanBuilder::new();
        let scan = b.scan("R", 2, None);
        let ship = b.ship(scan);
        let plan = b.output(ship);
        let exec = QueryExecutor::new(&store, EngineConfig::default());
        let report = exec.execute(&plan, Epoch(0), NodeId(0)).unwrap();
        assert_eq!(report.rows.len(), 10);
    }

    #[test]
    fn facade_reaches_workloads_and_bench() {
        // An experiment is one `use orchestra_core::*` away: deploy a
        // catalogue workload and sweep a failure-free scale-out.
        let workload = CopyScenario { seed: 5, rows: 60 };
        let points = run_scale_out(&workload, &[4], &EngineConfig::default(), false).unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].total_bytes > 0);
        let (storage, epoch) = deploy(&workload, 4).unwrap();
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&workload.reference_plan(), epoch, NodeId(0))
            .unwrap();
        assert_eq!(report.rows, workload.reference());
        assert!(!failure_sweep_points(report.running_time, 3).is_empty());
    }

    #[test]
    fn facade_reaches_the_session_scheduler() {
        // Two catalogue workloads scheduled concurrently over one
        // cluster, reached purely through facade re-exports.
        let q6 = TpchWorkload::scaled(TpchQuery::Q6, 3, 120);
        let copy = CopyScenario { seed: 3, rows: 60 };
        let all: [&dyn Workload; 2] = [&q6, &copy];
        let (storage, epoch) = deploy_all(&all, 4).unwrap();
        let stats = Statistics::collect(&storage, epoch);
        let sessions: Vec<QuerySession> = all
            .iter()
            .map(|w| {
                let plan = compile(&w.logical(), &stats).unwrap();
                let cost = estimate_plan_cost(&plan, &stats).unwrap().total();
                QuerySession {
                    name: w.name(),
                    plan,
                    epoch,
                    initiator: NodeId(0),
                    arrival: SimTime::ZERO,
                    fingerprint: Some(fingerprint(&w.logical())),
                    estimated_cost: cost,
                    overrides: Default::default(),
                    plan_resident: false,
                }
            })
            .collect();
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: 2,
            queue_capacity: 4,
            policy: AdmissionPolicy::ShortestCostFirst,
            slo: None,
        });
        let workload = scheduler
            .run(&storage, &EngineConfig::default(), &sessions)
            .unwrap();
        assert_eq!(workload.sessions.len(), 2);
        for (i, sr) in workload.sessions.iter().enumerate() {
            assert_eq!(sr.report.rows, all[i].reference(), "{}", sr.name);
        }
        assert!(workload.link_utilization > 0.0);
    }

    #[test]
    fn facade_reaches_view_maintenance() {
        // Materialize a workload answer, publish a delta epoch, absorb
        // it incrementally — all through facade re-exports.
        let w = CopyScenario { seed: 7, rows: 80 };
        let (mut storage, e0) = deploy(&w, 4).unwrap();
        let plan = compiled_plan(&w, &storage, e0).unwrap();
        let mut view = MaterializedView::new("copy", &plan).unwrap();
        refresh_view(
            &mut view,
            &storage,
            &EngineConfig::default(),
            MaintenanceMode::Recompute,
            e0,
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(view.answer(), w.reference());

        let stream = epoch_stream(&w, 3, &[EpochSpec::new(3, 2, 1)]).unwrap();
        let e1 = storage.publish(stream.batch(0)).unwrap();
        let run = refresh_view(
            &mut view,
            &storage,
            &EngineConfig::default(),
            MaintenanceMode::Incremental,
            e1,
            NodeId(0),
            None,
        )
        .unwrap();
        assert_eq!(run.legs, 1);
        assert_eq!(view.answer(), stream.reference(0));
        assert_eq!(view.epoch(), Some(e1));
    }

    #[test]
    fn facade_reaches_the_optimizer() {
        // Compile a catalogue workload's logical query through the
        // facade re-exports and execute the optimizer-chosen plan.
        let workload = TpchWorkload::scaled(TpchQuery::Q6, 9, 200);
        let (storage, epoch) = deploy(&workload, 4).unwrap();
        let plan = compiled_plan(&workload, &storage, epoch).unwrap();
        let stats = Statistics::collect(&storage, epoch);
        let cost = estimate_plan_cost(&plan, &stats).unwrap();
        let hand = estimate_plan_cost(&workload.reference_plan(), &stats).unwrap();
        assert!(cost.total() <= hand.total());
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap();
        assert_eq!(report.rows, workload.reference());
    }
}
