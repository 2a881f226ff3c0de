//! End-to-end soundness of the epoch-keyed result cache over the real
//! catalogue: every workload's cached answer must equal a fresh run, a
//! publication must force re-execution (no stale epoch ever served), a
//! capacity-squeezed cache must evict without corrupting its
//! accounting, and an answer recovered from a mid-query node failure
//! must be the one later hits return.

use orchestra_common::NodeId;
use orchestra_engine::{
    AdmissionPolicy, EngineConfig, EvictionPolicy, FailureSpec, QuerySession, ResultCache,
    SchedulerConfig, SessionScheduler,
};
use orchestra_optimizer::{estimate_plan_cost, fingerprint, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{deploy, deploy_all, epoch_stream, mixed_stream, EpochSpec, Workload};

const NODES: u16 = 6;

fn build_sessions(
    workloads: &[&dyn Workload],
    storage: &orchestra_storage::DistributedStorage,
    epoch: orchestra_common::Epoch,
) -> Vec<QuerySession> {
    let stats = Statistics::collect(storage, epoch);
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let plan = orchestra_optimizer::compile(&w.logical(), &stats).unwrap();
            let cost = estimate_plan_cost(&plan, &stats).unwrap().total();
            QuerySession {
                name: w.name(),
                plan,
                epoch,
                initiator: NodeId((i % NODES as usize) as u16),
                arrival: SimTime::ZERO,
                fingerprint: Some(fingerprint(&w.logical())),
                estimated_cost: cost,
                overrides: Default::default(),
                plan_resident: false,
            }
        })
        .collect()
}

fn scheduler(queue: usize) -> SessionScheduler {
    SessionScheduler::new(SchedulerConfig {
        max_concurrent: 2,
        queue_capacity: queue,
        policy: AdmissionPolicy::Fifo,
        slo: None,
    })
}

/// Every catalogue workload, served cold then warm: the warm answer
/// must come from the cache and equal both the cold answer and the
/// single-node reference.
#[test]
fn every_cached_catalogue_answer_equals_a_fresh_run() {
    let catalogue = mixed_stream(23, 120, 1);
    let workloads: Vec<&dyn Workload> = catalogue.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&workloads, NODES).unwrap();
    let sessions = build_sessions(&workloads, &storage, epoch);
    let scheduler = scheduler(sessions.len());
    let mut cache = ResultCache::new(sessions.len(), EvictionPolicy::Lru);
    let config = EngineConfig::default();

    let cold = scheduler
        .run(&storage, &config, &sessions, &[], Some(&mut cache))
        .unwrap();
    assert_eq!(cold.cache.hits, 0);
    assert_eq!(cold.cache.insertions, workloads.len() as u64);

    let warm = scheduler
        .run(&storage, &config, &sessions, &[], Some(&mut cache))
        .unwrap();
    assert_eq!(warm.cache.hits, workloads.len() as u64);
    assert!(warm.cache.bytes_saved > 0);
    assert_eq!(warm.total_bytes, 0, "a fully warm run ships nothing");
    for (i, sr) in warm.sessions.iter().enumerate() {
        assert!(sr.served_from_cache, "{} must hit", sr.name);
        assert_eq!(sr.latency, SimTime::ZERO);
        assert_eq!(
            sr.report.rows, cold.sessions[i].report.rows,
            "{}: cached answer differs from the fresh run",
            sr.name
        );
        assert_eq!(
            sr.report.rows,
            workloads[i].reference(),
            "{}: cached answer differs from the reference",
            sr.name
        );
    }
}

/// A publication bumps the epoch key: a warm cache for the old epoch
/// must not answer the new one — the query re-executes and returns the
/// *post-delta* answer.
#[test]
fn a_publication_forces_reexecution_never_a_stale_answer() {
    let workload = orchestra_workloads::CopyScenario { seed: 9, rows: 100 };
    let (mut storage, e0) = deploy(&workload, NODES).unwrap();
    let w: [&dyn Workload; 1] = [&workload];
    let sessions = build_sessions(&w, &storage, e0);
    let scheduler = scheduler(1);
    let mut cache = ResultCache::new(4, EvictionPolicy::Lru);
    let config = EngineConfig::default();

    let cold = scheduler
        .run(&storage, &config, &sessions, &[], Some(&mut cache))
        .unwrap();
    assert_eq!(cold.sessions[0].report.rows, workload.reference());

    // Publish a delta epoch; the answer changes.
    let stream = epoch_stream(&workload, 5, &[EpochSpec::new(4, 2, 1)]).unwrap();
    let e1 = storage.publish(stream.batch(0)).unwrap();
    assert_ne!(
        stream.reference(0),
        workload.reference(),
        "the delta must change the answer for this test to bite"
    );

    let sessions_e1 = build_sessions(&w, &storage, e1);
    let fresh = scheduler
        .run(&storage, &config, &sessions_e1, &[], Some(&mut cache))
        .unwrap();
    let sr = &fresh.sessions[0];
    assert!(!sr.served_from_cache, "a new epoch must miss");
    assert_eq!(
        sr.report.rows,
        stream.reference(0),
        "the re-executed answer must reflect the publication"
    );
    // Both epochs now coexist under distinct keys: the old epoch still
    // hits with the *old* answer, the new one with the new.
    let warm_old = scheduler
        .run(&storage, &config, &sessions, &[], Some(&mut cache))
        .unwrap();
    assert!(warm_old.sessions[0].served_from_cache);
    assert_eq!(warm_old.sessions[0].report.rows, workload.reference());
    let warm_new = scheduler
        .run(&storage, &config, &sessions_e1, &[], Some(&mut cache))
        .unwrap();
    assert!(warm_new.sessions[0].served_from_cache);
    assert_eq!(warm_new.sessions[0].report.rows, stream.reference(0));
}

/// A cache squeezed far below the distinct-query universe must keep its
/// books straight while evicting: sizes bounded, counters additive, and
/// every answer — hit or re-executed after eviction — still correct.
#[test]
fn eviction_under_capacity_pressure_never_corrupts_accounting() {
    let catalogue = mixed_stream(23, 100, 1);
    let workloads: Vec<&dyn Workload> = catalogue.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&workloads, NODES).unwrap();
    let sessions = build_sessions(&workloads, &storage, epoch);
    let scheduler = scheduler(sessions.len());
    let config = EngineConfig::default();

    for policy in [EvictionPolicy::Lru, EvictionPolicy::CostAware] {
        let mut cache = ResultCache::new(2, policy);
        for round in 0..3 {
            let report = scheduler
                .run(&storage, &config, &sessions, &[], Some(&mut cache))
                .unwrap();
            for (i, sr) in report.sessions.iter().enumerate() {
                assert_eq!(
                    sr.report.rows,
                    workloads[i].reference(),
                    "{policy:?} round {round}: {} answer",
                    sr.name
                );
            }
            assert!(
                cache.len() <= 2,
                "{policy:?}: capacity must bound the cache"
            );
        }
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            15,
            "{policy:?}: 3 rounds × 5 lookups"
        );
        assert_eq!(
            stats.insertions,
            stats.evictions + cache.len() as u64,
            "{policy:?}: every insertion is either resident or evicted"
        );
        assert!(stats.evictions > 0, "{policy:?}: pressure must evict");
        let entry_hits: u64 = cache.entries().iter().map(|e| e.hits).sum();
        assert!(
            entry_hits <= stats.hits,
            "{policy:?}: resident per-entry hits cannot exceed lifetime hits"
        );
    }
}

/// A node failure mid-query must not poison the cache: the fill happens
/// only after recovery completes, so the very next request hits and
/// returns the recovered (correct) answer with zero latency.
#[test]
fn a_hit_after_a_mid_query_failure_returns_the_recovered_answer() {
    let workload =
        orchestra_workloads::TpchWorkload::scaled(orchestra_workloads::TpchQuery::Q6, 23, 160);
    let (storage, epoch) = deploy(&workload, NODES).unwrap();
    let w: [&dyn Workload; 1] = [&workload];
    let sessions = build_sessions(&w, &storage, epoch);
    let scheduler = scheduler(1);
    let config = EngineConfig::default();

    // A failure-free run fixes the makespan the failure lands inside.
    let baseline = scheduler
        .run(&storage, &config, &sessions, &[], None)
        .unwrap();
    let failure = FailureSpec::at_time(
        NodeId(NODES - 1), // never the initiator (sessions start at node 0)
        SimTime::from_micros(baseline.makespan.as_micros() / 2),
    );

    let mut cache = ResultCache::new(2, EvictionPolicy::Lru);
    let failed = scheduler
        .run(&storage, &config, &sessions, &[failure], Some(&mut cache))
        .unwrap();
    assert!(
        failed.sessions[0].report.recovered,
        "the failure must actually interrupt the query"
    );
    assert_eq!(failed.sessions[0].report.rows, workload.reference());
    assert_eq!(
        failed.cache.insertions, 1,
        "only the recovered answer fills"
    );

    let warm = scheduler
        .run(&storage, &config, &sessions, &[], Some(&mut cache))
        .unwrap();
    assert!(warm.sessions[0].served_from_cache);
    assert_eq!(warm.sessions[0].latency, SimTime::ZERO);
    assert_eq!(
        warm.sessions[0].report.rows,
        workload.reference(),
        "the hit must return the recovered answer"
    );
}
