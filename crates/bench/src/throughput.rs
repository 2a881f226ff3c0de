//! The concurrent-workload throughput/latency experiment.
//!
//! Where every other experiment measures one query over a dedicated
//! simulated network, [`run_throughput`] drives a *mixed stream* of
//! catalogue sessions — the STBenchmark scenarios plus TPC-H Q1/Q3/Q6,
//! in the deterministic arrival order of
//! [`orchestra_workloads::mixed_stream`] — through the engine's
//! [`SessionScheduler`] over **one** shared cluster, swept across
//! concurrency levels.  Each session's plan is compiled by the System-R
//! optimizer against the deployed statistics, and its estimated cost
//! feeds the scheduler's cost-first admission policy.
//!
//! Every concurrent answer is cross-checked against the workload's
//! single-node reference before any number is reported, so contention
//! bugs fail loudly.  Each sweep point records makespan, per-query
//! latency and queue wait, aggregate traffic, and the shared network's
//! link utilization — the quantity that must *rise* with concurrency if
//! interleaving actually fills the idle links.

use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{
    AdmissionPolicy, EngineConfig, QuerySession, SchedulerConfig, SessionScheduler,
};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{deploy_all, mixed_stream};

/// One query's latency figures within a sweep point.
#[derive(Clone, Debug)]
pub struct QueryLatency {
    /// The workload the session ran.
    pub name: String,
    /// Virtual time spent queued before admission.
    pub queue_wait: SimTime,
    /// Admission-to-answer time.
    pub latency: SimTime,
    /// Bytes this session alone put on the wire.
    pub bytes: u64,
}

impl QueryLatency {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("workload", Json::str(self.name.clone())),
            ("queue_wait_us", Json::UInt(self.queue_wait.as_micros())),
            ("latency_us", Json::UInt(self.latency.as_micros())),
            ("bytes", Json::UInt(self.bytes)),
        ])
    }
}

/// One concurrency level of a throughput sweep.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Sessions allowed to execute at once.
    pub concurrency: usize,
    /// Completion instant of the last session.
    pub makespan: SimTime,
    /// Bytes shipped between distinct nodes, all sessions combined.
    pub total_bytes: u64,
    /// Inter-node messages, all sessions combined.
    pub total_messages: u64,
    /// Aggregate link utilization over the makespan window.
    pub link_utilization: f64,
    /// Most sessions actually executing at once.
    pub peak_concurrency: usize,
    /// Mean virtual time sessions spent queued.
    pub mean_queue_wait: SimTime,
    /// Median admission-to-answer latency.
    pub median_latency: SimTime,
    /// Worst admission-to-answer latency.
    pub max_latency: SimTime,
    /// Per-query figures, in submission order.
    pub queries: Vec<QueryLatency>,
}

impl ThroughputPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("concurrency", Json::UInt(self.concurrency as u64)),
            ("makespan_us", Json::UInt(self.makespan.as_micros())),
            ("total_bytes", Json::UInt(self.total_bytes)),
            ("total_messages", Json::UInt(self.total_messages)),
            ("link_utilization", Json::Float(self.link_utilization)),
            ("peak_concurrency", Json::UInt(self.peak_concurrency as u64)),
            (
                "mean_queue_wait_us",
                Json::UInt(self.mean_queue_wait.as_micros()),
            ),
            (
                "median_latency_us",
                Json::UInt(self.median_latency.as_micros()),
            ),
            ("max_latency_us", Json::UInt(self.max_latency.as_micros())),
            (
                "queries",
                Json::Array(self.queries.iter().map(QueryLatency::to_json).collect()),
            ),
        ])
    }
}

/// A full throughput sweep under one admission policy.
#[derive(Clone, Debug)]
pub struct ThroughputSweep {
    /// Cluster size.
    pub nodes: u16,
    /// Sessions in the mixed stream.
    pub sessions: usize,
    /// Admission policy in force.
    pub policy: AdmissionPolicy,
    /// One point per concurrency level, in sweep order.
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputSweep {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("policy", Json::str(format!("{:?}", self.policy))),
            ("nodes", Json::UInt(self.nodes as u64)),
            ("sessions", Json::UInt(self.sessions as u64)),
            (
                "levels",
                Json::Array(self.points.iter().map(ThroughputPoint::to_json).collect()),
            ),
        ])
    }
}

/// Throughput under concurrency: deploy the mixed stream's datasets onto
/// one `nodes`-node cluster, compile every session through the
/// optimizer, and run the stream at each of `concurrency_levels`,
/// cross-checking every answer against its workload's reference.
///
/// `seed` fixes both the generated data and the arrival order; `rows`
/// scales each workload; `copies` repeats the five-workload mix.
pub fn run_throughput(
    seed: u64,
    rows: usize,
    copies: usize,
    nodes: u16,
    concurrency_levels: &[usize],
    policy: AdmissionPolicy,
    config: &EngineConfig,
) -> Result<ThroughputSweep> {
    if concurrency_levels.is_empty() {
        return Err(OrchestraError::Execution(
            "a throughput sweep needs at least one concurrency level".into(),
        ));
    }
    let stream = mixed_stream(seed, rows, copies);
    let refs: Vec<&dyn orchestra_workloads::Workload> = stream.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&refs, nodes)?;
    let stats = Statistics::collect(&storage, epoch);

    // Compile once per session; the estimated cost feeds cost-first
    // admission.  Initiators round-robin over the cluster so the answer
    // streams do not all converge on one downlink.
    let mut sessions = Vec::with_capacity(stream.len());
    let mut expected = Vec::with_capacity(stream.len());
    for (i, workload) in stream.iter().enumerate() {
        let plan = orchestra_optimizer::compile(&workload.logical(), &stats)?;
        let cost = estimate_plan_cost(&plan, &stats)?.total();
        sessions.push(QuerySession {
            name: workload.name(),
            plan,
            epoch,
            initiator: NodeId((i % nodes as usize) as u16),
            arrival: SimTime::ZERO,
            fingerprint: Some(orchestra_optimizer::fingerprint(&workload.logical())),
            estimated_cost: cost,
            overrides: Default::default(),
            plan_resident: false,
        });
        expected.push(workload.reference());
    }

    let mut points = Vec::with_capacity(concurrency_levels.len());
    for &concurrency in concurrency_levels {
        let scheduler = SessionScheduler::new(SchedulerConfig {
            max_concurrent: concurrency,
            queue_capacity: sessions.len().max(1),
            policy,
            slo: None,
        });
        let workload = scheduler.run(&storage, config, &sessions, &[], None)?;
        for (i, sr) in workload.sessions.iter().enumerate() {
            if sr.report.rows != expected[i] {
                return Err(OrchestraError::Execution(format!(
                    "throughput run of {} at concurrency {concurrency} returned a wrong \
                     answer for session {i}",
                    sr.name
                )));
            }
        }
        let mut latencies: Vec<SimTime> = workload.sessions.iter().map(|sr| sr.latency).collect();
        latencies.sort();
        let median_latency = latencies[latencies.len() / 2];
        let max_latency = *latencies.last().expect("at least one session");
        let total_wait: u64 = workload
            .sessions
            .iter()
            .map(|sr| sr.queue_wait.as_micros())
            .sum();
        let queries = workload
            .sessions
            .iter()
            .map(|sr| QueryLatency {
                name: sr.name.clone(),
                queue_wait: sr.queue_wait,
                latency: sr.latency,
                bytes: sr.report.total_bytes,
            })
            .collect();
        points.push(ThroughputPoint {
            concurrency,
            makespan: workload.makespan,
            total_bytes: workload.total_bytes,
            total_messages: workload.total_messages,
            link_utilization: workload.link_utilization,
            peak_concurrency: workload.peak_concurrency,
            mean_queue_wait: SimTime::from_micros(total_wait / workload.sessions.len() as u64),
            median_latency,
            max_latency,
            queries,
        });
    }
    Ok(ThroughputSweep {
        nodes,
        sessions: sessions.len(),
        policy,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sweeps_concurrency_and_fills_the_links() {
        let sweep = run_throughput(
            7,
            120,
            1,
            6,
            &[1, 2, 5],
            AdmissionPolicy::Fifo,
            &EngineConfig::default(),
        )
        .unwrap();
        assert_eq!(sweep.sessions, 5);
        assert_eq!(sweep.points.len(), 3);
        // Every answer was cross-checked inside the run; here we check
        // the aggregate shape: concurrency shortens the makespan and
        // fills the shared links.
        let first = &sweep.points[0];
        let last = &sweep.points[2];
        assert!(last.makespan < first.makespan, "concurrency must pay off");
        assert!(
            last.link_utilization > first.link_utilization,
            "higher concurrency must raise link utilization: {} vs {}",
            last.link_utilization,
            first.link_utilization
        );
        assert_eq!(first.peak_concurrency, 1);
        assert!(last.peak_concurrency > 1);
        assert!(first.mean_queue_wait.as_micros() > 0);
        let json = sweep.to_json().render();
        assert!(json.contains("\"levels\""), "{json}");
        assert!(json.contains("\"link_utilization\""), "{json}");
    }

    #[test]
    fn cost_first_policy_runs_and_stays_deterministic() {
        let run = || {
            run_throughput(
                7,
                100,
                1,
                5,
                &[2],
                AdmissionPolicy::ShortestCostFirst,
                &EngineConfig::default(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json().render(), b.to_json().render());
        // Under cost-first the cheapest estimate is admitted first:
        // its queue wait is zero.
        let point = &a.points[0];
        assert!(point.queries.iter().any(|q| q.queue_wait == SimTime::ZERO));
    }
}
