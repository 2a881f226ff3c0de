//! The experiments that reproduce the paper's figures.
//!
//! Each experiment deploys a [`Workload`] onto a simulated cluster via
//! [`orchestra_workloads::deploy`], drives the
//! [`orchestra_engine::QueryExecutor`], and distils the returned
//! [`orchestra_engine::QueryReport`]s into result structs that render as
//! JSON (`to_json`):
//!
//! * [`run_scale_out`] (Figures 7–12) — running time and traffic as the
//!   participant count grows;
//! * [`run_recovery_sweep`] (Figures 13–14) — the added running time of
//!   Restart versus Incremental recovery as a function of when the
//!   failure strikes, swept over [`crate::failure_sweep_points`];
//! * [`run_tagging_overhead`] — traffic with and without recovery
//!   support, validating the paper's "at most 2%" claim;
//! * [`run_plan_quality`] — the optimizer-compiled plan versus the
//!   hand-built oracle: estimated cost under the shared network model,
//!   and measured traffic and simulated running time for both.
//!
//! Every workload executes through the System-R optimizer
//! ([`orchestra_workloads::compiled_plan`]): each deployment compiles
//! the workload's logical query against the cluster's live coordinator
//! statistics, exactly as an initiator would.

use crate::failure_sweep_points;
use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{EngineConfig, FailureSpec, QueryExecutor, RecoveryStrategy};
use orchestra_optimizer::{estimate_plan_cost, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{compiled_plan, deploy, Workload};

/// Every experiment initiates queries from node 0.
pub const INITIATOR: NodeId = NodeId(0);

/// One cluster size of a scale-out experiment.
#[derive(Clone, Debug)]
pub struct ScaleOutPoint {
    /// Participant count.
    pub nodes: u16,
    /// Simulated running time of the failure-free query.
    pub running_time: SimTime,
    /// Total bytes shipped between distinct nodes.
    pub total_bytes: u64,
    /// Total inter-node messages.
    pub total_messages: u64,
    /// Tuple versions fetched by all scans.
    pub tuples_scanned: usize,
}

impl ScaleOutPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("nodes", Json::UInt(self.nodes as u64)),
            ("running_time_us", Json::UInt(self.running_time.as_micros())),
            ("total_bytes", Json::UInt(self.total_bytes)),
            ("total_messages", Json::UInt(self.total_messages)),
            ("tuples_scanned", Json::UInt(self.tuples_scanned as u64)),
        ])
    }
}

/// Scale-out: run the workload failure-free on each cluster size and
/// record running time and traffic (Figures 7–12).
pub fn run_scale_out(
    workload: &dyn Workload,
    node_counts: &[u16],
    config: &EngineConfig,
) -> Result<Vec<ScaleOutPoint>> {
    let expected = workload.reference();
    let mut points = Vec::with_capacity(node_counts.len());
    for &nodes in node_counts {
        let (storage, epoch) = deploy(workload, nodes)?;
        // Re-plan per cluster size: the optimizer's choices depend on the
        // routing snapshot's participant count.
        let plan = compiled_plan(workload, &storage, epoch)?;
        let report =
            QueryExecutor::new(&storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "scale-out of {} on {nodes} nodes returned a wrong answer",
                workload.name()
            )));
        }
        points.push(ScaleOutPoint {
            nodes,
            running_time: report.running_time,
            total_bytes: report.total_bytes,
            total_messages: report.total_messages,
            tuples_scanned: report.tuples_scanned,
        });
    }
    Ok(points)
}

/// One (failure instant, strategy) cell of a recovery-cost sweep.
#[derive(Clone, Debug)]
pub struct RecoveryPoint {
    /// Recovery strategy in force.
    pub strategy: RecoveryStrategy,
    /// Virtual instant at which the victim was killed.
    pub failure_at: SimTime,
    /// Running time of the recovered query.
    pub running_time: SimTime,
    /// Added running time over the failure-free baseline.
    pub overhead: SimTime,
    /// Whether a recovery round actually ran (a failure can land after
    /// the victim already did all its work).
    pub recovered: bool,
    /// Rows and sub-groups purged as tainted (incremental only).
    pub purged: usize,
    /// Rows re-transmitted from output caches (incremental only).
    pub retransmitted: usize,
}

impl RecoveryPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("strategy", Json::str(format!("{:?}", self.strategy))),
            ("failure_at_us", Json::UInt(self.failure_at.as_micros())),
            ("running_time_us", Json::UInt(self.running_time.as_micros())),
            ("overhead_us", Json::UInt(self.overhead.as_micros())),
            ("recovered", Json::Bool(self.recovered)),
            ("purged", Json::UInt(self.purged as u64)),
            ("retransmitted", Json::UInt(self.retransmitted as u64)),
        ])
    }
}

/// A full recovery-cost sweep: the failure-free baseline plus one
/// [`RecoveryPoint`] per (failure instant, strategy).
#[derive(Clone, Debug)]
pub struct RecoverySweep {
    /// Cluster size.
    pub nodes: u16,
    /// The node killed in every failure run.
    pub victim: NodeId,
    /// Failure-free running time the overheads are measured against.
    pub baseline_running_time: SimTime,
    /// The sweep cells, ordered by failure instant then strategy.
    pub points: Vec<RecoveryPoint>,
}

impl RecoverySweep {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("nodes", Json::UInt(self.nodes as u64)),
            ("victim", Json::UInt(self.victim.index() as u64)),
            (
                "baseline_running_time_us",
                Json::UInt(self.baseline_running_time.as_micros()),
            ),
            (
                "points",
                Json::Array(self.points.iter().map(RecoveryPoint::to_json).collect()),
            ),
        ])
    }
}

/// Recovery cost (Figures 13–14): kill `victim` at each of
/// `sweep_points` instants spread across the failure-free running time
/// and measure the added running time under both Section V-D strategies.
pub fn run_recovery_sweep(
    workload: &dyn Workload,
    nodes: u16,
    victim: NodeId,
    sweep_points: usize,
    config: &EngineConfig,
) -> Result<RecoverySweep> {
    if victim == INITIATOR {
        return Err(OrchestraError::Execution(
            "the sweep victim cannot be the query initiator".into(),
        ));
    }
    let (storage, epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, epoch)?;
    let baseline = QueryExecutor::new(&storage, config.clone()).execute(&plan, epoch, INITIATOR)?;
    let expected = workload.reference();
    if baseline.rows != expected {
        return Err(OrchestraError::Execution(format!(
            "recovery sweep of {} returned a wrong baseline answer",
            workload.name()
        )));
    }

    let mut points = Vec::new();
    for failure_at in failure_sweep_points(baseline.running_time, sweep_points) {
        for strategy in [RecoveryStrategy::Restart, RecoveryStrategy::Incremental] {
            let run_config = EngineConfig {
                strategy,
                ..config.clone()
            };
            let report = QueryExecutor::new(&storage, run_config).execute_with_failure(
                &plan,
                epoch,
                INITIATOR,
                FailureSpec::at_time(victim, failure_at),
            )?;
            if report.rows != expected {
                return Err(OrchestraError::Execution(format!(
                    "{} under {strategy:?} at t={failure_at} returned a wrong answer",
                    workload.name()
                )));
            }
            points.push(RecoveryPoint {
                strategy,
                failure_at,
                running_time: report.running_time,
                overhead: report.running_time.saturating_sub(baseline.running_time),
                recovered: report.recovered,
                purged: report.purged,
                retransmitted: report.retransmitted,
            });
        }
    }
    Ok(RecoverySweep {
        nodes,
        victim,
        baseline_running_time: baseline.running_time,
        points,
    })
}

/// Traffic with and without provenance tags + output caches.
#[derive(Clone, Debug)]
pub struct TaggingOverhead {
    /// Total bytes with recovery support enabled.
    pub bytes_with_tags: u64,
    /// Total bytes with recovery support disabled.
    pub bytes_without_tags: u64,
    /// `bytes_with_tags / bytes_without_tags - 1`.
    pub overhead_fraction: f64,
}

impl TaggingOverhead {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("bytes_with_tags", Json::UInt(self.bytes_with_tags)),
            ("bytes_without_tags", Json::UInt(self.bytes_without_tags)),
            ("overhead_fraction", Json::Float(self.overhead_fraction)),
        ])
    }
}

/// Tagging overhead: run the workload failure-free with recovery support
/// on and off and compare total traffic — the paper reports "at most 2%".
pub fn run_tagging_overhead(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<TaggingOverhead> {
    let (storage, epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, epoch)?;
    let expected = workload.reference();
    let mut bytes = [0u64; 2];
    for (i, recovery) in [true, false].into_iter().enumerate() {
        let run_config = EngineConfig {
            recovery,
            // Restart is the only strategy valid without recovery
            // support; the run is failure-free so it never engages.
            strategy: RecoveryStrategy::Restart,
            ..config.clone()
        };
        let report = QueryExecutor::new(&storage, run_config).execute(&plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "tagging-overhead run of {} (recovery={recovery}) returned a wrong answer",
                workload.name()
            )));
        }
        bytes[i] = report.total_bytes;
    }
    let [with_tags, without_tags] = bytes;
    Ok(TaggingOverhead {
        bytes_with_tags: with_tags,
        bytes_without_tags: without_tags,
        overhead_fraction: with_tags as f64 / without_tags.max(1) as f64 - 1.0,
    })
}

/// The optimizer-chosen plan measured against the hand-built oracle:
/// estimated cost under the shared network model, plus executed traffic
/// and simulated running time for both.
#[derive(Clone, Debug)]
pub struct PlanQuality {
    /// Cluster size both plans ran on.
    pub nodes: u16,
    /// Estimated network bytes of the optimizer-compiled plan.
    pub optimized_estimated_bytes: f64,
    /// Estimated network bytes of the hand-built plan.
    pub hand_estimated_bytes: f64,
    /// `Rehash` operators in the optimizer-compiled plan.
    pub optimized_rehash_count: usize,
    /// `Rehash` operators in the hand-built plan.
    pub hand_rehash_count: usize,
    /// Measured traffic of the optimizer-compiled plan.
    pub optimized_bytes: u64,
    /// Measured traffic of the hand-built plan.
    pub hand_bytes: u64,
    /// Simulated running time of the optimizer-compiled plan.
    pub optimized_running_time: SimTime,
    /// Simulated running time of the hand-built plan.
    pub hand_running_time: SimTime,
}

impl PlanQuality {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "optimized_estimated_bytes",
                Json::Float(self.optimized_estimated_bytes),
            ),
            (
                "hand_estimated_bytes",
                Json::Float(self.hand_estimated_bytes),
            ),
            (
                "optimized_rehash_count",
                Json::UInt(self.optimized_rehash_count as u64),
            ),
            (
                "hand_rehash_count",
                Json::UInt(self.hand_rehash_count as u64),
            ),
            ("optimized_bytes", Json::UInt(self.optimized_bytes)),
            ("hand_bytes", Json::UInt(self.hand_bytes)),
            (
                "optimized_running_time_us",
                Json::UInt(self.optimized_running_time.as_micros()),
            ),
            (
                "hand_running_time_us",
                Json::UInt(self.hand_running_time.as_micros()),
            ),
        ])
    }
}

/// Plan quality: compile the workload's logical query against the
/// deployed cluster's statistics, execute both the compiled plan and the
/// hand-built oracle (each cross-checked against the reference), and
/// report estimated cost, measured traffic and simulated running time
/// for both.  Fails if the optimizer's estimated cost exceeds the
/// hand-built plan's.
pub fn run_plan_quality(
    workload: &dyn Workload,
    nodes: u16,
    config: &EngineConfig,
) -> Result<PlanQuality> {
    let (storage, epoch) = deploy(workload, nodes)?;
    // One statistics snapshot drives both the compilation and the cost
    // comparison, so the plan is costed against exactly the statistics
    // it was chosen under.
    let stats = Statistics::collect(&storage, epoch);
    let optimized = orchestra_optimizer::compile(&workload.logical(), &stats)?;
    let hand = workload.reference_plan();
    let optimized_cost = estimate_plan_cost(&optimized, &stats)?;
    let hand_cost = estimate_plan_cost(&hand, &stats)?;
    if optimized_cost.total() > hand_cost.total() {
        return Err(OrchestraError::Execution(format!(
            "the optimizer compiled {} to a plan estimated at {} bytes, worse than the \
             hand-built plan's {} bytes",
            workload.name(),
            optimized_cost.total(),
            hand_cost.total()
        )));
    }

    let expected = workload.reference();
    let mut reports = Vec::with_capacity(2);
    for (label, plan) in [("optimizer", &optimized), ("hand-built", &hand)] {
        let report =
            QueryExecutor::new(&storage, config.clone()).execute(plan, epoch, INITIATOR)?;
        if report.rows != expected {
            return Err(OrchestraError::Execution(format!(
                "plan-quality run of {} ({label} plan) returned a wrong answer",
                workload.name()
            )));
        }
        reports.push(report);
    }
    let hand_report = reports.pop().expect("two reports");
    let optimized_report = reports.pop().expect("two reports");
    Ok(PlanQuality {
        nodes,
        optimized_estimated_bytes: optimized_cost.total(),
        hand_estimated_bytes: hand_cost.total(),
        optimized_rehash_count: optimized.rehash_count(),
        hand_rehash_count: hand.rehash_count(),
        optimized_bytes: optimized_report.total_bytes,
        hand_bytes: hand_report.total_bytes,
        optimized_running_time: optimized_report.running_time,
        hand_running_time: hand_report.running_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::{CopyScenario, TpchQuery, TpchWorkload};

    #[test]
    fn scale_out_covers_every_cluster_size() {
        let w = CopyScenario { seed: 3, rows: 120 };
        let points = run_scale_out(&w, &[4, 6, 8], &EngineConfig::default()).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.total_bytes > 0));
        assert!(points.iter().all(|p| p.running_time > SimTime::ZERO));
        let json = points[0].to_json().render();
        assert!(json.contains("\"nodes\":4"), "{json}");
        // Host timings stay out of the deterministic output.
        assert!(!json.contains("wall_clock"), "{json}");
    }

    #[test]
    fn recovery_sweep_compares_both_strategies() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 5, 160);
        let sweep = run_recovery_sweep(&w, 6, NodeId(5), 2, &EngineConfig::default()).unwrap();
        assert_eq!(sweep.points.len(), 4, "2 instants × 2 strategies");
        assert!(sweep
            .points
            .iter()
            .any(|p| p.strategy == RecoveryStrategy::Restart));
        assert!(sweep
            .points
            .iter()
            .any(|p| p.strategy == RecoveryStrategy::Incremental));
        // Every cell was verified against the reference inside the run.
        let json = sweep.to_json().render();
        assert!(json.contains("\"baseline_running_time_us\""), "{json}");
    }

    #[test]
    fn sweeping_the_initiator_is_rejected() {
        let w = CopyScenario { seed: 3, rows: 40 };
        let err = run_recovery_sweep(&w, 4, INITIATOR, 2, &EngineConfig::default()).unwrap_err();
        assert!(err.message().contains("initiator"));
    }

    #[test]
    fn plan_quality_reports_both_plans_and_renders_json() {
        let w = TpchWorkload::scaled(TpchQuery::Q3, 5, 200);
        let quality = run_plan_quality(&w, 6, &EngineConfig::default()).unwrap();
        assert!(quality.optimized_estimated_bytes <= quality.hand_estimated_bytes);
        assert!(quality.optimized_rehash_count < quality.hand_rehash_count);
        assert!(quality.optimized_bytes > 0 && quality.hand_bytes > 0);
        assert!(
            quality.optimized_bytes < quality.hand_bytes,
            "fewer rehashes and pruned columns must show up in measured traffic: {} vs {}",
            quality.optimized_bytes,
            quality.hand_bytes
        );
        let json = quality.to_json().render();
        assert!(json.contains("\"optimized_estimated_bytes\""), "{json}");
        assert!(json.contains("\"hand_rehash_count\":4"), "{json}");
    }

    #[test]
    fn tagging_overhead_is_positive_and_consistent() {
        // At these scaled-down cardinalities the fixed 36-byte tag is
        // large relative to a tuple, so the fraction is far above the
        // paper's production-scale "at most 2%" — the experiment's job
        // is to measure it, not to hit a constant.
        let w = CopyScenario { seed: 9, rows: 300 };
        let overhead = run_tagging_overhead(&w, 6, &EngineConfig::default()).unwrap();
        assert!(
            overhead.bytes_with_tags > overhead.bytes_without_tags,
            "tags must cost something"
        );
        let expected = overhead.bytes_with_tags as f64 / overhead.bytes_without_tags as f64 - 1.0;
        assert!((overhead.overhead_fraction - expected).abs() < 1e-12);
        assert!(overhead.overhead_fraction > 0.0);
    }
}
