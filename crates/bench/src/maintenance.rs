//! The publication/incremental-maintenance experiment.
//!
//! [`run_maintenance`] drives the full CDSS lifecycle the paper opens
//! with: a workload is deployed and its answer materialized, then a
//! deterministic multi-epoch update stream
//! ([`orchestra_workloads::epoch_stream`]) publishes batch after batch,
//! and after every epoch the materialized answer is refreshed.  Each
//! sweep point fixes a per-epoch delta size ([`EpochSpec`]) and an epoch
//! count; for every published epoch the experiment
//!
//! 1. refreshes the optimizer statistics at the new epoch and asks the
//!    maintenance cost model
//!    ([`orchestra_optimizer::choose_maintenance`]) whether to absorb
//!    the batch incrementally or recompute;
//! 2. *measures both paths* — the incremental delta legs and the full
//!    recomputation each run on their own copy of the view state, so
//!    the JSON always reports both shipped-byte figures and the
//!    decision can be judged against ground truth;
//! 3. cross-checks the maintained answer of **both** paths against a
//!    fresh full run of the view's plan at the new epoch *and* against
//!    the stream's single-node reference — a wrong maintained answer
//!    fails the experiment, it never becomes a plausible number;
//! 4. carries the cost model's chosen state forward to the next epoch.
//!
//! Each sweep ends with a *failure epoch*: one more published batch is
//! maintained while a node is killed mid-maintenance, and the refreshed
//! answer must still be exact — the legs recover through the engine's
//! ordinary Restart/Incremental machinery.

use crate::json::Json;
use orchestra_common::{NodeId, OrchestraError, Result};
use orchestra_engine::{
    refresh_view, EngineConfig, FailureSpec, MaintenanceMode, MaintenanceRun, MaterializedView,
    QueryExecutor,
};
use orchestra_optimizer::{choose_maintenance, MaintenanceDecision, Statistics};
use orchestra_simnet::SimTime;
use orchestra_workloads::{compiled_plan, deploy, epoch_stream, EpochSpec, Workload};
use std::collections::BTreeMap;

use crate::experiments::INITIATOR;

/// One sweep point: how much churn each epoch publishes, and how many
/// epochs the stream runs before the failure epoch.
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceSweepSpec {
    /// Label carried into the JSON (`"small-delta"`, `"heavy-churn"`…).
    pub label: &'static str,
    /// Per-epoch, per-relation churn.
    pub spec: EpochSpec,
    /// Failure-free epochs to publish and maintain.
    pub epochs: usize,
}

/// One maintained epoch's measurements.
#[derive(Clone, Debug)]
pub struct MaintenanceEpochPoint {
    /// The published epoch.
    pub epoch: u64,
    /// Signed delta rows across all relations of the view.
    pub delta_rows: usize,
    /// The cost model's choice for this batch.
    pub decision: MaintenanceDecision,
    /// Estimated network bytes of the incremental legs.
    pub estimated_incremental_bytes: f64,
    /// Estimated network bytes of a recomputation.
    pub estimated_recompute_bytes: f64,
    /// Measured bytes the incremental refresh shipped.
    pub incremental_bytes: u64,
    /// Measured bytes the recomputation shipped.
    pub recompute_bytes: u64,
    /// Delta legs the incremental refresh ran.
    pub legs: usize,
    /// Rows of the maintained answer after the refresh.
    pub answer_rows: usize,
}

impl MaintenanceEpochPoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("epoch", Json::UInt(self.epoch)),
            ("delta_rows", Json::UInt(self.delta_rows as u64)),
            ("decision", Json::str(format!("{:?}", self.decision))),
            (
                "estimated_incremental_bytes",
                Json::Float(self.estimated_incremental_bytes),
            ),
            (
                "estimated_recompute_bytes",
                Json::Float(self.estimated_recompute_bytes),
            ),
            ("incremental_bytes", Json::UInt(self.incremental_bytes)),
            ("recompute_bytes", Json::UInt(self.recompute_bytes)),
            ("legs", Json::UInt(self.legs as u64)),
            ("answer_rows", Json::UInt(self.answer_rows as u64)),
        ])
    }
}

/// The failure epoch's outcome.
#[derive(Clone, Debug)]
pub struct MaintenanceFailurePoint {
    /// The node killed mid-maintenance.
    pub victim: NodeId,
    /// The virtual instant it was killed.
    pub failure_at: SimTime,
    /// Did the maintenance run actually execute a recovery round?
    pub recovered: bool,
    /// Bytes the failure-interrupted refresh shipped (recovery included).
    pub shipped_bytes: u64,
}

impl MaintenanceFailurePoint {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("victim", Json::UInt(self.victim.index() as u64)),
            ("failure_at_us", Json::UInt(self.failure_at.as_micros())),
            ("recovered", Json::Bool(self.recovered)),
            ("shipped_bytes", Json::UInt(self.shipped_bytes)),
        ])
    }
}

/// One sweep point's full result.
#[derive(Clone, Debug)]
pub struct MaintenanceSweep {
    /// The sweep's label.
    pub label: String,
    /// Per-epoch, per-relation churn of the sweep.
    pub spec: EpochSpec,
    /// One point per maintained epoch.
    pub points: Vec<MaintenanceEpochPoint>,
    /// Measured incremental bytes summed over the sweep's epochs.
    pub total_incremental_bytes: u64,
    /// Measured recompute bytes summed over the sweep's epochs.
    pub total_recompute_bytes: u64,
    /// The mid-maintenance failure check that closed the sweep.
    pub failure: MaintenanceFailurePoint,
}

impl MaintenanceSweep {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("label", Json::str(self.label.clone())),
            ("inserts", Json::UInt(self.spec.inserts as u64)),
            ("modifies", Json::UInt(self.spec.modifies as u64)),
            ("deletes", Json::UInt(self.spec.deletes as u64)),
            (
                "total_incremental_bytes",
                Json::UInt(self.total_incremental_bytes),
            ),
            (
                "total_recompute_bytes",
                Json::UInt(self.total_recompute_bytes),
            ),
            (
                "epochs",
                Json::Array(
                    self.points
                        .iter()
                        .map(MaintenanceEpochPoint::to_json)
                        .collect(),
                ),
            ),
            ("failure", self.failure.to_json()),
        ])
    }
}

/// The maintenance experiment's result for one workload.
#[derive(Clone, Debug)]
pub struct MaintenanceReport {
    /// The maintained workload.
    pub workload: String,
    /// Cluster size.
    pub nodes: u16,
    /// One entry per sweep point, in sweep order.
    pub sweeps: Vec<MaintenanceSweep>,
}

impl MaintenanceReport {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("workload", Json::str(self.workload.clone())),
            ("nodes", Json::UInt(self.nodes as u64)),
            (
                "sweeps",
                Json::Array(self.sweeps.iter().map(MaintenanceSweep::to_json).collect()),
            ),
        ])
    }
}

/// Run the maintenance experiment for one workload over `sweeps` (delta
/// size × epoch count), from a fresh deployment per sweep.
pub fn run_maintenance(
    workload: &dyn Workload,
    nodes: u16,
    seed: u64,
    sweeps: &[MaintenanceSweepSpec],
    config: &EngineConfig,
) -> Result<MaintenanceReport> {
    Ok(MaintenanceReport {
        workload: workload.name(),
        nodes,
        sweeps: sweeps
            .iter()
            .map(|sweep| run_sweep(workload, nodes, seed, sweep, config))
            .collect::<Result<Vec<MaintenanceSweep>>>()?,
    })
}

fn run_sweep(
    workload: &dyn Workload,
    nodes: u16,
    seed: u64,
    sweep: &MaintenanceSweepSpec,
    config: &EngineConfig,
) -> Result<MaintenanceSweep> {
    let (mut storage, base_epoch) = deploy(workload, nodes)?;
    let plan = compiled_plan(workload, &storage, base_epoch)?;
    let mut view = MaterializedView::new(workload.name(), &plan)?;
    if !view.supports_incremental() {
        return Err(OrchestraError::Execution(format!(
            "workload {} compiled to a recompute-only view: {}",
            workload.name(),
            view.maintenance().recompute_only().unwrap_or("unknown")
        )));
    }
    // Delta-first legs: the optimizer re-plans the query per pivot with
    // the pivot relation at delta cardinality, so each leg's join order
    // starts from the delta instead of re-running a full off-path join.
    let base_stats = Statistics::collect(&storage, base_epoch);
    let leg_inputs = orchestra_optimizer::compile_delta_legs(&workload.logical(), &base_stats)?;
    view.install_leg_plans(&leg_inputs)?;
    refresh_view(
        &mut view,
        &storage,
        config,
        MaintenanceMode::Recompute,
        base_epoch,
        INITIATOR,
        None,
    )?;
    let expected = workload.reference();
    if view.answer() != expected {
        return Err(OrchestraError::Execution(format!(
            "initial materialization of {} disagrees with the reference",
            workload.name()
        )));
    }

    // One extra epoch beyond the sweep's count: the failure epoch.
    let specs = vec![sweep.spec; sweep.epochs + 1];
    let stream = epoch_stream(workload, seed, &specs)?;
    let leg_relations: Vec<String> = view
        .maintenance()
        .legs()
        .iter()
        .map(|l| l.relation.clone())
        .collect();

    let mut out = MaintenanceSweep {
        label: sweep.label.to_string(),
        spec: sweep.spec,
        points: Vec::with_capacity(sweep.epochs),
        total_incremental_bytes: 0,
        total_recompute_bytes: 0,
        failure: MaintenanceFailurePoint {
            victim: NodeId(nodes - 1),
            failure_at: SimTime::ZERO,
            recovered: false,
            shipped_bytes: 0,
        },
    };

    for i in 0..sweep.epochs {
        let from = view.epoch().expect("view is materialized");
        let epoch = storage.publish(stream.batch(i))?;

        // Refresh the statistics at the published epoch and price both
        // strategies on the batch's actual signed delta sizes.
        let stats_old = Statistics::collect(&storage, from);
        let stats_new = Statistics::collect(&storage, epoch);
        let mut delta_rows: BTreeMap<String, usize> = BTreeMap::new();
        for relation in &leg_relations {
            if !delta_rows.contains_key(relation) {
                let delta = storage.delta(relation, from, epoch)?;
                delta_rows.insert(relation.clone(), delta.signed_row_count());
            }
        }
        let choice = choose_maintenance(
            view.maintenance().plan(),
            view.maintenance().legs(),
            &stats_old,
            &stats_new,
            &delta_rows,
        )?;

        // Measure both paths on their own copy of the state, then carry
        // the cost model's choice forward.
        let mut incremental_view = view.clone();
        let inc_run = refresh_view(
            &mut incremental_view,
            &storage,
            config,
            MaintenanceMode::Incremental,
            epoch,
            INITIATOR,
            None,
        )?;
        let mut recompute_view = view.clone();
        let rec_run = refresh_view(
            &mut recompute_view,
            &storage,
            config,
            MaintenanceMode::Recompute,
            epoch,
            INITIATOR,
            None,
        )?;

        let expected = stream.reference(i);
        let fresh = QueryExecutor::new(&storage, config.clone())
            .execute(&plan, epoch, INITIATOR)?
            .rows;
        if fresh != expected {
            return Err(OrchestraError::Execution(format!(
                "fresh run of {} at epoch {epoch} disagrees with the stream reference",
                workload.name()
            )));
        }
        for (label, maintained) in [
            ("incremental", &incremental_view),
            ("recompute", &recompute_view),
        ] {
            if maintained.answer() != expected {
                return Err(OrchestraError::Execution(format!(
                    "{label} maintenance of {} diverged at epoch {epoch}",
                    workload.name()
                )));
            }
        }

        out.total_incremental_bytes += inc_run.shipped_bytes;
        out.total_recompute_bytes += rec_run.shipped_bytes;
        out.points.push(MaintenanceEpochPoint {
            epoch: epoch.0,
            delta_rows: delta_rows.values().sum(),
            decision: choice.decision,
            estimated_incremental_bytes: choice.incremental_bytes,
            estimated_recompute_bytes: choice.recompute_bytes,
            incremental_bytes: inc_run.shipped_bytes,
            recompute_bytes: rec_run.shipped_bytes,
            legs: inc_run.legs,
            answer_rows: expected.len(),
        });
        view = match choice.decision {
            MaintenanceDecision::Incremental => incremental_view,
            MaintenanceDecision::Recompute => recompute_view,
        };
    }

    // The failure epoch: publish one more batch and kill a node halfway
    // through the (failure-free-calibrated) incremental refresh.
    let failure_idx = sweep.epochs;
    let epoch = storage.publish(stream.batch(failure_idx))?;
    let mut probe = view.clone();
    let probe_run: MaintenanceRun = refresh_view(
        &mut probe,
        &storage,
        config,
        MaintenanceMode::Incremental,
        epoch,
        INITIATOR,
        None,
    )?;
    let failure_at = SimTime::from_micros(probe_run.makespan.as_micros() / 2);
    let failure = FailureSpec::at_time(NodeId(nodes - 1), failure_at);
    let run = refresh_view(
        &mut view,
        &storage,
        config,
        MaintenanceMode::Incremental,
        epoch,
        INITIATOR,
        Some(failure),
    )?;
    if view.answer() != stream.reference(failure_idx) {
        return Err(OrchestraError::Execution(format!(
            "failure-interrupted maintenance of {} diverged at epoch {epoch}",
            workload.name()
        )));
    }
    out.failure = MaintenanceFailurePoint {
        victim: failure.node,
        failure_at,
        recovered: run.recovered,
        shipped_bytes: run.shipped_bytes,
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_workloads::{CopyScenario, TpchQuery, TpchWorkload};

    const SWEEPS: [MaintenanceSweepSpec; 2] = [
        MaintenanceSweepSpec {
            label: "small-delta",
            spec: EpochSpec {
                inserts: 4,
                modifies: 2,
                deletes: 2,
            },
            epochs: 3,
        },
        MaintenanceSweepSpec {
            label: "heavy-churn",
            spec: EpochSpec {
                inserts: 0,
                modifies: 400,
                deletes: 0,
            },
            epochs: 2,
        },
    ];

    #[test]
    fn small_deltas_ship_less_and_heavy_churn_flips_to_recompute() {
        for workload in [
            &TpchWorkload::scaled(TpchQuery::Q1, 17, 200) as &dyn Workload,
            &CopyScenario {
                seed: 17,
                rows: 200,
            },
        ] {
            let report =
                run_maintenance(workload, 6, 23, &SWEEPS, &EngineConfig::default()).unwrap();
            assert_eq!(report.sweeps.len(), 2, "{}", workload.name());
            let small = &report.sweeps[0];
            assert!(
                small.total_incremental_bytes < small.total_recompute_bytes,
                "{}: small deltas must ship fewer bytes incrementally ({} vs {})",
                workload.name(),
                small.total_incremental_bytes,
                small.total_recompute_bytes
            );
            assert!(small
                .points
                .iter()
                .all(|p| p.decision == MaintenanceDecision::Incremental));
            let churn = &report.sweeps[1];
            assert!(
                churn
                    .points
                    .iter()
                    .all(|p| p.decision == MaintenanceDecision::Recompute),
                "{}: churn that rewrites the relations must flip to recompute: {:?}",
                workload.name(),
                churn.points
            );
            // The failure epoch recovered to the exact answer (verified
            // inside the run) after genuinely being interrupted.
            assert!(small.failure.recovered, "{}", workload.name());
        }
    }

    #[test]
    fn join_views_maintain_across_epochs_and_render_json() {
        let w = TpchWorkload::scaled(TpchQuery::Q3, 19, 600);
        let sweeps = [MaintenanceSweepSpec {
            label: "small-delta",
            spec: EpochSpec::new(2, 1, 1),
            epochs: 5,
        }];
        let report = run_maintenance(&w, 6, 29, &sweeps, &EngineConfig::default()).unwrap();
        let sweep = &report.sweeps[0];
        assert_eq!(sweep.points.len(), 5);
        assert!(sweep.points.iter().all(|p| p.legs >= 1));
        assert!(sweep.total_incremental_bytes < sweep.total_recompute_bytes);
        let json = report.to_json().render();
        assert!(json.contains("\"total_incremental_bytes\""), "{json}");
        assert!(json.contains("\"failure\""), "{json}");
        assert!(json.contains("\"decision\""), "{json}");
        // Host timings stay out of the deterministic output.
        assert!(!json.contains("wall_clock"), "{json}");
    }
}
