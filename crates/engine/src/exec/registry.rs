//! Fan-out standing queries: one registry, many subscribed views, one
//! maintenance workload per epoch.
//!
//! A serving deployment registers hundreds of standing queries over the
//! same base relations.  Refreshing each [`MaterializedView`]
//! independently ([`super::refresh_view`]) pays O(views × delta) per
//! epoch: every view re-derives the same per-relation deltas and re-runs
//! overlapping delta legs.  [`ViewRegistry`] makes the per-epoch cost
//! sublinear in the number of registered views:
//!
//! 1. **Shared delta derivation** — the storage layer memoizes derived
//!    page diffs per `(relation, from, to)` interval
//!    ([`DistributedStorage::delta_derivations`] counts the misses), so
//!    however many views scan a changed relation, its delta is derived
//!    once per epoch and handed to all of them.
//! 2. **Leg sharing by plan fingerprint** — every delta-leg session a
//!    view demands is canonically encoded (leg plan, per-scan epoch
//!    pins/delta intervals, residency) and fingerprinted with the same
//!    [`QueryFingerprint`](orchestra_common::QueryFingerprint) machinery
//!    the result cache keys on.  Views whose legs collide — same pivot
//!    relation, same join prefix, same telescoped reads — execute the
//!    common segment **once**; the shared session's signed rows fork at
//!    the initiator, folding into every member view's own accumulator
//!    state (the divergence point: the stripped initiator-side
//!    aggregate is per-view local state, never shipped).
//! 3. **Per-view diff shipping** — after folding, each subscriber is
//!    notified with a *signed result diff* against its last acknowledged
//!    answer (insert/retract rows, the same ±1 sign convention the delta
//!    legs push), with exact shipped-byte accounting.  Diff bytes are
//!    reported separately from maintenance traffic and from result-cache
//!    savings, so serving JSON never double-counts.
//! 4. **One maintenance round per epoch** — all shared sessions of a
//!    refresh run in the same round [`super::refresh_view`] runs for a
//!    single view: one [`super::SessionScheduler`] submission, so fan-out
//!    maintenance multiplexes the same simulated network as ad-hoc
//!    traffic and inherits admission, shedding and failure-recovery
//!    semantics unchanged (a [`FailureSpec`] interrupts the whole
//!    refresh and every session recovers like any query).  A sketch
//!    fallback is a second round of recomputes.

use super::ivm::{delta_legs, recompute_session, run_round, Demand, MaterializedView};
use super::scheduler::WorkloadReport;
use super::{EngineConfig, FailureSpec};
use crate::plan::PhysicalPlan;
use orchestra_common::{Epoch, NodeId, OrchestraError, Result, Tuple};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;

/// The signed result diff shipped to one subscriber after a refresh —
/// the rows to insert into and retract from its last acknowledged
/// answer.  An unchanged view ships nothing.
#[derive(Clone, Debug)]
pub struct ViewDiff {
    /// The subscriber's view name.
    pub view: String,
    /// The epoch the diff brings the subscriber to.
    pub epoch: Epoch,
    /// Rows present in the new answer but not the acknowledged one.
    pub inserts: Vec<Tuple>,
    /// Rows present in the acknowledged answer but not the new one.
    pub retracts: Vec<Tuple>,
    /// Exact bytes shipped to the subscriber: each diff row's serialized
    /// size plus one sign byte (the ±1 convention of the delta legs).
    pub shipped_bytes: u64,
}

/// Measurements of one registry-wide refresh.
#[derive(Clone, Debug)]
pub struct RegistryRefresh {
    /// The epoch every registered view reflects after the refresh.
    pub epoch: Epoch,
    /// Registered views.
    pub views: usize,
    /// Sessions the views would have demanded if each refreshed
    /// independently (what `refresh_view` per view would run).
    pub leg_instances: usize,
    /// Shared sessions actually executed after fingerprint dedup.
    pub sessions_run: usize,
    /// Bytes shipped by the maintenance workload (all shared sessions).
    pub shipped_bytes: u64,
    /// Inter-node messages of the maintenance workload.
    pub shipped_messages: u64,
    /// Bytes shipped to subscribers as signed result diffs — reported
    /// under its own key, never folded into `shipped_bytes`.
    pub diff_bytes: u64,
    /// Virtual time from refresh start to the last session's completion.
    pub makespan: SimTime,
    /// Did any session run a failure-recovery round?
    pub recovered: bool,
    /// Epoch-interval page diffs derived by this refresh — the storage
    /// memo's cache misses, O(changed relations) however many views are
    /// registered.  (A failure refresh recovers against per-session
    /// scratch storage whose derivations are invisible here.)
    pub delta_derivations: u64,
    /// Views whose extremum sketches were exhausted by this refresh's
    /// retractions and that therefore fell back to a recompute (the
    /// recompute traffic is included in the totals above).
    pub sketch_fallbacks: usize,
    /// Per-subscriber signed diffs, in registration order.
    pub diffs: Vec<ViewDiff>,
}

impl RegistryRefresh {
    /// Add one maintenance round's measurements to the totals.
    fn absorb(&mut self, round: &WorkloadReport) {
        self.sessions_run += round.sessions.len();
        self.shipped_bytes += round.total_bytes;
        self.shipped_messages += round.total_messages;
        self.makespan += round.makespan;
        self.recovered |= round.sessions.iter().any(|s| s.report.recovered);
    }
}

/// A subscription layer over the IVM machinery: registered views are
/// kept exact across epochs by one shared maintenance workload per
/// refresh, and subscribers are notified with signed result diffs.
///
/// `Clone` duplicates every view's state — experiments use this to probe
/// a refresh (e.g. to calibrate a mid-maintenance failure instant) on a
/// throwaway copy.
#[derive(Clone)]
pub struct ViewRegistry {
    initiator: NodeId,
    views: Vec<MaterializedView>,
    acked: Vec<Vec<Tuple>>,
    recompiles: u64,
}

impl ViewRegistry {
    /// An empty registry whose maintenance sessions initiate at `node`.
    pub fn new(node: NodeId) -> ViewRegistry {
        ViewRegistry {
            initiator: node,
            views: Vec::new(),
            acked: Vec::new(),
            recompiles: 0,
        }
    }

    /// Register a view (typically freshly created — its first refresh
    /// recomputes).  Returns the subscriber id used by [`Self::view`].
    pub fn register(&mut self, view: MaterializedView) -> usize {
        self.views.push(view);
        self.acked.push(Vec::new());
        self.views.len() - 1
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The registered view behind subscriber `id`.
    pub fn view(&self, id: usize) -> &MaterializedView {
        &self.views[id]
    }

    /// Replace subscriber `id`'s delta legs with freshly compiled leg
    /// inputs — the drift-triggered re-optimization hook.  Delegates to
    /// [`MaterializedView::install_leg_plans`] (same coverage and
    /// fold-compatibility checks) and counts the recompilation.  The
    /// replaced dataflows are new to the participants, so the next
    /// refresh pays their full dissemination again — those bytes land in
    /// [`RegistryRefresh::shipped_bytes`], making the cost of a
    /// re-optimization explicit rather than amortized away.
    pub fn reinstall_legs(&mut self, id: usize, legs: &[(String, PhysicalPlan)]) -> Result<()> {
        self.views[id].install_leg_plans(legs)?;
        self.recompiles += 1;
        Ok(())
    }

    /// Drift-triggered leg recompilations performed so far.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// Refresh every registered view to `to_epoch` with one scheduler
    /// workload: sessions deduplicated across views by canonical plan
    /// fingerprint, deltas derived once per changed relation, and each
    /// subscriber notified with a signed diff against its last
    /// acknowledged answer.  `failure` interrupts the shared workload
    /// mid-maintenance; every session recovers under `engine.strategy`
    /// and every view still lands on its exact answer.
    pub fn refresh(
        &mut self,
        storage: &DistributedStorage,
        engine: &EngineConfig,
        to_epoch: Epoch,
        failure: Option<FailureSpec>,
    ) -> Result<RegistryRefresh> {
        if self.views.is_empty() {
            return Err(OrchestraError::Execution(
                "the registry has no views to refresh".into(),
            ));
        }
        let derivations_before = storage.delta_derivations();
        let mut demands: Vec<Demand> = Vec::new();
        for (id, view) in self.views.iter().enumerate() {
            match view.epoch() {
                // Unprimed (or recompute-only) views materialize from a
                // full run of the maintenance plan at the target epoch.
                None => demands.push(recompute_session(view, id, to_epoch, self.initiator)),
                Some(from) if from == to_epoch => {}
                Some(from) if from > to_epoch => {
                    return Err(OrchestraError::Execution(format!(
                        "view {} already reflects {from}, cannot refresh backwards to {to_epoch}",
                        view.name()
                    )));
                }
                Some(from) if view.supports_incremental() => demands.extend(delta_legs(
                    view,
                    id,
                    storage,
                    from,
                    to_epoch,
                    self.initiator,
                )),
                Some(_) => demands.push(recompute_session(view, id, to_epoch, self.initiator)),
            }
        }

        let mut refresh = RegistryRefresh {
            epoch: to_epoch,
            views: self.views.len(),
            leg_instances: demands.len(),
            sessions_run: 0,
            shipped_bytes: 0,
            shipped_messages: 0,
            diff_bytes: 0,
            makespan: SimTime::ZERO,
            recovered: false,
            delta_derivations: 0,
            sketch_fallbacks: 0,
            diffs: Vec::new(),
        };
        if let Some(round) = run_round(
            &mut self.views,
            demands,
            storage,
            engine,
            failure.as_slice(),
        )? {
            refresh.absorb(&round);
        }

        // Delete-heavy retractions can exhaust a view's extremum
        // sketches: its MIN/MAX is now among discarded runners-up.  Run
        // one recompute per affected view (deduplicated like any other
        // session) to rebuild the sketches before diffs are shipped.
        let fallback: Vec<Demand> = self
            .views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.sketch_exhausted())
            .map(|(id, v)| recompute_session(v, id, to_epoch, self.initiator))
            .collect();
        refresh.leg_instances += fallback.len();
        refresh.sketch_fallbacks = fallback.len();
        if let Some(round) = run_round(&mut self.views, fallback, storage, engine, &[])? {
            refresh.absorb(&round);
        }

        for (id, view) in self.views.iter_mut().enumerate() {
            view.set_epoch(to_epoch);
            let answer = view.answer();
            let (inserts, retracts) = signed_diff(&self.acked[id], &answer);
            let shipped_bytes: u64 = inserts
                .iter()
                .chain(&retracts)
                .map(|t| t.serialized_size() as u64 + 1)
                .sum();
            refresh.diff_bytes += shipped_bytes;
            refresh.diffs.push(ViewDiff {
                view: view.name().to_string(),
                epoch: to_epoch,
                inserts,
                retracts,
                shipped_bytes,
            });
            self.acked[id] = answer;
        }
        refresh.delta_derivations = storage.delta_derivations() - derivations_before;
        Ok(refresh)
    }
}

/// Signed diff of two sorted answers: `(inserts, retracts)` such that
/// removing the retracts from `old` and adding the inserts yields `new`,
/// multiset-exact (duplicate rows diff by count).
fn signed_diff(old: &[Tuple], new: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let (mut inserts, mut retracts) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) => match o.cmp(n) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    retracts.push(o.clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    inserts.push(n.clone());
                    j += 1;
                }
            },
            (Some(o), None) => {
                retracts.push(o.clone());
                i += 1;
            }
            (None, Some(n)) => {
                inserts.push(n.clone());
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    (inserts, retracts)
}
