//! Incremental view maintenance over the publication pipeline.
//!
//! A CDSS participant publishes a batch of updates, a new epoch appears,
//! and every *materialized workload answer* computed at the previous
//! epoch is stale.  This module maintains those answers across epochs by
//! pushing **signed delta tuples** through the ordinary push pipeline:
//!
//! 1. The storage layer derives the epoch interval's delta from the
//!    versioned index pages
//!    ([`orchestra_storage::DistributedStorage::delta_partition`]) —
//!    `+1` rows for versions the interval added, `-1` rows for versions
//!    it removed.
//! 2. [`MaintenancePlan::derive`] turns the view's compiled plan into a
//!    *maintenance plan*: the initiator-side aggregate is stripped (its
//!    finalized values — an `AVG` collapsed to a double — cannot absorb
//!    deltas), a hidden `COUNT` is appended to any distributed partial
//!    aggregate so every group's *support* travels with its state, and
//!    everything else (scans, selects, computes, rehashes, joins, the
//!    partial aggregate, ship) is kept verbatim.  Query answers are
//!    multilinear in their base relations, so the epoch-to-epoch change
//!    telescopes into one *leg* per leaf relation: in leg *i*, relations
//!    before *i* read the new epoch, relation *i* reads the signed
//!    delta, relations after *i* read the old epoch.  On each leg's
//!    pivot path the delta stream crosses a [`OperatorKind::Broadcast`]
//!    into its joins while the stationary side is joined in place, so a
//!    small delta ships `O(|Δ| × n)` bytes instead of re-shipping full
//!    relations.  Callers can go further and install legs whose *join
//!    order* was chosen by the optimizer for a delta-sized pivot
//!    ([`MaterializedView::install_leg_plans`]).
//! 3. One *maintenance round* runs the legs as ordinary sessions under
//!    the [`SessionScheduler`] — they multiplex one simulated network,
//!    carry provenance tags, and survive a mid-maintenance node failure
//!    through the existing Restart/Incremental recovery (a delta scan,
//!    like a full scan, is deterministically re-runnable over inherited
//!    ranges).  The signed rows each leg ships to the initiator are
//!    folded into the [`MaterializedView`]'s per-group accumulator state
//!    (or counted multiset, for aggregate-free views).  Both refresh
//!    drivers — [`refresh_view`] for one view and
//!    [`super::ViewRegistry::refresh`] for many — build their sessions
//!    as demands on that same round.
//!
//! Full recomputation rides the same machinery: one session over the
//! maintenance plan with every scan at the target epoch and the view
//! state rebuilt from scratch.  Whether a published batch is cheaper to
//! absorb incrementally or to recompute is the optimizer's call
//! (`orchestra_optimizer`'s maintenance cost model); this module
//! executes either decision.  Maintenance dataflows are *installed* at
//! the participants by the first refresh; later refreshes ship only the
//! epoch parameters and the routing snapshot.
//!
//! `COUNT`/`SUM`/`AVG` are subtractable and maintainable.  An
//! initiator-side (`Single`) `MIN`/`MAX` is maintained through a
//! bounded per-group [`ExtremumSketch`]: retractions fold exactly from
//! the tracked runners-up, and only when deletions exhaust a group's
//! tracked set does [`refresh_view`] fall back to one recompute (which
//! rebuilds every sketch).  A *distributed partial* `MIN`/`MAX`
//! collapses runner-up multiplicity before shipping, so it — like views
//! over replicated/covering scans (no delta path) or over a self-join —
//! reports itself recompute-only.

use super::scheduler::{
    AdmissionPolicy, QuerySession, SchedulerConfig, SessionScheduler, WorkloadReport,
};
use super::{EngineConfig, FailureSpec};
use crate::expr::AggFunc;
use crate::ops::{Accumulator, ExtremumKind, ExtremumSketch, EXTREMUM_SKETCH_K};
use crate::plan::{AggMode, OpId, OperatorKind, PhysicalPlan, PlanBuilder};
use orchestra_common::{Epoch, NodeId, OrchestraError, QueryFingerprint, Result, Tuple, Value};
use orchestra_simnet::SimTime;
use orchestra_storage::DistributedStorage;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Per-scan read instructions for one session: pin a leaf scan to an
/// epoch other than the session's, or turn it into a *signed delta scan*
/// over an epoch interval.  An empty override set (the default) is an
/// ordinary query.
#[derive(Clone, Debug, Default)]
pub struct ScanOverrides {
    epochs: HashMap<OpId, Epoch>,
    deltas: HashMap<OpId, (Epoch, Epoch)>,
}

impl ScanOverrides {
    /// No overrides: every scan reads the session's epoch.
    pub fn new() -> ScanOverrides {
        ScanOverrides::default()
    }

    /// Pin scan `op` to read the snapshot at `epoch`.
    pub fn read_at(&mut self, op: OpId, epoch: Epoch) -> &mut Self {
        self.deltas.remove(&op);
        self.epochs.insert(op, epoch);
        self
    }

    /// Turn scan `op` into a signed delta scan over `from..to`.
    pub fn read_delta(&mut self, op: OpId, from: Epoch, to: Epoch) -> &mut Self {
        self.epochs.remove(&op);
        self.deltas.insert(op, (from, to));
        self
    }

    /// Is this the ordinary-query (no overrides) configuration?
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty() && self.deltas.is_empty()
    }

    pub(super) fn epoch_of(&self, op: OpId) -> Option<Epoch> {
        self.epochs.get(&op).copied()
    }

    pub(super) fn delta_of(&self, op: OpId) -> Option<(Epoch, Epoch)> {
        self.deltas.get(&op).copied()
    }
}

/// How the signed rows a maintenance session ships to the initiator fold
/// into the view state — determined by what the stripped aggregate was.
/// Different sessions of one view may fold differently (an
/// optimizer-compiled leg may place aggregation differently than the
/// base plan); `Raw` and `Partial` folds accumulate into the same
/// per-group accumulator state.
#[derive(Clone, Debug, PartialEq)]
pub enum FoldMode {
    /// No aggregation: the view is a counted multiset of answer rows.
    Multiset,
    /// A `Single` aggregate was stripped: rows are its raw input layout.
    Raw {
        /// Grouping columns of the raw layout.
        group_by: Vec<usize>,
        /// Aggregate functions and their raw input columns.
        aggs: Vec<(AggFunc, usize)>,
    },
    /// A `Final` aggregate was stripped: rows are the distributed
    /// partial-aggregate layout plus the hidden support count.
    Partial {
        /// Grouping columns of the partial layout.
        group_by: Vec<usize>,
        /// Aggregate functions and the columns their partial states
        /// start at.
        aggs: Vec<(AggFunc, usize)>,
        /// Column of the hidden support `COUNT` appended by the
        /// maintenance rewrite.
        count_col: usize,
    },
}

impl FoldMode {
    /// `(groups, aggregates)` of an aggregate fold, `None` for multiset.
    fn shape(&self) -> Option<(usize, usize)> {
        match self {
            FoldMode::Multiset => None,
            FoldMode::Raw { group_by, aggs } | FoldMode::Partial { group_by, aggs, .. } => {
                Some((group_by.len(), aggs.len()))
            }
        }
    }
}

/// One delta leg of a maintenance plan: the rewritten physical plan that
/// pushes relation `relation`'s signed delta through the view, plus how
/// that plan's shipped rows fold into the view state.
#[derive(Clone, Debug)]
pub struct MaintenanceLeg {
    /// The pivot relation whose delta this leg absorbs.
    pub relation: String,
    /// The leg's physical plan (pivot path broadcast, stationary sides
    /// joined in place).
    pub plan: PhysicalPlan,
    /// How this leg's shipped rows fold into the view.
    pub fold: FoldMode,
}

/// A view's compiled plan rewritten for maintenance: initiator-side
/// aggregates stripped, hidden support count appended to partial
/// aggregates, plus the fold recipe, the leaf-scan table, and one
/// [`MaintenanceLeg`] per leaf relation.
///
/// Leg order is the *telescoping order*: leg *i* reads relations before
/// *i* at the new epoch and relations after *i* at the old epoch.  Any
/// fixed order is correct as long as every leg of one refresh uses the
/// same one.
#[derive(Clone, Debug)]
pub struct MaintenancePlan {
    plan: PhysicalPlan,
    fold: FoldMode,
    scans: Vec<(OpId, String)>,
    legs: Vec<MaintenanceLeg>,
    recompute_only: Option<String>,
}

/// The `(group_by, aggs, mode)` of a stripped initiator-side aggregate.
type StrippedAgg = (Vec<usize>, Vec<(AggFunc, usize)>, AggMode);

/// The initiator-side aggregates stripped from a plan (at most one) and
/// the subtree root the maintenance body is rebuilt from.
struct StrippedShape {
    body: OpId,
    stripped: Option<StrippedAgg>,
}

/// Walk down from `Output` through the initiator-side aggregates to be
/// stripped.
fn strip_shape(original: &PhysicalPlan) -> Result<StrippedShape> {
    let mut cursor = original.op(original.root()).children[0];
    let mut stripped = None;
    while let OperatorKind::Aggregate {
        group_by,
        aggs,
        mode: mode @ (AggMode::Single | AggMode::Final),
    } = &original.op(cursor).kind
    {
        if stripped.is_some() {
            return Err(OrchestraError::Execution(
                "maintenance cannot express stacked initiator-side aggregates".into(),
            ));
        }
        stripped = Some((group_by.clone(), aggs.clone(), *mode));
        cursor = original.op(cursor).children[0];
    }
    Ok(StrippedShape {
        body: cursor,
        stripped,
    })
}

/// The fold mode of a rebuilt maintenance body, given what was stripped.
fn fold_of(stripped: &Option<StrippedAgg>, rebuilt: &PhysicalPlan) -> FoldMode {
    match stripped {
        None => FoldMode::Multiset,
        Some((group_by, aggs, AggMode::Single)) => FoldMode::Raw {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        Some((group_by, aggs, AggMode::Final)) => {
            // The hidden support count is the last column of the
            // (augmented) partial layout the ship operator forwards.
            let count_col = rebuilt.op(rebuilt.root()).arity - 1;
            FoldMode::Partial {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                count_col,
            }
        }
        Some((_, _, AggMode::Partial)) => unreachable!("only Single/Final are stripped"),
    }
}

impl MaintenancePlan {
    /// Rewrite `original` (a plan as compiled by the optimizer or built
    /// by hand) into its maintenance form.  Fails on shapes maintenance
    /// cannot express: an aggregate that is not directly below `Output`,
    /// or stacked initiator-side aggregates.
    pub fn derive(original: &PhysicalPlan) -> Result<MaintenancePlan> {
        let shape = strip_shape(original)?;
        let strip_final = matches!(shape.stripped, Some((_, _, AggMode::Final)));
        let mut builder = PlanBuilder::new();
        let body = rebuild(original, shape.body, &mut builder, strip_final)?;
        let plan = builder.output(body);

        let scans: Vec<(OpId, String)> = plan
            .scans()
            .into_iter()
            .map(|id| (id, scan_relation(&plan, id).to_string()))
            .collect();
        let fold = fold_of(&shape.stripped, &plan);

        let mut recompute_only = None;
        // Raw (initiator-side) MIN/MAX folds through a bounded
        // `ExtremumSketch` and stays incremental; a distributed partial
        // MIN/MAX collapses runner-up multiplicity before shipping, so
        // its retractions genuinely cannot be folded.
        if let FoldMode::Partial { aggs, .. } = &fold {
            if let Some((f, _)) = aggs
                .iter()
                .find(|(f, _)| !Accumulator::new(*f).is_subtractable())
            {
                recompute_only = Some(format!(
                    "distributed partial {f:?} collapses runners-up; retractions cannot be folded"
                ));
            }
        }
        if let Some((_, relation)) = scans
            .iter()
            .find(|(id, _)| !matches!(plan.op(*id).kind, OperatorKind::DistributedScan { .. }))
        {
            recompute_only = Some(format!(
                "scan of {relation} is not a distributed scan and has no delta path"
            ));
        }
        let mut seen: Vec<&str> = Vec::new();
        for (_, relation) in &scans {
            if seen.contains(&relation.as_str()) {
                recompute_only = Some(format!(
                    "{relation} is scanned twice (self-join); telescoped deltas need \
                     distinct pivot relations"
                ));
            }
            seen.push(relation);
        }

        let mut maintenance = MaintenancePlan {
            plan,
            fold,
            scans,
            legs: Vec::new(),
            recompute_only,
        };
        if maintenance.recompute_only.is_none() {
            // Default legs: the base plan's own join order, pivot path
            // broadcast.  Callers can replace them with optimizer-chosen
            // join orders via `MaterializedView::install_leg_plans`.
            maintenance.legs = maintenance
                .scans
                .iter()
                .map(|(_, relation)| derive_leg(original, relation))
                .collect::<Result<Vec<MaintenanceLeg>>>()?;
        }
        Ok(maintenance)
    }

    /// The rewritten physical plan maintenance sessions execute.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// How the base plan's shipped rows fold into view state.
    pub fn fold(&self) -> &FoldMode {
        &self.fold
    }

    /// The leaf scans (operator id, relation) of the base plan, in
    /// operator order.
    pub fn scans(&self) -> &[(OpId, String)] {
        &self.scans
    }

    /// The delta legs in telescoping order (empty for recompute-only
    /// views).
    pub fn legs(&self) -> &[MaintenanceLeg] {
        &self.legs
    }

    /// Why incremental maintenance is unavailable, if it is.
    pub fn recompute_only(&self) -> Option<&str> {
        self.recompute_only.as_deref()
    }
}

/// Rewrite one plan (base plan or optimizer-compiled leg input) into the
/// delta leg pivoting on `relation`: strip the initiator-side aggregate,
/// broadcast the pivot path into its joins, splice the stationary sides'
/// alignment rehashes.
fn derive_leg(original: &PhysicalPlan, relation: &str) -> Result<MaintenanceLeg> {
    let shape = strip_shape(original)?;
    let strip_final = matches!(shape.stripped, Some((_, _, AggMode::Final)));
    let pivot = dfs_scans(original, shape.body)
        .into_iter()
        .find(|op| scan_relation(original, *op) == relation)
        .ok_or_else(|| {
            OrchestraError::Execution(format!("leg plan for {relation} scans no such relation"))
        })?;
    let mut builder = PlanBuilder::new();
    let (body, _) = rebuild_leg(original, shape.body, pivot, &mut builder, strip_final)?;
    let plan = builder.output(body);
    let fold = fold_of(&shape.stripped, &plan);
    Ok(MaintenanceLeg {
        relation: relation.to_string(),
        plan,
        fold,
    })
}

/// The relation a scan operator reads.
fn scan_relation(plan: &PhysicalPlan, op: OpId) -> &str {
    match &plan.op(op).kind {
        OperatorKind::DistributedScan { relation, .. }
        | OperatorKind::CoveringIndexScan { relation, .. }
        | OperatorKind::ReplicatedScan { relation, .. } => relation,
        _ => unreachable!("scan ops only"),
    }
}

/// Clone the subtree rooted at `op` into `builder`, appending a hidden
/// support `COUNT` to distributed partial aggregates when the final
/// aggregate above them was stripped.
fn rebuild(
    original: &PhysicalPlan,
    op: OpId,
    builder: &mut PlanBuilder,
    strip_final: bool,
) -> Result<OpId> {
    let operator = original.op(op);
    Ok(match &operator.kind {
        OperatorKind::DistributedScan {
            relation,
            predicate,
        } => builder.scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::CoveringIndexScan {
            relation,
            predicate,
        } => builder.covering_index_scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::ReplicatedScan {
            relation,
            predicate,
        } => builder.replicated_scan(relation.clone(), operator.arity, predicate.clone()),
        OperatorKind::Select { predicate } => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.select(child, predicate.clone())
        }
        OperatorKind::Project { columns } => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.project(child, columns.clone())
        }
        OperatorKind::ComputeFunction { exprs } => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.compute(child, exprs.clone())
        }
        OperatorKind::HashJoin {
            left_keys,
            right_keys,
        } => {
            let left = rebuild(original, operator.children[0], builder, strip_final)?;
            let right = rebuild(original, operator.children[1], builder, strip_final)?;
            builder.hash_join(left, right, left_keys.clone(), right_keys.clone())
        }
        OperatorKind::Aggregate {
            group_by,
            aggs,
            mode: AggMode::Partial,
        } => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            let mut aggs = aggs.clone();
            if strip_final {
                // The hidden support count: how many signed raw rows the
                // group currently rests on, so the view can drop groups
                // whose support reaches zero.
                aggs.push((AggFunc::Count, 0));
            }
            builder.aggregate(child, group_by.clone(), aggs, AggMode::Partial)
        }
        OperatorKind::Aggregate { .. } => {
            return Err(OrchestraError::Execution(
                "maintenance requires initiator-side aggregates directly below Output".into(),
            ))
        }
        OperatorKind::Rehash { columns } => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.rehash(child, columns.clone())
        }
        OperatorKind::Broadcast => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.broadcast(child)
        }
        OperatorKind::Ship => {
            let child = rebuild(original, operator.children[0], builder, strip_final)?;
            builder.ship(child)
        }
        OperatorKind::Output => {
            return Err(OrchestraError::Execution(
                "Output cannot appear below the maintenance root".into(),
            ))
        }
    })
}

/// The leaf scans under `op` in depth-first, left-to-right order — the
/// order in which [`rebuild`]/[`rebuild_leg`] push them, and therefore
/// the order of the rewritten plans' [`PhysicalPlan::scans`].
fn dfs_scans(plan: &PhysicalPlan, op: OpId) -> Vec<OpId> {
    let operator = plan.op(op);
    if operator.kind.is_scan() {
        return vec![op];
    }
    operator
        .children
        .iter()
        .flat_map(|c| dfs_scans(plan, *c))
        .collect()
}

/// Does the subtree rooted at `op` contain the leaf scan `pivot`?
fn subtree_contains(plan: &PhysicalPlan, op: OpId, pivot: OpId) -> bool {
    op == pivot
        || plan
            .op(op)
            .children
            .iter()
            .any(|c| subtree_contains(plan, *c, pivot))
}

/// Clone the subtree rooted at `op` into a *delta leg* pivoting on the
/// leaf scan `pivot`: at every join with exactly one pivot-side input,
/// the pivot side crosses a `Broadcast` (a directly-below alignment
/// `Rehash` is replaced by it) and a directly-below `Rehash` on the
/// stationary side is spliced out — the stationary rows are joined in
/// place, which is correct under any disjoint partitioning because each
/// stationary row exists at exactly one node.  Everything off the pivot
/// path is cloned verbatim.  Returns the new op id plus whether the
/// subtree contains the pivot.
fn rebuild_leg(
    original: &PhysicalPlan,
    op: OpId,
    pivot: OpId,
    builder: &mut PlanBuilder,
    strip_final: bool,
) -> Result<(OpId, bool)> {
    let operator = original.op(op);
    if let OperatorKind::HashJoin {
        left_keys,
        right_keys,
    } = &operator.kind
    {
        let (left, right) = (operator.children[0], operator.children[1]);
        let left_has = subtree_contains(original, left, pivot);
        let right_has = subtree_contains(original, right, pivot);
        if left_has || right_has {
            // A join that already carries a Broadcast (a leg compiled by
            // the broadcast-aware planner) is exchange-correct for any
            // pivot size: keep its structure, recursing the pivot side
            // only to reach deeper joins.
            let already_broadcast = [left, right]
                .iter()
                .any(|c| matches!(original.op(*c).kind, OperatorKind::Broadcast));
            let mut build_side = |child: OpId, is_pivot: bool| -> Result<OpId> {
                if already_broadcast {
                    return Ok(if is_pivot {
                        rebuild_leg(original, child, pivot, builder, strip_final)?.0
                    } else {
                        rebuild(original, child, builder, strip_final)?
                    });
                }
                // Rebuild the pivot input as the broadcast delta stream
                // (replacing its alignment rehash, if any) and splice
                // the stationary side's alignment rehash out.
                let spliced = match &original.op(child).kind {
                    OperatorKind::Rehash { .. } => original.op(child).children[0],
                    _ => child,
                };
                Ok(if is_pivot {
                    let (inner, _) = rebuild_leg(original, spliced, pivot, builder, strip_final)?;
                    builder.broadcast(inner)
                } else {
                    rebuild(original, spliced, builder, strip_final)?
                })
            };
            let l = build_side(left, left_has)?;
            let r = build_side(right, right_has)?;
            let id = builder.hash_join(l, r, left_keys.clone(), right_keys.clone());
            return Ok((id, true));
        }
        // A join entirely off the pivot path keeps its alignment.
        let l = rebuild(original, left, builder, strip_final)?;
        let r = rebuild(original, right, builder, strip_final)?;
        return Ok((
            builder.hash_join(l, r, left_keys.clone(), right_keys.clone()),
            false,
        ));
    }
    if operator.kind.is_scan() {
        let id = rebuild(original, op, builder, strip_final)?;
        return Ok((id, op == pivot));
    }
    // Unary operators: recurse along the (potential) pivot path.
    let (child, contains) =
        rebuild_leg(original, operator.children[0], pivot, builder, strip_final)?;
    let id = match &operator.kind {
        OperatorKind::Select { predicate } => builder.select(child, predicate.clone()),
        OperatorKind::Project { columns } => builder.project(child, columns.clone()),
        OperatorKind::ComputeFunction { exprs } => builder.compute(child, exprs.clone()),
        OperatorKind::Aggregate {
            group_by,
            aggs,
            mode: AggMode::Partial,
        } => {
            let mut aggs = aggs.clone();
            if strip_final {
                aggs.push((AggFunc::Count, 0));
            }
            builder.aggregate(child, group_by.clone(), aggs, AggMode::Partial)
        }
        OperatorKind::Rehash { columns } => builder.rehash(child, columns.clone()),
        OperatorKind::Broadcast => builder.broadcast(child),
        OperatorKind::Ship => builder.ship(child),
        other => {
            return Err(OrchestraError::Execution(format!(
                "maintenance legs cannot express {}",
                other.name()
            )))
        }
    };
    Ok((id, contains))
}

/// Mergeable state of one view group: the accumulators plus the hidden
/// support count that decides when the group disappears.  A raw-fold
/// MIN/MAX position carries an [`ExtremumSketch`] instead of using its
/// (placeholder) accumulator, making retractions foldable up to sketch
/// exhaustion.
#[derive(Clone, Debug)]
struct GroupState {
    support: i64,
    accs: Vec<Accumulator>,
    sketches: Vec<Option<ExtremumSketch>>,
}

/// A materialized workload answer maintained across epochs.
///
/// The view keeps its state in *mergeable* form — per-group accumulators
/// (so an `AVG` is still a subtractable `(sum, count)` pair, not a
/// collapsed double) or a counted multiset — and finalizes on demand:
/// [`MaterializedView::answer`] is tuple-for-tuple equal to a fresh full
/// run of the view's original plan at [`MaterializedView::epoch`].
#[derive(Clone, Debug)]
pub struct MaterializedView {
    name: String,
    maintenance: MaintenancePlan,
    epoch: Option<Epoch>,
    /// Which maintenance dataflows the participants already hold.  A
    /// flow's first *successful* run disseminates (installs) it — full
    /// plan bytes; later runs of the same flow ship parameters only.
    /// The base (recompute) plan and each delta leg install separately,
    /// and [`MaterializedView::install_leg_plans`] resets the legs.
    installed_base: bool,
    installed_legs: std::collections::BTreeSet<String>,
    groups: BTreeMap<Vec<Value>, GroupState>,
    multiset: BTreeMap<Tuple, i64>,
}

impl MaterializedView {
    /// Define a view over a compiled plan.  The state is empty until the
    /// first [`refresh_view`] (which must be a
    /// [`MaintenanceMode::Recompute`]).
    pub fn new(name: impl Into<String>, plan: &PhysicalPlan) -> Result<MaterializedView> {
        Ok(MaterializedView {
            name: name.into(),
            maintenance: MaintenancePlan::derive(plan)?,
            epoch: None,
            installed_base: false,
            installed_legs: std::collections::BTreeSet::new(),
            groups: BTreeMap::new(),
            multiset: BTreeMap::new(),
        })
    }

    /// The view's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The epoch the state currently reflects (`None` before the first
    /// recompute).
    pub fn epoch(&self) -> Option<Epoch> {
        self.epoch
    }

    /// The maintenance plan the view runs.
    pub fn maintenance(&self) -> &MaintenancePlan {
        &self.maintenance
    }

    /// Can this view absorb deltas, or must every refresh recompute?
    pub fn supports_incremental(&self) -> bool {
        self.maintenance.recompute_only.is_none()
    }

    /// Replace the default delta legs with caller-supplied leg *inputs*
    /// — typically plans the optimizer compiled per pivot with the pivot
    /// relation's cardinality set to a delta-sized value, so each leg's
    /// join order starts from the delta.  Each input is rewritten here
    /// (aggregate stripped, pivot path broadcast, stationary rehashes
    /// spliced).  `legs` must name each scanned relation exactly once;
    /// its order becomes the telescoping order.  The installed legs must
    /// fold compatibly with the base plan (same group/aggregate counts).
    pub fn install_leg_plans(&mut self, legs: &[(String, PhysicalPlan)]) -> Result<()> {
        if let Some(reason) = self.maintenance.recompute_only() {
            return Err(OrchestraError::Execution(format!(
                "view {} is recompute-only: {reason}",
                self.name
            )));
        }
        let mut expected: Vec<&str> = self
            .maintenance
            .scans
            .iter()
            .map(|(_, r)| r.as_str())
            .collect();
        expected.sort_unstable();
        let mut given: Vec<&str> = legs.iter().map(|(r, _)| r.as_str()).collect();
        given.sort_unstable();
        if expected != given {
            return Err(OrchestraError::Execution(format!(
                "leg plans must cover each scanned relation exactly once \
                 (expected {expected:?}, got {given:?})"
            )));
        }
        let mut rewritten = Vec::with_capacity(legs.len());
        for (relation, plan) in legs {
            let leg = derive_leg(plan, relation)?;
            if leg.fold.shape() != self.maintenance.fold.shape() {
                return Err(OrchestraError::Execution(format!(
                    "leg plan for {relation} folds {:?}, incompatible with the view's {:?}",
                    leg.fold, self.maintenance.fold
                )));
            }
            rewritten.push(leg);
        }
        self.maintenance.legs = rewritten;
        // The replaced dataflows are new to the participants: their next
        // run pays full dissemination again.
        self.installed_legs.clear();
        Ok(())
    }

    /// The maintained answer, finalized and sorted exactly like
    /// [`super::QueryReport::rows`].
    pub fn answer(&self) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = match self.maintenance.fold {
            FoldMode::Multiset => self
                .multiset
                .iter()
                .flat_map(|(t, n)| {
                    debug_assert!(*n >= 0, "negative multiplicity for {t:?}");
                    std::iter::repeat_n(t.clone(), (*n).max(0) as usize)
                })
                .collect(),
            FoldMode::Raw { .. } | FoldMode::Partial { .. } => self
                .groups
                .iter()
                .map(|(key, state)| {
                    let mut values = key.clone();
                    values.extend(state.accs.iter().zip(&state.sketches).map(|(acc, sketch)| {
                        match sketch {
                            Some(s) => {
                                debug_assert!(
                                    !s.is_exhausted(),
                                    "an exhausted sketch must have triggered a recompute"
                                );
                                s.best().cloned().unwrap_or(Value::Null)
                            }
                            None => acc.final_value(),
                        }
                    }));
                    Tuple::new(values)
                })
                .collect(),
        };
        rows.sort();
        rows
    }

    /// Throw the state away (the recompute path's clean slate).
    fn reset(&mut self) {
        self.groups.clear();
        self.multiset.clear();
    }

    /// Advance the epoch the state reflects (the caller has folded every
    /// session of the refresh, or nothing changed).
    pub(super) fn set_epoch(&mut self, epoch: Epoch) {
        self.epoch = Some(epoch);
    }

    /// Fold one session's signed answer rows into the state, under the
    /// fold mode of the plan that session ran.
    fn fold(&mut self, fold: &FoldMode, rows: &[(Tuple, i8)]) {
        match fold.clone() {
            FoldMode::Multiset => {
                for (tuple, sign) in rows {
                    let entry = self.multiset.entry(tuple.clone()).or_insert(0);
                    *entry += *sign as i64;
                    if *entry == 0 {
                        self.multiset.remove(tuple);
                    }
                }
            }
            FoldMode::Raw { group_by, aggs } => {
                for (tuple, sign) in rows {
                    let state = self.group_entry(&group_by, &aggs, tuple, true);
                    state.support += *sign as i64;
                    for (i, (_, col)) in aggs.iter().enumerate() {
                        match state.sketches[i].as_mut() {
                            Some(sketch) => {
                                sketch.update_signed(tuple.value(*col), *sign as i64);
                            }
                            None => state.accs[i].update_signed(tuple.value(*col), *sign as i64),
                        }
                    }
                    self.drop_if_unsupported(&group_by, tuple);
                }
            }
            FoldMode::Partial {
                group_by,
                aggs,
                count_col,
            } => {
                for (tuple, sign) in rows {
                    let state = self.group_entry(&group_by, &aggs, tuple, false);
                    state.support += *sign as i64 * tuple.value(count_col).as_int().unwrap_or(0);
                    for (i, (f, col)) in aggs.iter().enumerate() {
                        let slice: Vec<Value> = (0..f.partial_width())
                            .map(|k| tuple.value(col + k).clone())
                            .collect();
                        state.accs[i].merge_partial_signed(&slice, *sign as i64);
                    }
                    self.drop_if_unsupported(&group_by, tuple);
                }
            }
        }
    }

    fn group_entry(
        &mut self,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        tuple: &Tuple,
        raw: bool,
    ) -> &mut GroupState {
        let key: Vec<Value> = group_by.iter().map(|c| tuple.value(*c).clone()).collect();
        self.groups.entry(key).or_insert_with(|| GroupState {
            support: 0,
            accs: aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect(),
            sketches: aggs
                .iter()
                .map(|(f, _)| match f {
                    AggFunc::Min if raw => {
                        Some(ExtremumSketch::new(ExtremumKind::Min, EXTREMUM_SKETCH_K))
                    }
                    AggFunc::Max if raw => {
                        Some(ExtremumSketch::new(ExtremumKind::Max, EXTREMUM_SKETCH_K))
                    }
                    _ => None,
                })
                .collect(),
        })
    }

    /// Has any group's extremum sketch been exhausted by retractions?
    /// When true, the maintained MIN/MAX is unknowable from retained
    /// state and the refresh must fall back to a recompute.
    pub fn sketch_exhausted(&self) -> bool {
        self.groups.values().any(|g| {
            g.sketches
                .iter()
                .flatten()
                .any(ExtremumSketch::is_exhausted)
        })
    }

    /// A group whose support count reached zero has no base rows left:
    /// its accumulators cancelled to neutral and the group must vanish
    /// from the answer, exactly as a fresh run would never form it.
    fn drop_if_unsupported(&mut self, group_by: &[usize], tuple: &Tuple) {
        let key: Vec<Value> = group_by.iter().map(|c| tuple.value(*c).clone()).collect();
        if self.groups.get(&key).map(|s| s.support) == Some(0) {
            self.groups.remove(&key);
        }
    }
}

/// How a refresh absorbs a published epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaintenanceMode {
    /// Push the interval's signed deltas through the delta legs — one
    /// session per leg whose pivot relation changed.
    Incremental,
    /// Rebuild the state from a full run of the maintenance plan at the
    /// target epoch.
    Recompute,
}

/// Measurements of one refresh.
#[derive(Clone, Debug)]
pub struct MaintenanceRun {
    /// The mode that ran.
    pub mode: MaintenanceMode,
    /// The epoch the view reflects after the refresh.
    pub epoch: Epoch,
    /// Sessions executed (delta legs, or 1 for a recompute, or 0 when
    /// every delta was empty).
    pub legs: usize,
    /// Bytes shipped between distinct nodes across all legs.
    pub shipped_bytes: u64,
    /// Inter-node messages across all legs.
    pub shipped_messages: u64,
    /// Virtual time from refresh start to the last leg's completion.
    pub makespan: SimTime,
    /// Did any leg run a failure-recovery round?
    pub recovered: bool,
    /// Signed rows folded into the view.
    pub rows_folded: usize,
    /// Did an incremental refresh exhaust an extremum sketch and fall
    /// back to a recompute?  The recompute's traffic is included in this
    /// run's totals.
    pub sketch_fallback: bool,
}

impl MaintenanceRun {
    /// Add one maintenance round's measurements to the totals.
    fn absorb(&mut self, round: &WorkloadReport) {
        self.shipped_bytes += round.total_bytes;
        self.shipped_messages += round.total_messages;
        self.makespan += round.makespan;
        for session in &round.sessions {
            self.recovered |= session.report.recovered;
            self.rows_folded += session.report.signed_rows.len();
        }
    }
}

/// Refresh `view` to `to_epoch` over `storage`, running the maintenance
/// sessions under a [`SessionScheduler`] (optionally injecting
/// `failure` into the shared network mid-maintenance — each leg then
/// recovers under `engine.strategy` like any other query).
pub fn refresh_view(
    view: &mut MaterializedView,
    storage: &DistributedStorage,
    engine: &EngineConfig,
    mode: MaintenanceMode,
    to_epoch: Epoch,
    initiator: NodeId,
    failure: Option<FailureSpec>,
) -> Result<MaintenanceRun> {
    let demands = match mode {
        MaintenanceMode::Recompute => vec![recompute_session(view, 0, to_epoch, initiator)],
        MaintenanceMode::Incremental => {
            let Some(from) = view.epoch else {
                return Err(OrchestraError::Execution(format!(
                    "view {} has no materialized epoch; the first refresh must recompute",
                    view.name
                )));
            };
            if let Some(reason) = view.maintenance.recompute_only() {
                return Err(OrchestraError::Execution(format!(
                    "view {} is recompute-only: {reason}",
                    view.name
                )));
            }
            if from > to_epoch {
                return Err(OrchestraError::Execution(format!(
                    "view {} already reflects {from}, cannot maintain backwards to {to_epoch}",
                    view.name
                )));
            }
            delta_legs(view, 0, storage, from, to_epoch, initiator)
        }
    };

    let mut run = MaintenanceRun {
        mode,
        epoch: to_epoch,
        legs: demands.len(),
        shipped_bytes: 0,
        shipped_messages: 0,
        makespan: SimTime::ZERO,
        recovered: false,
        rows_folded: 0,
        sketch_fallback: false,
    };
    // No demand means nothing changed for any scanned relation: the view
    // is already exact at the target epoch.
    let views = std::slice::from_mut(view);
    if let Some(round) = run_round(views, demands, storage, engine, failure.as_slice())? {
        run.absorb(&round);
    }
    views[0].set_epoch(to_epoch);

    // Delete-heavy retractions can exhaust a group's extremum sketch:
    // the MIN/MAX is now among discarded runners-up and no retained
    // state can recover it.  Fall back to one recompute — it rebuilds
    // every sketch — and charge its traffic to this run.
    if mode == MaintenanceMode::Incremental && views[0].sketch_exhausted() {
        let demand = recompute_session(&views[0], 0, to_epoch, initiator);
        if let Some(round) = run_round(views, vec![demand], storage, engine, &[])? {
            run.absorb(&round);
        }
        run.sketch_fallback = true;
        run.legs += 1;
    }
    Ok(run)
}

/// What a maintenance session contributes to one view.
#[derive(Clone, Debug)]
enum Contribution {
    /// The session recomputes the view from scratch (initial
    /// materialization, a recompute-only view, or a sketch fallback):
    /// reset, then fold.
    Recompute,
    /// The session is the delta leg pivoting on this relation.
    Leg(String),
}

/// One maintenance session a view demands of a refresh, and how its
/// signed rows fold into that view.
pub(super) struct Demand {
    /// Index of the demanding view in the round's view slice.
    view: usize,
    session: QuerySession,
    fold: FoldMode,
    contribution: Contribution,
}

/// One maintenance round: run every demanded session once and fold each
/// session's signed rows into every view that demanded it.
///
/// Sessions are deduplicated by [`session_fingerprint`] in first-demand
/// order and run as one FIFO scheduler workload with room for all of
/// them, with `failures` injected into the shared network.  A recompute
/// resets its view before folding.  The completed run leaves every flow
/// it disseminated resident at the participants, so later runs of the
/// same flows ship parameters and snapshot only — the continuous-query
/// property that keeps a small delta's refresh traffic proportional to
/// the delta.  A failed round returns the error without touching any
/// view.  Returns `None` (and runs nothing) when nothing is demanded.
pub(super) fn run_round(
    views: &mut [MaterializedView],
    demands: Vec<Demand>,
    storage: &DistributedStorage,
    engine: &EngineConfig,
    failures: &[FailureSpec],
) -> Result<Option<WorkloadReport>> {
    if demands.is_empty() {
        return Ok(None);
    }
    let mut sessions: Vec<QuerySession> = Vec::new();
    let mut members: Vec<Vec<(usize, FoldMode, Contribution)>> = Vec::new();
    let mut by_fingerprint: BTreeMap<QueryFingerprint, usize> = BTreeMap::new();
    for demand in demands {
        let fp = session_fingerprint(&demand.session);
        let slot = *by_fingerprint.entry(fp).or_insert_with(|| {
            sessions.push(demand.session);
            members.push(Vec::new());
            sessions.len() - 1
        });
        members[slot].push((demand.view, demand.fold, demand.contribution));
    }

    let scheduler = SessionScheduler::new(SchedulerConfig {
        max_concurrent: sessions.len(),
        queue_capacity: sessions.len(),
        policy: AdmissionPolicy::Fifo,
        slo: None,
    });
    let report = scheduler.run(storage, engine, &sessions, failures, None)?;

    // Fork point: each session's signed rows fold into every member
    // view's own local state.
    for (session, members) in report.sessions.iter().zip(&members) {
        for (id, fold, contribution) in members {
            let view = &mut views[*id];
            match contribution {
                Contribution::Recompute => {
                    view.reset();
                    view.installed_base = true;
                }
                Contribution::Leg(relation) => {
                    view.installed_legs.insert(relation.clone());
                }
            }
            view.fold(fold, &session.report.signed_rows);
        }
    }
    Ok(Some(report))
}

/// The recompute session of view `id` at `to` — shared across views
/// whose maintenance plans collide, like any other session.
pub(super) fn recompute_session(
    view: &MaterializedView,
    id: usize,
    to: Epoch,
    initiator: NodeId,
) -> Demand {
    Demand {
        view: id,
        session: QuerySession {
            name: format!("{}/recompute@{to}", view.name),
            plan: view.maintenance.plan.clone(),
            epoch: to,
            initiator,
            arrival: SimTime::ZERO,
            // Maintenance answers are folded into view state, not served
            // to clients — never cached.
            fingerprint: None,
            estimated_cost: 0.0,
            overrides: ScanOverrides::new(),
            plan_resident: view.installed_base,
        },
        fold: view.maintenance.fold.clone(),
        contribution: Contribution::Recompute,
    }
}

/// Build the telescoped delta-leg sessions of view `id`: leg *i* runs
/// its pivot's leg plan with scans of relations before *i* (telescoping
/// order) pinned to the new epoch, the pivot reading the signed delta,
/// and relations after *i* pinned to the old epoch.  Legs whose pivot
/// relation did not change are skipped.
pub(super) fn delta_legs(
    view: &MaterializedView,
    id: usize,
    storage: &DistributedStorage,
    from: Epoch,
    to: Epoch,
    initiator: NodeId,
) -> Vec<Demand> {
    let order: Vec<&str> = view
        .maintenance
        .legs
        .iter()
        .map(|l| l.relation.as_str())
        .collect();
    let mut demands = Vec::new();
    for (pivot, leg) in view.maintenance.legs.iter().enumerate() {
        // A relation whose visible version did not move between the two
        // snapshots has an empty delta; comparing version epochs is
        // O(log history), no tuples are fetched.
        if storage.version_at(&leg.relation, from) == storage.version_at(&leg.relation, to) {
            continue;
        }
        let mut overrides = ScanOverrides::new();
        for op in leg.plan.scans() {
            let relation = scan_relation(&leg.plan, op);
            let global = order
                .iter()
                .position(|r| *r == relation)
                .expect("every leg scan has a telescoping position");
            match global.cmp(&pivot) {
                std::cmp::Ordering::Less => overrides.read_at(op, to),
                std::cmp::Ordering::Equal => overrides.read_delta(op, from, to),
                std::cmp::Ordering::Greater => overrides.read_at(op, from),
            };
        }
        demands.push(Demand {
            view: id,
            session: QuerySession {
                name: format!("{}/Δ{}@{to}", view.name, leg.relation),
                plan: leg.plan.clone(),
                epoch: to,
                initiator,
                arrival: SimTime::ZERO,
                fingerprint: None,
                estimated_cost: 0.0,
                overrides,
                plan_resident: view.installed_legs.contains(&leg.relation),
            },
            fold: leg.fold.clone(),
            contribution: Contribution::Leg(leg.relation.clone()),
        });
    }
    demands
}

/// The canonical fingerprint a maintenance session is deduplicated by:
/// the leg plan's full operator encoding, each leaf scan's epoch pin or
/// delta interval (in the plan's own deterministic scan order), the
/// session epoch, and residency.  Two views produce the same fingerprint
/// exactly when their sessions would ship identical bytes over identical
/// routes — the only case in which one execution can stand in for both.
fn session_fingerprint(session: &QuerySession) -> QueryFingerprint {
    let mut canonical = format!("{:?}@{}", session.plan, session.epoch);
    for op in session.plan.scans() {
        if let Some(epoch) = session.overrides.epoch_of(op) {
            let _ = write!(canonical, "|{op:?}@{epoch}");
        }
        if let Some((from, to)) = session.overrides.delta_of(op) {
            let _ = write!(canonical, "|{op:?}d{from}..{to}");
        }
    }
    canonical.push_str(if session.plan_resident {
        "|resident"
    } else {
        "|fresh"
    });
    QueryFingerprint::of_bytes(canonical.as_bytes())
}
