//! Runtime state of the stateful operators, stored column-wise.
//!
//! The executor (`exec`) owns one instance of every plan operator per
//! participating node; this module holds the state those instances carry
//! between messages:
//!
//! * [`JoinState`] — the pipelined *symmetric* hash join (the paper's
//!   "pipelined hash join").  Each side keeps its buffered rows in one
//!   [`ColumnarBatch`] plus a hash index from join-key values to row
//!   numbers, so build and probe touch only the key columns and join
//!   output is assembled column-by-column without materializing row
//!   objects.  Tainted build rows are tombstoned (not compacted) on
//!   failure so row numbers in the index stay valid.
//! * [`AggState`] — the grouping operator's state, organised as
//!   *sub-groups* keyed by `(group key, provenance set, phase)` exactly as
//!   Section V-D prescribes, so that on failure the sub-groups derived
//!   from a failed node can be dropped without touching the rest, and so
//!   that re-emission after recovery never double-counts.  The batch
//!   entry points fold whole columnar batches, using a per-batch group
//!   signature cache (typed cells compare by bits or pool id) to skip
//!   re-materializing the group key for every row.
//! * [`RehashState`] — per-destination output buffers plus the output
//!   cache used by recovery stage 4 ("re-create data that was sent to the
//!   failed nodes' hash key space ranges").  Buffers and cache are
//!   [`TupleBatch`]es, so a flushed batch already knows its own encoded
//!   wire size — the flush path reads it off the columns' running
//!   dictionary accounting instead of re-scanning the rows.

use crate::batch::TupleBatch;
use crate::expr::AggFunc;
use crate::provenance::{Phase, TaggedTuple};
use orchestra_common::{ColumnData, ColumnarBatch, NodeId, NodeSet, PoolMemo, Tuple, Value};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Symmetric hash join
// ---------------------------------------------------------------------------

/// One side of the symmetric hash join: buffered rows as a columnar
/// batch, a liveness mask (purges tombstone rather than compact, keeping
/// indexed row numbers stable), and the hash index over the key values.
#[derive(Clone, Debug)]
struct JoinSide {
    rows: ColumnarBatch,
    alive: Vec<bool>,
    index: HashMap<Vec<Value>, Vec<u32>>,
}

impl Default for JoinSide {
    fn default() -> JoinSide {
        JoinSide {
            rows: ColumnarBatch::new(0),
            alive: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl JoinSide {
    fn live_rows(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }
}

/// State of one pipelined (symmetric) hash join instance.
#[derive(Clone, Debug, Default)]
pub struct JoinState {
    sides: [JoinSide; 2],
}

impl JoinState {
    /// Fresh, empty join state.
    pub fn new() -> JoinState {
        JoinState::default()
    }

    /// Number of buffered rows on both sides.
    pub fn len(&self) -> usize {
        self.sides.iter().map(JoinSide::live_rows).sum()
    }

    /// Is the state empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Process one input row arriving on `input` (0 = left, 1 = right):
    /// insert it into its side's table, probe the other side, and return
    /// the join results (left columns then right columns), tagged with the
    /// union of the parents' provenance plus `node`.
    pub fn process(
        &mut self,
        input: usize,
        row: TaggedTuple,
        left_keys: &[usize],
        right_keys: &[usize],
        node: NodeId,
    ) -> Vec<TaggedTuple> {
        let TaggedTuple {
            tuple,
            provenance,
            phase,
            sign,
        } = row;
        let arity = tuple.arity();
        let batch = ColumnarBatch::from_tuples(arity, [tuple], sign, provenance, phase);
        let out = self.process_batch(input, &batch, left_keys, right_keys, node);
        (0..out.len())
            .map(|i| TaggedTuple {
                tuple: out.tuple_at(i),
                provenance: out.provenance_at(i),
                phase: out.phase_at(i),
                sign: out.sign_at(i),
            })
            .collect()
    }

    /// Batch entry point: insert every row of `batch` into the `input`
    /// side and probe the other side, producing the join output as one
    /// columnar batch.  Rows are processed in batch order and matches are
    /// emitted in build-insertion order, exactly like the row-at-a-time
    /// path; only the representation differs (cells are copied column to
    /// column, strings re-interned via per-call pool memos).
    pub fn process_batch(
        &mut self,
        input: usize,
        batch: &ColumnarBatch,
        left_keys: &[usize],
        right_keys: &[usize],
        node: NodeId,
    ) -> ColumnarBatch {
        let keys = if input == 0 { left_keys } else { right_keys };
        let (a, b) = self.sides.split_at_mut(1);
        let (own, other) = if input == 0 {
            (&mut a[0], &b[0])
        } else {
            (&mut b[0], &a[0])
        };
        if own.rows.arity() < batch.arity() {
            own.rows.pad_to_arity(batch.arity());
        }
        let mut out = ColumnarBatch::new(0);
        let mut memo_in = PoolMemo::new();
        let mut memo_store = PoolMemo::new();
        for r in 0..batch.len() {
            let key: Vec<Value> = keys.iter().map(|c| batch.value_at(r, *c)).collect();
            if let Some(matches) = other.index.get(&key) {
                for &m in matches {
                    let m = m as usize;
                    if !other.alive[m] {
                        continue;
                    }
                    if out.arity() == 0 {
                        out.pad_to_arity(batch.arity() + other.rows.arity());
                    }
                    if input == 0 {
                        out.append_cells_from(batch, r, 0, &mut memo_in);
                        out.append_cells_from(&other.rows, m, batch.arity(), &mut memo_store);
                    } else {
                        out.append_cells_from(&other.rows, m, 0, &mut memo_store);
                        out.append_cells_from(batch, r, other.rows.arity(), &mut memo_in);
                    }
                    let mut provenance = batch.provenance_at(r).union(&other.rows.provenance_at(m));
                    provenance.insert(node);
                    out.push_tag_row(
                        batch.sign_at(r) * other.rows.sign_at(m),
                        provenance,
                        batch.phase_at(r).max(other.rows.phase_at(m)),
                    );
                }
            }
            own.rows.append_row_interned(batch, r);
            own.alive.push(true);
            let idx = (own.rows.len() - 1) as u32;
            own.index.entry(key).or_default().push(idx);
        }
        out
    }

    /// Drop every buffered row whose provenance intersects `failed`;
    /// returns how many rows were dropped.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let mut dropped = 0;
        for side in &mut self.sides {
            for (i, alive) in side.alive.iter_mut().enumerate() {
                if *alive && side.rows.provenance_at(i).intersects(failed) {
                    *alive = false;
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Running state of one aggregate function for one sub-group.
#[derive(Clone, Debug)]
pub enum Accumulator {
    /// COUNT(*) — number of input rows.
    Count(i64),
    /// SUM(col).
    Sum(Value),
    /// MIN(col).
    Min(Option<Value>),
    /// MAX(col).
    Max(Option<Value>),
    /// AVG(col) carried as (sum, count).
    Avg(Value, i64),
}

impl Accumulator {
    /// A fresh accumulator for `func`.
    pub fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum => Accumulator::Sum(Value::Null),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg(Value::Null, 0),
        }
    }

    /// Fold one raw input value into the accumulator.
    pub fn update(&mut self, value: &Value) {
        self.update_signed(value, 1);
    }

    /// Is this accumulator *subtractable* — can a retraction be folded by
    /// inverting the contribution of the original insertion?  COUNT, SUM
    /// and AVG are; MIN and MAX are not (removing the current extremum
    /// would require the discarded runners-up).
    pub fn is_subtractable(&self) -> bool {
        !matches!(self, Accumulator::Min(_) | Accumulator::Max(_))
    }

    /// Fold one raw input value with a delta sign: `+1` accumulates as
    /// [`Self::update`], `-1` inverts the contribution.  Retractions into
    /// MIN/MAX are a planning error (maintenance plans refuse
    /// non-subtractable aggregates) and panic.
    pub fn update_signed(&mut self, value: &Value, sign: i64) {
        match self {
            Accumulator::Count(c) => *c += sign,
            Accumulator::Sum(s) => {
                if !value.is_null() {
                    *s = s.add(&signed_value(value, sign));
                }
            }
            Accumulator::Min(m) => {
                assert!(sign > 0, "MIN cannot fold a retraction");
                if m.as_ref().map(|cur| value < cur).unwrap_or(true) && !value.is_null() {
                    *m = Some(value.clone());
                }
            }
            Accumulator::Max(m) => {
                assert!(sign > 0, "MAX cannot fold a retraction");
                if m.as_ref().map(|cur| value > cur).unwrap_or(true) && !value.is_null() {
                    *m = Some(value.clone());
                }
            }
            Accumulator::Avg(s, c) => {
                if !value.is_null() {
                    *s = s.add(&signed_value(value, sign));
                    *c += sign;
                }
            }
        }
    }

    /// Merge a *partial state* (as produced by [`Self::partial_values`]) —
    /// the re-aggregation path of a `Final` aggregate.
    pub fn merge_partial(&mut self, state: &[Value]) {
        self.merge_partial_signed(state, 1);
    }

    /// Merge a partial state with a delta sign: `-1` removes the state's
    /// whole contribution (the retraction path of view maintenance).
    pub fn merge_partial_signed(&mut self, state: &[Value], sign: i64) {
        match self {
            Accumulator::Count(c) => *c += sign * state[0].as_int().unwrap_or(0),
            Accumulator::Sum(s) => {
                if !state[0].is_null() {
                    *s = s.add(&signed_value(&state[0], sign));
                }
            }
            Accumulator::Min(m) => {
                assert!(sign > 0, "MIN cannot fold a retraction");
                if !state[0].is_null() && m.as_ref().map(|cur| &state[0] < cur).unwrap_or(true) {
                    *m = Some(state[0].clone());
                }
            }
            Accumulator::Max(m) => {
                assert!(sign > 0, "MAX cannot fold a retraction");
                if !state[0].is_null() && m.as_ref().map(|cur| &state[0] > cur).unwrap_or(true) {
                    *m = Some(state[0].clone());
                }
            }
            Accumulator::Avg(s, c) => {
                if !state[0].is_null() {
                    *s = s.add(&signed_value(&state[0], sign));
                }
                *c += sign * state[1].as_int().unwrap_or(0);
            }
        }
    }

    /// The mergeable partial representation of the state.
    pub fn partial_values(&self) -> Vec<Value> {
        match self {
            Accumulator::Count(c) => vec![Value::Int(*c)],
            Accumulator::Sum(s) => vec![s.clone()],
            Accumulator::Min(m) => vec![m.clone().unwrap_or(Value::Null)],
            Accumulator::Max(m) => vec![m.clone().unwrap_or(Value::Null)],
            Accumulator::Avg(s, c) => vec![s.clone(), Value::Int(*c)],
        }
    }

    /// The final scalar result.
    pub fn final_value(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int(*c),
            Accumulator::Sum(s) => s.clone(),
            Accumulator::Min(m) | Accumulator::Max(m) => m.clone().unwrap_or(Value::Null),
            Accumulator::Avg(s, c) => {
                if *c == 0 {
                    Value::Null
                } else {
                    Value::Double(s.as_f64().unwrap_or(0.0) / *c as f64)
                }
            }
        }
    }
}

/// A numeric value scaled by a delta sign (`-1` negates, `+1` is the
/// identity).  `Int(0).sub` keeps integers integer and promotes doubles.
fn signed_value(value: &Value, sign: i64) -> Value {
    if sign >= 0 {
        value.clone()
    } else {
        Value::Int(0).sub(value)
    }
}

/// Which extremum an [`ExtremumSketch`] maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtremumKind {
    /// Track the smallest values (MIN).
    Min,
    /// Track the largest values (MAX).
    Max,
}

/// Default number of distinct runner-up values an [`ExtremumSketch`]
/// retains per group.
pub const EXTREMUM_SKETCH_K: usize = 8;

/// Bounded per-group top-k state that makes MIN/MAX *retractable up to
/// exhaustion*: the `k` best distinct values are tracked exactly (with
/// multiplicities), everything worse is a single overflow count.
///
/// Invariant: every untracked row's value is no better than the worst
/// tracked value (the *boundary*).  Inserts respect it by routing
/// boundary-or-worse values into the overflow count whenever overflow
/// rows exist; deletes of tracked values simply decrement, and deletes
/// of untracked values decrement the overflow count — sound because a
/// value absent from the tracked set can only live on the far side of
/// the boundary.  The extremum is therefore always the best tracked
/// value, exactly — never an approximation — until deletions empty the
/// tracked set while overflow rows remain ([`Self::is_exhausted`]), at
/// which point the discarded runners-up are genuinely unknown and the
/// caller must recompute.  This is the classic bounded-heap fallback
/// that lets delete-heavy MIN/MAX views refresh incrementally instead
/// of recomputing on every retraction.
#[derive(Clone, Debug)]
pub struct ExtremumSketch {
    kind: ExtremumKind,
    k: usize,
    /// Distinct tracked values with multiplicities, best-first for MIN
    /// (the map's natural order) and worst-first for MAX.
    tracked: std::collections::BTreeMap<Value, i64>,
    /// Rows whose values were at-or-beyond the boundary when they
    /// arrived (or were evicted across it).
    untracked: i64,
}

impl ExtremumSketch {
    /// A fresh sketch tracking `k` distinct values (clamped to at least
    /// one).
    pub fn new(kind: ExtremumKind, k: usize) -> ExtremumSketch {
        ExtremumSketch {
            kind,
            k: k.max(1),
            tracked: std::collections::BTreeMap::new(),
            untracked: 0,
        }
    }

    /// Is `a` strictly better than `b` for this extremum?
    fn better(&self, a: &Value, b: &Value) -> bool {
        match self.kind {
            ExtremumKind::Min => a < b,
            ExtremumKind::Max => a > b,
        }
    }

    /// The worst tracked value — the boundary between exact and counted.
    fn boundary(&self) -> Option<&Value> {
        match self.kind {
            ExtremumKind::Min => self.tracked.keys().next_back(),
            ExtremumKind::Max => self.tracked.keys().next(),
        }
    }

    /// Fold one signed raw value.  Nulls never participate in MIN/MAX.
    pub fn update_signed(&mut self, value: &Value, sign: i64) {
        if value.is_null() || sign == 0 {
            return;
        }
        if sign > 0 {
            self.insert(value, sign);
        } else {
            self.delete(value, -sign);
        }
    }

    fn insert(&mut self, value: &Value, count: i64) {
        if let Some(m) = self.tracked.get_mut(value) {
            *m += count;
            return;
        }
        let beats_boundary = self.boundary().is_some_and(|b| self.better(value, b));
        if self.untracked > 0 && !beats_boundary {
            // Overflow rows exist whose rank against `value` is unknown;
            // only strictly-better-than-boundary values may join the
            // tracked set without breaking the invariant.  (In the
            // exhausted state there is no boundary at all, so nothing
            // re-enters until a recompute rebuilds the sketch.)
            self.untracked += count;
            return;
        }
        self.tracked.insert(value.clone(), count);
        while self.tracked.len() > self.k {
            let boundary = self.boundary().expect("tracked is non-empty").clone();
            let evicted = self.tracked.remove(&boundary).unwrap_or(0);
            self.untracked += evicted;
        }
    }

    fn delete(&mut self, value: &Value, count: i64) {
        if let Some(m) = self.tracked.get_mut(value) {
            *m -= count;
            if *m <= 0 {
                self.tracked.remove(value);
            }
            return;
        }
        // Not tracked, so it lives beyond the boundary: it is one of the
        // counted overflow rows.
        self.untracked = (self.untracked - count).max(0);
    }

    /// The exact extremum, while the sketch can still prove one: the
    /// best tracked value.  `None` when the group is empty *or*
    /// exhausted — disambiguate with [`Self::is_exhausted`].
    pub fn best(&self) -> Option<&Value> {
        match self.kind {
            ExtremumKind::Min => self.tracked.keys().next(),
            ExtremumKind::Max => self.tracked.keys().next_back(),
        }
    }

    /// Deletions consumed every tracked value but overflow rows remain:
    /// the extremum is among discarded runners-up and only a recompute
    /// can recover it.
    pub fn is_exhausted(&self) -> bool {
        self.tracked.is_empty() && self.untracked > 0
    }

    /// Signed rows currently represented (tracked multiplicities plus
    /// overflow).
    pub fn support(&self) -> i64 {
        self.tracked.values().sum::<i64>() + self.untracked
    }
}

/// One sub-group of an aggregate: the accumulators for a particular
/// `(group key, provenance set, phase)` combination, plus whether it has
/// already been emitted downstream.  Purged sub-groups are tombstoned
/// (`alive = false`) so indices held by the signature cache stay valid
/// within a batch.
#[derive(Clone, Debug)]
struct SubGroup {
    key: Vec<Value>,
    provenance: NodeSet,
    phase: Phase,
    accumulators: Vec<Accumulator>,
    emitted: bool,
    alive: bool,
}

/// State of one aggregation operator instance.
#[derive(Clone, Debug, Default)]
pub struct AggState {
    index: HashMap<(Vec<Value>, NodeSet, Phase), usize>,
    subgroups: Vec<SubGroup>,
}

impl AggState {
    /// Fresh, empty aggregation state.
    pub fn new() -> AggState {
        AggState::default()
    }

    /// Number of sub-groups currently held.
    pub fn subgroup_count(&self) -> usize {
        self.subgroups.iter().filter(|g| g.alive).count()
    }

    /// Find or create the sub-group for a full key, returning its index.
    fn subgroup_at(
        &mut self,
        key: (Vec<Value>, NodeSet, Phase),
        aggs: &[(AggFunc, usize)],
    ) -> usize {
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.subgroups.len();
        self.subgroups.push(SubGroup {
            key: key.0.clone(),
            provenance: key.1,
            phase: key.2,
            accumulators: aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect(),
            emitted: false,
            alive: true,
        });
        self.index.insert(key, i);
        i
    }

    /// Fold one raw input row (modes `Single` and `Partial`), honouring
    /// the row's delta sign — a retraction inverts its contribution.
    pub fn update_raw(&mut self, row: &TaggedTuple, group_by: &[usize], aggs: &[(AggFunc, usize)]) {
        let key: Vec<Value> = group_by
            .iter()
            .map(|c| row.tuple.value(*c).clone())
            .collect();
        let i = self.subgroup_at((key, row.provenance, row.phase), aggs);
        let group = &mut self.subgroups[i];
        for (j, (_, col)) in aggs.iter().enumerate() {
            group.accumulators[j].update_signed(row.tuple.value(*col), row.sign as i64);
        }
    }

    /// Fold a whole columnar batch of raw input rows (modes `Single` and
    /// `Partial`).  Equivalent to [`Self::update_raw`] on every row in
    /// order; typed group columns resolve their sub-group through a
    /// per-batch signature cache instead of re-materializing the key.
    pub fn update_raw_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
    ) {
        self.update_batch(batch, group_by, aggs, false);
    }

    /// Fold a whole columnar batch of partial-state rows (mode `Final`).
    pub fn update_partial_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
    ) {
        self.update_batch(batch, group_by, aggs, true);
    }

    fn update_batch(
        &mut self,
        batch: &ColumnarBatch,
        group_by: &[usize],
        aggs: &[(AggFunc, usize)],
        partial: bool,
    ) {
        // Signature cache: within one batch a column's cells are uniformly
        // typed, so equal (bits / pool id) signatures imply equal key
        // values and the full key lookup can be skipped.  Columns demoted
        // to untyped cells fall back to the full lookup per row.
        let typed = group_by
            .iter()
            .all(|c| !matches!(batch.column(*c).data(), ColumnData::Values(_)));
        // Keyed by signature alone, looked up by slice (no per-row
        // allocation on a hit); the rare signature shared by rows with
        // different provenance/phase tags keeps one entry per tag.
        let mut cache: HashMap<Vec<u64>, Vec<(NodeSet, Phase, usize)>> = HashMap::new();
        let mut sig: Vec<u64> = Vec::with_capacity(group_by.len());
        for r in 0..batch.len() {
            let provenance = batch.provenance_at(r);
            let phase = batch.phase_at(r);
            let i = if typed {
                sig.clear();
                for c in group_by {
                    sig.push(match batch.column(*c).data() {
                        ColumnData::Int(v) => v[r] as u64,
                        ColumnData::Double(v) => v[r].to_bits(),
                        ColumnData::Str(v) => v[r] as u64,
                        ColumnData::Values(_) => unreachable!("checked typed above"),
                    });
                }
                let hit = cache
                    .get(sig.as_slice())
                    .and_then(|tags| {
                        tags.iter()
                            .find(|(p, ph, _)| *p == provenance && *ph == phase)
                    })
                    .map(|(_, _, i)| *i);
                if let Some(i) = hit {
                    i
                } else {
                    let key: Vec<Value> = group_by.iter().map(|c| batch.value_at(r, *c)).collect();
                    let i = self.subgroup_at((key, provenance, phase), aggs);
                    cache
                        .entry(sig.clone())
                        .or_default()
                        .push((provenance, phase, i));
                    i
                }
            } else {
                let key: Vec<Value> = group_by.iter().map(|c| batch.value_at(r, *c)).collect();
                self.subgroup_at((key, provenance, phase), aggs)
            };
            let sign = batch.sign_at(r) as i64;
            let group = &mut self.subgroups[i];
            if partial {
                for (j, (f, col)) in aggs.iter().enumerate() {
                    let width = f.partial_width();
                    let state: Vec<Value> =
                        (0..width).map(|k| batch.value_at(r, col + k)).collect();
                    group.accumulators[j].merge_partial_signed(&state, sign);
                }
            } else {
                for (j, (_, col)) in aggs.iter().enumerate() {
                    group.accumulators[j].update_signed(&batch.value_at(r, *col), sign);
                }
            }
        }
    }

    /// Drop every sub-group whose provenance intersects `failed`; returns
    /// the number of sub-groups dropped.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let subgroups = &mut self.subgroups;
        let mut dropped = 0;
        self.index.retain(|(_, provenance, _), i| {
            if provenance.intersects(failed) {
                subgroups[*i].alive = false;
                dropped += 1;
                false
            } else {
                true
            }
        });
        dropped
    }

    /// Emit every sub-group that has not been emitted yet, marking it
    /// emitted.  `partial` selects between the mergeable partial layout
    /// and the final scalar layout.  Output rows are tagged with the
    /// sub-group's provenance plus `node`, at `phase`.
    pub fn emit_unemitted(
        &mut self,
        partial: bool,
        node: NodeId,
        phase: Phase,
    ) -> Vec<TaggedTuple> {
        let mut order: Vec<usize> = (0..self.subgroups.len())
            .filter(|&i| {
                let g = &self.subgroups[i];
                g.alive && !g.emitted
            })
            .collect();
        // Deterministic emission order (group key, then phase; the stable
        // sort keeps insertion order among ties).
        order.sort_by(|&a, &b| {
            let (ga, gb) = (&self.subgroups[a], &self.subgroups[b]);
            ga.key.cmp(&gb.key).then_with(|| ga.phase.cmp(&gb.phase))
        });
        let mut out = Vec::with_capacity(order.len());
        for i in order {
            let group = &mut self.subgroups[i];
            group.emitted = true;
            let mut values = group.key.clone();
            for acc in &group.accumulators {
                if partial {
                    values.extend(acc.partial_values());
                } else {
                    values.push(acc.final_value());
                }
            }
            let mut provenance = group.provenance;
            provenance.insert(node);
            // Emitted states are assertions: any retractions the
            // sub-group absorbed are already folded into its values.
            out.push(TaggedTuple {
                tuple: Tuple::new(values),
                provenance,
                phase,
                sign: 1,
            });
        }
        out
    }

    /// Merge-and-finalise: collapse all sub-groups (regardless of
    /// provenance/phase) by group key and return final values.  This is
    /// the executor's query-completion path for the top-level
    /// `Single`/`Final` aggregate — it runs exactly once, when the
    /// initiator's `Output` segment closes, merging the per-provenance
    /// sub-groups into the duplicate-free answer.  Unit tests also use it
    /// to validate accumulator algebra directly.  Sub-groups merge in
    /// insertion order, keeping floating-point folds deterministic.
    pub fn collapsed_final(&self, aggs: &[(AggFunc, usize)]) -> Vec<Tuple> {
        let mut merged: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for group in self.subgroups.iter().filter(|g| g.alive) {
            let accs = merged
                .entry(group.key.clone())
                .or_insert_with(|| aggs.iter().map(|(f, _)| Accumulator::new(*f)).collect());
            for (i, acc) in group.accumulators.iter().enumerate() {
                accs[i].merge_partial(&acc.partial_values());
            }
        }
        let mut out: Vec<Tuple> = merged
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.iter().map(Accumulator::final_value));
                Tuple::new(key)
            })
            .collect();
        out.sort();
        out
    }
}

// ---------------------------------------------------------------------------
// Rehash / Ship buffering and output caching
// ---------------------------------------------------------------------------

/// State of one `Rehash` or `Ship` operator instance: the per-destination
/// output buffers awaiting a full batch, and (when recovery support is
/// enabled) the cache of everything sent, used to re-create data that had
/// been sent to a failed node.  Both live as [`TupleBatch`]es, so the
/// wire size of a flushed batch is read off the columns' running
/// dictionary accounting rather than recomputed from its rows.
#[derive(Clone, Debug, Default)]
pub struct RehashState {
    buffers: HashMap<NodeId, TupleBatch>,
    cache: HashMap<NodeId, TupleBatch>,
    cache_enabled: bool,
}

impl RehashState {
    /// Fresh state; `cache_enabled` mirrors the engine's recovery-support
    /// switch.
    pub fn new(cache_enabled: bool) -> RehashState {
        RehashState {
            cache_enabled,
            ..RehashState::default()
        }
    }

    /// Append a row destined for `dest`, returning the buffer length after
    /// insertion (the executor flushes when this reaches the batch size).
    pub fn buffer(&mut self, dest: NodeId, row: TaggedTuple) -> usize {
        if self.cache_enabled {
            self.cache.entry(dest).or_default().push(row.clone());
        }
        let buf = self.buffers.entry(dest).or_default();
        buf.push(row);
        buf.len()
    }

    /// Append row `row` of a columnar batch destined for `dest` without
    /// materializing it, returning the buffer length after insertion.
    pub fn buffer_from(&mut self, dest: NodeId, src: &ColumnarBatch, row: usize) -> usize {
        if self.cache_enabled {
            self.cache.entry(dest).or_default().push_row_from(src, row);
        }
        let buf = self.buffers.entry(dest).or_default();
        buf.push_row_from(src, row);
        buf.len()
    }

    /// Take (and clear) the pending buffer for `dest`.
    pub fn take_buffer(&mut self, dest: NodeId) -> Vec<TaggedTuple> {
        self.take_buffer_batch(dest).rows()
    }

    /// Take (and clear) the pending buffer for `dest` as a batch.
    pub fn take_buffer_batch(&mut self, dest: NodeId) -> TupleBatch {
        self.buffers.remove(&dest).unwrap_or_default()
    }

    /// Destinations that currently have pending rows.
    pub fn pending_destinations(&self) -> Vec<NodeId> {
        let mut dests: Vec<NodeId> = self
            .buffers
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(d, _)| *d)
            .collect();
        dests.sort_unstable();
        dests
    }

    /// Remove and return the untainted rows cached as having been sent to
    /// `dest` — exactly the rows recovery stage 4 must re-transmit.  The
    /// entries are *consumed*: re-buffering re-caches each row under its
    /// new destination, and a later recovery round must not find (and
    /// duplicate) the stale entries still keyed to the failed node, so no
    /// non-consuming variant is offered.
    pub fn take_cached_for(&mut self, dest: NodeId, failed: &NodeSet) -> Vec<TaggedTuple> {
        self.take_cached_batch_for(dest, failed).rows()
    }

    /// Batch variant of [`Self::take_cached_for`]: tainted rows for
    /// `dest` stay cached (until purged), untainted ones are returned.
    pub fn take_cached_batch_for(&mut self, dest: NodeId, failed: &NodeSet) -> TupleBatch {
        let Some(batch) = self.cache.remove(&dest) else {
            return TupleBatch::new();
        };
        let untainted: Vec<bool> = batch
            .columnar()
            .provenance_column()
            .iter()
            .map(|p| !p.intersects(failed))
            .collect();
        if untainted.iter().all(|u| *u) {
            return batch;
        }
        let tainted: Vec<bool> = untainted.iter().map(|u| !*u).collect();
        let mut keep = batch.clone();
        keep.columnar_mut().retain(&tainted);
        if !keep.is_empty() {
            self.cache.insert(dest, keep);
        }
        let mut out = batch;
        out.columnar_mut().retain(&untainted);
        out
    }

    /// Drop tainted rows from the cache and from the pending buffers;
    /// returns how many *logical* rows were dropped.  When the cache is
    /// enabled every pending row is also cached, so only the cache drops
    /// are counted — counting both would tally the same row twice.
    pub fn purge_tainted(&mut self, failed: &NodeSet) -> usize {
        let cache_dropped = Self::purge_map(&mut self.cache, failed);
        let buffer_dropped = Self::purge_map(&mut self.buffers, failed);
        if self.cache_enabled {
            cache_dropped
        } else {
            buffer_dropped
        }
    }

    fn purge_map(map: &mut HashMap<NodeId, TupleBatch>, failed: &NodeSet) -> usize {
        let mut dropped = 0;
        for batch in map.values_mut() {
            let keep: Vec<bool> = batch
                .columnar()
                .provenance_column()
                .iter()
                .map(|p| !p.intersects(failed))
                .collect();
            let before = batch.len();
            batch.columnar_mut().retain(&keep);
            dropped += before - batch.len();
        }
        map.retain(|_, b| !b.is_empty());
        dropped
    }

    /// Number of rows currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.values().map(TupleBatch::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::Value;

    fn tagged(vals: Vec<Value>, node: u16) -> TaggedTuple {
        TaggedTuple::scanned(Tuple::new(vals), NodeId(node), 0)
    }

    #[test]
    fn symmetric_join_finds_matches_in_either_arrival_order() {
        let mut j = JoinState::new();
        let node = NodeId(9);
        // Left arrives first: no match yet.
        let out = j.process(
            0,
            tagged(vec![Value::Int(1), Value::str("a")], 0),
            &[0],
            &[0],
            node,
        );
        assert!(out.is_empty());
        // Matching right arrives: one result.
        let out = j.process(
            1,
            tagged(vec![Value::Int(1), Value::str("x")], 1),
            &[0],
            &[0],
            node,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].tuple.values(),
            &[
                Value::Int(1),
                Value::str("a"),
                Value::Int(1),
                Value::str("x")
            ]
        );
        assert!(out[0].provenance.contains(NodeId(0)));
        assert!(out[0].provenance.contains(NodeId(1)));
        assert!(out[0].provenance.contains(node));
        // A second left with the same key joins against the stored right.
        let out = j.process(
            0,
            tagged(vec![Value::Int(1), Value::str("b")], 2),
            &[0],
            &[0],
            node,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn join_purge_drops_only_tainted_rows() {
        let mut j = JoinState::new();
        let node = NodeId(9);
        j.process(0, tagged(vec![Value::Int(1)], 0), &[0], &[0], node);
        j.process(0, tagged(vec![Value::Int(2)], 5), &[0], &[0], node);
        j.process(1, tagged(vec![Value::Int(3)], 5), &[0], &[0], node);
        let dropped = j.purge_tainted(&NodeSet::singleton(NodeId(5)));
        assert_eq!(dropped, 2);
        assert_eq!(j.len(), 1);
        assert!(!j.is_empty());
    }

    #[test]
    fn purged_join_rows_never_match_again() {
        // Tombstoned rows must be invisible to later probes.
        let mut j = JoinState::new();
        let node = NodeId(9);
        j.process(
            0,
            tagged(vec![Value::Int(1), Value::str("dead")], 5),
            &[0],
            &[0],
            node,
        );
        j.process(
            0,
            tagged(vec![Value::Int(1), Value::str("live")], 0),
            &[0],
            &[0],
            node,
        );
        j.purge_tainted(&NodeSet::singleton(NodeId(5)));
        let out = j.process(1, tagged(vec![Value::Int(1)], 1), &[0], &[0], node);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.value(1), &Value::str("live"));
    }

    #[test]
    fn join_batch_path_matches_row_path() {
        // Feed the same rows through the row API and the batch API and
        // compare outputs and state sizes.
        let node = NodeId(9);
        let lefts: Vec<TaggedTuple> = (0..6)
            .map(|i| tagged(vec![Value::Int(i % 3), Value::str(format!("l{i}"))], 0))
            .collect();
        let rights: Vec<TaggedTuple> = (0..4)
            .map(|i| tagged(vec![Value::str(format!("r{i}")), Value::Int(i % 2)], 1))
            .collect();

        let mut row_join = JoinState::new();
        let mut row_out = Vec::new();
        for l in &lefts {
            row_out.extend(row_join.process(0, l.clone(), &[0], &[1], node));
        }
        for r in &rights {
            row_out.extend(row_join.process(1, r.clone(), &[0], &[1], node));
        }

        let mut batch_join = JoinState::new();
        let left_batch = ColumnarBatch::from_tuples(
            2,
            lefts.iter().map(|t| t.tuple.clone()),
            1,
            NodeSet::singleton(NodeId(0)),
            0,
        );
        let right_batch = ColumnarBatch::from_tuples(
            2,
            rights.iter().map(|t| t.tuple.clone()),
            1,
            NodeSet::singleton(NodeId(1)),
            0,
        );
        let mut batch_out = Vec::new();
        let out = batch_join.process_batch(0, &left_batch, &[0], &[1], node);
        batch_out.extend((0..out.len()).map(|i| out.tuple_at(i)));
        let out = batch_join.process_batch(1, &right_batch, &[0], &[1], node);
        batch_out.extend((0..out.len()).map(|i| out.tuple_at(i)));

        let row_tuples: Vec<Tuple> = row_out.iter().map(|t| t.tuple.clone()).collect();
        assert_eq!(row_tuples, batch_out);
        assert_eq!(row_join.len(), batch_join.len());
    }

    #[test]
    fn accumulators_compute_sql_semantics() {
        let mut count = Accumulator::new(AggFunc::Count);
        let mut sum = Accumulator::new(AggFunc::Sum);
        let mut min = Accumulator::new(AggFunc::Min);
        let mut max = Accumulator::new(AggFunc::Max);
        let mut avg = Accumulator::new(AggFunc::Avg);
        for v in [3i64, 1, 4, 1, 5] {
            let val = Value::Int(v);
            count.update(&val);
            sum.update(&val);
            min.update(&val);
            max.update(&val);
            avg.update(&val);
        }
        assert_eq!(count.final_value(), Value::Int(5));
        assert_eq!(sum.final_value(), Value::Int(14));
        assert_eq!(min.final_value(), Value::Int(1));
        assert_eq!(max.final_value(), Value::Int(5));
        assert_eq!(avg.final_value(), Value::Double(2.8));
    }

    #[test]
    fn partial_then_merge_equals_direct_aggregation() {
        // Split the input across two partial accumulators, merge, compare
        // against a single accumulator over the whole input.
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            let input: Vec<i64> = vec![10, -3, 7, 7, 0, 42];
            let mut direct = Accumulator::new(func);
            for v in &input {
                direct.update(&Value::Int(*v));
            }
            let mut p1 = Accumulator::new(func);
            let mut p2 = Accumulator::new(func);
            for (i, v) in input.iter().enumerate() {
                if i % 2 == 0 {
                    p1.update(&Value::Int(*v));
                } else {
                    p2.update(&Value::Int(*v));
                }
            }
            let mut merged = Accumulator::new(func);
            merged.merge_partial(&p1.partial_values());
            merged.merge_partial(&p2.partial_values());
            assert_eq!(merged.final_value(), direct.final_value(), "{func:?}");
        }
    }

    #[test]
    fn signed_updates_invert_insertions_exactly() {
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg] {
            let mut acc = Accumulator::new(func);
            assert!(acc.is_subtractable());
            for v in [10i64, -3, 7] {
                acc.update(&Value::Int(v));
            }
            let snapshot = acc.partial_values();
            // Fold three more rows in, then retract them: the state must
            // return to the snapshot.
            for v in [5i64, 5, 20] {
                acc.update_signed(&Value::Int(v), 1);
            }
            for v in [5i64, 5, 20] {
                acc.update_signed(&Value::Int(v), -1);
            }
            assert_eq!(acc.partial_values(), snapshot, "{func:?}");
            // Retracting a whole partial state works the same way.
            let mut other = Accumulator::new(func);
            other.update(&Value::Int(100));
            acc.merge_partial_signed(&other.partial_values(), 1);
            acc.merge_partial_signed(&other.partial_values(), -1);
            assert_eq!(acc.partial_values(), snapshot, "{func:?}");
        }
        assert!(!Accumulator::new(AggFunc::Min).is_subtractable());
        assert!(!Accumulator::new(AggFunc::Max).is_subtractable());
    }

    #[test]
    #[should_panic(expected = "MIN cannot fold a retraction")]
    fn min_rejects_retractions() {
        let mut acc = Accumulator::new(AggFunc::Min);
        acc.update_signed(&Value::Int(1), -1);
    }

    #[test]
    fn agg_state_folds_row_signs() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Count, 1)];
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(10)], 0),
            &[0],
            &aggs,
        );
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(4)], 0).with_sign(-1),
            &[0],
            &aggs,
        );
        let rows = agg.collapsed_final(&aggs);
        assert_eq!(
            rows[0].values(),
            &[Value::str("g"), Value::Int(6), Value::Int(0)]
        );
    }

    #[test]
    fn agg_state_subgroups_by_provenance_and_emission_is_once() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1)];
        // Two rows in the same group but with different provenance → two
        // sub-groups.
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(10)], 0),
            &[0],
            &aggs,
        );
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(5)], 1),
            &[0],
            &aggs,
        );
        assert_eq!(agg.subgroup_count(), 2);
        let emitted = agg.emit_unemitted(true, NodeId(7), 0);
        assert_eq!(emitted.len(), 2);
        // Nothing new to emit on a second close.
        assert!(agg.emit_unemitted(true, NodeId(7), 0).is_empty());
        // New input after emission creates a fresh sub-group (new phase)
        // and only that one is emitted next time.
        let mut late = tagged(vec![Value::str("g"), Value::Int(1)], 2);
        late.phase = 1;
        agg.update_raw(&late, &[0], &aggs);
        let emitted = agg.emit_unemitted(true, NodeId(7), 1);
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].phase, 1);
    }

    #[test]
    fn agg_purge_drops_tainted_subgroups() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Count, 0)];
        agg.update_raw(&tagged(vec![Value::str("a")], 0), &[0], &aggs);
        agg.update_raw(&tagged(vec![Value::str("b")], 3), &[0], &aggs);
        assert_eq!(agg.purge_tainted(&NodeSet::singleton(NodeId(3))), 1);
        assert_eq!(agg.subgroup_count(), 1);
    }

    #[test]
    fn collapsed_final_merges_across_subgroups() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Sum, 1), (AggFunc::Count, 1)];
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(10)], 0),
            &[0],
            &aggs,
        );
        agg.update_raw(
            &tagged(vec![Value::str("g"), Value::Int(5)], 1),
            &[0],
            &aggs,
        );
        agg.update_raw(
            &tagged(vec![Value::str("h"), Value::Int(2)], 1),
            &[0],
            &aggs,
        );
        let rows = agg.collapsed_final(&aggs);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].values(),
            &[Value::str("g"), Value::Int(15), Value::Int(2)]
        );
        assert_eq!(
            rows[1].values(),
            &[Value::str("h"), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn agg_batch_path_matches_row_path() {
        // The batch fold (with its signature cache) must land in exactly
        // the same sub-groups as row-at-a-time folding.
        let aggs = [(AggFunc::Sum, 2), (AggFunc::Avg, 2), (AggFunc::Count, 0)];
        let rows: Vec<TaggedTuple> = (0..40)
            .map(|i| {
                tagged(
                    vec![
                        Value::str(if i % 2 == 0 { "A" } else { "B" }),
                        Value::Int(i % 3),
                        Value::Double(i as f64 * 0.5),
                    ],
                    (i % 4) as u16,
                )
                .with_sign(if i % 7 == 0 { -1 } else { 1 })
            })
            .collect();
        let mut by_row = AggState::new();
        for r in &rows {
            by_row.update_raw(r, &[0, 1], &aggs);
        }
        let mut by_batch = AggState::new();
        for chunk in rows.chunks(16) {
            let mut batch = ColumnarBatch::new(3);
            for r in chunk {
                batch.push_row(r.tuple.values(), r.sign, r.provenance, r.phase);
            }
            by_batch.update_raw_batch(&batch, &[0, 1], &aggs);
        }
        assert_eq!(by_row.subgroup_count(), by_batch.subgroup_count());
        assert_eq!(
            by_row.collapsed_final(&aggs),
            by_batch.collapsed_final(&aggs)
        );
        assert_eq!(
            by_row.emit_unemitted(true, NodeId(7), 0),
            by_batch.emit_unemitted(true, NodeId(7), 0)
        );
    }

    #[test]
    fn rehash_buffers_and_cache() {
        let mut r = RehashState::new(true);
        for i in 0..5 {
            let len = r.buffer(NodeId(1), tagged(vec![Value::Int(i)], 0));
            assert_eq!(len, i as usize + 1);
        }
        r.buffer(NodeId(2), tagged(vec![Value::Int(99)], 3));
        assert_eq!(r.pending_destinations(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.take_buffer(NodeId(1)).len(), 5);
        assert!(r.take_buffer(NodeId(1)).is_empty());
        assert_eq!(r.cache_len(), 6);

        // Stage-4 retransmission: cached rows for a failed destination,
        // excluding tainted ones.
        let failed = NodeSet::singleton(NodeId(3));
        let resend = r.take_cached_for(NodeId(2), &failed);
        assert!(resend.is_empty(), "row destined to n2 is itself tainted");
        let resend = r.take_cached_for(NodeId(1), &failed);
        assert_eq!(resend.len(), 5);
        // The consumed entries are gone; the tainted n2 row remains until
        // purged.
        assert_eq!(r.cache_len(), 1);
        assert_eq!(r.purge_tainted(&failed), 1);
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn rehash_without_cache_keeps_nothing() {
        let mut r = RehashState::new(false);
        r.buffer(NodeId(1), tagged(vec![Value::Int(1)], 0));
        assert_eq!(r.cache_len(), 0);
    }

    #[test]
    fn take_cached_for_consumes_entries() {
        // Regression: retransmission must consume the cache entries keyed
        // to the failed destination, or a second recovery round would
        // re-send (and duplicate) them.
        let mut r = RehashState::new(true);
        r.buffer(NodeId(1), tagged(vec![Value::Int(1)], 0));
        r.buffer(NodeId(1), tagged(vec![Value::Int(2)], 5));
        r.buffer(NodeId(2), tagged(vec![Value::Int(3)], 0));
        let failed = NodeSet::singleton(NodeId(5));
        let taken = r.take_cached_for(NodeId(1), &failed);
        assert_eq!(taken.len(), 1, "only the untainted row for n1");
        // A second call finds nothing left for that destination.
        assert!(r.take_cached_for(NodeId(1), &failed).is_empty());
        // Entries for other destinations are untouched.
        assert_eq!(r.take_cached_for(NodeId(2), &failed).len(), 1);
    }

    #[test]
    fn purge_counts_each_logical_row_once() {
        // Regression: a tainted row that is both cached and still pending
        // in a buffer must be counted as ONE dropped row, not two.
        let mut r = RehashState::new(true);
        r.buffer(NodeId(1), tagged(vec![Value::Int(1)], 7));
        let failed = NodeSet::singleton(NodeId(7));
        assert_eq!(r.purge_tainted(&failed), 1);
        assert_eq!(r.cache_len(), 0);
        assert!(r.take_buffer(NodeId(1)).is_empty());

        // Without a cache, pending-buffer drops are what gets counted.
        let mut r = RehashState::new(false);
        r.buffer(NodeId(1), tagged(vec![Value::Int(1)], 7));
        r.buffer(NodeId(2), tagged(vec![Value::Int(2)], 0));
        assert_eq!(r.purge_tainted(&failed), 1);
        assert_eq!(r.take_buffer(NodeId(2)).len(), 1);
    }

    #[test]
    fn extremum_sketch_is_exact_until_exhaustion() {
        let mut s = ExtremumSketch::new(ExtremumKind::Min, 4);
        for v in [7, 3, 9, 1, 5, 8, 2, 6] {
            s.update_signed(&Value::Int(v), 1);
        }
        // Tracks the 4 smallest {1,2,3,5}; the rest are overflow.
        assert_eq!(s.best(), Some(&Value::Int(1)));
        assert_eq!(s.support(), 8);
        // Retract the minimum twice: the sketch still answers exactly
        // from the runners-up — where a bare accumulator would already
        // force a recompute.
        s.update_signed(&Value::Int(1), -1);
        assert_eq!(s.best(), Some(&Value::Int(2)));
        s.update_signed(&Value::Int(2), -1);
        assert_eq!(s.best(), Some(&Value::Int(3)));
        assert!(!s.is_exhausted());
        // Drain the remaining tracked values: overflow rows survive but
        // their order was discarded — the sketch declines to answer.
        s.update_signed(&Value::Int(3), -1);
        s.update_signed(&Value::Int(5), -1);
        assert!(s.is_exhausted());
        assert_eq!(s.best(), None);
        assert_eq!(s.support(), 4);
    }

    #[test]
    fn extremum_sketch_never_promotes_past_unknown_overflow() {
        let mut s = ExtremumSketch::new(ExtremumKind::Min, 2);
        for v in 1..=10 {
            s.update_signed(&Value::Int(v), 1);
        }
        // Tracked {1,2}, overflow 3..=10.
        for v in [1, 2] {
            s.update_signed(&Value::Int(v), -1);
        }
        assert!(s.is_exhausted());
        // A fresh value cannot become "best": overflow rows of unknown
        // rank (3..=10) may beat it.  It must join the overflow until a
        // recompute rebuilds the sketch.
        s.update_signed(&Value::Int(100), 1);
        assert!(s.is_exhausted());
        assert_eq!(s.best(), None);
        // A strictly-better-than-boundary value, by contrast, is always
        // safe to track.
        let mut t = ExtremumSketch::new(ExtremumKind::Min, 2);
        for v in [5, 6, 7, 8] {
            t.update_signed(&Value::Int(v), 1);
        }
        t.update_signed(&Value::Int(1), 1);
        assert_eq!(t.best(), Some(&Value::Int(1)));
    }

    #[test]
    fn extremum_sketch_max_mirrors_min() {
        let mut s = ExtremumSketch::new(ExtremumKind::Max, 3);
        for v in [4, 9, 2, 7, 5] {
            s.update_signed(&Value::Int(v), 1);
        }
        assert_eq!(s.best(), Some(&Value::Int(9)));
        s.update_signed(&Value::Int(9), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        // Deleting an untracked (small) value only touches the overflow.
        s.update_signed(&Value::Int(2), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        assert_eq!(s.support(), 3);
        // Duplicates share one tracked slot.
        s.update_signed(&Value::Int(7), 1);
        s.update_signed(&Value::Int(7), -1);
        assert_eq!(s.best(), Some(&Value::Int(7)));
        // Nulls never participate.
        s.update_signed(&Value::Null, 1);
        assert_eq!(s.support(), 3);
    }

    #[test]
    fn buffer_from_matches_row_buffering() {
        // buffer_from on a columnar source must leave the same buffers and
        // cache as pushing the materialized rows.
        let rows: Vec<TaggedTuple> = (0..6)
            .map(|i| tagged(vec![Value::Int(i), Value::str(format!("s{}", i % 2))], 0))
            .collect();
        let mut batch = ColumnarBatch::new(2);
        for r in &rows {
            batch.push_row(r.tuple.values(), r.sign, r.provenance, r.phase);
        }
        let mut by_row = RehashState::new(true);
        let mut by_batch = RehashState::new(true);
        for (i, r) in rows.iter().enumerate() {
            let dest = NodeId((i % 2) as u16);
            let a = by_row.buffer(dest, r.clone());
            let b = by_batch.buffer_from(dest, &batch, i);
            assert_eq!(a, b);
        }
        for dest in [NodeId(0), NodeId(1)] {
            assert_eq!(by_row.take_buffer(dest), by_batch.take_buffer(dest));
        }
        assert_eq!(by_row.cache_len(), by_batch.cache_len());
    }
}
