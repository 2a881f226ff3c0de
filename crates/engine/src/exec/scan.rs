//! Leaf scans over the versioned store.
//!
//! Each participant scans its partition of every leaf relation for the
//! current phase: distributed scans read the node's assigned hash ranges
//! (replica fetches that must leave the node are charged to the simulated
//! network), replicated scans read the node's full local copy, and
//! covering-index scans answer key-only queries from the index pages
//! alone, "bypassing the data storage nodes".  Scan durations come from
//! the node profile; page/tuple/remote-lookup counts accumulate into
//! `RunStats`.

use super::pipeline::{Runtime, WC_SCAN};
use crate::batch::TupleBatch;
use crate::expr::Predicate;
use crate::plan::{OpId, OperatorKind};
use crate::provenance::TaggedTuple;
use orchestra_common::{
    ColumnarBatch, Epoch, KeyRange, NodeId, NodeSet, OrchestraError, Result, Tuple, Value,
};
use orchestra_simnet::SimTime;
use orchestra_storage::CoordinatorKey;
use std::time::Instant;

use super::exchange::Payload;

impl Runtime<'_> {
    /// Run one leaf scan on behalf of `node` for the current phase,
    /// returning a tagged columnar batch and the simulated scan duration.
    pub(super) fn do_scan(&mut self, node: NodeId, op: OpId) -> Result<(TupleBatch, SimTime)> {
        let kind = &self.plan.op(op).kind;
        let profile = &self.config.profile.node;
        // A maintenance session may pin this scan to a different epoch,
        // or replace it with a signed delta scan over an epoch interval.
        let epoch = self.overrides.epoch_of(op).unwrap_or(self.epoch);
        let delta = self.overrides.delta_of(op);
        if delta.is_some() && !matches!(kind, OperatorKind::DistributedScan { .. }) {
            return Err(OrchestraError::Execution(format!(
                "operator {} has no delta scan path",
                kind.name()
            )));
        }
        match kind {
            OperatorKind::DistributedScan {
                relation,
                predicate,
            } => {
                let ranges = self.scan_ranges.get(&node).cloned().unwrap_or_default();
                if ranges.is_empty() {
                    return Ok((TupleBatch::new(), SimTime::ZERO));
                }
                if let Some((from, to)) = delta {
                    let scan = self
                        .storage
                        .get()
                        .delta_partition(relation, from, to, node, &ranges)?;
                    let duration = self.charge_fetches(
                        node,
                        scan.pages_read,
                        scan.tuples_read,
                        scan.remote_lookups,
                        &scan.remote_transfers,
                    );
                    // The scan predicate applies to both signs: a removed
                    // version only ever contributed if it passed, and an
                    // added version only contributes if it passes.
                    let rows = self.emit_delta(scan.rows, predicate, node);
                    return Ok((rows, duration));
                }
                let scan = self
                    .storage
                    .get()
                    .scan_partition(relation, epoch, node, &ranges)?;
                let duration = self.charge_fetches(
                    node,
                    scan.pages_read,
                    scan.tuples_read,
                    scan.remote_lookups,
                    &scan.remote_transfers,
                );
                let rows = self.emit_scanned(scan.tuples, predicate, node);
                Ok((rows, duration))
            }
            OperatorKind::ReplicatedScan {
                relation,
                predicate,
            } => {
                if !self.scan_replicated {
                    return Ok((TupleBatch::new(), SimTime::ZERO));
                }
                let tuples = self.storage.get().scan_replicated(relation, epoch, node)?;
                self.stats.tuples_scanned += tuples.len();
                let duration = profile.scan_time(tuples.len(), 1);
                let rows = self.emit_scanned(tuples, predicate, node);
                Ok((rows, duration))
            }
            OperatorKind::CoveringIndexScan {
                relation,
                predicate,
            } => {
                let ranges = self.scan_ranges.get(&node).cloned().unwrap_or_default();
                if ranges.is_empty() {
                    return Ok((TupleBatch::new(), SimTime::ZERO));
                }
                let (tuples, pages) = self.covering_scan(relation, epoch, &ranges)?;
                self.stats.pages_read += pages;
                let duration = profile.scan_time(tuples.len(), pages);
                let rows = self.emit_scanned(tuples, predicate, node);
                Ok((rows, duration))
            }
            other => Err(OrchestraError::Execution(format!(
                "operator {} is not a scan",
                other.name()
            ))),
        }
    }

    /// Account a partition or delta scan's fetches on behalf of `node` and
    /// return the scan's simulated duration.  Tuples that had to come from
    /// a replica cross the wire: their bytes and latency are charged to the
    /// simulation and the scan stretches until the last transfer lands.
    fn charge_fetches(
        &mut self,
        node: NodeId,
        pages_read: usize,
        tuples_read: usize,
        remote_lookups: usize,
        remote_transfers: &[(NodeId, usize)],
    ) -> SimTime {
        self.stats.pages_read += pages_read;
        self.stats.tuples_scanned += tuples_read;
        self.stats.remote_lookups += remote_lookups;
        let mut duration = self.config.profile.node.scan_time(tuples_read, pages_read);
        let now = self.sim.now();
        for (src, bytes) in remote_transfers {
            if let Some(arrival) = self
                .sim
                .send(*src, node, *bytes, now, Payload::StorageFetch)
            {
                duration = duration.max(arrival.saturating_sub(now));
            }
        }
        duration
    }

    /// Answer a key-only scan from the index pages alone, "bypassing the
    /// data storage nodes".
    fn covering_scan(
        &self,
        relation: &str,
        epoch: Epoch,
        ranges: &[KeyRange],
    ) -> Result<(Vec<Tuple>, usize)> {
        let storage = self.storage.get();
        let Some(version_epoch) = storage.version_at(relation, epoch) else {
            return Ok((Vec::new(), 0));
        };
        let version = storage.lookup_coordinator(&CoordinatorKey::new(relation, version_epoch))?;
        let mut out = Vec::new();
        let mut pages = 0;
        for descriptor in &version.pages {
            if !ranges.iter().any(|r| r.overlaps(&descriptor.range)) {
                continue;
            }
            let page = storage.lookup_index_page(descriptor)?;
            pages += 1;
            for id in &page.tuple_ids {
                if ranges.iter().any(|r| r.contains(id.hash_key())) {
                    out.push(Tuple::new(id.key.clone()));
                }
            }
        }
        Ok((out, pages))
    }
}

impl Runtime<'_> {
    /// Turn freshly scanned tuples into the scan operator's output batch,
    /// tagged with the scanning node's provenance.  The scan predicate
    /// filters the tuple stream *before* the batch is built (late
    /// materialization: a dropped row is never interned or accounted), so
    /// only surviving rows pay columnarization.  On the legacy row path
    /// each survivor becomes an individual tagged row object, exactly as
    /// the engine worked before the columnar refactor, and only then is
    /// packed for the wire.  Only this emission work is on the wall
    /// clock — the storage fetch above it is identical on both paths.
    fn emit_scanned(
        &mut self,
        tuples: Vec<Tuple>,
        predicate: &Option<Predicate>,
        node: NodeId,
    ) -> TupleBatch {
        let wall = Instant::now();
        let arity = tuples.iter().map(|t| t.arity()).max().unwrap_or(0);
        let tuples = filter_scanned(tuples, predicate);
        let batch = if self.config.legacy_row_path {
            let phase = self.phase;
            let rows: Vec<TaggedTuple> = tuples
                .into_iter()
                .map(|t| TaggedTuple::scanned(pad_to(t, arity), node, phase))
                .collect();
            TupleBatch::from_rows(rows)
        } else {
            let batch =
                ColumnarBatch::from_tuples(arity, tuples, 1, NodeSet::singleton(node), self.phase);
            TupleBatch::from_columnar(batch)
        };
        self.record_wall(WC_SCAN, batch.len(), wall);
        batch
    }

    /// [`Runtime::emit_scanned`] for signed delta scans: every row carries
    /// its own `+1`/`-1` sign from the epoch interval.
    fn emit_delta(
        &mut self,
        signed: Vec<(Tuple, i8)>,
        predicate: &Option<Predicate>,
        node: NodeId,
    ) -> TupleBatch {
        let wall = Instant::now();
        let arity = signed.iter().map(|(t, _)| t.arity()).max().unwrap_or(0);
        let phase = self.phase;
        let prov = NodeSet::singleton(node);
        let signed: Vec<(Tuple, i8)> = match predicate {
            Some(p) => signed.into_iter().filter(|(t, _)| p.eval(t)).collect(),
            None => signed,
        };
        let batch = if self.config.legacy_row_path {
            let rows: Vec<TaggedTuple> = signed
                .into_iter()
                .map(|(t, sign)| TaggedTuple {
                    tuple: pad_to(t, arity),
                    provenance: prov,
                    phase,
                    sign,
                })
                .collect();
            TupleBatch::from_rows(rows)
        } else {
            let mut batch = ColumnarBatch::new(arity);
            for (t, sign) in signed {
                let mut values = t.into_values();
                values.resize(arity, Value::Null);
                batch.push_row_owned(values, sign, prov, phase);
            }
            TupleBatch::from_columnar(batch)
        };
        self.record_wall(WC_SCAN, batch.len(), wall);
        batch
    }
}

/// Keep only the tuples satisfying the scan predicate.
fn filter_scanned(tuples: Vec<Tuple>, predicate: &Option<Predicate>) -> Vec<Tuple> {
    match predicate {
        Some(p) => tuples.into_iter().filter(|t| p.eval(t)).collect(),
        None => tuples,
    }
}

/// Pad `t` with NULLs up to `arity` (the pre-filter maximum, so filtered
/// and unfiltered scans agree on the batch shape).
fn pad_to(t: Tuple, arity: usize) -> Tuple {
    let mut values = t.into_values();
    values.resize(arity, Value::Null);
    Tuple::new(values)
}
