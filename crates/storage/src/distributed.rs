//! The distributed, replicated, versioned store.
//!
//! [`DistributedStorage`] glues the per-node [`NodeStore`]s to the
//! substrate's routing: every piece of state (coordinator record, index
//! page, tuple version) is written to the node owning its ring position
//! plus that node's replica set, and read back with fail-over — first the
//! owner, then the replicas, then (as a last resort, mirroring the paper's
//! "proactively try to retrieve the missing state from other nearby
//! nodes") any live node.
//!
//! Publication ([`DistributedStorage::publish`]) applies one participant's
//! [`UpdateBatch`] as a new epoch, creating new versions only of the index
//! pages actually touched and sharing all others with the previous
//! version.  Retrieval ([`DistributedStorage::retrieve`]) implements
//! Algorithm 1; [`DistributedStorage::scan_partition`] is the same access
//! path restricted to the ranges owned by one executing node, which is how
//! the query engine's distributed scans consume storage.

use crate::coordinator::{CoordinatorKey, RelationVersion};
use crate::node_store::NodeStore;
use crate::page::{partition_of, partition_range, IndexPage, PageDescriptor, PageId};
use crate::update::{Update, UpdateBatch};
use orchestra_common::{
    Epoch, Key160, KeyRange, NodeId, NodeSet, OrchestraError, Relation, Result, Tuple, TupleId,
};
use orchestra_substrate::RoutingTable;
use std::collections::HashMap;
use std::rc::Rc;

/// Configuration of the storage layer.
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Number of index-page partitions per relation.  The paper uses "a
    /// slightly higher number of entries [than CFS] representing
    /// partitions of the tuple space"; a small multiple of the expected
    /// node count keeps pages co-located with their tuples while bounding
    /// per-page size.
    pub partitions_per_relation: u32,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            partitions_per_relation: 64,
        }
    }
}

/// Result of a partition scan executed on behalf of one node.
#[derive(Clone, Debug, Default)]
pub struct PartitionScan {
    /// The tuples of the requested version whose key hashes fall in the
    /// requested ranges.
    pub tuples: Vec<Tuple>,
    /// Index pages consulted.
    pub pages_read: usize,
    /// Tuple versions fetched.
    pub tuples_read: usize,
    /// Tuple versions that were *not* present in the scanning node's local
    /// store and had to be fetched from a replica (non-zero after
    /// membership changes, zero in steady state thanks to co-location).
    pub remote_lookups: usize,
    /// Bytes fetched from each remote holder, aggregated per source node
    /// — the transfers the simulation must charge to the network.
    pub remote_transfers: Vec<(NodeId, usize)>,
}

/// Fetch accounting shared by partition scans and delta scans: the
/// tuple versions fetched and the bytes pulled from each remote holder.
#[derive(Default)]
pub(crate) struct FetchTally {
    pub(crate) tuples_read: usize,
    pub(crate) remote_lookups: usize,
    pub(crate) remote_transfers: Vec<(NodeId, usize)>,
}

/// Result of a full Algorithm 1 retrieval.
#[derive(Clone, Debug, Default)]
pub struct RetrievalResult {
    /// Matching tuples.
    pub tuples: Vec<Tuple>,
    /// Trace of inter-node messages `(from, to, bytes)` the lookup would
    /// generate, for accounting and for the worked example.
    pub messages: Vec<(NodeId, NodeId, usize)>,
    /// Number of index pages scanned.
    pub pages_scanned: usize,
}

/// The distributed, replicated, versioned storage layer.
///
/// `Clone` yields an independent copy of the simulated cluster state at
/// the cost of one reference count per node, relation and index page:
/// tuple maps and index pages are shared copy-on-write (see
/// [`NodeStore`]), so writes to either copy never show in the other.  The
/// query engine uses this to run failure experiments against a scratch
/// copy without disturbing the caller's store.
#[derive(Clone)]
pub struct DistributedStorage {
    config: StorageConfig,
    routing: RoutingTable,
    stores: Vec<NodeStore>,
    failed: NodeSet,
    catalog: HashMap<String, Relation>,
    relation_epochs: HashMap<String, Vec<Epoch>>,
    published: u64,
    /// Memoized epoch-interval page diffs (see `delta.rs`) — shared by
    /// every delta consumer so fan-out maintenance derives each changed
    /// relation's delta once per epoch, not once per view.
    pub(crate) delta_memo: crate::delta::DeltaMemo,
}

impl DistributedStorage {
    /// Create an empty store over the nodes of `routing`.
    pub fn new(routing: RoutingTable, config: StorageConfig) -> DistributedStorage {
        let max_index = routing
            .nodes()
            .iter()
            .map(|n| n.index())
            .max()
            .expect("routing table has at least one node");
        let stores = (0..=max_index as u16)
            .map(|i| NodeStore::new(NodeId(i)))
            .collect();
        DistributedStorage {
            config,
            routing,
            stores,
            failed: NodeSet::empty(),
            catalog: HashMap::new(),
            relation_epochs: HashMap::new(),
            published: 0,
            delta_memo: crate::delta::DeltaMemo::default(),
        }
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The routing table currently used for placement.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Replace the routing table (membership change).  Existing data is
    /// *not* moved — run [`crate::replication::anti_entropy`] afterwards to
    /// restore the placement invariant, exactly as background replication
    /// would in the paper.
    pub fn set_routing(&mut self, routing: RoutingTable) {
        let max_index = routing.nodes().iter().map(|n| n.index()).max().unwrap_or(0);
        while self.stores.len() <= max_index {
            self.stores
                .push(NodeStore::new(NodeId(self.stores.len() as u16)));
        }
        self.routing = routing;
    }

    /// Mark a node as failed: its local store becomes unreachable for all
    /// lookups (its contents survive in this process, but nothing reads
    /// them — the node is gone).
    pub fn mark_failed(&mut self, node: NodeId) {
        self.failed.insert(node);
    }

    /// Clear a node's failed mark: a crashed or departed node has
    /// rejoined (as a fresh process on the same identity) and may be
    /// read from and written to again.  Its store is whatever survived
    /// in this process — typically empty until anti-entropy repopulates
    /// it under a routing table that lists the node once more.
    pub fn mark_recovered(&mut self, node: NodeId) {
        self.failed.remove(node);
    }

    /// Nodes currently marked failed.
    pub fn failed_nodes(&self) -> NodeSet {
        self.failed
    }

    /// Register a relation before publishing to it.
    pub fn register_relation(&mut self, relation: Relation) {
        self.catalog.insert(relation.name().to_string(), relation);
    }

    /// Look up a relation's metadata.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.catalog.get(name)
    }

    /// Iterate over all registered relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.catalog.values()
    }

    /// The most recently published epoch, if anything has been published.
    pub fn latest_epoch(&self) -> Option<Epoch> {
        self.published.checked_sub(1).map(Epoch)
    }

    /// Direct access to one node's local store (tests, diagnostics,
    /// anti-entropy).
    pub fn store(&self, node: NodeId) -> &NodeStore {
        &self.stores[node.index()]
    }

    /// Mutable access to one node's local store (anti-entropy, failure
    /// injection).
    pub fn store_mut(&mut self, node: NodeId) -> &mut NodeStore {
        &mut self.stores[node.index()]
    }

    // ------------------------------------------------------------------
    // Publication
    // ------------------------------------------------------------------

    /// Publish one batch of updates as a new epoch, returning the epoch.
    ///
    /// Every relation mentioned in the batch gets a new version that
    /// shares all untouched pages with its previous version; tuples, index
    /// pages and coordinator records are written to their owners and
    /// replicas under the current routing table.
    pub fn publish(&mut self, batch: &UpdateBatch) -> Result<Epoch> {
        let epoch = Epoch(self.published);
        let relations: Vec<String> = batch.relations().map(str::to_string).collect();
        for name in &relations {
            self.publish_relation(name, epoch, batch.updates_for(name))?;
        }
        self.published += 1;
        Ok(epoch)
    }

    fn publish_relation(&mut self, name: &str, epoch: Epoch, updates: &[Update]) -> Result<()> {
        let relation = self
            .catalog
            .get(name)
            .ok_or_else(|| {
                OrchestraError::StorageInvalid(format!("relation {name} is not registered"))
            })?
            .clone();
        let key_len = relation.schema().key_len();
        let parts = self.config.partitions_per_relation;

        // Previous version of the relation, if any.
        let prev_epoch = self
            .relation_epochs
            .get(name)
            .and_then(|v| v.last().copied());
        let prev_version: Option<RelationVersion> = match prev_epoch {
            Some(e) => Some(
                self.lookup_coordinator(&CoordinatorKey::new(name, e))?
                    .clone(),
            ),
            None => None,
        };

        // Group the updates by index-page partition.
        let mut by_partition: HashMap<u32, Vec<&Update>> = HashMap::new();
        for up in updates {
            let key = up.key(key_len);
            if key.len() < key_len {
                return Err(OrchestraError::StorageInvalid(format!(
                    "update to {name} has {} key values, schema requires {key_len}",
                    key.len()
                )));
            }
            let hash = orchestra_common::tuple::hash_values(key);
            by_partition
                .entry(partition_of(hash, parts))
                .or_default()
                .push(up);
        }

        // Start from the previous version's descriptors for untouched pages.
        let mut descriptors: Vec<PageDescriptor> = prev_version
            .as_ref()
            .map(|v| {
                v.pages
                    .iter()
                    .filter(|d| !by_partition.contains_key(&d.id.partition))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();

        let mut touched: Vec<u32> = by_partition.keys().copied().collect();
        touched.sort_unstable();
        for partition in touched {
            let ups = &by_partition[&partition];
            let range = partition_range(partition, parts);
            let prev_page: Option<&IndexPage> = prev_version
                .as_ref()
                .and_then(|v| v.pages.iter().find(|d| d.id.partition == partition))
                .map(|d| self.lookup_index_page(d))
                .transpose()?;

            let mut removes: Vec<TupleId> = Vec::new();
            let mut adds: Vec<TupleId> = Vec::new();
            let mut new_tuples: Vec<(TupleId, Tuple)> = Vec::new();
            for up in ups {
                let key = up.key(key_len).to_vec();
                match up {
                    Update::Insert(t) => {
                        let id = TupleId::new(key, epoch);
                        adds.push(id.clone());
                        new_tuples.push((id, t.clone()));
                    }
                    Update::Modify(t) => {
                        if let Some(prev) = prev_page
                            .as_ref()
                            .and_then(|p| p.tuple_ids.iter().find(|i| i.key == key))
                        {
                            removes.push(prev.clone());
                        }
                        let id = TupleId::new(key, epoch);
                        adds.push(id.clone());
                        new_tuples.push((id, t.clone()));
                    }
                    Update::Delete(_) => {
                        if let Some(prev) = prev_page
                            .as_ref()
                            .and_then(|p| p.tuple_ids.iter().find(|i| i.key == key))
                        {
                            removes.push(prev.clone());
                        }
                    }
                }
            }

            let new_page = Rc::new(match prev_page {
                Some(p) => p.next_version(epoch, &removes, adds),
                None => IndexPage::new(PageId::new(name, epoch, partition), range, adds),
            });

            // Write the tuples to their data storage nodes (+ replicas), or
            // to every node for replicated relations.
            for (id, tuple) in new_tuples {
                let hash = id.hash_key();
                if relation.is_replicated() {
                    for node in self.routing.nodes() {
                        if !self.failed.contains(node) {
                            self.stores[node.index()].put_tuple(
                                name,
                                hash,
                                id.clone(),
                                tuple.clone(),
                            );
                        }
                    }
                } else {
                    for node in self.live_replicas(hash) {
                        self.stores[node.index()].put_tuple(name, hash, id.clone(), tuple.clone());
                    }
                }
            }

            // Write the index page to the node owning the middle of its
            // range (+ replicas), which share its body, and refresh the
            // inverse entries.
            let descriptor = new_page.descriptor();
            for node in self.live_replicas(descriptor.storage_key) {
                self.stores[node.index()].put_shared_index_page(Rc::clone(&new_page));
                self.stores[node.index()].put_inverse(name, partition, new_page.id.clone());
            }
            descriptors.push(descriptor);
        }

        // Write the coordinator record for the new version.
        let coord_key = CoordinatorKey::new(name, epoch);
        let version = RelationVersion::new(coord_key.clone(), descriptors);
        for node in self.live_replicas(coord_key.hash()) {
            self.stores[node.index()].put_coordinator(version.clone());
        }

        self.relation_epochs
            .entry(name.to_string())
            .or_default()
            .push(epoch);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Version resolution and statistics
    // ------------------------------------------------------------------

    /// The version of `relation` visible at `epoch`: the latest epoch at
    /// which the relation changed that is `<= epoch`.  Epochs are
    /// appended in publication order, so the answer is a binary search —
    /// version resolution sits on every scan and delta path and a linear
    /// walk would grow with a relation's publication history.
    pub fn version_at(&self, relation: &str, epoch: Epoch) -> Option<Epoch> {
        let epochs = self.relation_epochs.get(relation)?;
        let idx = epochs.partition_point(|e| *e <= epoch);
        idx.checked_sub(1).map(|i| epochs[i])
    }

    /// All epochs at which `relation` changed.
    pub fn version_history(&self, relation: &str) -> &[Epoch] {
        self.relation_epochs
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Cardinality of `relation` at `epoch` (from coordinator metadata —
    /// the statistic the optimizer uses).
    pub fn relation_cardinality(&self, relation: &str, epoch: Epoch) -> usize {
        let Some(e) = self.version_at(relation, epoch) else {
            return 0;
        };
        self.lookup_coordinator(&CoordinatorKey::new(relation, e))
            .map(|v| v.tuple_count())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Lookups with fail-over
    // ------------------------------------------------------------------

    fn live_replicas(&self, key: Key160) -> Vec<NodeId> {
        self.routing
            .replicas_of(key)
            .into_iter()
            .filter(|n| !self.failed.contains(*n) && n.index() < self.stores.len())
            .collect()
    }

    fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.routing
            .nodes()
            .into_iter()
            .filter(|n| !self.failed.contains(*n) && n.index() < self.stores.len())
    }

    /// Find the coordinator record for `key`, trying the owner, then the
    /// replicas, then every live node.
    pub fn lookup_coordinator(&self, key: &CoordinatorKey) -> Result<&RelationVersion> {
        let hash = key.hash();
        for node in self.live_replicas(hash) {
            if let Some(v) = self.stores[node.index()].coordinator(key) {
                return Ok(v);
            }
        }
        for node in self.live_nodes() {
            if let Some(v) = self.stores[node.index()].coordinator(key) {
                return Ok(v);
            }
        }
        Err(OrchestraError::StorageMissing(format!(
            "no live node holds the coordinator record for {} at {}",
            key.relation, key.epoch
        )))
    }

    /// Find an index page, trying its storage position's owner, replicas,
    /// then every live node.
    pub fn lookup_index_page(&self, descriptor: &PageDescriptor) -> Result<&IndexPage> {
        for node in self.live_replicas(descriptor.storage_key) {
            if let Some(p) = self.stores[node.index()].index_page(&descriptor.id) {
                return Ok(p);
            }
        }
        for node in self.live_nodes() {
            if let Some(p) = self.stores[node.index()].index_page(&descriptor.id) {
                return Ok(p);
            }
        }
        Err(OrchestraError::StorageMissing(format!(
            "no live node holds index page {}",
            descriptor.id
        )))
    }

    /// Find a tuple version by ID, trying the data storage owner, its
    /// replicas, then every live node.  `preferred` (the scanning node) is
    /// consulted first; the second element of the result is the remote
    /// node that served the lookup, or `None` when it was served locally.
    pub fn lookup_tuple(
        &self,
        relation: &str,
        id: &TupleId,
        preferred: Option<NodeId>,
    ) -> Result<(Tuple, Option<NodeId>)> {
        let (tuple, remote) = self.lookup_hashed(relation, id.hash_key(), id, preferred)?;
        Ok((tuple.clone(), remote))
    }

    /// [`Self::lookup_tuple`] for a caller that already holds the tuple's
    /// key hash, borrowing the stored version instead of copying it.
    fn lookup_hashed(
        &self,
        relation: &str,
        hash: Key160,
        id: &TupleId,
        preferred: Option<NodeId>,
    ) -> Result<(&Tuple, Option<NodeId>)> {
        if let Some(node) = preferred {
            if !self.failed.contains(node) {
                if let Some(t) = self.stores[node.index()].tuple(relation, hash, id) {
                    return Ok((t, None));
                }
            }
        }
        for node in self
            .live_replicas(hash)
            .into_iter()
            .chain(self.live_nodes())
        {
            if let Some(t) = self.stores[node.index()].tuple(relation, hash, id) {
                let remote = (preferred != Some(node)).then_some(node);
                return Ok((t, remote));
            }
        }
        Err(OrchestraError::StorageMissing(format!(
            "tuple {id} of {relation} is not held by any live node"
        )))
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Scan the version of `relation` visible at `epoch`, restricted to
    /// tuple-key hashes in `ranges`, on behalf of `node`.
    ///
    /// This is the storage half of the engine's *distributed scan*
    /// operator: the index pages overlapping the ranges are read, their
    /// tuple IDs filtered to the ranges, and the tuple versions fetched —
    /// from `node`'s local store when co-location holds, from replicas
    /// otherwise.
    pub fn scan_partition(
        &self,
        relation: &str,
        epoch: Epoch,
        node: NodeId,
        ranges: &[KeyRange],
    ) -> Result<PartitionScan> {
        let Some(version_epoch) = self.version_at(relation, epoch) else {
            return Ok(PartitionScan::default());
        };
        let version = self.lookup_coordinator(&CoordinatorKey::new(relation, version_epoch))?;
        let (mut tuples, mut pages_read, mut tally) = (Vec::new(), 0, FetchTally::default());
        for descriptor in &version.pages {
            if !ranges.iter().any(|r| r.overlaps(&descriptor.range)) {
                continue;
            }
            let page = self.lookup_index_page(descriptor)?;
            pages_read += 1;
            for id in &page.tuple_ids {
                if let Some(tuple) = self.fetch_in_ranges(relation, id, node, ranges, &mut tally)? {
                    tuples.push(tuple);
                }
            }
        }
        Ok(PartitionScan {
            tuples,
            pages_read,
            tuples_read: tally.tuples_read,
            remote_lookups: tally.remote_lookups,
            remote_transfers: tally.remote_transfers,
        })
    }

    /// Fetch tuple version `id` for a scan on `node` if its key hash falls
    /// in `ranges` (`None` otherwise), tallying the fetch and, when a
    /// replica served it, the bytes it pulled from that replica.
    pub(crate) fn fetch_in_ranges(
        &self,
        relation: &str,
        id: &TupleId,
        node: NodeId,
        ranges: &[KeyRange],
        tally: &mut FetchTally,
    ) -> Result<Option<Tuple>> {
        let hash = id.hash_key();
        if !ranges.iter().any(|r| r.contains(hash)) {
            return Ok(None);
        }
        let (tuple, remote) = self.lookup_hashed(relation, hash, id, Some(node))?;
        tally.tuples_read += 1;
        if let Some(src) = remote {
            tally.remote_lookups += 1;
            let bytes = tuple.serialized_size();
            match tally.remote_transfers.iter_mut().find(|(n, _)| *n == src) {
                Some((_, b)) => *b += bytes,
                None => tally.remote_transfers.push((src, bytes)),
            }
        }
        Ok(Some(tuple.clone()))
    }

    /// Read the full contents of a *replicated* relation from `node`'s
    /// local copy.
    pub fn scan_replicated(
        &self,
        relation: &str,
        epoch: Epoch,
        node: NodeId,
    ) -> Result<Vec<Tuple>> {
        let rel = self.catalog.get(relation).ok_or_else(|| {
            OrchestraError::StorageInvalid(format!("relation {relation} is not registered"))
        })?;
        if !rel.is_replicated() {
            return Err(OrchestraError::StorageInvalid(format!(
                "relation {relation} is partitioned; use scan_partition"
            )));
        }
        let mut scan = self.scan_partition(relation, epoch, node, &[KeyRange::full()])?;
        Ok(std::mem::take(&mut scan.tuples))
    }

    /// Full Algorithm 1 retrieval: find all tuples of `relation` at
    /// `epoch` whose *key* satisfies `filter`, on behalf of `requester`,
    /// tracing the messages the distributed lookup generates.
    pub fn retrieve(
        &self,
        relation: &str,
        epoch: Epoch,
        requester: NodeId,
        filter: &dyn Fn(&[orchestra_common::Value]) -> bool,
    ) -> Result<RetrievalResult> {
        let mut result = RetrievalResult::default();
        let Some(version_epoch) = self.version_at(relation, epoch) else {
            return Ok(result);
        };
        let coord_key = CoordinatorKey::new(relation, version_epoch);
        let coord_node = self
            .live_replicas(coord_key.hash())
            .first()
            .copied()
            .ok_or_else(|| OrchestraError::Substrate("no live coordinator owner".into()))?;
        let version = self.lookup_coordinator(&coord_key)?;
        // Request to the coordinator and its reply (the page list).
        result.messages.push((requester, coord_node, 64));
        result
            .messages
            .push((coord_node, requester, version.serialized_size()));

        for descriptor in &version.pages {
            let index_node = self
                .live_replicas(descriptor.storage_key)
                .first()
                .copied()
                .unwrap_or(coord_node);
            // Scan request to the index node.
            result.messages.push((requester, index_node, 96));
            let page = self.lookup_index_page(descriptor)?;
            result.pages_scanned += 1;
            for id in &page.tuple_ids {
                if !filter(&id.key) {
                    continue;
                }
                let hash = id.hash_key();
                let data_node = self
                    .live_replicas(hash)
                    .first()
                    .copied()
                    .unwrap_or(index_node);
                if data_node != index_node {
                    // The tuple ID crosses the network only when the index
                    // page and the data are not co-located (Example 4.2).
                    result
                        .messages
                        .push((index_node, data_node, id.serialized_size()));
                }
                let (tuple, _) = self.lookup_hashed(relation, hash, id, Some(data_node))?;
                result
                    .messages
                    .push((data_node, requester, tuple.serialized_size()));
                result.tuples.push(tuple.clone());
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{ColumnType, Schema, Value};
    use orchestra_substrate::AllocationScheme;

    fn schema() -> Schema {
        Schema::keyed_on_first(vec![("x", ColumnType::Str), ("y", ColumnType::Str)])
    }

    fn storage(nodes: u16) -> DistributedStorage {
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
        s.register_relation(Relation::partitioned("R", schema()));
        s
    }

    fn r(x: &str, y: &str) -> Tuple {
        Tuple::new(vec![Value::str(x), Value::str(y)])
    }

    /// Reproduces the running example of Section IV (Example 4.1/4.2).
    #[test]
    fn paper_running_example() {
        let mut s = storage(3);
        // Epoch 0: insert R(a,b) and R(f,z).
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "b")).insert("R", r("f", "z"));
        assert_eq!(s.publish(&b0).unwrap(), Epoch(0));
        // Epoch 1: insert R(b,c), R(e,e), R(c,f); modify R(f,z) -> R(f,a).
        let mut b1 = UpdateBatch::new();
        b1.insert("R", r("b", "c"))
            .insert("R", r("e", "e"))
            .insert("R", r("c", "f"))
            .modify("R", r("f", "a"));
        assert_eq!(s.publish(&b1).unwrap(), Epoch(1));
        // Epoch 2: insert R(d,d).
        let mut b2 = UpdateBatch::new();
        b2.insert("R", r("d", "d"));
        assert_eq!(s.publish(&b2).unwrap(), Epoch(2));

        // A lookup of R at epoch 2 sees six tuples, with R(f, a) — not the
        // stale R(f, z).
        let result = s.retrieve("R", Epoch(2), NodeId(1), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 6);
        assert!(result.tuples.contains(&r("f", "a")));
        assert!(!result.tuples.contains(&r("f", "z")));

        // At epoch 0 only the two original tuples (including the old
        // version of f) are visible.
        let old = s.retrieve("R", Epoch(0), NodeId(1), &|_| true).unwrap();
        assert_eq!(old.tuples.len(), 2);
        assert!(old.tuples.contains(&r("f", "z")));

        // At epoch 1, d is not yet visible.
        let mid = s.retrieve("R", Epoch(1), NodeId(1), &|_| true).unwrap();
        assert_eq!(mid.tuples.len(), 5);
        assert!(!mid.tuples.contains(&r("d", "d")));
    }

    #[test]
    fn filter_is_applied_on_keys() {
        let mut s = storage(3);
        let mut b = UpdateBatch::new();
        for k in ["a", "b", "c", "d"] {
            b.insert("R", r(k, "v"));
        }
        s.publish(&b).unwrap();
        let result = s
            .retrieve("R", Epoch(0), NodeId(0), &|key| {
                key[0].as_str() == Some("c")
            })
            .unwrap();
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(result.tuples[0], r("c", "v"));
    }

    #[test]
    fn partition_scans_cover_exactly_once() {
        let mut s = storage(4);
        let mut b = UpdateBatch::new();
        for i in 0..200 {
            b.insert("R", r(&format!("k{i}"), &format!("v{i}")));
        }
        s.publish(&b).unwrap();

        // Scanning each node's own ranges yields every tuple exactly once.
        let mut seen = Vec::new();
        let mut remote = 0;
        for node in s.routing().nodes() {
            let ranges = s.routing().ranges_of(node);
            let scan = s.scan_partition("R", Epoch(0), node, &ranges).unwrap();
            remote += scan.remote_lookups;
            seen.extend(scan.tuples);
        }
        assert_eq!(seen.len(), 200);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 200);
        // Co-location: data pages live where their tuples live, so scans
        // are overwhelmingly local.
        assert_eq!(remote, 0);
    }

    #[test]
    fn deletes_remove_from_new_version_only() {
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1")).insert("R", r("b", "2"));
        s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.delete("R", vec![Value::str("a")]);
        s.publish(&b1).unwrap();

        let now = s.retrieve("R", Epoch(1), NodeId(0), &|_| true).unwrap();
        assert_eq!(now.tuples, vec![r("b", "2")]);
        let before = s.retrieve("R", Epoch(0), NodeId(0), &|_| true).unwrap();
        assert_eq!(before.tuples.len(), 2);
    }

    #[test]
    fn unregistered_relation_is_rejected() {
        let mut s = storage(2);
        let mut b = UpdateBatch::new();
        b.insert("Unknown", r("a", "b"));
        assert!(s.publish(&b).is_err());
    }

    #[test]
    fn version_resolution_and_cardinality() {
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1"));
        s.publish(&b0).unwrap();
        // An unrelated publish advances the global epoch without touching R.
        s.register_relation(Relation::partitioned(
            "S",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Tuple::new(vec![Value::Int(1)]));
        s.publish(&b1).unwrap();

        assert_eq!(s.latest_epoch(), Some(Epoch(1)));
        assert_eq!(s.version_at("R", Epoch(1)), Some(Epoch(0)));
        assert_eq!(s.version_at("R", Epoch(0)), Some(Epoch(0)));
        assert_eq!(s.version_at("S", Epoch(0)), None);
        assert_eq!(s.relation_cardinality("R", Epoch(1)), 1);
        assert_eq!(s.relation_cardinality("S", Epoch(1)), 1);
        assert_eq!(s.version_history("R"), &[Epoch(0)]);
    }

    #[test]
    fn version_at_binary_search_matches_linear_scan() {
        // Regression for the O(history) linear walk: publish a long,
        // gappy history (R changes only on every third global epoch) and
        // check the binary search against the definition at every probe.
        let mut s = storage(3);
        s.register_relation(Relation::partitioned(
            "Other",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        for i in 0..60i64 {
            let mut b = UpdateBatch::new();
            if i % 3 == 0 {
                b.insert("R", r(&format!("k{i}"), "v"));
            } else {
                b.insert("Other", Tuple::new(vec![Value::Int(i)]));
            }
            s.publish(&b).unwrap();
        }
        let history = s.version_history("R").to_vec();
        assert_eq!(history.len(), 20);
        for probe in 0..62u64 {
            let epoch = Epoch(probe);
            let expected = history.iter().rev().find(|e| **e <= epoch).copied();
            assert_eq!(s.version_at("R", epoch), expected, "probe {probe}");
        }
        assert_eq!(s.version_at("Missing", Epoch(10)), None);
    }

    #[test]
    fn data_survives_single_node_failure() {
        let mut s = storage(5);
        let mut b = UpdateBatch::new();
        for i in 0..100 {
            b.insert("R", r(&format!("k{i}"), "v"));
        }
        s.publish(&b).unwrap();

        // Fail one node; every tuple is still reachable through replicas.
        s.mark_failed(NodeId(2));
        let result = s.retrieve("R", Epoch(0), NodeId(0), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 100);
    }

    #[test]
    fn replicated_relation_is_fully_readable_everywhere() {
        let mut s = storage(4);
        s.register_relation(Relation::replicated(
            "Nation",
            Schema::keyed_on_first(vec![("id", ColumnType::Int), ("name", ColumnType::Str)]),
        ));
        let mut b = UpdateBatch::new();
        for i in 0..25 {
            b.insert(
                "Nation",
                Tuple::new(vec![Value::Int(i), Value::str(format!("nation{i}"))]),
            );
        }
        s.publish(&b).unwrap();
        for node in s.routing().nodes() {
            let tuples = s.scan_replicated("Nation", Epoch(0), node).unwrap();
            assert_eq!(tuples.len(), 25);
        }
        // scan_replicated refuses partitioned relations.
        assert!(s.scan_replicated("R", Epoch(0), NodeId(0)).is_err());
    }

    /// Everything a reader of `s` can observe about `relations`: their
    /// version histories, every node's local counts and every node's
    /// partition scan at the latest epoch.
    type Observed = (Vec<Vec<Epoch>>, Vec<(usize, usize, usize)>, Vec<Vec<Tuple>>);

    fn observe(s: &DistributedStorage, relations: &[&str]) -> Observed {
        let nodes = s.routing().nodes();
        let history = relations
            .iter()
            .map(|r| s.version_history(r).to_vec())
            .collect();
        let counts = nodes
            .iter()
            .map(|n| {
                let store = s.store(*n);
                (
                    store.tuple_count(),
                    store.index_page_count(),
                    store.coordinator_count(),
                )
            })
            .collect();
        let epoch = s.latest_epoch().unwrap();
        let mut scans = Vec::new();
        for relation in relations {
            for node in &nodes {
                let ranges = s.routing().ranges_of(*node);
                let mut rows = s
                    .scan_partition(relation, epoch, *node, &ranges)
                    .unwrap()
                    .tuples;
                rows.sort();
                scans.push(rows);
            }
        }
        (history, counts, scans)
    }

    /// A 5-node store holding `R` and `S`, both published at epoch 0.
    fn two_relation_storage() -> DistributedStorage {
        let mut s = storage(5);
        s.register_relation(Relation::partitioned("S", schema()));
        let mut b = UpdateBatch::new();
        for i in 0..80 {
            b.insert("R", r(&format!("r{i}"), "v"));
            b.insert("S", r(&format!("s{i}"), "v"));
        }
        s.publish(&b).unwrap();
        s
    }

    fn churn_r(s: &mut DistributedStorage) {
        let mut b = UpdateBatch::new();
        b.insert("R", r("new", "x"))
            .modify("R", r("r3", "changed"))
            .delete("R", vec![Value::str("r7")]);
        s.publish(&b).unwrap();
    }

    #[test]
    fn publishing_into_a_clone_leaves_the_original_unchanged() {
        let original = two_relation_storage();
        let before = observe(&original, &["R", "S"]);
        let mut copy = original.clone();
        churn_r(&mut copy);
        assert_eq!(copy.version_history("R"), &[Epoch(0), Epoch(1)]);
        assert_ne!(observe(&copy, &["R", "S"]), before);
        assert_eq!(observe(&original, &["R", "S"]), before);
        assert_eq!(original.latest_epoch(), Some(Epoch(0)));
    }

    #[test]
    fn publishing_into_the_original_leaves_a_clone_unchanged() {
        let mut original = two_relation_storage();
        let copy = original.clone();
        let before = observe(&copy, &["R", "S"]);
        churn_r(&mut original);
        assert_eq!(original.version_history("R"), &[Epoch(0), Epoch(1)]);
        assert_eq!(observe(&copy, &["R", "S"]), before);
        assert_eq!(copy.latest_epoch(), Some(Epoch(0)));
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_unchanged() {
        let mut original = two_relation_storage();
        // Grow the ring so anti-entropy on the clone has work to do.
        let routing = RoutingTable::build(
            &(0..6).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        original.set_routing(routing);
        let before = observe(&original, &["R", "S"]);

        let mut copy = original.clone();
        let report = crate::replication::anti_entropy(&mut copy).unwrap();
        assert!(report.tuples_copied > 0 && report.pages_copied > 0);
        copy.store_mut(NodeId(1)).clear();
        let (h, id) = {
            let id = r("extra", "v").id(1, Epoch(0));
            (id.hash_key(), id)
        };
        copy.store_mut(NodeId(2))
            .put_tuple("R", h, id, r("extra", "v"));
        copy.mark_failed(NodeId(3));
        assert_eq!(copy.store(NodeId(1)).tuple_count(), 0);

        assert_eq!(observe(&original, &["R", "S"]), before);
        assert!(original.failed_nodes().is_empty());
        assert_eq!(original.store(NodeId(5)).tuple_count(), 0);
    }

    #[test]
    fn clones_share_untouched_relation_maps_only() {
        let original = two_relation_storage();
        let mut copy = original.clone();
        let nodes = original.routing().nodes();
        for node in &nodes {
            assert!(copy
                .store(*node)
                .shares_relation_with(original.store(*node), "R"));
            assert!(copy
                .store(*node)
                .shares_relation_with(original.store(*node), "S"));
        }
        let mut b = UpdateBatch::new();
        let row = r("only-r", "x");
        b.insert("R", row.clone());
        copy.publish(&b).unwrap();
        let holders = copy.routing().replicas_of(row.hash_key(1));
        for node in &nodes {
            let (new, old) = (copy.store(*node), original.store(*node));
            // S was not published to: shared on every node.
            assert!(new.shares_relation_with(old, "S"), "S on {node}");
            // R was written only on the new tuple's replicas.
            assert_eq!(
                new.shares_relation_with(old, "R"),
                !holders.contains(node),
                "R on {node}"
            );
        }
    }

    #[test]
    fn retrieval_traces_messages_and_colocation() {
        let mut s = storage(3);
        let mut b = UpdateBatch::new();
        for i in 0..50 {
            b.insert("R", r(&format!("k{i}"), "v"));
        }
        s.publish(&b).unwrap();
        let result = s.retrieve("R", Epoch(0), NodeId(1), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 50);
        assert!(result.pages_scanned > 0);
        // The trace contains the coordinator round trip and data shipments.
        assert!(result.messages.len() >= 2 + 50);
    }
}
