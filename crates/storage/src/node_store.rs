//! The local store held by one participant.
//!
//! Each node keeps the slices of the four distributed structures
//! (coordinators, index pages, tuple data, inverse entries) whose ring
//! positions fall in its ranges — plus replicas of its neighbours' slices.
//! In the paper this state lives in BerkeleyDB; here it is an in-memory
//! ordered map per relation, which preserves the access pattern the cost
//! model charges for (point lookups by tuple ID, range scans by tuple-key
//! hash).
//!
//! Index pages and per-relation tuple maps sit behind [`Rc`], so cloning a
//! store shares them instead of copying them: a clone costs one reference
//! count per relation and page.  Writes go through [`Rc::make_mut`], which
//! copies a relation map only when a clone still shares it; index pages
//! are immutable once written.  The store is single-threaded, like the
//! simulator, so `Rc` suffices.

use crate::coordinator::{CoordinatorKey, RelationVersion};
use crate::page::{IndexPage, PageId};
use orchestra_common::{Epoch, Key160, KeyRange, NodeId, Tuple, TupleId};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::rc::Rc;

/// One relation's tuple versions, keyed `(tuple-key hash, tuple ID)`.
type TupleMap = BTreeMap<(Key160, TupleId), Tuple>;

/// The state stored locally at a single node.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    node: Option<NodeId>,
    coordinators: HashMap<CoordinatorKey, RelationVersion>,
    index_pages: HashMap<PageId, Rc<IndexPage>>,
    /// Per relation: `(tuple-key hash, tuple ID) -> tuple`.  Ordered by
    /// hash so partition scans walk a contiguous range, as the paper's
    /// on-disk layout does ("tuples from each index page are stored nearby
    /// on disk, and are retrieved in a single pass through the hash ID
    /// range for that page").
    data: HashMap<String, Rc<TupleMap>>,
    /// Latest page version per (relation, partition) — the inverse-node
    /// state used to find the page that lists the current version of a
    /// tuple when applying a modification.
    inverse: HashMap<(String, u32), PageId>,
}

impl NodeStore {
    /// An empty store belonging to `node`.
    pub fn new(node: NodeId) -> NodeStore {
        NodeStore {
            node: Some(node),
            ..NodeStore::default()
        }
    }

    /// The node this store belongs to, if known.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    // ----- relation coordinator state -------------------------------------

    /// Store a relation-version record.
    pub fn put_coordinator(&mut self, version: RelationVersion) {
        self.coordinators.insert(version.key.clone(), version);
    }

    /// Fetch a relation-version record.
    pub fn coordinator(&self, key: &CoordinatorKey) -> Option<&RelationVersion> {
        self.coordinators.get(key)
    }

    // ----- index node state ------------------------------------------------

    /// Store an index page body.
    pub fn put_index_page(&mut self, page: IndexPage) {
        self.put_shared_index_page(Rc::new(page));
    }

    /// Store an index page body that other nodes' replicas may share.
    pub(crate) fn put_shared_index_page(&mut self, page: Rc<IndexPage>) {
        self.index_pages.insert(page.id.clone(), page);
    }

    /// Fetch an index page body.
    pub fn index_page(&self, id: &PageId) -> Option<&IndexPage> {
        self.index_pages.get(id).map(|p| &**p)
    }

    // ----- data storage node state ------------------------------------------

    /// Store a tuple version under its ID.  Copies the relation's map
    /// first if a clone of this store still shares it.
    pub fn put_tuple(&mut self, relation: &str, hash: Key160, id: TupleId, tuple: Tuple) {
        let map = self.data.entry(relation.to_string()).or_default();
        Rc::make_mut(map).insert((hash, id), tuple);
    }

    /// Fetch a tuple version by its ID (and pre-computed key hash).
    pub fn tuple(&self, relation: &str, hash: Key160, id: &TupleId) -> Option<&Tuple> {
        self.data.get(relation)?.get(&(hash, id.clone()))
    }

    /// Iterate over all tuple versions of `relation` whose key hash falls
    /// in `range` (every version ever stored — callers intersect with an
    /// index page to get a consistent snapshot).
    pub fn scan_hash_range<'a>(
        &'a self,
        relation: &str,
        range: &KeyRange,
    ) -> Box<dyn Iterator<Item = (&'a Key160, &'a TupleId, &'a Tuple)> + 'a> {
        let Some(map) = self.data.get(relation) else {
            return Box::new(std::iter::empty());
        };
        // The smallest map key carrying `hash`: the empty key vector
        // sorts before every tuple ID.
        let first_at = |hash: Key160| (hash, TupleId::new(Vec::new(), Epoch(0)));
        let entries: Box<dyn Iterator<Item = (&'a (Key160, TupleId), &'a Tuple)> + 'a> =
            if range.is_full() {
                Box::new(map.iter())
            } else {
                let from = Included(first_at(range.start));
                let to = Excluded(first_at(range.end));
                if range.start < range.end {
                    Box::new(map.range((from, to)))
                } else {
                    // A wrapping arc is two walks: up to the top of the
                    // ring, then on from zero.
                    Box::new(
                        map.range((from, Unbounded))
                            .chain(map.range((Unbounded, to))),
                    )
                }
            };
        Box::new(entries.map(|((h, id), t)| (h, id, t)))
    }

    /// All tuple versions of `relation` stored locally.
    pub fn all_tuples<'a>(
        &'a self,
        relation: &str,
    ) -> Box<dyn Iterator<Item = (&'a TupleId, &'a Tuple)> + 'a> {
        let Some(map) = self.data.get(relation) else {
            return Box::new(std::iter::empty());
        };
        Box::new(map.iter().map(|((_, id), t)| (id, t)))
    }

    // ----- inverse node state -----------------------------------------------

    /// Record that `page` is the latest version of `(relation, partition)`.
    pub fn put_inverse(&mut self, relation: &str, partition: u32, page: PageId) {
        self.inverse.insert((relation.to_string(), partition), page);
    }

    /// The latest page version of `(relation, partition)` known here.
    pub fn inverse(&self, relation: &str, partition: u32) -> Option<&PageId> {
        self.inverse.get(&(relation.to_string(), partition))
    }

    // ----- bookkeeping --------------------------------------------------------

    /// Number of coordinator records held.
    pub fn coordinator_count(&self) -> usize {
        self.coordinators.len()
    }

    /// Number of index pages held.
    pub fn index_page_count(&self) -> usize {
        self.index_pages.len()
    }

    /// Number of tuple versions held (across all relations).
    pub fn tuple_count(&self) -> usize {
        self.data.values().map(|map| map.len()).sum()
    }

    /// Drop everything — used to model the permanent loss of a failed
    /// node's local storage.
    pub fn clear(&mut self) {
        self.coordinators.clear();
        self.index_pages.clear();
        self.data.clear();
        self.inverse.clear();
    }

    /// Iterate over every coordinator record (used by anti-entropy
    /// replication).
    pub fn coordinators(&self) -> impl Iterator<Item = &RelationVersion> {
        self.coordinators.values()
    }

    /// Iterate over every index page (used by anti-entropy replication).
    pub fn index_pages(&self) -> impl Iterator<Item = &IndexPage> {
        self.index_pages.values().map(|p| &**p)
    }

    /// Does this store share `relation`'s tuple map with `other` (rather
    /// than hold its own copy)?
    #[cfg(test)]
    pub(crate) fn shares_relation_with(&self, other: &NodeStore, relation: &str) -> bool {
        match (self.data.get(relation), other.data.get(relation)) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Iterate over every stored tuple with its relation, hash and ID
    /// (used by anti-entropy replication).
    pub fn tuples_with_relation(&self) -> impl Iterator<Item = (&str, &Key160, &TupleId, &Tuple)> {
        self.data
            .iter()
            .flat_map(|(rel, map)| map.iter().map(move |((h, id), t)| (rel.as_str(), h, id, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{partition_range, PageId};
    use orchestra_common::{Epoch, Value};

    fn tuple(k: i64) -> (Key160, TupleId, Tuple) {
        let t = Tuple::new(vec![Value::Int(k), Value::str(format!("v{k}"))]);
        let id = t.id(1, Epoch(0));
        (id.hash_key(), id, t)
    }

    #[test]
    fn tuple_storage_and_lookup() {
        let mut s = NodeStore::new(NodeId(0));
        let (h, id, t) = tuple(5);
        s.put_tuple("R", h, id.clone(), t.clone());
        assert_eq!(s.tuple("R", h, &id), Some(&t));
        assert_eq!(s.tuple("S", h, &id), None);
        assert_eq!(s.tuple_count(), 1);
        let missing = TupleId::new(vec![Value::Int(6)], Epoch(0));
        assert_eq!(s.tuple("R", missing.hash_key(), &missing), None);
    }

    #[test]
    fn hash_range_scan_filters_by_range() {
        let mut s = NodeStore::new(NodeId(0));
        let mut inside = 0;
        let range = partition_range(0, 2);
        for k in 0..50 {
            let (h, id, t) = tuple(k);
            if range.contains(h) {
                inside += 1;
            }
            s.put_tuple("R", h, id, t);
        }
        let scanned = s.scan_hash_range("R", &range).count();
        assert_eq!(scanned, inside);
        assert_eq!(s.all_tuples("R").count(), 50);
        assert_eq!(s.scan_hash_range("T", &range).count(), 0);
    }

    /// `scan_hash_range` must return exactly the tuples a filter over
    /// the whole relation would, in hash order.
    fn assert_scan_matches_filter(s: &NodeStore, range: KeyRange) {
        let scanned: Vec<Key160> = s.scan_hash_range("R", &range).map(|(h, _, _)| *h).collect();
        let mut expected: Vec<Key160> = s
            .all_tuples("R")
            .map(|(id, _)| id.hash_key())
            .filter(|h| range.contains(*h))
            .collect();
        expected.sort();
        let mut sorted = scanned.clone();
        sorted.sort();
        assert_eq!(sorted, expected, "range {range}");
        if range.start < range.end || range.is_full() {
            assert_eq!(scanned, expected, "contiguous walk is hash-ordered");
        }
    }

    #[test]
    fn hash_range_scan_handles_wrapping_arcs_and_the_full_ring() {
        let mut s = NodeStore::new(NodeId(0));
        for k in 0..200 {
            let (h, id, t) = tuple(k);
            s.put_tuple("R", h, id, t);
        }
        // An arc wrapping past 2^160 - 1: the last quarter plus the first.
        let quarter = Key160::space_divided_by(4);
        let wrapping = KeyRange::new(quarter.wrapping_mul_small(3), quarter);
        let wrapped = s.scan_hash_range("R", &wrapping).count();
        assert!(wrapped > 0 && wrapped < 200, "{wrapped} of 200");
        assert_scan_matches_filter(&s, wrapping);
        // An arc ending exactly at zero wraps onto nothing.
        assert_scan_matches_filter(
            &s,
            KeyRange::new(quarter.wrapping_mul_small(3), Key160::ZERO),
        );
        // The full ring returns every version.
        assert_eq!(s.scan_hash_range("R", &KeyRange::full()).count(), 200);
        assert_scan_matches_filter(&s, KeyRange::full());
        assert_scan_matches_filter(&s, KeyRange::new(quarter, quarter));
        // A plain arc whose bounds are stored hashes: start is inclusive,
        // end exclusive.
        let mut hashes: Vec<Key160> = s.all_tuples("R").map(|(id, _)| id.hash_key()).collect();
        hashes.sort();
        let exact = KeyRange::new(hashes[10], hashes[20]);
        assert_eq!(s.scan_hash_range("R", &exact).count(), 10);
        assert_scan_matches_filter(&s, exact);
    }

    #[test]
    fn coordinator_index_and_inverse_round_trip() {
        let mut s = NodeStore::new(NodeId(1));
        let key = CoordinatorKey::new("R", Epoch(0));
        let page = IndexPage::new(PageId::new("R", Epoch(0), 0), partition_range(0, 4), vec![]);
        s.put_coordinator(RelationVersion::new(key.clone(), vec![page.descriptor()]));
        s.put_index_page(page.clone());
        s.put_inverse("R", 0, page.id.clone());
        assert!(s.coordinator(&key).is_some());
        assert!(s.coordinator(&CoordinatorKey::new("R", Epoch(1))).is_none());
        assert_eq!(s.index_page(&page.id), Some(&page));
        assert_eq!(s.inverse("R", 0), Some(&page.id));
        assert_eq!(s.inverse("R", 1), None);
        assert_eq!(s.coordinator_count(), 1);
        assert_eq!(s.index_page_count(), 1);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut s = NodeStore::new(NodeId(0));
        let (h, id, t) = tuple(1);
        s.put_tuple("R", h, id, t);
        s.put_index_page(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![],
        ));
        s.clear();
        assert_eq!(s.tuple_count(), 0);
        assert_eq!(s.index_page_count(), 0);
        assert_eq!(s.coordinator_count(), 0);
    }
}
