//! Provenance tags and execution phases.
//!
//! Section V-D: "We tag each tuple in the system with the set of nodes
//! that have processed it (or any tuple used to create it), and maintain
//! these sets of nodes as the tuples propagate their way through the
//! operator graph."  In addition, "each tuple gets tagged with a phase"
//! so the system can tell old in-flight data from a failed node apart from
//! freshly recomputed results.
//!
//! [`TaggedTuple`] is a tuple plus those two pieces of metadata; it is
//! what flows between operators and across the (simulated) wire when
//! recovery support is enabled.

use orchestra_common::{NodeId, NodeSet, Tuple};

/// An execution phase: 0 for the initial run, incremented by each
/// recovery invocation.
pub type Phase = u32;

/// Number of wire bytes used by a provenance tag (a 256-bit node set plus
/// a 4-byte phase).  This is the per-tuple overhead the paper measures at
/// "at most 2%" extra network traffic.
pub const TAG_WIRE_BYTES: usize = 32 + 4;

/// A tuple annotated with its provenance and phase, plus the *sign* that
/// makes it a delta: `+1` for an assertion (the only sign ordinary
/// queries ever produce) and `-1` for a retraction flowing through a
/// maintenance pipeline (`exec::ivm`).  Signs multiply through joins and
/// are folded by aggregates, so a retracted base tuple cancels exactly
/// the derived state its original insertion created.  The sign rides
/// inside the per-tuple framing the batch encoding already charges for,
/// so it adds no wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedTuple {
    /// The data tuple.
    pub tuple: Tuple,
    /// The set of nodes that processed this tuple or any tuple used to
    /// derive it.
    pub provenance: NodeSet,
    /// The phase in which this tuple was (re)produced.
    pub phase: Phase,
    /// `+1` for an assertion, `-1` for a retraction.
    pub sign: i8,
}

impl TaggedTuple {
    /// Tag a freshly scanned tuple: it has been processed only by the
    /// scanning node.
    pub fn scanned(tuple: Tuple, node: NodeId, phase: Phase) -> TaggedTuple {
        TaggedTuple {
            tuple,
            provenance: NodeSet::singleton(node),
            phase,
            sign: 1,
        }
    }

    /// Flip or set the sign (delta scans tag removed versions `-1`).
    pub fn with_sign(mut self, sign: i8) -> TaggedTuple {
        self.sign = sign;
        self
    }

    /// Record that `node` has now processed this tuple.
    pub fn processed_by(mut self, node: NodeId) -> TaggedTuple {
        self.provenance.insert(node);
        self
    }

    /// Combine two tuples into a derived tuple (e.g. a join result): the
    /// data is `tuple`, the provenance the union of the parents' plus the
    /// deriving node, the phase the maximum of the parents', the sign
    /// the product (a retraction joined with an assertion retracts the
    /// derived row).
    pub fn derived(
        tuple: Tuple,
        left: &TaggedTuple,
        right: &TaggedTuple,
        node: NodeId,
    ) -> TaggedTuple {
        let mut provenance = left.provenance.union(&right.provenance);
        provenance.insert(node);
        TaggedTuple {
            tuple,
            provenance,
            phase: left.phase.max(right.phase),
            sign: left.sign * right.sign,
        }
    }

    /// Is this tuple tainted with respect to a set of failed nodes?
    pub fn is_tainted(&self, failed: &NodeSet) -> bool {
        self.provenance.intersects(failed)
    }

    /// Wire size of the tuple including (if `with_tags`) its provenance
    /// tag.
    pub fn wire_size(&self, with_tags: bool) -> usize {
        self.tuple.serialized_size() + if with_tags { TAG_WIRE_BYTES } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn scan_and_processing_build_provenance() {
        let a = TaggedTuple::scanned(t(1), NodeId(3), 0).processed_by(NodeId(5));
        assert!(a.provenance.contains(NodeId(3)));
        assert!(a.provenance.contains(NodeId(5)));
        assert_eq!(a.provenance.len(), 2);
        assert_eq!(a.phase, 0);
    }

    #[test]
    fn derived_tuples_union_provenance_and_max_phase() {
        let l = TaggedTuple::scanned(t(1), NodeId(0), 0);
        let r = TaggedTuple::scanned(t(2), NodeId(1), 1);
        let j = TaggedTuple::derived(t(3), &l, &r, NodeId(2));
        assert_eq!(j.provenance.len(), 3);
        assert_eq!(j.phase, 1);
        assert_eq!(j.tuple, t(3));
    }

    #[test]
    fn taint_detection() {
        let x = TaggedTuple::scanned(t(1), NodeId(4), 0).processed_by(NodeId(7));
        let failed = NodeSet::singleton(NodeId(7));
        let other = NodeSet::singleton(NodeId(9));
        assert!(x.is_tainted(&failed));
        assert!(!x.is_tainted(&other));
    }

    #[test]
    fn wire_size_includes_tag_only_when_asked() {
        let x = TaggedTuple::scanned(t(1), NodeId(0), 0);
        assert_eq!(x.wire_size(false) + TAG_WIRE_BYTES, x.wire_size(true));
    }

    #[test]
    fn signs_default_positive_and_multiply_through_derivation() {
        let assertion = TaggedTuple::scanned(t(1), NodeId(0), 0);
        assert_eq!(assertion.sign, 1);
        let retraction = TaggedTuple::scanned(t(2), NodeId(1), 0).with_sign(-1);
        assert_eq!(retraction.sign, -1);
        let j = TaggedTuple::derived(t(3), &assertion, &retraction, NodeId(2));
        assert_eq!(j.sign, -1, "assertion × retraction retracts");
        let jj = TaggedTuple::derived(t(4), &retraction, &retraction, NodeId(2));
        assert_eq!(jj.sign, 1, "two retractions assert");
    }
}
