//! Shared-clock multiplexing: one simulated network, many queries.
//!
//! [`SessionSim`] is the per-query face of a [`Simulator`] that may be
//! shared by several concurrently executing queries.  Each `Runtime`
//! owns one handle; every message it sends is wrapped in a
//! [`Wire`] envelope carrying the runtime's [`SessionId`], and the
//! handle keeps the session's own [`TrafficStats`] and dropped-message
//! count so a [`super::QueryReport`] stays per-query exact even when the
//! underlying links, CPUs and clock are contended by other sessions.
//!
//! The scheduler (`scheduler`) owns the pop loop — for a stand-alone
//! [`super::QueryExecutor`] query as much as for a serving workload — and
//! attaches one handle per admitted session, dispatching each delivery
//! by its envelope tag.

use super::exchange::{Payload, SessionId, Wire};
use orchestra_common::{NodeId, NodeSet};
use orchestra_simnet::{ClusterProfile, SimTime, Simulator, TrafficStats};
use orchestra_substrate::RoutingTable;
use std::cell::RefCell;
use std::rc::Rc;

/// A simulator shared by every session of one scheduler run.  Single-threaded by construction, hence
/// `Rc<RefCell<..>>` rather than locks.
pub(super) type SharedSim = Rc<RefCell<Simulator<Wire>>>;

/// Node slots a simulator over `table`'s members needs (node ids index
/// arrays directly, so the highest index bounds the allocation).
pub(super) fn node_slots(table: &RoutingTable) -> usize {
    table
        .nodes()
        .iter()
        .map(|n| n.index())
        .max()
        .expect("routing table has nodes")
        + 1
}

/// Build the shared simulator every session of one run attaches to.
pub(super) fn shared_sim(table: &RoutingTable, profile: ClusterProfile) -> SharedSim {
    Rc::new(RefCell::new(Simulator::new(node_slots(table), profile)))
}

/// One query session's handle onto a (possibly shared) simulator.
pub(super) struct SessionSim {
    shared: SharedSim,
    session: SessionId,
    /// Traffic attributable to this session alone.
    stats: TrafficStats,
    /// Messages of this session dropped because a party had failed.
    dropped: u64,
}

impl SessionSim {
    /// Attach a session handle to `shared`.
    pub(super) fn attach(shared: SharedSim, session: SessionId) -> SessionSim {
        SessionSim {
            shared,
            session,
            stats: TrafficStats::new(),
            dropped: 0,
        }
    }

    /// Current virtual time of the shared clock.
    pub(super) fn now(&self) -> SimTime {
        self.shared.borrow().now()
    }

    /// The set of nodes failed as of `at`.
    pub(super) fn failed_nodes_at(&self, at: SimTime) -> NodeSet {
        self.shared.borrow().failed_nodes_at(at)
    }

    /// Reserve CPU on `node` (shared across sessions — concurrent
    /// queries contend for the same cores).
    pub(super) fn charge_cpu(
        &mut self,
        node: NodeId,
        ready: SimTime,
        duration: SimTime,
    ) -> SimTime {
        self.shared.borrow_mut().charge_cpu(node, ready, duration)
    }

    /// The time `node`'s CPU becomes free.
    pub(super) fn cpu_free_at(&self, node: NodeId) -> SimTime {
        self.shared.borrow().cpu_free_at(node)
    }

    /// Enqueue a purely local event for this session.
    pub(super) fn schedule(&mut self, node: NodeId, at: SimTime, payload: Payload) {
        self.shared.borrow_mut().schedule(
            node,
            at,
            Wire {
                session: self.session,
                payload,
            },
        );
    }

    /// Send `bytes` from `src` to `dst` on behalf of this session,
    /// contending for the shared links.  Per-session traffic is recorded
    /// here; the shared simulator keeps the aggregate.
    pub(super) fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: SimTime,
        payload: Payload,
    ) -> Option<SimTime> {
        let sent = self.shared.borrow_mut().send(
            src,
            dst,
            bytes,
            ready,
            Wire {
                session: self.session,
                payload,
            },
        );
        match sent {
            Some(arrival) => {
                if src != dst {
                    self.stats.record(src, dst, bytes);
                }
                Some(arrival)
            }
            None => {
                self.dropped += 1;
                None
            }
        }
    }

    /// A delivery addressed to this session was discarded because the
    /// receiver had failed (attributed by the scheduler's pop loop).
    pub(super) fn note_receiver_drop(&mut self) {
        self.dropped += 1;
    }

    /// This session's traffic counters.
    pub(super) fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// This session's dropped-message count.
    pub(super) fn dropped_messages(&self) -> u64 {
        self.dropped
    }
}
