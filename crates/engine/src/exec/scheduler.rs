//! The session scheduler: the one event loop every query runs on.
//!
//! The layers below this one hold the state of a single query.
//! [`SessionScheduler::run`] drives N query runtimes interleaved over
//! **one** shared simulator, so batches from different queries contend
//! for the same uplinks, downlinks and CPUs, and the clock advances
//! globally rather than per query.  A stand-alone
//! [`super::QueryExecutor`] query is the one-session case of the same
//! loop, and view maintenance submits its sessions here too.
//!
//! ## Arrivals
//!
//! Each [`QuerySession`] carries an *arrival instant*.  A batch workload
//! submits everything at time zero (the closed-loop shape the throughput
//! experiments sweep); an open-loop workload staggers arrivals — e.g.
//! Poisson arrivals drawn with `SeededRng::sample_exp` — and the
//! scheduler advances the shared clock to each arrival when the network
//! is otherwise idle, so sessions enter the system at their own instants
//! rather than when capacity happens to free up.
//!
//! ## Admission control and load shedding
//!
//! An arriving session enters a bounded run queue (capacity
//! [`SchedulerConfig::queue_capacity`]).  If the queue is full at its
//! arrival instant the session is **shed**: recorded as a [`ShedEvent`]
//! in the workload report, never executed — an overloaded server drops
//! work instead of crashing.  At most
//! [`SchedulerConfig::max_concurrent`] sessions execute at once; a slot
//! frees when a session's `Output` segment closes.  The admission order
//! is governed by [`AdmissionPolicy`]:
//!
//! * [`AdmissionPolicy::Fifo`] — strictly by arrival order;
//! * [`AdmissionPolicy::ShortestCostFirst`] — by the optimizer's
//!   estimated plan cost ([`QuerySession::estimated_cost`], network
//!   bytes from `orchestra_optimizer::estimate_plan_cost`), arrival
//!   order breaking ties — the classic shortest-job-first heuristic that
//!   trades worst-case latency for mean latency.
//!
//! ## Result cache
//!
//! Given a [`ResultCache`], [`SessionScheduler::run`] consults it at each
//! session's arrival instant: if the session's
//! [`fingerprint`](QuerySession::fingerprint) has a cached answer *for
//! the session's epoch*, the answer is served immediately — zero
//! latency, zero traffic, no queue slot consumed — and the report is
//! marked [`served_from_cache`](SessionReport::served_from_cache).
//! Completed executions fill the cache; a session interrupted by a
//! failure contributes nothing until its recovery completes, so a
//! mid-query failure can never leave a partial fill behind.  Epochs are
//! immutable once published, so there is no invalidation: a publication
//! bumps the epoch new queries run at, and the old entries age out under
//! capacity pressure.
//!
//! ## Failures
//!
//! Each [`super::FailureSpec`] of a run's failure list kills a node *of
//! the shared network*: every in-flight session loses its deliveries to
//! and from the victim at once.  When the event queue quiesces with
//! sessions incomplete, the scheduler runs each stalled session's own
//! recovery (Restart or Incremental, per the engine config) — the
//! per-session wire tags ([`SessionId`]) are what keep one query's
//! purge/retransmission from touching another's state.  Sessions
//! admitted after the failure execute on the survivors from the start
//! via the same recovery path.
//!
//! ## Reports
//!
//! Each finished session yields a [`SessionReport`] — arrival, queue
//! wait, latency and the full per-query [`QueryReport`] with
//! session-exact traffic.  The run as a whole yields a
//! [`WorkloadReport`]: makespan, aggregate traffic, peak concurrency,
//! link utilization, tail latencies (p50/p99/p999), SLO misses against
//! [`SchedulerConfig::slo`], shed events, and the run's result-cache
//! counters — the quantities a serving experiment sweeps.

use super::cache::ResultCache;
use super::exchange::{SessionId, Wire};
use super::pipeline::Runtime;
use super::session::{shared_sim, SessionSim, SharedSim};
use super::{CacheStats, EngineConfig, FailureSpec, QueryReport, StorageHandle, WallClock};
use crate::plan::PhysicalPlan;
use orchestra_common::{Epoch, NodeId, OrchestraError, QueryFingerprint, Result};
use orchestra_simnet::{Delivery, SimTime};
use orchestra_storage::DistributedStorage;

/// How the scheduler picks the next session to admit from the run queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdmissionPolicy {
    /// Strictly by arrival order.
    Fifo,
    /// Cheapest estimated plan first ([`QuerySession::estimated_cost`]),
    /// arrival order breaking ties.
    ShortestCostFirst,
}

/// Configuration of the multi-query scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Sessions executing concurrently at most.
    pub max_concurrent: usize,
    /// Bound of the run queue: a session arriving while this many are
    /// already waiting is shed ([`ShedEvent`]), not executed.
    pub queue_capacity: usize,
    /// Admission order of queued sessions.
    pub policy: AdmissionPolicy,
    /// Latency objective: a completed session whose arrival-to-answer
    /// latency exceeds this counts as an SLO miss in the report.  `None`
    /// disables the accounting.
    pub slo: Option<SimTime>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_concurrent: 4,
            queue_capacity: 64,
            policy: AdmissionPolicy::Fifo,
            slo: None,
        }
    }
}

/// One query submitted to the scheduler.
#[derive(Clone, Debug)]
pub struct QuerySession {
    /// Label carried through to the session's report.
    pub name: String,
    /// The physical plan to execute.
    pub plan: PhysicalPlan,
    /// The data version the query reads.
    pub epoch: Epoch,
    /// The node the query is initiated from (receives the answer).
    pub initiator: NodeId,
    /// The virtual instant the session arrives at the system.  Batch
    /// workloads submit everything at [`SimTime::ZERO`]; open-loop
    /// workloads stagger arrivals (Poisson or trace-driven).
    pub arrival: SimTime,
    /// The canonical identity of the session's logical query
    /// (`orchestra_optimizer::fingerprint`), pairing with
    /// [`QuerySession::epoch`] as the result-cache key.  `None` opts the
    /// session out of caching (view-maintenance legs, ad-hoc plans with
    /// no logical form).
    pub fingerprint: Option<QueryFingerprint>,
    /// The optimizer's estimated plan cost in network bytes
    /// (`orchestra_optimizer::estimate_plan_cost(..).total()`), consulted
    /// by [`AdmissionPolicy::ShortestCostFirst`].
    pub estimated_cost: f64,
    /// Per-scan epoch pins and delta-scan instructions.  Empty for
    /// ordinary queries; view-maintenance sessions (`super::ivm`) use
    /// this to pivot individual scans onto other epochs or onto signed
    /// epoch-interval deltas.
    pub overrides: super::ivm::ScanOverrides,
    /// The participants already hold this plan: dissemination ships only
    /// the routing snapshot and the per-scan parameters, not the plan
    /// itself.  Ad-hoc queries leave this `false`; view maintenance
    /// installs its dataflows once at materialization and streams epoch
    /// parameters through them on every later refresh.
    pub plan_resident: bool,
}

/// One session's outcome within a scheduled workload.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The session's id (its submission index).
    pub session: SessionId,
    /// The submitted [`QuerySession::name`].
    pub name: String,
    /// The instant the session arrived at the system.
    pub arrival: SimTime,
    /// The instant the session was admitted to execution (equal to
    /// [`arrival`](SessionReport::arrival) for a cache hit).
    pub admitted_at: SimTime,
    /// Time spent waiting in the run queue: `admitted_at - arrival`.
    pub queue_wait: SimTime,
    /// Virtual instant the session's answer was complete.
    pub finished_at: SimTime,
    /// Arrival-to-answer time: `finished_at - arrival`.  This is what
    /// the client observes, and what the tail percentiles and SLO-miss
    /// accounting are computed over.
    pub latency: SimTime,
    /// Was the answer served from the result cache (zero execution, zero
    /// traffic)?
    pub served_from_cache: bool,
    /// The session's full per-query report (rows, session-exact traffic,
    /// recovery counters).  Synthesized (empty traffic) for cache hits.
    pub report: QueryReport,
}

/// A session dropped at arrival because the run queue was full.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShedEvent {
    /// The shed session's id (its submission index).
    pub session: SessionId,
    /// The submitted [`QuerySession::name`].
    pub name: String,
    /// The arrival instant at which the session was shed.
    pub at: SimTime,
}

/// The outcome of one scheduled workload: every completed session's
/// report plus the shared network's aggregate measurements.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Completion instant of the last session.
    pub makespan: SimTime,
    /// Bytes shipped between distinct nodes, all sessions combined.
    pub total_bytes: u64,
    /// Inter-node messages, all sessions combined.
    pub total_messages: u64,
    /// Aggregate link utilization over `[0, makespan]`: transfer time
    /// summed over every uplink and downlink, divided by the window's
    /// total link capacity.
    pub link_utilization: f64,
    /// Most sessions ever executing at once (never exceeds
    /// [`SchedulerConfig::max_concurrent`]).
    pub peak_concurrency: usize,
    /// Session ids in the order they were admitted (cache hits never
    /// occupy a slot and do not appear).
    pub admission_order: Vec<SessionId>,
    /// Median arrival-to-answer latency over completed sessions.
    pub latency_p50: SimTime,
    /// 99th-percentile latency (nearest-rank) over completed sessions.
    pub latency_p99: SimTime,
    /// 99.9th-percentile latency (nearest-rank) over completed sessions.
    pub latency_p999: SimTime,
    /// Completed sessions whose latency exceeded
    /// [`SchedulerConfig::slo`] (0 when no SLO is configured).
    pub slo_misses: usize,
    /// Sessions shed at arrival because the run queue was full, in
    /// arrival order.
    pub shed: Vec<ShedEvent>,
    /// Result-cache counters accumulated by *this run* (zeroed when no
    /// cache was attached).
    pub cache: CacheStats,
    /// Per-session reports of completed sessions, in submission order.
    /// Shed sessions are absent (see [`WorkloadReport::shed`]).
    pub sessions: Vec<SessionReport>,
}

/// Nearest-rank percentile of an ascending latency list.
fn percentile(sorted: &[SimTime], q: f64) -> SimTime {
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Drives N query runtimes interleaved over one shared simulator.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionScheduler {
    config: SchedulerConfig,
}

impl SessionScheduler {
    /// A scheduler with `config`.
    pub fn new(config: SchedulerConfig) -> SessionScheduler {
        SessionScheduler { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Run `sessions` to completion over `storage` — the one event loop
    /// every query runs on, stand-alone or scheduled.
    ///
    /// Each entry of `failures` kills its node at its instant on the
    /// shared network, hitting every in-flight session at once (an empty
    /// slice runs failure-free).  Each session recovers under
    /// `engine.strategy` against its own scratch copy of the storage.
    ///
    /// With a `cache`, it is consulted at every arrival and filled by
    /// every completion — the serving configuration.  The cache outlives
    /// the run (pass it again after a publication: the bumped epoch misses
    /// naturally), and only *completed* (post-recovery) answers fill it.
    pub fn run(
        &self,
        storage: &DistributedStorage,
        engine: &EngineConfig,
        sessions: &[QuerySession],
        failures: &[FailureSpec],
        mut cache: Option<&mut ResultCache>,
    ) -> Result<WorkloadReport> {
        if sessions.is_empty() {
            return Err(OrchestraError::Execution(
                "the scheduler needs at least one session".into(),
            ));
        }
        if self.config.max_concurrent == 0 {
            return Err(OrchestraError::Execution(
                "max_concurrent must be at least 1".into(),
            ));
        }
        let table = storage.routing();
        for s in sessions {
            if !table.contains_node(s.initiator) {
                return Err(OrchestraError::Execution(format!(
                    "initiator {} of session \"{}\" is not a member of the routing table",
                    s.initiator, s.name
                )));
            }
        }
        let shared: SharedSim = shared_sim(table, engine.profile);
        for f in failures {
            if !table.contains_node(f.node) {
                return Err(OrchestraError::Execution(format!(
                    "failure target {} is not a member of the routing table",
                    f.node
                )));
            }
            shared.borrow_mut().fail_node(f.node, f.at);
        }

        // Sessions ordered by (arrival, submission index): the order they
        // enter the system.
        let mut arrival_order: Vec<usize> = (0..sessions.len()).collect();
        arrival_order.sort_by_key(|&i| (sessions[i].arrival, i));
        let mut next_arrival = 0usize;

        let mut waiting: Vec<usize> = Vec::new();
        let mut shed: Vec<ShedEvent> = Vec::new();
        let mut runtimes: Vec<Option<Runtime>> = sessions.iter().map(|_| None).collect();
        let mut finished: Vec<Option<SessionReport>> = sessions.iter().map(|_| None).collect();
        let mut admitted_at: Vec<SimTime> = vec![SimTime::ZERO; sessions.len()];
        let mut admission_order = Vec::with_capacity(sessions.len());
        let mut active = 0usize;
        let mut peak_concurrency = 0usize;
        let cache_before = cache.as_ref().map(|c| c.stats()).unwrap_or_default();

        loop {
            // Absorb every arrival due by now: serve from cache, shed if
            // the queue is full, or enqueue.  All same-instant arrivals
            // join the queue before any is admitted, so the queue bound
            // is measured against the burst, not the drained queue.
            let now = shared.borrow().now();
            while next_arrival < arrival_order.len()
                && sessions[arrival_order[next_arrival]].arrival <= now
            {
                let idx = arrival_order[next_arrival];
                next_arrival += 1;
                let session = &sessions[idx];
                if let (Some(cache), Some(fp)) = (cache.as_deref_mut(), session.fingerprint) {
                    if let Some(hit) = cache.lookup(fp, session.epoch) {
                        finished[idx] = Some(cache_hit_report(idx, session, hit));
                        continue;
                    }
                }
                if waiting.len() >= self.config.queue_capacity {
                    shed.push(ShedEvent {
                        session: SessionId(idx as u32),
                        name: session.name.clone(),
                        at: session.arrival,
                    });
                    continue;
                }
                waiting.push(idx);
            }

            // Admit while there is queued work and free capacity.
            while active < self.config.max_concurrent && !waiting.is_empty() {
                let pos = match self.config.policy {
                    AdmissionPolicy::Fifo => 0,
                    // Stable argmin: equal (or incomparable) costs keep
                    // arrival order.
                    AdmissionPolicy::ShortestCostFirst => waiting
                        .iter()
                        .enumerate()
                        .min_by(|(_, &a), (_, &b)| {
                            sessions[a]
                                .estimated_cost
                                .partial_cmp(&sessions[b].estimated_cost)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(pos, _)| pos)
                        .expect("queue is non-empty"),
                };
                let idx = waiting.remove(pos);
                let now = shared.borrow().now();
                let session = &sessions[idx];
                let sim = SessionSim::attach(shared.clone(), SessionId(idx as u32));
                // A failure run needs a per-session scratch copy so each
                // session's recovery can mark the dead node unreadable
                // without disturbing the caller (or the other sessions).
                // The copy shares the caller's data copy-on-write, so it
                // costs reference counts, not tuples.
                let handle = if !failures.is_empty() {
                    StorageHandle::Scratch(Box::new(storage.clone()))
                } else {
                    StorageHandle::Borrowed(storage)
                };
                let mut runtime = Runtime::new(
                    handle,
                    engine,
                    &session.plan,
                    session.epoch,
                    session.initiator,
                    sim,
                )?;
                runtime.overrides = session.overrides.clone();
                runtime.plan_resident = session.plan_resident;
                runtime.begin(now);
                runtimes[idx] = Some(runtime);
                admitted_at[idx] = now;
                admission_order.push(SessionId(idx as u32));
                active += 1;
                peak_concurrency = peak_concurrency.max(active);
            }

            // Interleave network events with future arrivals in time
            // order: if the next arrival precedes the next delivery (or
            // the network is idle), advance the shared clock to it.
            let next_event = shared.borrow().next_time();
            let pending_arrival = (next_arrival < arrival_order.len())
                .then(|| sessions[arrival_order[next_arrival]].arrival);
            if let Some(at) = pending_arrival {
                let arrival_is_next = match next_event {
                    // An arrival during a stall must not preempt
                    // recovery; it is absorbed on the next pass.
                    None => active == 0,
                    Some(event_at) => at <= event_at,
                };
                if arrival_is_next {
                    shared.borrow_mut().advance_to(at);
                    continue;
                }
            }

            let popped = shared.borrow_mut().next_any();
            match popped {
                Some((delivery, delivered)) => {
                    let idx = delivery.payload.session.0 as usize;
                    // Stragglers of an already finished session (e.g. a
                    // replica fetch still in flight when the answer
                    // completed) carry no work.
                    let Some(runtime) = runtimes[idx].as_mut() else {
                        continue;
                    };
                    if !delivered {
                        runtime.sim.note_receiver_drop();
                        continue;
                    }
                    let Delivery {
                        time,
                        from,
                        to,
                        payload: Wire { payload, .. },
                    } = delivery;
                    runtime.handle(Delivery {
                        time,
                        from,
                        to,
                        payload,
                    })?;
                    if runtime.done {
                        let runtime = runtimes[idx].take().expect("runtime is active");
                        let report = runtime.into_report();
                        let session = &sessions[idx];
                        // Fill the cache only on completion: a session
                        // interrupted mid-query contributes nothing until
                        // its recovery finishes, so a failure can never
                        // leave a partial answer behind.
                        if let (Some(cache), Some(fp)) = (cache.as_deref_mut(), session.fingerprint)
                        {
                            cache.insert(
                                fp,
                                session.epoch,
                                report.rows.clone(),
                                report.signed_rows.clone(),
                                report.total_bytes,
                            );
                        }
                        let arrival = session.arrival;
                        let finished_at = report.running_time;
                        finished[idx] = Some(SessionReport {
                            session: SessionId(idx as u32),
                            name: session.name.clone(),
                            arrival,
                            admitted_at: admitted_at[idx],
                            queue_wait: admitted_at[idx].saturating_sub(arrival),
                            finished_at,
                            latency: finished_at.saturating_sub(arrival),
                            served_from_cache: false,
                            report,
                        });
                        active -= 1;
                    }
                }
                None => {
                    // Quiesced: done, waiting on an arrival, or stalled.
                    if active == 0 && waiting.is_empty() {
                        if next_arrival >= arrival_order.len() {
                            break;
                        }
                        continue; // the clock jumps to the next arrival.
                    }
                    if active == 0 {
                        continue; // free capacity — admit at the top.
                    }
                    let now = shared.borrow().now();
                    let failed = shared.borrow().failed_nodes_at(now);
                    if failed.is_empty() {
                        return Err(OrchestraError::Execution(
                            "workload stalled with no failed node (engine bug)".into(),
                        ));
                    }
                    // Every still-active session stalled on the same
                    // failure; recover each one against its own state,
                    // in session order for determinism.
                    for (idx, slot) in runtimes.iter_mut().enumerate() {
                        let Some(runtime) = slot.as_mut() else {
                            continue;
                        };
                        if runtime.rounds_exhausted() {
                            return Err(OrchestraError::Execution(format!(
                                "session \"{}\" did not complete within {} recovery rounds",
                                sessions[idx].name, engine.max_recovery_rounds
                            )));
                        }
                        runtime.recover(&failed)?;
                    }
                }
            }
        }

        let sessions_out: Vec<SessionReport> = finished.into_iter().flatten().collect();
        let makespan = sessions_out
            .iter()
            .map(|s| s.finished_at)
            .fold(SimTime::ZERO, SimTime::max);
        let mut latencies: Vec<SimTime> = sessions_out.iter().map(|s| s.latency).collect();
        latencies.sort();
        let slo_misses = match self.config.slo {
            Some(slo) => latencies.iter().filter(|&&l| l > slo).count(),
            None => 0,
        };
        let cache_stats = cache
            .as_ref()
            .map(|c| c.stats().since(&cache_before))
            .unwrap_or_default();
        let sim = shared.borrow();
        Ok(WorkloadReport {
            makespan,
            total_bytes: sim.stats().total_bytes(),
            total_messages: sim.stats().total_messages(),
            link_utilization: sim.link_utilization(makespan),
            peak_concurrency,
            admission_order,
            latency_p50: percentile(&latencies, 0.50),
            latency_p99: percentile(&latencies, 0.99),
            latency_p999: percentile(&latencies, 0.999),
            slo_misses,
            shed,
            cache: cache_stats,
            sessions: sessions_out,
        })
    }
}

/// The report of a session answered from the result cache at its arrival
/// instant: zero latency, zero traffic, no execution phases.
fn cache_hit_report(
    idx: usize,
    session: &QuerySession,
    hit: super::cache::CachedAnswer,
) -> SessionReport {
    SessionReport {
        session: SessionId(idx as u32),
        name: session.name.clone(),
        arrival: session.arrival,
        admitted_at: session.arrival,
        queue_wait: SimTime::ZERO,
        finished_at: session.arrival,
        latency: SimTime::ZERO,
        served_from_cache: true,
        report: QueryReport {
            rows: hit.rows,
            signed_rows: hit.signed_rows,
            running_time: SimTime::ZERO,
            total_bytes: 0,
            total_messages: 0,
            link_traffic: Vec::new(),
            dropped_messages: 0,
            recovered: false,
            phases: 0,
            pages_read: 0,
            tuples_scanned: 0,
            remote_lookups: 0,
            purged: 0,
            retransmitted: 0,
            wall_clock: WallClock::default(),
        },
    }
}
