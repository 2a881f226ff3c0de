//! The three closed-loop workloads, one client each, over one catalogue
//! deployment: five queries (STBenchmark `Copy`/`Concatenate`, TPC-H
//! Q1/Q3/Q6) at about [`ROWS`] rows on [`NODES`] simulated nodes, balanced
//! allocation, replication 3, `EngineConfig::default()`.
//!
//! Every op's answer is checked outside the op's timed span; a wrong
//! answer ends the run with an error, while an op that returns an error
//! is counted as failed.

use crate::clock::{kernel, CpuInstant};
use crate::gen::{
    catalogue, failure_ops, failure_round, publish_stream, read_round, rows, FailureOp, EPOCHS,
    INITIATOR, NODES, POSITIONS, QUERIES,
};
use crate::trace::Tracer;
use orchestra_core::common::{OrchestraError, Result as CoreResult};
use orchestra_core::optimizer::AdaptiveStats;
use orchestra_core::{
    compile, compile_delta_legs, deploy_all, DistributedStorage, EngineConfig, Epoch, FailureSpec,
    LogicalQuery, MaterializedView, QueryExecutor, QueryReport, SimTime, Statistics, Tuple,
    UpdateBatch, ViewRegistry, Workload,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;

/// Standing views registered per query shape in `publish_maintain`.
const SUBSCRIBERS_PER_SHAPE: usize = 4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    AdhocRead,
    PublishMaintain,
    MidqueryFailure,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::AdhocRead,
        Kind::PublishMaintain,
        Kind::MidqueryFailure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AdhocRead => "adhoc_read",
            Kind::PublishMaintain => "publish_maintain",
            Kind::MidqueryFailure => "midquery_failure",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The deterministic figures of one op: simulated time and counts.
/// Every repeat of a distinct op must reproduce them exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimFigures {
    /// Simulated microseconds of the op.
    pub sim_us: u64,
    /// Simulated microseconds a failure run took beyond its query's
    /// failure-free time.
    pub recovery_overhead_us: Option<u64>,
    /// Bytes and counts, keyed by name.
    pub counts: BTreeMap<&'static str, u64>,
}

/// One successful op.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Host (thread CPU) nanoseconds of the op, answer check excluded.
    pub op_ns: u64,
    /// Host (thread CPU) nanoseconds of its `publish` call (0 when it publishes nothing).
    pub publish_ns: u64,
    /// CPU nanoseconds of the calibration kernel, run right after the op
    /// and its answer check (see [`crate::clock`]).
    pub kernel_ns: u64,
    pub sim: SimFigures,
}

impl Sample {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.sim.counts.entry(name).or_insert(0) += n;
    }
}

/// What one round measured: per op position, the distinct op it ran and
/// its sample (`None` when the op returned an error).
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub samples: Vec<(usize, Option<Sample>)>,
    /// Host nanoseconds of operator compute per `WallClock` class.
    pub operator_ns: [u64; 8],
    /// Stored tuple versions per live row replica at the round's end.
    pub versions_per_live_row: f64,
}

/// A set-up workload: runs one round of ops per call.
pub trait Bench {
    /// Run one round; op ids continue from `first_op`.  Errors only on a
    /// wrong answer.
    fn round(&mut self, t: &mut Tracer, first_op: u64) -> Result<Round, String>;
}

/// Set up `kind` from `seed`: deploy, reference answers, and whatever
/// the workload prepares before its timed loop.
pub fn setup(kind: Kind, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match kind {
        Kind::AdhocRead => Box::new(Reads::setup(seed, false).map_err(|e| e.to_string())?),
        Kind::MidqueryFailure => Box::new(Reads::setup(seed, true).map_err(|e| e.to_string())?),
        Kind::PublishMaintain => Box::new(Publish::setup(seed).map_err(|e| e.to_string())?),
    })
}

/// Stored tuple versions (all replicas) per live row replica at `epoch`:
/// 1.0 right after deployment, growing as publications retain versions.
fn versions_per_live_row(storage: &DistributedStorage, epoch: Epoch) -> f64 {
    let stored: usize = storage
        .routing()
        .nodes()
        .into_iter()
        .map(|n| storage.store(n).tuple_count())
        .sum();
    let live: usize = storage
        .relations()
        .map(|r| storage.relation_cardinality(r.name(), epoch))
        .sum();
    stored as f64 / (live * storage.routing().replication_factor()) as f64
}

/// The five catalogue workloads, in query-kind order.
type Catalogue = Vec<Box<dyn Workload>>;

/// Deploy the catalogue `seed` generates with `deploy_all`.
fn deploy_catalogue(seed: u64) -> CoreResult<(Catalogue, DistributedStorage, Epoch)> {
    let workloads = catalogue(seed, rows(seed));
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let (storage, epoch) = deploy_all(&refs, NODES)?;
    Ok((workloads, storage, epoch))
}

/// Compare the answer `got` produces with `want`, inside a check span.
fn check(
    t: &mut Tracer,
    op: u64,
    got: impl FnOnce() -> Vec<Tuple>,
    want: &[Tuple],
) -> Result<(), String> {
    t.timed("harness.check", op, || {
        let got = got();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "wrong answer: {} rows where the reference has {}",
                got.len(),
                want.len()
            ))
        }
    })
}

/// `adhoc_read` (no failures) and `midquery_failure`.
struct Reads {
    storage: DistributedStorage,
    epoch: Epoch,
    names: Vec<String>,
    logical: Vec<LogicalQuery>,
    references: Vec<Vec<Tuple>>,
    config: EngineConfig,
    /// The distinct ops: query kind and, for the failure workload, the
    /// failure to inject.
    ops: Vec<(usize, Option<FailureSpec>)>,
    /// The round, as indices into `ops`.
    order: Vec<usize>,
    /// Failure-free simulated time per query kind.
    free: Vec<SimTime>,
    versions: f64,
}

impl Reads {
    fn setup(seed: u64, failures: bool) -> CoreResult<Reads> {
        let (workloads, storage, epoch) = deploy_catalogue(seed)?;
        let config = EngineConfig::default();
        let names: Vec<String> = workloads.iter().map(|w| w.name()).collect();
        let logical: Vec<LogicalQuery> = workloads.iter().map(|w| w.logical()).collect();
        let references: Vec<Vec<Tuple>> = workloads.iter().map(|w| w.reference()).collect();
        let mut free = Vec::new();
        let (ops, order) = if failures {
            // Calibrate: each query's failure-free simulated time bounds
            // its failure instants.
            let stats = Statistics::collect(&storage, epoch);
            for (q, query) in logical.iter().enumerate() {
                let plan = compile(query, &stats)?;
                let report = QueryExecutor::new(&storage, config.clone())
                    .execute(&plan, epoch, INITIATOR)?;
                if report.rows != references[q] {
                    return Err(OrchestraError::Execution(format!(
                        "calibration run of {} disagrees with its reference",
                        names[q]
                    )));
                }
                free.push(report.running_time);
            }
            let ops = failure_ops(seed, &free)
                .into_iter()
                .map(|FailureOp { query, victim, at }| {
                    (query, Some(FailureSpec::at_time(victim, at)))
                })
                .collect();
            (ops, failure_round(seed))
        } else {
            ((0..QUERIES).map(|q| (q, None)).collect(), read_round(seed))
        };
        let versions = versions_per_live_row(&storage, epoch);
        Ok(Reads {
            storage,
            epoch,
            names,
            logical,
            references,
            config,
            ops,
            order,
            free,
            versions,
        })
    }

    fn run_op(
        &self,
        t: &mut Tracer,
        op: u64,
        query: usize,
        failure: Option<FailureSpec>,
    ) -> CoreResult<QueryReport> {
        let stats = t.timed("optimizer.stats_collect", op, || {
            Statistics::collect(&self.storage, self.epoch)
        });
        let plan = t.timed("optimizer.compile", op, || {
            compile(&self.logical[query], &stats)
        })?;
        let exec = QueryExecutor::new(&self.storage, self.config.clone());
        t.timed("engine.execute", op, || match failure {
            None => exec.execute(&plan, self.epoch, INITIATOR),
            Some(f) => exec.execute_with_failure(&plan, self.epoch, INITIATOR, f),
        })
    }
}

impl Bench for Reads {
    fn round(&mut self, t: &mut Tracer, first_op: u64) -> Result<Round, String> {
        let mut out = Round {
            versions_per_live_row: self.versions,
            ..Round::default()
        };
        for (op, &key) in (first_op..).zip(&self.order) {
            let (query, failure) = self.ops[key];
            let start = CpuInstant::now();
            let span = t.enter("harness.op", op);
            let result = self.run_op(t, op, query, failure);
            t.exit(span);
            let mut sample = Sample {
                op_ns: start.elapsed().as_nanos() as u64,
                ..Sample::default()
            };
            let Ok(mut report) = result else {
                out.samples.push((key, None));
                continue;
            };
            let rows = std::mem::take(&mut report.rows);
            check(t, op, || rows, &self.references[query])
                .map_err(|e| format!("{}: {e}", self.names[query]))?;
            sample.sim.sim_us = report.running_time.as_micros();
            sample.add("shipped_bytes", report.total_bytes);
            sample.add("pages_read", report.pages_read as u64);
            sample.add("tuples_scanned", report.tuples_scanned as u64);
            sample.add("remote_lookups", report.remote_lookups as u64);
            sample.add("messages", report.total_messages);
            sample.add("dropped_messages", report.dropped_messages);
            if failure.is_some() {
                sample.add("recovered", report.recovered as u64);
                sample.add("phases", report.phases as u64);
                sample.add("purged", report.purged as u64);
                sample.add("retransmitted", report.retransmitted as u64);
                let overhead = report.running_time.saturating_sub(self.free[query]);
                sample.sim.recovery_overhead_us = Some(overhead.as_micros());
            }
            for (sum, ns) in out.operator_ns.iter_mut().zip(report.wall_clock.op_nanos) {
                *sum += ns;
            }
            sample.kernel_ns = kernel();
            out.samples.push((key, Some(sample)));
        }
        Ok(out)
    }
}

/// `publish_maintain`: a round replays the stream `POSITIONS / EPOCHS`
/// times, each replay from the primed deployment.
struct Publish {
    primed: DistributedStorage,
    base: Epoch,
    registry: ViewRegistry,
    batches: Vec<UpdateBatch>,
    /// Expected answer per epoch and query shape.
    expected: Vec<Vec<Rc<[Tuple]>>>,
    names: Vec<String>,
    config: EngineConfig,
}

impl Publish {
    fn setup(seed: u64) -> CoreResult<Publish> {
        let (workloads, storage, base) = deploy_catalogue(seed)?;
        let config = EngineConfig::default();
        let names: Vec<String> = workloads.iter().map(|w| w.name()).collect();

        // A shape whose relations the stream leaves alone keeps its base
        // answer at every epoch.
        let base_answers: Vec<Rc<[Tuple]>> =
            workloads.iter().map(|w| w.reference().into()).collect();
        let stream = publish_stream(seed, rows(seed))?;
        let expected = (0..stream.len())
            .map(|i| {
                let tables = stream.tables(i);
                workloads
                    .iter()
                    .zip(&base_answers)
                    .map(|(w, base_answer)| {
                        if w.relations().iter().all(|r| tables.contains_key(r.name())) {
                            w.reference_for(tables).into()
                        } else {
                            Rc::clone(base_answer)
                        }
                    })
                    .collect()
            })
            .collect();
        let batches = (0..stream.len()).map(|i| stream.batch(i).clone()).collect();

        let stats = Statistics::collect(&storage, base);
        let mut shapes = Vec::with_capacity(QUERIES);
        for w in &workloads {
            let plan = compile(&w.logical(), &stats)?;
            let probe = MaterializedView::new(w.name(), &plan)?;
            let legs = if probe.supports_incremental() {
                Some(compile_delta_legs(&w.logical(), &stats)?)
            } else {
                None
            };
            shapes.push((plan, legs));
        }
        let mut registry = ViewRegistry::new(INITIATOR);
        for i in 0..QUERIES * SUBSCRIBERS_PER_SHAPE {
            let (plan, legs) = &shapes[i % QUERIES];
            let mut view = MaterializedView::new(format!("{}#{i:02}", names[i % QUERIES]), plan)?;
            if let Some(legs) = legs {
                view.install_leg_plans(legs)?;
            }
            registry.register(view);
        }
        registry.refresh(&storage, &config, base, None)?;
        for id in 0..registry.len() {
            if *registry.view(id).answer() != *base_answers[id % QUERIES] {
                return Err(OrchestraError::Execution(format!(
                    "priming left view {} off its reference",
                    registry.view(id).name()
                )));
            }
        }
        Ok(Publish {
            primed: storage,
            base,
            registry,
            batches,
            expected,
            names,
            config,
        })
    }

    /// Replay the stream from the primed deployment into `out`; op ids
    /// continue from `first_op`.
    fn replay(&self, t: &mut Tracer, first_op: u64, out: &mut Round) -> Result<(), String> {
        let mut storage = self.primed.clone();
        let mut registry = self.registry.clone();
        let mut adaptive = AdaptiveStats::new();
        let mut prev = self.base;
        for (op, (i, batch)) in (first_op..).zip(self.batches.iter().enumerate()) {
            let derivations = storage.delta_derivations();
            let start = CpuInstant::now();
            let span = t.enter("harness.op", op);
            let mut publish_ns = 0;
            let result = (|| {
                let publish_start = CpuInstant::now();
                let epoch = t.timed("storage.publish", op, || storage.publish(batch))?;
                publish_ns = publish_start.elapsed().as_nanos() as u64;
                t.timed("storage.delta", op, || {
                    for relation in storage.changed_relations(prev, epoch) {
                        black_box(storage.delta(&relation, prev, epoch)?);
                    }
                    Ok::<(), OrchestraError>(())
                })?;
                let refresh = t.timed("registry.refresh", op, || {
                    registry.refresh(&storage, &self.config, epoch, None)
                })?;
                t.timed("optimizer.absorb", op, || {
                    adaptive.absorb(&storage, prev, epoch)
                })?;
                let base = t.timed("optimizer.stats_collect", op, || {
                    Statistics::collect(&storage, epoch)
                });
                black_box(t.timed("optimizer.overlay", op, || adaptive.overlay(&base)));
                Ok::<_, OrchestraError>((epoch, refresh))
            })();
            t.exit(span);
            let mut sample = Sample {
                op_ns: start.elapsed().as_nanos() as u64,
                publish_ns,
                ..Sample::default()
            };
            let Ok((epoch, refresh)) = result else {
                // The replay's remaining epochs build on this one.
                out.samples
                    .extend((i..self.batches.len()).map(|key| (key, None)));
                return Ok(());
            };
            for id in 0..registry.len() {
                let shape = id % QUERIES;
                check(
                    t,
                    op,
                    || registry.view(id).answer(),
                    &self.expected[i][shape],
                )
                .map_err(|e| format!("view of {} at stream epoch {i}: {e}", self.names[shape]))?;
            }
            sample.sim.sim_us = refresh.makespan.as_micros();
            sample.add("shipped_bytes", refresh.shipped_bytes + refresh.diff_bytes);
            sample.add("messages", refresh.shipped_messages);
            sample.add(
                "delta_derivations",
                storage.delta_derivations() - derivations,
            );
            sample.add("leg_instances", refresh.leg_instances as u64);
            sample.add("sessions_run", refresh.sessions_run as u64);
            sample.add("diff_bytes", refresh.diff_bytes);
            sample.kernel_ns = kernel();
            out.samples.push((i, Some(sample)));
            prev = epoch;
        }
        out.versions_per_live_row = versions_per_live_row(&storage, prev);
        Ok(())
    }
}

impl Bench for Publish {
    fn round(&mut self, t: &mut Tracer, first_op: u64) -> Result<Round, String> {
        let mut out = Round::default();
        for _ in 0..POSITIONS / EPOCHS {
            let first = first_op + out.samples.len() as u64;
            self.replay(t, first, &mut out)?;
        }
        Ok(out)
    }
}
