//! The `orchestra-bench` binary: run the experiments — scale-out,
//! recovery sweep, tagging overhead, plan quality, the publication /
//! incremental-maintenance sweep and the concurrent throughput sweep —
//! over two TPC-H queries and one STBenchmark scenario (the throughput
//! sweep mixes all five catalogue workloads), and print the results as
//! one JSON document on stdout.  All queries execute through the
//! System-R optimizer.
//!
//! ```sh
//! cargo run --release -p orchestra-bench                      # everything
//! cargo run --release -p orchestra-bench -- --experiment maintenance
//! cargo run --release -p orchestra-bench -- --check-baseline BENCH_BASELINE.json
//! ```
//!
//! `--experiment <name>` restricts the run to one experiment — the fast
//! subsets CI's smoke and determinism gates use.  An unknown name lists
//! the valid set and exits non-zero; `--list-experiments` prints the
//! valid set (one name per line) and exits zero, the machine-readable
//! form CI's loops iterate.  The pseudo-experiment `baseline` runs
//! exactly the gated set (`plan_quality` + `maintenance` + `serving` +
//! `subscriptions` + `churn` + `adaptivity`); its output is what
//! `BENCH_BASELINE.json` commits.  `--check-baseline <path>` runs that
//! set and fails (exit 1) if any figure of the gate table in
//! `baseline.rs` regressed more than 5% versus the committed baseline;
//! refresh it with
//! `cargo run --release -p orchestra-bench -- --experiment baseline > BENCH_BASELINE.json`.
//! `--heavy` adds the slow scale points (a thousands-of-sessions
//! serving run, a 256-subscriber fan-out sweep, a 1000-node
//! sustained-churn stream and a long adaptive-calibration stream) to
//! explicitly selected runs; the committed-baseline set never includes
//! them.
//!
//! Exit status is non-zero (with a message on stderr) if any experiment
//! fails — including any distributed or *maintained* answer that
//! disagrees with its workload's single-node reference.

use orchestra_bench::{
    run_adaptivity, run_churn, run_maintenance, run_plan_quality, run_recovery_sweep,
    run_scale_out, run_serving_experiment, run_subscriptions, run_tagging_overhead, run_throughput,
    AdaptivitySpec, ChurnBenchSpec, Json, MaintenanceSweepSpec, ServingSpec, SubscriptionsSpec,
};
use orchestra_common::{NodeId, Result};
use orchestra_engine::{AdmissionPolicy, EngineConfig, EvictionPolicy};
use orchestra_optimizer::DriftConfig;
use orchestra_workloads::{CopyScenario, EpochSpec, TpchQuery, TpchWorkload, Workload};

/// Cluster sizes of the scale-out experiment.
const SCALE_OUT_NODES: [u16; 3] = [4, 6, 8];
/// Cluster size of the recovery sweep and tagging-overhead runs.
const SWEEP_NODES: u16 = 6;
/// The node killed in every recovery-sweep failure run.
const SWEEP_VICTIM: NodeId = NodeId(5);
/// Failure instants per recovery sweep.
const SWEEP_POINTS: usize = 3;
/// Cluster size of the throughput sweep.
const THROUGHPUT_NODES: u16 = 8;
/// Concurrency levels of the throughput sweep.
const THROUGHPUT_LEVELS: [usize; 4] = [1, 2, 4, 8];
/// Seed of the throughput stream's data and arrival order.
const THROUGHPUT_SEED: u64 = 42;
/// Rows per workload in the throughput stream.
const THROUGHPUT_ROWS: usize = 160;
/// Copies of the five-workload mix in the stream.
const THROUGHPUT_COPIES: usize = 2;
/// Cluster size of the serving experiment.
const SERVING_NODES: u16 = 6;
/// Seed of the serving experiment's data, identities and arrivals.
const SERVING_SEED: u64 = 42;
/// Rows per workload in the serving experiment.
const SERVING_ROWS: usize = 120;
/// Requests per serving sweep point.
const SERVING_REQUESTS: usize = 40;
/// Offered-load sweep of the serving experiment: below saturation, and
/// far enough past it that the uncached control sheds arrivals.
const SERVING_LOADS: [f64; 2] = [0.35, 2.0];
/// Zipf popularity exponents of the serving experiment: one mild skew
/// and one past the ≥ 1.0 acceptance threshold.
const SERVING_SKEWS: [f64; 2] = [0.8, 1.2];
/// Result-cache capacities of the serving experiment: the cache-off
/// control, a cache smaller than the distinct-query universe (so
/// eviction churns), and one large enough to hold everything.
const SERVING_CAPACITIES: [usize; 3] = [0, 2, 6];
/// Tolerated regression fraction of the baseline gate.
const BASELINE_TOLERANCE: f64 = 0.05;
/// Seed of the maintenance experiment's epoch streams.
const MAINTENANCE_SEED: u64 = 42;
/// Rows per workload in the maintenance experiment.  Larger than the
/// other experiments' datasets so per-refresh fixed costs (snapshot +
/// epoch parameters per leg) don't drown the delta-vs-full contrast the
/// sweep measures.
const MAINTENANCE_ROWS: usize = 600;
/// Requests of the extra thousands-of-sessions serving point that
/// `--heavy` adds (the ROADMAP's serving follow-on; far too slow for
/// the default CI gates).
const SERVING_HEAVY_REQUESTS: usize = 2048;
/// Seed of the subscriptions experiment's data and churn streams.
const SUBSCRIPTIONS_SEED: u64 = 42;
/// Rows per catalogue workload in the subscriptions experiment.
const SUBSCRIPTIONS_ROWS: usize = 120;
/// Cluster size of the subscriptions experiment.
const SUBSCRIPTIONS_NODES: u16 = 6;
/// Registered-view counts of the subscriptions sweep.  64 is where the
/// run starts *enforcing* that shared maintenance ships strictly fewer
/// bytes than the per-view-independent control.
const SUBSCRIBER_COUNTS: [usize; 3] = [1, 8, 64];
/// The additional fan-out point `--heavy` adds (hundreds of views ×
/// per-view independent control is too slow for the default gates).
const HEAVY_SUBSCRIBER_COUNTS: [usize; 4] = [1, 8, 64, 256];
/// Cluster size of the sustained gossip-only churn stream `--heavy`
/// adds (the nightly's 1000-node point).
const CHURN_HEAVY_NODES: usize = 1000;
/// The subscriptions experiment's churn points: a small-delta stream,
/// and one that rewrites most of the churned relation per epoch.
const SUBSCRIPTION_SWEEPS: [MaintenanceSweepSpec; 2] = [
    MaintenanceSweepSpec {
        label: "small-delta",
        spec: EpochSpec {
            inserts: 2,
            modifies: 1,
            deletes: 1,
        },
        epochs: 3,
    },
    MaintenanceSweepSpec {
        label: "heavy-churn",
        spec: EpochSpec {
            inserts: 0,
            modifies: 80,
            deletes: 0,
        },
        epochs: 2,
    },
];
/// Seed of the adaptivity experiment's data and churn streams.
const ADAPTIVITY_SEED: u64 = 42;
/// Rows per workload in the adaptivity experiment.  The maintenance
/// scale, not the 240-row ad-hoc scale: the answers must be non-trivial
/// (a near-empty group-by makes every cardinality figure degenerate)
/// and per-refresh fixed costs must not drown the crossover contrast.
const ADAPTIVITY_ROWS: usize = 600;
/// Cluster size of the adaptivity experiment.
const ADAPTIVITY_NODES: u16 = 6;
/// Calibration epochs of the adaptivity feedback stream — enough for
/// the ad-hoc channel to cross its broadcast-calibration sample floor.
const ADAPTIVITY_FEEDBACK_EPOCHS: usize = 4;
/// Per-epoch churn of the calibration stream: small and mixed, so the
/// enriched statistics track gentle drift without moving the baseline.
const ADAPTIVITY_FEEDBACK_CHURN: EpochSpec = EpochSpec {
    inserts: 3,
    modifies: 2,
    deletes: 2,
};
/// Per-epoch growth of the drift stream: 1.5× the base rows per epoch,
/// enough to cross the drift monitor's log2 threshold within its
/// patience window.
const ADAPTIVITY_DRIFT_CHURN: EpochSpec = EpochSpec {
    inserts: 900,
    modifies: 0,
    deletes: 0,
};
/// Epochs of the drift stream: fire, pay dissemination, then hold two
/// steady-state epochs where recompiled legs must not cost more.
const ADAPTIVITY_DRIFT_EPOCHS: usize = 5;
/// Signed-delta fractions of the crossover sweep: 0.1% … 200% of the
/// base rows, spanning clearly-incremental to clearly-recompute.
/// Swept from the large end *down*: big-delta epochs are dominated by
/// real data movement, so the byte channels calibrate on clean signal
/// before reaching the overhead-dominated tail where per-leg framing
/// swamps the few delta rows.
const ADAPTIVITY_FRACTIONS: [f64; 6] = [2.0, 1.0, 0.5, 0.1, 0.01, 0.001];
/// Maintained epochs per crossover fraction.
const ADAPTIVITY_CROSSOVER_EPOCHS: usize = 1;
/// Calibration epochs of the long stream `--heavy` adds (the nightly's
/// does-the-error-keep-shrinking point; too slow for the default gates).
const ADAPTIVITY_HEAVY_EPOCHS: usize = 32;
/// The maintenance experiment's delta-size × epoch-count sweep: a
/// small-delta stream the cost model should absorb incrementally, and a
/// churn stream (the modify count swamps every relation) it should flip
/// to recomputation on.
const MAINTENANCE_SWEEPS: [MaintenanceSweepSpec; 2] = [
    MaintenanceSweepSpec {
        label: "small-delta",
        spec: EpochSpec {
            inserts: 2,
            modifies: 1,
            deletes: 1,
        },
        epochs: 5,
    },
    MaintenanceSweepSpec {
        label: "heavy-churn",
        spec: EpochSpec {
            inserts: 0,
            modifies: 400,
            deletes: 0,
        },
        epochs: 2,
    },
];

/// The selectable experiments, in documentation order.  `baseline` is
/// the committed-baseline subset: exactly `plan_quality`,
/// `maintenance`, `serving`, `subscriptions`, `churn` and `adaptivity`,
/// the experiments `--check-baseline` gates.  Host throughput is
/// measured outside this binary, by `perfbench` (`adhoc_read`).
const EXPERIMENTS: [&str; 12] = [
    "all",
    "scale_out",
    "recovery_sweep",
    "tagging_overhead",
    "plan_quality",
    "maintenance",
    "throughput",
    "serving",
    "subscriptions",
    "churn",
    "adaptivity",
    "baseline",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run(options)) => match run(&options) {
            Ok(doc) => println!("{doc}"),
            Err(e) => {
                eprintln!("orchestra-bench failed: {e}");
                std::process::exit(1);
            }
        },
        Ok(Mode::CheckBaseline(path)) => {
            if let Err(e) = check_baseline(&path) {
                eprintln!("baseline gate failed: {e}");
                std::process::exit(1);
            }
        }
        Ok(Mode::ListExperiments) => {
            for name in EXPERIMENTS {
                println!("{name}");
            }
        }
        Err(message) => {
            eprintln!("{message}");
            eprintln!("valid experiments: {}", EXPERIMENTS.join(", "));
            eprintln!(
                "usage: orchestra-bench [--experiment <name>] [--list-experiments] \
                 [--heavy] [--check-baseline <path>]"
            );
            std::process::exit(2);
        }
    }
}

/// A `Mode::Run` invocation's options.
struct RunOptions {
    experiment: String,
    /// Add the slow scale points: the thousands-of-sessions serving run
    /// and the 256-subscriber fan-out sweep.  Never part of the
    /// committed-baseline output, which must stay fast and fixed-shape.
    heavy: bool,
}

enum Mode {
    Run(RunOptions),
    CheckBaseline(String),
    /// Print the selectable experiment names, one per line — the
    /// machine-readable list CI's loops iterate instead of hard-coding
    /// names that drift.
    ListExperiments,
}

fn parse_args(args: &[String]) -> std::result::Result<Mode, String> {
    let mut experiment = "all".to_string();
    let mut heavy = false;
    let mut list = false;
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" => {
                let name = args
                    .get(i + 1)
                    .ok_or_else(|| "--experiment requires a name".to_string())?;
                if !EXPERIMENTS.contains(&name.as_str()) {
                    return Err(format!("unknown experiment \"{name}\""));
                }
                experiment = name.clone();
                i += 2;
            }
            "--heavy" => {
                heavy = true;
                i += 1;
            }
            "--check-baseline" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| "--check-baseline requires a path".to_string())?;
                baseline_path = Some(path.clone());
                i += 2;
            }
            "--list-experiments" => {
                list = true;
                i += 1;
            }
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    if list {
        return Ok(Mode::ListExperiments);
    }
    match baseline_path {
        Some(path) => Ok(Mode::CheckBaseline(path)),
        None => Ok(Mode::Run(RunOptions { experiment, heavy })),
    }
}

fn run(options: &RunOptions) -> Result<Json> {
    let experiment = options.experiment.as_str();
    let tpch = TpchWorkload::scaled(TpchQuery::Q1, 42, 240);
    let tpch_joins = TpchWorkload::scaled(TpchQuery::Q3, 42, 240);
    let stbenchmark = CopyScenario {
        seed: 42,
        rows: 240,
    };
    let workloads: [&dyn Workload; 3] = [&tpch, &tpch_joins, &stbenchmark];
    // The maintenance experiment maintains the same three queries over
    // its own larger datasets (see `MAINTENANCE_ROWS`).
    let m_tpch = TpchWorkload::scaled(TpchQuery::Q1, 42, MAINTENANCE_ROWS);
    let m_tpch_joins = TpchWorkload::scaled(TpchQuery::Q3, 42, MAINTENANCE_ROWS);
    let m_stbenchmark = CopyScenario {
        seed: 42,
        rows: MAINTENANCE_ROWS,
    };
    let maintenance_workloads: [&dyn Workload; 3] = [&m_tpch, &m_tpch_joins, &m_stbenchmark];
    // The adaptivity experiment runs the same trio at its own scale.
    let a_tpch = TpchWorkload::scaled(TpchQuery::Q1, ADAPTIVITY_SEED, ADAPTIVITY_ROWS);
    let a_tpch_joins = TpchWorkload::scaled(TpchQuery::Q3, ADAPTIVITY_SEED, ADAPTIVITY_ROWS);
    let a_stbenchmark = CopyScenario {
        seed: ADAPTIVITY_SEED,
        rows: ADAPTIVITY_ROWS,
    };
    let adaptivity_workloads: [&dyn Workload; 3] = [&a_tpch, &a_tpch_joins, &a_stbenchmark];
    let all = experiment == "all";

    let config = EngineConfig::default();
    let mut doc = vec![
        ("benchmark", Json::str("orchestra")),
        ("experiment", Json::str(experiment)),
    ];

    let baseline = experiment == "baseline";
    let per_workload = all
        || baseline
        || matches!(
            experiment,
            "scale_out" | "recovery_sweep" | "tagging_overhead" | "plan_quality" | "maintenance"
        );
    if per_workload {
        let mut experiments = Vec::new();
        for (i, workload) in workloads.into_iter().enumerate() {
            let mut entry = vec![("workload", Json::str(workload.name()))];
            if all || experiment == "scale_out" {
                let points = run_scale_out(workload, &SCALE_OUT_NODES, &config)?;
                entry.push((
                    "scale_out",
                    Json::Array(points.iter().map(|p| p.to_json()).collect()),
                ));
            }
            if all || experiment == "recovery_sweep" {
                let sweep =
                    run_recovery_sweep(workload, SWEEP_NODES, SWEEP_VICTIM, SWEEP_POINTS, &config)?;
                entry.push(("recovery_sweep", sweep.to_json()));
            }
            if all || experiment == "tagging_overhead" {
                let tagging = run_tagging_overhead(workload, SWEEP_NODES, &config)?;
                entry.push(("tagging_overhead", tagging.to_json()));
            }
            if all || baseline || experiment == "plan_quality" {
                let quality = run_plan_quality(workload, SWEEP_NODES, &config)?;
                entry.push(("plan_quality", quality.to_json()));
            }
            if all || baseline || experiment == "maintenance" {
                let maintenance = run_maintenance(
                    maintenance_workloads[i],
                    SWEEP_NODES,
                    MAINTENANCE_SEED,
                    &MAINTENANCE_SWEEPS,
                    &config,
                )?;
                entry.push(("maintenance", maintenance.to_json()));
            }
            experiments.push(Json::object(entry));
        }
        doc.push(("experiments", Json::Array(experiments)));
    }

    if all || experiment == "throughput" {
        let mut policies = Vec::new();
        for policy in [AdmissionPolicy::Fifo, AdmissionPolicy::ShortestCostFirst] {
            let sweep = run_throughput(
                THROUGHPUT_SEED,
                THROUGHPUT_ROWS,
                THROUGHPUT_COPIES,
                THROUGHPUT_NODES,
                &THROUGHPUT_LEVELS,
                policy,
                &config,
            )?;
            policies.push(sweep.to_json());
        }
        doc.push((
            "throughput",
            Json::object(vec![
                ("nodes", Json::UInt(THROUGHPUT_NODES as u64)),
                (
                    "levels",
                    Json::Array(
                        THROUGHPUT_LEVELS
                            .iter()
                            .map(|l| Json::UInt(*l as u64))
                            .collect(),
                    ),
                ),
                ("policies", Json::Array(policies)),
            ]),
        ));
    }

    if all || baseline || experiment == "serving" {
        let sweep = run_serving_experiment(
            &ServingSpec {
                seed: SERVING_SEED,
                rows: SERVING_ROWS,
                nodes: SERVING_NODES,
                requests: SERVING_REQUESTS,
                load_factors: &SERVING_LOADS,
                zipf_exponents: &SERVING_SKEWS,
                cache_capacities: &SERVING_CAPACITIES,
                eviction: EvictionPolicy::Lru,
            },
            &config,
        )?;
        doc.push(("serving", sweep.to_json()));
        // The ROADMAP's serving follow-on, behind `--heavy` so the
        // default gates stay fast: one thousands-of-sessions point at
        // the skewed, overloaded corner where the result cache matters
        // most.  Never part of the fixed-shape baseline document.
        if options.heavy && !baseline {
            let heavy_sweep = run_serving_experiment(
                &ServingSpec {
                    seed: SERVING_SEED,
                    rows: SERVING_ROWS,
                    nodes: SERVING_NODES,
                    requests: SERVING_HEAVY_REQUESTS,
                    load_factors: &[2.0],
                    zipf_exponents: &[1.2],
                    cache_capacities: &[0, 6],
                    eviction: EvictionPolicy::Lru,
                },
                &config,
            )?;
            doc.push(("serving_heavy", heavy_sweep.to_json()));
        }
    }

    if all || baseline || experiment == "churn" {
        let report = run_churn(&ChurnBenchSpec {
            // The nightly's 1000-node sustained stream; the convergence
            // points at 100 and 1000 run (and are enforced) everywhere.
            heavy_nodes: if options.heavy && !baseline {
                CHURN_HEAVY_NODES
            } else {
                0
            },
            ..ChurnBenchSpec::default()
        })?;
        doc.push(("churn", report.to_json()));
    }

    if all || baseline || experiment == "adaptivity" {
        let report = run_adaptivity(
            &adaptivity_workloads,
            &AdaptivitySpec {
                seed: ADAPTIVITY_SEED,
                rows: ADAPTIVITY_ROWS,
                nodes: ADAPTIVITY_NODES,
                feedback_epochs: ADAPTIVITY_FEEDBACK_EPOCHS,
                feedback_churn: ADAPTIVITY_FEEDBACK_CHURN,
                drift: DriftConfig::default(),
                drift_churn: ADAPTIVITY_DRIFT_CHURN,
                drift_epochs: ADAPTIVITY_DRIFT_EPOCHS,
                delta_fractions: &ADAPTIVITY_FRACTIONS,
                crossover_epochs: ADAPTIVITY_CROSSOVER_EPOCHS,
                // The long calibration stream is nightly-only; the
                // committed baseline document stays fast and fixed-shape.
                heavy_epochs: if options.heavy && !baseline {
                    ADAPTIVITY_HEAVY_EPOCHS
                } else {
                    0
                },
            },
            &config,
        )?;
        doc.push(("adaptivity", report.to_json()));
    }

    if all || baseline || experiment == "subscriptions" {
        let counts: &[usize] = if options.heavy && !baseline {
            &HEAVY_SUBSCRIBER_COUNTS
        } else {
            &SUBSCRIBER_COUNTS
        };
        let report = run_subscriptions(
            &SubscriptionsSpec {
                seed: SUBSCRIPTIONS_SEED,
                rows: SUBSCRIPTIONS_ROWS,
                nodes: SUBSCRIPTIONS_NODES,
                subscriber_counts: counts,
                sweeps: &SUBSCRIPTION_SWEEPS,
            },
            &config,
        )?;
        doc.push(("subscriptions", report.to_json()));
    }

    Ok(Json::object(doc))
}

fn check_baseline(path: &str) -> Result<()> {
    use orchestra_common::OrchestraError;
    let text = std::fs::read_to_string(path)
        .map_err(|e| OrchestraError::Execution(format!("cannot read {path}: {e}")))?;
    let baseline = Json::parse(&text)
        .map_err(|e| OrchestraError::Execution(format!("cannot parse {path}: {e}")))?;
    let current = run(&RunOptions {
        experiment: "baseline".into(),
        heavy: false,
    })?;
    let violations = match orchestra_bench::check_baseline(&current, &baseline, BASELINE_TOLERANCE)
    {
        Ok(passed) => {
            for line in passed {
                eprintln!("ok: {line}");
            }
            return Ok(());
        }
        Err(violations) => violations,
    };
    for line in &violations {
        eprintln!("REGRESSION: {line}");
    }
    Err(OrchestraError::Execution(format!(
        "{} baseline figure(s) regressed beyond {:.0}% of {path}; refresh with \
         `cargo run --release -p orchestra-bench -- --experiment baseline > {path}` \
         after an intentional change",
        violations.len(),
        BASELINE_TOLERANCE * 100.0
    )))
}
