//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <adhoc_read|publish_maintain|midquery_failure>
//!           --seed <n> --seconds <n> --trace <0|1> [--spans <file>]
//! ```
//!
//! Sets the workload up [`SETUPS`] times (reporting the median as
//! `setup_s`, in CPU seconds normalised by the calibration kernel run
//! right after each set-up; see `perfbench::clock`), then repeats whole rounds of ops for at least `--seconds`
//! and [`MIN_ROUNDS`] rounds with tracing off.  With `--trace 1` a second,
//! traced loop follows; its simulated figures must equal the untraced
//! loop's, and its spans give the per-layer metrics (and are written to
//! `--spans`).  Every metric is printed as `name value unit`; the last
//! line is one JSON object holding the gated end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).  A wrong answer
//! exits with status 1 before any result is printed.

use perfbench::clock::{slowdown_now, CpuInstant};
use perfbench::report::{end_to_end, per_layer, simulated, Metric, Tally, GATED};
use perfbench::trace::Tracer;
use perfbench::workloads::{setup, Bench, Kind};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest rounds a timed loop runs: each op's host time is the median
/// of its repeats.
const MIN_ROUNDS: u64 = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, false, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} takes a whole number, got {value}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = number()? != 0,
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
    })
}

/// Repeat whole rounds until `seconds` have passed and `MIN_ROUNDS` ran.
fn measure(bench: &mut dyn Bench, seconds: u64, traced: bool) -> Result<(Tally, Tracer), String> {
    let mut tracer = Tracer::new(traced);
    let mut tally = Tally::default();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(seconds) || tally.rounds < MIN_ROUNDS {
        let round = bench.round(&mut tracer, tally.attempted)?;
        tally.merge(round)?;
    }
    tally.finish();
    Ok((tally, tracer))
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{:<38} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        fields.push(format!(
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        r#"{{"correct": true, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let start = CpuInstant::now();
        bench = Some(setup(args.kind, args.seed)?);
        let cpu_s = start.elapsed().as_secs_f64();
        setup_s.push(cpu_s / slowdown_now());
    }
    setup_s.sort_by(f64::total_cmp);
    let mut bench = bench.expect("SETUPS is at least one");

    let (plain, _) = measure(bench.as_mut(), args.seconds, false)?;
    let e2e = end_to_end(args.kind, setup_s[SETUPS / 2], &plain, peak_rss_mb()?);
    let title = format!(
        "{} seed {}: {} ops in {} rounds, tracing off",
        args.kind.name(),
        args.seed,
        plain.attempted,
        plain.rounds
    );
    print_table(&title, &e2e);
    if !args.trace {
        let gated: Vec<Metric> = e2e
            .into_iter()
            .filter(|m| GATED.contains(&m.name.as_str()))
            .collect();
        println!("{}", json_line(plain.attempted, plain.failed, &gated)?);
        return Ok(());
    }

    let (traced, tracer) = measure(bench.as_mut(), args.seconds, true)?;
    if simulated(&traced) != simulated(&plain) {
        return Err("the traced and untraced loops disagree on simulated figures".into());
    }
    if let Some(path) = &args.spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    let layers = per_layer(&traced, &tracer, &plain);
    let title = format!(
        "{} seed {}: {} ops in {} rounds, traced",
        args.kind.name(),
        args.seed,
        traced.attempted,
        traced.rounds
    );
    print_table(&title, &layers);
    println!(
        "{}",
        json_line(
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &layers
        )?
    );
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
