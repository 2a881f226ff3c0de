//! Turning a timed loop's rounds (and, for the traced loop, its spans)
//! into named metrics.
//!
//! A round runs each of a workload's distinct ops at a fixed share of
//! its positions, and a loop repeats rounds, so every distinct op runs
//! many times.  [`Tally`] keeps, per distinct op, the median host time of
//! its repeats, each normalised by the calibration kernel around it (see
//! `clock`) — the host is shared, and other load slows whole phases of a
//! run by tens of percent; the median ignores single disturbed repeats,
//! where the fastest repeat is a noisy extreme — and its simulated
//! figures, which every repeat must reproduce exactly.  Host and simulated quantiles and per-op means are
//! taken over the round's positions, each position reading its distinct
//! op's figures, so they are the same however many rounds a loop ran;
//! the simulated figures agree exactly between the traced and the
//! untraced loop of one seed.

use crate::clock::slowdowns;
use crate::trace::Tracer;
use crate::workloads::{Kind, Round, Sample};
use orchestra_core::engine::WallClock;
use std::collections::{BTreeMap, BTreeSet};

/// A loop's rounds merged by distinct op.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Op runs over all rounds.
    pub attempted: u64,
    /// Op runs that returned an error.
    pub failed: u64,
    pub rounds: u64,
    /// The distinct op at each position of the round.
    order: Vec<usize>,
    /// Per distinct op: its simulated figures and, once [`Tally::finish`]
    /// ran, the median normalised host times of its repeats.
    typical: BTreeMap<usize, Sample>,
    /// Every successful op run in the order it ran: distinct op, CPU
    /// nanoseconds of the op and of its publish, and of the kernel after it.
    runs: Vec<(usize, u64, u64, u64)>,
    /// Per distinct op: the median plain CPU nanoseconds of its repeats.
    cpu_op_ns: BTreeMap<usize, u64>,
    /// The calibration kernel's median CPU nanoseconds over the loop.
    pub kernel_ns_p50: u64,
    /// Distinct ops that returned an error in any repeat.
    failing: BTreeSet<usize>,
    /// Host nanoseconds of operator compute per `WallClock` class, summed
    /// over all op runs.
    pub operator_ns: [u64; 8],
    /// Stored tuple versions per live row replica at the end of a round.
    pub versions_per_live_row: f64,
}

impl Tally {
    /// Fold one round in; errors if a repeated op reproduced different
    /// simulated figures.
    pub fn merge(&mut self, round: Round) -> Result<(), String> {
        if self.rounds > 0 && self.versions_per_live_row != round.versions_per_live_row {
            return Err("rounds ended with different version retention".into());
        }
        self.versions_per_live_row = round.versions_per_live_row;
        for (sum, ns) in self.operator_ns.iter_mut().zip(round.operator_ns) {
            *sum += ns;
        }
        if self.rounds == 0 {
            self.order = round.samples.iter().map(|(key, _)| *key).collect();
        }
        self.attempted += round.samples.len() as u64;
        for (key, sample) in round.samples {
            let Some(sample) = sample else {
                self.failed += 1;
                self.failing.insert(key);
                continue;
            };
            self.runs
                .push((key, sample.op_ns, sample.publish_ns, sample.kernel_ns));
            match self.typical.get(&key) {
                None => {
                    self.typical.insert(key, sample);
                }
                Some(typical) if typical.sim != sample.sim => {
                    return Err(format!(
                        "distinct op {key} repeated with different simulated figures"
                    ));
                }
                Some(_) => {}
            }
        }
        self.rounds += 1;
        Ok(())
    }

    /// Set every distinct op's host times to the median over its repeats
    /// of the repeat's CPU time divided by the host's slowdown around it.
    pub fn finish(&mut self) {
        let kernel_ns: Vec<u64> = self.runs.iter().map(|run| run.3).collect();
        let mut repeats: BTreeMap<usize, [Vec<u64>; 3]> = BTreeMap::new();
        for (&(key, op_ns, publish_ns, _), slowdown) in self.runs.iter().zip(slowdowns(&kernel_ns))
        {
            let [op, publish, cpu] = repeats.entry(key).or_default();
            op.push((op_ns as f64 / slowdown) as u64);
            publish.push((publish_ns as f64 / slowdown) as u64);
            cpu.push(op_ns);
        }
        for (key, [op, publish, cpu]) in repeats {
            let typical = self
                .typical
                .get_mut(&key)
                .expect("every run's op has figures");
            typical.op_ns = nearest_rank(&op, 50);
            typical.publish_ns = nearest_rank(&publish, 50);
            self.cpu_op_ns.insert(key, nearest_rank(&cpu, 50));
        }
        self.kernel_ns_p50 = nearest_rank(&kernel_ns, 50);
    }

    /// The figures at every position whose op never failed.
    pub fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.order
            .iter()
            .filter(|key| !self.failing.contains(key))
            .filter_map(|key| self.typical.get(key))
    }

    fn ok_positions(&self) -> u64 {
        self.ok().count() as u64
    }

    fn collect(&self, f: impl Fn(&Sample) -> Option<u64>) -> Vec<u64> {
        self.ok().filter_map(f).collect()
    }

    /// The median plain CPU time at every position whose op never failed.
    fn cpu_op_ns(&self) -> Vec<u64> {
        self.order
            .iter()
            .filter(|key| !self.failing.contains(key))
            .filter_map(|key| self.cpu_op_ns.get(key).copied())
            .collect()
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// End-to-end metrics gated by the benchmark definition; the others
/// [`end_to_end`] returns are printed but not gated.
pub const GATED: [&str; 8] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_p95",
    "sim_ms_p50",
    "sim_ms_p95",
    "shipped_kb_per_op",
    "peak_rss_mb",
];

/// The value of nearest rank `pct`% of `values` (0 when empty).
pub fn nearest_rank(values: &[u64], pct: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1);
    sorted[rank as usize - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated figures and deterministic counts, per op: identical between
/// the traced and the untraced run of one seed.
pub fn simulated(tally: &Tally) -> Vec<Metric> {
    let ops = tally.ok_positions();
    let count = |name: &str| {
        tally
            .ok()
            .map(|s| s.sim.counts.get(name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let sim_us = tally.collect(|s| Some(s.sim.sim_us));
    let mut out = vec![
        metric("sim_ms_p50", nearest_rank(&sim_us, 50) as f64 / 1e3, "ms"),
        metric("sim_ms_p95", nearest_rank(&sim_us, 95) as f64 / 1e3, "ms"),
        metric(
            "shipped_kb_per_op",
            ratio(count("shipped_bytes"), ops) / 1e3,
            "kB",
        ),
    ];
    for (name, key, unit) in [
        ("storage.pages_read", "pages_read", "count"),
        ("storage.tuples_scanned", "tuples_scanned", "count"),
        ("storage.remote_lookups", "remote_lookups", "count"),
        ("storage.delta_derivations", "delta_derivations", "count"),
        ("registry.leg_instances", "leg_instances", "count"),
        ("registry.sessions_run", "sessions_run", "count"),
        ("recovery.recovered_frac", "recovered", "frac"),
        ("recovery.phases", "phases", "count"),
        ("recovery.purged_rows", "purged", "count"),
        ("recovery.retransmitted_rows", "retransmitted", "count"),
        ("simnet.messages", "messages", "count"),
        ("simnet.dropped_messages", "dropped_messages", "count"),
    ] {
        out.push(metric(name, ratio(count(key), ops), unit));
    }
    out.push(metric(
        "registry.diff_kb",
        ratio(count("diff_bytes"), ops) / 1e3,
        "kB",
    ));
    out.push(metric(
        "registry.dedup_ratio",
        ratio(count("sessions_run"), count("leg_instances")),
        "ratio",
    ));
    out.push(metric(
        "recovery.sim_overhead_ms_p50",
        nearest_rank(&tally.collect(|s| s.sim.recovery_overhead_us), 50) as f64 / 1e3,
        "ms",
    ));
    out.push(metric(
        "storage.tuple_versions_per_live_row",
        tally.versions_per_live_row,
        "ratio",
    ));
    out
}

/// Every end-to-end metric of an untraced loop.
pub fn end_to_end(kind: Kind, setup_s: f64, tally: &Tally, peak_rss_mb: f64) -> Vec<Metric> {
    let op_ns = tally.collect(|s| Some(s.op_ns));
    let busy_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    let sim = simulated(tally);
    let mut out = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", op_ns.len() as f64 / busy_s, "1/s"),
        metric("op_ms_p50", ms(nearest_rank(&op_ns, 50)), "ms"),
        metric("op_ms_p95", ms(nearest_rank(&op_ns, 95)), "ms"),
    ];
    out.extend(sim.into_iter().take(3));
    out.push(metric(
        "failed_frac",
        ratio(tally.failed, tally.attempted),
        "frac",
    ));
    out.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    out.push(metric(
        "cpu_op_ms_p50",
        ms(nearest_rank(&tally.cpu_op_ns(), 50)),
        "ms",
    ));
    out.push(metric("kernel_ms_p50", ms(tally.kernel_ns_p50), "ms"));
    if kind == Kind::PublishMaintain {
        let publish_ns = tally.collect(|s| Some(s.publish_ns));
        out.push(metric(
            "publish_ms_p50",
            ms(nearest_rank(&publish_ns, 50)),
            "ms",
        ));
        out.push(metric(
            "publish_ms_p95",
            ms(nearest_rank(&publish_ns, 95)),
            "ms",
        ));
    }
    out
}

/// Every per-layer metric, per op, from the traced loop; `untraced` is
/// the same seed's untraced loop, for the tracing overhead.  Host times
/// are means over every op run of the loop.  Layers a workload leaves
/// idle read 0.
pub fn per_layer(traced: &Tally, tracer: &Tracer, untraced: &Tally) -> Vec<Metric> {
    let ops = traced.attempted - traced.failed;
    let self_ns = tracer.self_ns();
    let span_ms = |name: &str| ratio(self_ns.get(name).copied().unwrap_or(0), ops) / 1e6;
    let mut out: Vec<Metric> = [
        ("optimizer.stats_collect_ms", "optimizer.stats_collect"),
        ("optimizer.compile_ms", "optimizer.compile"),
        ("optimizer.absorb_ms", "optimizer.absorb"),
        ("optimizer.overlay_ms", "optimizer.overlay"),
        ("storage.publish_ms", "storage.publish"),
        ("storage.delta_ms", "storage.delta"),
        ("engine.execute_ms", "engine.execute"),
        ("registry.refresh_ms", "registry.refresh"),
        ("harness.check_ms", "harness.check"),
        ("harness.unattributed_ms", "harness.op"),
    ]
    .into_iter()
    .map(|(name, span)| metric(name, span_ms(span), "ms"))
    .collect();
    for (class, ns) in WallClock::NAMES.iter().zip(traced.operator_ns) {
        out.push(metric(
            format!("engine.op.{class}_ms"),
            ratio(ns, ops) / 1e6,
            "ms",
        ));
    }
    let operator_ns: u64 = traced.operator_ns.iter().sum();
    out.push(metric(
        "engine.unattributed_ms",
        span_ms("engine.execute") - ratio(operator_ns, ops) / 1e6,
        "ms",
    ));
    out.extend(simulated(traced).into_iter().skip(3));
    out.push(metric(
        "trace.overhead_frac",
        ratio(
            nearest_rank(&traced.collect(|s| Some(s.op_ns)), 50),
            nearest_rank(&untraced.collect(|s| Some(s.op_ns)), 50),
        ) - 1.0,
        "frac",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_invariant_under_repetition() {
        let round = [7u64, 3, 9, 1, 4, 4, 8, 2, 6, 5, 11];
        for pct in [50, 95] {
            let once = nearest_rank(&round, pct);
            for k in 2..6 {
                let repeated: Vec<u64> = round
                    .iter()
                    .copied()
                    .cycle()
                    .take(round.len() * k)
                    .collect();
                assert_eq!(nearest_rank(&repeated, pct), once, "p{pct} over {k} rounds");
            }
        }
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[5], 95), 5);
    }
}
