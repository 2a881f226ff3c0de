//! The CI baseline-regression gate.
//!
//! CI commits a `BENCH_BASELINE.json` — the bench binary's
//! `--experiment baseline` output at a known-good commit — and
//! [`check_baseline`] compares a fresh run against it.  Every gated
//! figure is declared in one table, `GATES`: where its rows live in the
//! document, how a row is keyed, and which way each figure improves.  A
//! figure must stay within `tolerance` (CI uses 5%) of the baseline in
//! its bad direction; moving in its good direction — lower cost or
//! bytes, higher hit rate — always passes, so the gate only catches
//! regressions.
//!
//! Refreshing the baseline after an intentional change is one line:
//!
//! ```sh
//! cargo run --release -p orchestra-bench -- --experiment baseline > BENCH_BASELINE.json
//! ```

use crate::json::Json;
use Better::{Higher, Lower};
use Step::{Each, Field, Label};

/// Which way a gated figure improves.
#[derive(Clone, Copy)]
enum Better {
    /// Costs, bytes, rounds, errors, recompilations.
    Lower,
    /// Cache hit rates.
    Higher,
}

/// One step of a gate's path from the document root to its rows.
enum Step {
    /// Descend into an object member.
    Field(&'static str),
    /// Fan out over an array's items, appending each item's key parts to
    /// the row key.
    Each(&'static [KeyPart]),
    /// Append fixed text to the row key (a row that is a single object).
    Label(&'static str),
}

/// One piece of a row key: fixed text followed by an item's member —
/// a number with this many decimals, or (`None`) a string verbatim.
struct KeyPart(&'static str, &'static str, Option<usize>);

/// One gated section of the baseline document.
struct Gate {
    /// What a row is called in log lines.
    row: &'static str,
    /// Where the rows live, and how each is keyed.
    path: &'static [Step],
    /// The gated figures of every row.
    fields: &'static [(&'static str, Better)],
}

/// Every gated figure, in log order.
const GATES: &[Gate] = &[
    // Estimated optimizer cost and measured traffic of the compiled and
    // the hand-built plan, per workload.
    Gate {
        row: "workload",
        path: &[
            Field("experiments"),
            Each(&[KeyPart("", "workload", None)]),
            Field("plan_quality"),
        ],
        fields: &[
            ("optimized_estimated_bytes", Lower),
            ("hand_estimated_bytes", Lower),
            ("optimized_bytes", Lower),
            ("hand_bytes", Lower),
        ],
    },
    // Shipped bytes of both refresh strategies, per maintenance sweep.
    Gate {
        row: "maintenance sweep",
        path: &[
            Field("experiments"),
            Each(&[KeyPart("", "workload", None)]),
            Field("maintenance"),
            Field("sweeps"),
            Each(&[KeyPart("/", "label", None)]),
        ],
        fields: &[
            ("total_incremental_bytes", Lower),
            ("total_recompute_bytes", Lower),
        ],
    },
    // Shipped bytes and result-cache hit rate, per serving point.
    Gate {
        row: "serving point",
        path: &[
            Field("serving"),
            Field("points"),
            Each(&[
                KeyPart("skew=", "zipf_exponent", Some(2)),
                KeyPart(" load=", "load_factor", Some(2)),
                KeyPart(" cap=", "cache_capacity", Some(0)),
            ]),
        ],
        fields: &[("total_bytes", Lower), ("cache_hit_rate", Higher)],
    },
    // Shared-maintenance bytes and delta derivations, per fan-out sweep:
    // more of either is a regression of the sharing machinery.
    Gate {
        row: "subscriptions sweep",
        path: &[
            Field("subscriptions"),
            Field("sweeps"),
            Each(&[
                KeyPart("", "label", None),
                KeyPart("/subs=", "subscribers", Some(0)),
            ]),
        ],
        fields: &[
            ("total_shared_bytes", Lower),
            ("total_shared_derivations", Lower),
        ],
    },
    // Gossip rounds to uniform membership and rumor bytes spent, per
    // convergence point…
    Gate {
        row: "churn point",
        path: &[
            Field("churn"),
            Field("convergence"),
            Each(&[KeyPart("n=", "nodes", Some(0))]),
        ],
        fields: &[("rounds", Lower), ("rumor_bytes", Lower)],
    },
    // …and over the whole experiment, sustained scenario included.
    Gate {
        row: "churn point",
        path: &[Field("churn"), Label("totals")],
        fields: &[
            ("total_convergence_rounds", Lower),
            ("total_rumor_bytes", Lower),
        ],
    },
    // Calibrated predicted-vs-actual error and drift recompilations, per
    // adaptivity workload.
    Gate {
        row: "adaptivity workload",
        path: &[
            Field("adaptivity"),
            Field("workloads"),
            Each(&[KeyPart("", "workload", None)]),
        ],
        fields: &[("final_cardinality_error", Lower), ("recompiles", Lower)],
    },
];

/// Absolute slack on every comparison, so an exactly-zero baseline does
/// not gate on floating-point dust.
const SLACK: f64 = 1e-9;

/// Compare `current` against `baseline` (both in the bench binary's
/// document shape) on every figure of `GATES`.  Returns one log line
/// per gated figure on success, or the violations if any figure
/// regressed beyond `tolerance` (a fraction: 0.05 allows 5%), a row or
/// figure disappeared, or either document lacks a gated section.
pub fn check_baseline(
    current: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut passed = Vec::new();
    let mut violations = Vec::new();
    for gate in GATES {
        let (base_rows, cur_rows) = match (rows(baseline, gate.path), rows(current, gate.path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) => {
                violations.push(format!("baseline document: {}s: {e}", gate.row));
                continue;
            }
            (_, Err(e)) => {
                violations.push(format!("current document: {}s: {e}", gate.row));
                continue;
            }
        };
        for (key, base_row) in &base_rows {
            let row = format!("{} {key}", gate.row);
            let Some((_, cur_row)) = cur_rows.iter().find(|(k, _)| k == key) else {
                violations.push(format!(
                    "{row} present in the baseline but missing from the current run"
                ));
                continue;
            };
            for &(field, better) in gate.fields {
                let (Some(base), Some(cur)) = (
                    base_row.get(field).and_then(Json::as_f64),
                    cur_row.get(field).and_then(Json::as_f64),
                ) else {
                    violations.push(format!("{row}: field {field} missing"));
                    continue;
                };
                let (regressed, sign) = match better {
                    Lower => (cur > base * (1.0 + tolerance) + SLACK, '+'),
                    Higher => (cur < base * (1.0 - tolerance) - SLACK, '-'),
                };
                if regressed {
                    violations.push(format!(
                        "{row}: {field} regressed {cur} vs {base} ({:+.1}% exceeds the {:.0}% \
                         tolerance)",
                        (cur / base.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                        tolerance * 100.0
                    ));
                } else {
                    passed.push(format!(
                        "{row}: {field} {cur} within {base} {sign}{:.0}%",
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    if violations.is_empty() {
        Ok(passed)
    } else {
        Err(violations)
    }
}

/// The `(row key, row object)` pairs `path` reaches in `doc`; an error if
/// a step finds no member, array or key part, or if there are no rows.
fn rows<'a>(doc: &'a Json, path: &[Step]) -> Result<Vec<(String, &'a Json)>, String> {
    let mut rows = vec![(String::new(), doc)];
    for step in path {
        let mut next = Vec::with_capacity(rows.len());
        for (key, node) in rows {
            match step {
                Field(name) => {
                    let member = node
                        .get(name)
                        .ok_or_else(|| format!("no \"{name}\" member at \"{key}\""))?;
                    next.push((key, member));
                }
                Label(text) => next.push((key + text, node)),
                Each(parts) => {
                    let items = node
                        .items()
                        .ok_or_else(|| format!("no array at \"{key}\""))?;
                    for item in items {
                        let mut key = key.clone();
                        for &KeyPart(text, field, decimals) in *parts {
                            let member = item.get(field);
                            let value = match decimals {
                                None => member.and_then(Json::as_str_val).map(String::from),
                                Some(d) => {
                                    member.and_then(Json::as_f64).map(|v| format!("{v:.d$}"))
                                }
                            };
                            let value = value.ok_or_else(|| {
                                format!("an item at \"{key}\" has no \"{field}\"")
                            })?;
                            key.push_str(text);
                            key.push_str(&value);
                        }
                        next.push((key, item));
                    }
                }
            }
        }
        rows = next;
    }
    if rows.is_empty() {
        return Err("no rows".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOLERANCE: f64 = 0.05;

    fn committed() -> Json {
        Json::parse(include_str!("../../../BENCH_BASELINE.json")).expect("baseline parses")
    }

    /// The row objects `path` reaches, mutably, in document order.
    fn rows_mut<'a>(node: &'a mut Json, path: &[Step], out: &mut Vec<&'a mut Json>) {
        match path.split_first() {
            None => out.push(node),
            Some((Label(_), rest)) => rows_mut(node, rest, out),
            Some((Field(name), rest)) => {
                if let Json::Object(pairs) = node {
                    if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == name) {
                        rows_mut(v, rest, out);
                    }
                }
            }
            Some((Each(_), rest)) => {
                if let Json::Array(items) = node {
                    for item in items {
                        rows_mut(item, rest, out);
                    }
                }
            }
        }
    }

    /// One gated figure of a document.
    struct Figure {
        gate: &'static Gate,
        row: usize,
        /// `"<row> <key>: <field>"`, as the log lines name it.
        name: String,
        field: &'static str,
    }

    impl Figure {
        /// `doc` with this figure moved by `by(value)` in its bad
        /// direction (a negative move is in its good direction).  The
        /// direction is restated here, independently of `GATES`: only hit
        /// rates improve upward.
        fn moved(&self, doc: &Json, by: impl Fn(f64) -> f64) -> Json {
            let mut doc = doc.clone();
            let mut rows = Vec::new();
            rows_mut(&mut doc, self.gate.path, &mut rows);
            let Json::Object(pairs) = &mut *rows.swap_remove(self.row) else {
                panic!("{} is not in an object", self.name);
            };
            let (_, value) = pairs.iter_mut().find(|(k, _)| k == self.field).unwrap();
            let v = value.as_f64().unwrap();
            let bad = if self.field == "cache_hit_rate" {
                -1.0
            } else {
                1.0
            };
            *value = Json::Float(v + bad * by(v));
            doc
        }
    }

    /// Every gated figure of `doc`, in log order.
    fn figures(doc: &Json) -> Vec<Figure> {
        let mut out = Vec::new();
        for gate in GATES {
            for (row, (key, _)) in rows(doc, gate.path).unwrap().iter().enumerate() {
                for &(field, _) in gate.fields {
                    let name = format!("{} {key}: {field}", gate.row);
                    out.push(Figure {
                        gate,
                        row,
                        name,
                        field,
                    });
                }
            }
        }
        out
    }

    /// Moving each committed figure whose rows are called `row` alone by
    /// 10% in its bad direction (a zero figure by 0.01) gives exactly one
    /// violation, naming it; moving it as far in its good direction
    /// passes.  Returns how many figures were checked.
    fn assert_gated(row: &str) -> usize {
        let doc = committed();
        let step = |v: f64| if v == 0.0 { 0.01 } else { 0.1 * v.abs() };
        let figures: Vec<Figure> = figures(&doc)
            .into_iter()
            .filter(|f| f.gate.row == row)
            .collect();
        for f in &figures {
            let violations = check_baseline(&f.moved(&doc, step), &doc, TOLERANCE).unwrap_err();
            assert_eq!(violations.len(), 1, "{violations:?}");
            let named = format!("{} regressed", f.name);
            assert!(violations[0].starts_with(&named), "{violations:?}");
            let improved = f.moved(&doc, |v| -step(v));
            assert!(
                check_baseline(&improved, &doc, TOLERANCE).is_ok(),
                "{}",
                f.name
            );
        }
        figures.len()
    }

    #[test]
    fn committed_baseline_passes_against_itself_on_all_72_figures() {
        let doc = committed();
        let passed = check_baseline(&doc, &doc, TOLERANCE).unwrap();
        assert_eq!(passed.len(), 72, "{passed:#?}");
        let figures = figures(&doc);
        assert_eq!(figures.len(), 72);
        for (line, f) in passed.iter().zip(&figures) {
            assert!(line.starts_with(&format!("{} ", f.name)), "{line}");
        }
        // Row keys render as the log lines have always named them.
        for name in [
            "workload tpch-q3: hand_bytes",
            "maintenance sweep stbenchmark-copy/heavy-churn: total_recompute_bytes",
            "serving point skew=1.20 load=2.00 cap=6: cache_hit_rate",
            "subscriptions sweep heavy-churn/subs=64: total_shared_derivations",
            "churn point n=1000: rumor_bytes",
            "churn point totals: total_rumor_bytes",
            "adaptivity workload tpch-q3: final_cardinality_error",
        ] {
            assert!(figures.iter().any(|f| f.name == name), "{name}");
        }
    }

    #[test]
    fn within_tolerance_passes() {
        let doc = committed();
        for f in figures(&doc) {
            let current = f.moved(&doc, |v| 0.049 * v.abs());
            assert!(
                check_baseline(&current, &doc, TOLERANCE).is_ok(),
                "{}",
                f.name
            );
        }
    }

    #[test]
    fn regressions_beyond_tolerance_fail_with_the_offending_field() {
        // Plan quality: estimated and measured bytes of both plans.
        assert_eq!(assert_gated("workload"), 12);

        // A zero baseline passes at zero and at floating-point dust, and
        // fails at 0.01 with a finite percentage (the divisor is guarded).
        let doc = committed();
        let f = figures(&doc)
            .into_iter()
            .find(|f| f.name == "workload tpch-q1: optimized_bytes")
            .unwrap();
        let zero = f.moved(&doc, |v| -v);
        assert!(check_baseline(&zero, &zero, TOLERANCE).is_ok());
        let dust = f.moved(&zero, |_| 1e-12);
        assert!(check_baseline(&dust, &zero, TOLERANCE).is_ok());
        let risen = f.moved(&zero, |_| 0.01);
        let violations = check_baseline(&risen, &zero, TOLERANCE).unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with(&f.name), "{violations:?}");
        assert!(!violations[0].contains("inf"), "{violations:?}");
    }

    #[test]
    fn maintenance_totals_are_gated_per_sweep() {
        assert_eq!(assert_gated("maintenance sweep"), 12);
    }

    #[test]
    fn serving_points_gate_bytes_up_and_hit_rate_down() {
        // Includes the cache-off points, whose zero hit rate gates too.
        assert_eq!(assert_gated("serving point"), 24);
    }

    #[test]
    fn subscription_sweeps_gate_shared_bytes_and_derivations_upward() {
        assert_eq!(assert_gated("subscriptions sweep"), 12);
    }

    #[test]
    fn churn_points_gate_rounds_and_bytes_upward() {
        // Two convergence points plus the experiment-wide totals row.
        assert_eq!(assert_gated("churn point"), 6);
    }

    #[test]
    fn adaptivity_workloads_gate_error_and_recompiles_upward() {
        // Includes the exactly-zero calibrated errors: 0.01 fails.
        assert_eq!(assert_gated("adaptivity workload"), 6);
    }

    #[test]
    fn missing_workloads_and_fields_fail() {
        let baseline = committed();
        let Json::Object(pairs) = &baseline else {
            panic!("baseline is an object")
        };
        let without = |section: &str| {
            Json::Object(
                pairs
                    .iter()
                    .filter(|(k, _)| k != section)
                    .cloned()
                    .collect(),
            )
        };
        for section in [
            "experiments",
            "serving",
            "subscriptions",
            "churn",
            "adaptivity",
        ] {
            let violations = check_baseline(&without(section), &baseline, TOLERANCE).unwrap_err();
            assert!(
                violations.iter().all(|v| v.starts_with("current document")),
                "{violations:?}"
            );
            assert!(check_baseline(&baseline, &without(section), TOLERANCE).is_err());
        }

        // A row, or one figure of a row, missing from the current run:
        // the last adaptivity workload, and its `recompiles`.
        let adaptivity = GATES.last().unwrap().path;
        for (missing, expected) in [
            (None, "stbenchmark-copy present in the baseline but missing"),
            (
                Some("recompiles"),
                "stbenchmark-copy: field recompiles missing",
            ),
        ] {
            let mut current = baseline.clone();
            let mut workloads = Vec::new();
            rows_mut(&mut current, &adaptivity[..2], &mut workloads);
            let Json::Array(items) = &mut *workloads[0] else {
                panic!("adaptivity workloads are an array")
            };
            match (missing, items.last_mut()) {
                (Some(field), Some(Json::Object(fields))) => fields.retain(|(k, _)| k != field),
                _ => drop(items.pop()),
            }
            let violations = check_baseline(&current, &baseline, TOLERANCE).unwrap_err();
            assert_eq!(violations.len(), 1, "{violations:?}");
            assert!(violations[0].contains(expected), "{violations:?}");
        }
    }
}
