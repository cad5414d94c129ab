//! The one benchmark gate: every bound on a `BENCH_*.json` row, in one
//! table (`GATES`) that one function ([`gate`]) evaluates.
//!
//! A bound is either *in-run* — held against the fresh row alone (an
//! absolute floor or ceiling, or a ratio of two metrics from the same
//! run, where machine speed cancels out) — or *cross-run*, held against
//! the baseline row with the same `(suite, workload, jobs)` identity.
//! Cross-run bounds scale with `threshold` (best-of-N on shared machines
//! is noisy, so they catch order-of-magnitude regressions, not drift);
//! the traced-over-untraced ratios scale with `obs_budget`.
//!
//! Skip rules: a cross-run bound is skipped for a fresh row no baseline
//! row matches (a smoke run covering only the small tiers still checks
//! what it measured), and when the metric is 0 on both sides (it does
//! not apply to that workload, e.g. `parse_ns` on a pipeline row). A
//! peak-bytes budget is skipped when either side is 0 (the run had no
//! counting allocator). A gated metric missing from a row is NaN and
//! fails its bound. The gate fails as a whole when it checked nothing,
//! or when a baseline exists but shares no row with the fresh run.

use crate::record::Row;
use crate::serve::{MAX_CLOSED_P99_US, MAX_P99_US, MIN_HIT_RATIO, MIN_RPS, P99_NOISE_US};

/// Peak-bytes growth allowed over the baseline: allocator peaks are
/// near-deterministic, so the committed peaks are memory budgets.
const PEAK_BUDGET: f64 = 1.5;

/// The two settable scales of the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Allowed slowdown factor of a cross-run bound (default 2.0).
    pub threshold: f64,
    /// Allowed traced/untraced ratio (default 1.10: tracing must cost
    /// under 10%).
    pub obs_budget: f64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            threshold: 2.0,
            obs_budget: 1.10,
        }
    }
}

/// How a metric is bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// value ≤ baseline × threshold + slack.
    Slower {
        /// Additive allowance in the metric's unit.
        slack: f64,
    },
    /// value ≥ baseline ÷ threshold.
    Faster,
    /// value ≤ baseline × [`PEAK_BUDGET`].
    Peak,
    /// value ÷ the same row's `of` metric ≤ obs_budget.
    Overhead {
        /// The denominator metric.
        of: &'static str,
    },
    /// value ≤ a constant.
    AtMost(f64),
    /// value ≥ a constant.
    AtLeast(f64),
}

/// One entry of the gate table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Gate {
    /// The suite whose rows it applies to.
    suite: &'static str,
    /// The bounded metric.
    metric: &'static str,
    /// The bound.
    rule: Rule,
}

const fn g(suite: &'static str, metric: &'static str, rule: Rule) -> Gate {
    Gate {
        suite,
        metric,
        rule,
    }
}

const SLOWER: Rule = Rule::Slower { slack: 0.0 };

/// Every bound on every suite.
const GATES: &[Gate] = &[
    g("pipeline", "single_shot_ns", SLOWER),
    g("pipeline", "context_reuse_ns", SLOWER),
    g("pipeline", "threaded_4_ns", SLOWER),
    g("pipeline", "parse_dagman_ns", SLOWER),
    g("pipeline", "parse_json_ns", SLOWER),
    g("pipeline", "parse_edges_ns", SLOWER),
    g("scaling", "pipeline_ns", SLOWER),
    g("scaling", "sim_ns", SLOWER),
    g("scaling", "parse_ns", SLOWER),
    g("scaling", "peak_bytes", Rule::Peak),
    g("obs", "traced_ns", Rule::Overhead { of: "untraced_ns" }),
    g("obs", "sampled_ns", Rule::Overhead { of: "untraced_ns" }),
    g("obs", "dropped", Rule::AtMost(0.0)),
    g("obs", "untraced_ns", SLOWER),
    g("obs", "traced_ns", SLOWER),
    g("obs", "drain_ns", SLOWER),
    g("serve", "achieved_rps", Rule::AtLeast(MIN_RPS)),
    g("serve", "p99_us", Rule::AtMost(MAX_P99_US as f64)),
    g(
        "serve",
        "closed_p99_us",
        Rule::AtMost(MAX_CLOSED_P99_US as f64),
    ),
    g("serve", "hit_ratio", Rule::AtLeast(MIN_HIT_RATIO)),
    g("serve", "errors", Rule::AtMost(0.0)),
    g("serve", "achieved_rps", Rule::Faster),
    g(
        "serve",
        "p99_us",
        Rule::Slower {
            slack: P99_NOISE_US as f64,
        },
    ),
];

/// One evaluated bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// `suite workload/jobs` of the fresh row.
    pub row: String,
    /// The bounded metric.
    pub metric: &'static str,
    /// The fresh value (a ratio for an overhead bound).
    pub value: f64,
    /// `"<="` or `">="`.
    pub op: &'static str,
    /// The bound the value is held to.
    pub bound: f64,
    /// Where the bound comes from, for the report.
    pub basis: String,
    /// Whether the bound was violated.
    pub failed: bool,
}

impl Gate {
    fn check(&self, row: &Row, base: Option<&Row>, limits: Limits) -> Option<Check> {
        let fresh = row.metric(self.metric);
        let t = limits.threshold;
        let (value, op, bound, basis) = match self.rule {
            Rule::AtMost(c) => (fresh, "<=", c, "ceiling".to_string()),
            Rule::AtLeast(c) => (fresh, ">=", c, "floor".to_string()),
            Rule::Overhead { of } => (
                fresh / row.metric(of).max(1.0),
                "<=",
                limits.obs_budget,
                format!("budget on {} / {of}", self.metric),
            ),
            Rule::Peak => {
                let b = base?.metric(self.metric);
                if b == 0.0 || fresh == 0.0 {
                    return None;
                }
                let basis = format!("{PEAK_BUDGET:.2} x baseline {}", fmt_num(b));
                (fresh, "<=", b * PEAK_BUDGET, basis)
            }
            Rule::Slower { .. } | Rule::Faster => {
                let b = base?.metric(self.metric);
                if b == 0.0 && fresh == 0.0 {
                    return None;
                }
                let basis = format!("baseline {} ", fmt_num(b));
                match self.rule {
                    Rule::Slower { slack } if slack > 0.0 => {
                        let basis = format!("{basis}x {t:.2} + {}", fmt_num(slack));
                        (fresh, "<=", b * t + slack, basis)
                    }
                    Rule::Slower { .. } => (fresh, "<=", b * t, format!("{basis}x {t:.2}")),
                    _ => (fresh, ">=", b / t, format!("{basis}/ {t:.2}")),
                }
            }
        };
        let ok = if op == "<=" {
            value <= bound
        } else {
            value >= bound
        };
        Some(Check {
            row: format!("{} {}", row.suite, row.label()),
            metric: self.metric,
            value,
            op,
            bound,
            basis,
            failed: !ok,
        })
    }
}

/// A whole-run failure: nothing matched or nothing applied.
fn unmet(metric: &'static str, basis: &str) -> Check {
    Check {
        row: "-".into(),
        metric,
        value: 0.0,
        op: ">=",
        bound: 1.0,
        basis: basis.into(),
        failed: true,
    }
}

/// Evaluates every `GATES` entry on every fresh row, cross-run entries
/// against the `baseline` row with the same `(suite, workload, jobs)`
/// (`None` when no baseline file exists: in-run bounds only). A run is
/// within its bounds when no returned check failed.
pub fn gate(fresh: &[Row], baseline: Option<&[Row]>, limits: Limits) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut matched = 0;
    for row in fresh {
        let base = baseline.and_then(|rows| {
            rows.iter()
                .find(|b| b.suite == row.suite && b.workload == row.workload && b.jobs == row.jobs)
        });
        matched += usize::from(base.is_some());
        for entry in GATES.iter().filter(|e| e.suite == row.suite) {
            checks.extend(entry.check(row, base, limits));
        }
    }
    if baseline.is_some() && matched == 0 {
        checks.push(unmet(
            "matched_rows",
            "fresh rows sharing (workload, jobs) with the baseline",
        ));
    }
    if checks.is_empty() {
        checks.push(unmet("checks", "bounds that applied to the fresh rows"));
    }
    checks
}

/// A number for the report: integers without a fraction, the rest to
/// four places.
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMITS: Limits = Limits {
        threshold: 2.0,
        obs_budget: 1.10,
    };

    fn pipeline() -> Row {
        Row::new("pipeline", "montage", 1033, 2044, 0, 40)
            .with("single_shot_ns", 600_000.0)
            .with("context_reuse_ns", 590_000.0)
            .with("threaded_4_ns", 700_000.0)
            .with("reuse_speedup", 1.0169)
            .with("parse_jobs", 99_892.0)
            .with("parse_iters", 5.0)
            .with("parse_dagman_ns", 200_000_000.0)
            .with("parse_json_ns", 160_000_000.0)
            .with("parse_edges_ns", 100_000_000.0)
    }

    fn scaling(workload: &str, jobs: u64, pipeline_ns: f64, parse_ns: f64, peak: f64) -> Row {
        Row::new("scaling", workload, jobs, jobs * 2, 4, 20)
            .with("pipeline_ns", pipeline_ns)
            .with("sim_ns", if parse_ns > 0.0 { 0.0 } else { 250_000.0 })
            .with("parse_ns", parse_ns)
            .with("peak_bytes", peak)
    }

    fn obs(jobs: u64, untraced: f64, traced: f64, sampled: f64) -> Row {
        Row::new("obs", "montage", jobs, 0, 0, 11)
            .with("untraced_ns", untraced)
            .with("traced_ns", traced)
            .with("sampled_ns", sampled)
            .with("drain_ns", 60_000_000.0)
            .with("events", 400_000.0)
            .with("dropped", 0.0)
    }

    fn serve() -> Row {
        Row::new("serve", "montage", 99, 0, 2, 3)
            .with("achieved_rps", 10_499.8)
            .with("p99_us", 1_973.0)
            .with("closed_p99_us", 121.0)
            .with("hit_ratio", 0.95)
            .with("errors", 0.0)
    }

    /// The failed checks as `(metric, row)` pairs.
    fn failures(
        fresh: &[Row],
        baseline: Option<&[Row]>,
        limits: Limits,
    ) -> Vec<(&'static str, String)> {
        gate(fresh, baseline, limits)
            .into_iter()
            .filter(|c| c.failed)
            .map(|c| (c.metric, c.row))
            .collect()
    }

    /// Sets one metric of a row.
    fn set(row: &Row, metric: &str, value: f64) -> Row {
        row.clone().with(metric, value)
    }

    #[test]
    fn compare_flags_only_threshold_breaches() {
        let base = [pipeline()];
        let checks = gate(&base, Some(&base), LIMITS);
        assert_eq!(checks.len(), 6, "six pipeline metrics are gated");
        assert!(checks.iter().all(|c| !c.failed));
        for metric in [
            "single_shot_ns",
            "context_reuse_ns",
            "threaded_4_ns",
            "parse_dagman_ns",
            "parse_json_ns",
            "parse_edges_ns",
        ] {
            let b = base[0].metric(metric);
            let at = [set(&base[0], metric, b * 2.0)];
            assert!(
                failures(&at, Some(&base), LIMITS).is_empty(),
                "{metric} at 2x"
            );
            let past = [set(&base[0], metric, b * 2.0 + 1.0)];
            assert_eq!(
                failures(&past, Some(&base), LIMITS),
                [(metric, "pipeline montage/1033".to_string())],
            );
            let faster = [set(&base[0], metric, b / 2.0)];
            assert!(
                failures(&faster, Some(&base), LIMITS).is_empty(),
                "speedups never fail"
            );
        }
        // The threshold is the setting that scales the bound.
        let slow = [set(&base[0], "single_shot_ns", 600_000.0 * 2.5)];
        let loose = Limits {
            threshold: 3.0,
            ..LIMITS
        };
        assert!(failures(&slow, Some(&base), loose).is_empty());
    }

    #[test]
    fn memory_gate_compares_matched_nonzero_peaks() {
        let base = [scaling("montage", 1008, 500_000.0, 0.0, 1_000_000.0)];
        let at = [set(&base[0], "peak_bytes", 1_500_000.0)];
        assert!(failures(&at, Some(&base), LIMITS).is_empty());
        let past = [set(&base[0], "peak_bytes", 1_500_001.0)];
        assert_eq!(
            failures(&past, Some(&base), LIMITS),
            [("peak_bytes", "scaling montage/1008".to_string())]
        );
        // The peak budget is fixed; the time threshold does not move it.
        let loose = Limits {
            threshold: 10.0,
            ..LIMITS
        };
        assert_eq!(failures(&past, Some(&base), loose).len(), 1);
        // A run without the counting allocator records 0 and is skipped,
        // on either side.
        let unmeasured = [set(&base[0], "peak_bytes", 0.0)];
        let count = |fresh: &[Row], base: &[Row]| {
            gate(fresh, Some(base), LIMITS)
                .iter()
                .filter(|c| c.metric == "peak_bytes")
                .count()
        };
        assert_eq!(count(&unmeasured, &base), 0);
        assert_eq!(count(&base, &unmeasured), 0);
        assert_eq!(count(&base, &base), 1);
    }

    #[test]
    fn parse_rows_compare_parse_ns_only() {
        let base = [scaling("dagman_parse", 10_000_000, 0.0, 100.0, 1.0)];
        let checks = gate(&base, Some(&base), LIMITS);
        let metrics: Vec<_> = checks.iter().map(|c| c.metric).collect();
        assert_eq!(
            metrics,
            ["parse_ns", "peak_bytes"],
            "pipeline_ns and sim_ns are 0 on both sides"
        );
        let past = [set(&base[0], "parse_ns", 201.0)];
        assert_eq!(
            failures(&past, Some(&base), LIMITS),
            [("parse_ns", "scaling dagman_parse/10000000".to_string())]
        );
        // Zero on one side only is still checked: a pipeline row that
        // suddenly reports parse time fails.
        let changed = [set(&base[0], "pipeline_ns", 1.0)];
        assert_eq!(failures(&changed, Some(&base), LIMITS)[0].0, "pipeline_ns");
    }

    #[test]
    fn scaling_times_fail_just_past_the_threshold() {
        let base = [scaling("layered", 1000, 700_000.0, 0.0, 2_000_000.0)];
        for metric in ["pipeline_ns", "sim_ns"] {
            let b = base[0].metric(metric);
            let at = [set(&base[0], metric, b * 2.0)];
            assert!(
                failures(&at, Some(&base), LIMITS).is_empty(),
                "{metric} at 2x"
            );
            let past = [set(&base[0], metric, b * 2.0 + 1.0)];
            assert_eq!(
                failures(&past, Some(&base), LIMITS),
                [(metric, "scaling layered/1000".to_string())]
            );
        }
    }

    #[test]
    fn compare_matches_rows_by_identity_and_skips_unmatched() {
        let base = [
            scaling("montage", 1008, 500_000.0, 0.0, 1_000_000.0),
            scaling("layered", 1000, 700_000.0, 0.0, 2_000_000.0),
            obs(99_892, 100.0, 105.0, 101.0),
            obs(998_866, 1_000.0, 1_080.0, 1_020.0),
        ];
        // A smoke run: the montage row 3x slower, the layered row renamed
        // (no baseline row, so no cross-run check), the big obs tier not
        // measured.
        let fresh = [
            set(&base[0], "pipeline_ns", 1_500_000.0),
            Row {
                workload: "other".into(),
                ..base[1].clone()
            },
            set(&base[2], "untraced_ns", 300.0),
        ];
        let checks = gate(&fresh, Some(&base), LIMITS);
        let cross: Vec<_> = checks
            .iter()
            .filter(|c| c.basis.starts_with("baseline") || c.basis.contains("x baseline"))
            .map(|c| (c.row.as_str(), c.metric))
            .collect();
        assert_eq!(
            cross,
            [
                ("scaling montage/1008", "pipeline_ns"),
                ("scaling montage/1008", "sim_ns"),
                ("scaling montage/1008", "peak_bytes"),
                ("obs montage/99892", "untraced_ns"),
                ("obs montage/99892", "traced_ns"),
                ("obs montage/99892", "drain_ns"),
            ]
        );
        let failed: Vec<_> = checks
            .iter()
            .filter(|c| c.failed)
            .map(|c| (c.row.as_str(), c.metric))
            .collect();
        assert_eq!(
            failed,
            [
                ("scaling montage/1008", "pipeline_ns"),
                ("obs montage/99892", "untraced_ns")
            ]
        );
    }

    #[test]
    fn a_baseline_sharing_no_row_fails_the_gate() {
        let base = [pipeline()];
        let moved = [Row {
            jobs: 2_000,
            ..pipeline()
        }];
        assert_eq!(
            failures(&moved, Some(&base), LIMITS),
            [("matched_rows", "-".to_string())]
        );
        // Without a baseline file the in-run bounds still run; a pipeline
        // row has none, so nothing was checked, which also fails.
        assert_eq!(
            failures(&moved, None, LIMITS),
            [("checks", "-".to_string())]
        );
        assert_eq!(
            failures(&[], Some(&base), LIMITS),
            [("matched_rows", "-".to_string())]
        );
        // In-run bounds need no baseline.
        let broken = [set(&serve(), "errors", 1.0)];
        assert_eq!(
            failures(&broken, None, LIMITS),
            [("errors", "serve montage/99".to_string())]
        );
    }

    #[test]
    fn a_missing_gated_metric_fails() {
        let mut row = pipeline();
        row.metrics.remove("parse_json_ns");
        assert_eq!(
            failures(&[row], Some(&[pipeline()]), LIMITS),
            [("parse_json_ns", "pipeline montage/1033".to_string())]
        );
        let mut row = serve();
        row.metrics.remove("errors");
        assert_eq!(
            failures(&[row], None, LIMITS),
            [("errors", "serve montage/99".to_string())]
        );
    }

    #[test]
    fn overhead_gate_passes_within_budget_and_fails_beyond() {
        let rows = [
            obs(99_892, 100.0, 110.0, 101.0),
            obs(998_866, 1_000.0, 1_080.0, 1_100.0),
        ];
        let checks = gate(&rows, None, LIMITS);
        assert_eq!(checks.len(), 6, "two rows x three in-run bounds");
        assert!(checks.iter().all(|c| !c.failed), "{checks:?}");
        let past = [
            obs(99_892, 100.0, 110.1, 101.0),
            obs(998_866, 1_000.0, 1_080.0, 1_100.1),
        ];
        assert_eq!(
            failures(&past, None, LIMITS),
            [
                ("traced_ns", "obs montage/99892".to_string()),
                ("sampled_ns", "obs montage/998866".to_string())
            ]
        );
        // The budget is the setting that scales the ratio bound.
        let relaxed = Limits {
            obs_budget: 1.5,
            ..LIMITS
        };
        assert!(failures(&past, None, relaxed).is_empty());
        // Cross-run: each wall time within the threshold of its baseline.
        let base = [obs(99_892, 100.0, 105.0, 101.0)];
        for metric in ["untraced_ns", "traced_ns", "drain_ns"] {
            let b = base[0].metric(metric);
            let fresh = [set(&base[0], metric, b * 2.0)];
            let ok = gate(&fresh, Some(&base), LIMITS);
            assert!(
                ok.iter()
                    .filter(|c| c.basis.starts_with("baseline"))
                    .all(|c| !c.failed),
                "{metric} at 2x"
            );
            let fresh = [set(&base[0], metric, b * 2.0 + 1.0)];
            assert!(
                gate(&fresh, Some(&base), LIMITS)
                    .iter()
                    .any(|c| c.metric == metric && c.basis.starts_with("baseline") && c.failed),
                "{metric} past 2x"
            );
        }
    }

    #[test]
    fn any_dropped_event_fails_the_gate() {
        let row = obs(99_892, 100.0, 105.0, 101.0);
        assert!(failures(std::slice::from_ref(&row), None, LIMITS).is_empty());
        let dropped = [set(&row, "dropped", 1.0)];
        assert_eq!(
            failures(&dropped, None, LIMITS),
            [("dropped", "obs montage/99892".to_string())]
        );
    }

    #[test]
    fn floors_flag_each_violation() {
        assert!(failures(&[serve()], None, LIMITS).is_empty());
        for (metric, at, past) in [
            ("achieved_rps", MIN_RPS, MIN_RPS - 0.1),
            ("p99_us", MAX_P99_US as f64, MAX_P99_US as f64 + 1.0),
            (
                "closed_p99_us",
                MAX_CLOSED_P99_US as f64,
                MAX_CLOSED_P99_US as f64 + 1.0,
            ),
            ("hit_ratio", MIN_HIT_RATIO, MIN_HIT_RATIO - 0.0001),
            ("errors", 0.0, 1.0),
        ] {
            assert!(
                failures(&[set(&serve(), metric, at)], None, LIMITS).is_empty(),
                "{metric} at its floor"
            );
            assert_eq!(
                failures(&[set(&serve(), metric, past)], None, LIMITS),
                [(metric, "serve montage/99".to_string())],
                "{metric} past its floor"
            );
        }
    }

    #[test]
    fn baseline_comparison_guards_both_directions() {
        // Throughput may fall to baseline / threshold, not below. The
        // baseline is raised well past the floor so only the relative
        // bound can trip.
        let high = [set(&serve(), "achieved_rps", 40_000.0)];
        assert!(failures(
            &[set(&serve(), "achieved_rps", 20_000.0)],
            Some(&high),
            LIMITS
        )
        .is_empty());
        assert_eq!(
            failures(
                &[set(&serve(), "achieved_rps", 19_999.9)],
                Some(&high),
                LIMITS
            ),
            [("achieved_rps", "serve montage/99".to_string())]
        );
        // p99 may grow to baseline x threshold + the noise allowance.
        let base = [serve()];
        let p99 = base[0].metric("p99_us");
        let bound = p99 * 2.0 + P99_NOISE_US as f64;
        assert!(failures(&[set(&base[0], "p99_us", bound)], Some(&base), LIMITS).is_empty());
        assert_eq!(
            failures(&[set(&base[0], "p99_us", bound + 1.0)], Some(&base), LIMITS),
            [("p99_us", "serve montage/99".to_string())]
        );
    }
}
