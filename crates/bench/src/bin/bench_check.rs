//! Bench-regression gate: holds fresh `BENCH_*.json` measurements to the
//! bounds of `prio_bench::gate`. It measures nothing itself.
//!
//! ```text
//! bench_check [--threshold F] [--obs-budget F] FRESH.json...
//! ```
//!
//! * `--threshold F`  — allowed slowdown factor of the cross-run bounds,
//!   fresh/baseline (default 2.0: best-of-N on shared CI machines is
//!   noisy, so the gate catches order-of-magnitude regressions, not
//!   percent-level drift)
//! * `--obs-budget F` — allowed traced/untraced ratio of the `obs` rows
//!   (default 1.10: tracing must cost under 10%)
//!
//! The rows of each file are gated, per suite, against
//! `BENCH_<suite>.json` in the current directory, matched by
//! `(workload, jobs)`. A file that shares no row with its existing
//! baseline fails. When the baseline file is missing, the in-run bounds
//! (absolute floors, overhead ratios, zero drops and errors) still run,
//! with a warning.
//!
//! Exit codes: 0 within every bound, 1 a bound failed, 2 usage/IO error.

use prio_bench::gate::{fmt_num, gate, Limits};
use prio_bench::record::{self, Row};
use std::path::Path;
use std::process::ExitCode;

fn parse_args(argv: &[String]) -> Result<(Limits, Vec<String>), String> {
    let mut limits = Limits::default();
    let mut files = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let slot = match flag {
            "--threshold" => &mut limits.threshold,
            "--obs-budget" => &mut limits.obs_budget,
            "--help" | "-h" => return Err(String::new()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f:?}")),
            file => {
                files.push(file.to_string());
                i += 1;
                continue;
            }
        };
        let v = argv
            .get(i + 1)
            .ok_or_else(|| format!("flag {flag} requires a value"))?;
        *slot = v
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {v:?}"))?;
        if slot.is_nan() || *slot < 1.0 {
            return Err(format!("{flag} must be >= 1.0, got {v}"));
        }
        i += 2;
    }
    if files.is_empty() {
        return Err("no fresh measurement given".into());
    }
    Ok((limits, files))
}

/// Gates one fresh file suite by suite; `Err` is a usage/IO error.
fn check_file(path: &str, limits: Limits) -> Result<bool, String> {
    let rows = record::load(path)?;
    let mut suites: Vec<&str> = Vec::new();
    for row in &rows {
        if !suites.contains(&row.suite.as_str()) {
            suites.push(&row.suite);
        }
    }
    if suites.is_empty() {
        return Err(format!("{path}: no rows"));
    }
    let mut failed = false;
    for suite in suites {
        let fresh: Vec<Row> = rows.iter().filter(|r| r.suite == suite).cloned().collect();
        let baseline_path = format!("BENCH_{suite}.json");
        let baseline = if Path::new(&baseline_path).exists() {
            eprintln!("bench_check: {path} ({suite}) against {baseline_path}");
            Some(record::load(&baseline_path)?)
        } else {
            eprintln!(
                "bench_check: warning: {baseline_path} not found — in-run bounds only for {path}"
            );
            None
        };
        for check in gate(&fresh, baseline.as_deref(), limits) {
            let verdict = if check.failed { "FAIL" } else { "ok" };
            eprintln!(
                "bench_check: {:<30} {:<16} {:>13} {} {:>13} ({}) {verdict}",
                check.row,
                check.metric,
                fmt_num(check.value),
                check.op,
                fmt_num(check.bound),
                check.basis
            );
            failed |= check.failed;
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (limits, files) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench_check: error: {msg}");
            }
            eprintln!("usage: bench_check [--threshold F] [--obs-budget F] FRESH.json...");
            return ExitCode::from(2);
        }
    };

    let mut failed = false;
    for path in &files {
        match check_file(path, limits) {
            Ok(f) => failed |= f,
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        eprintln!(
            "bench_check: FAIL — a metric is past its bound; if an absolute-time drift is \
             intentional, regenerate the baseline with its `bench_*` binary \
             (`cargo run --release -p prio-bench --bin bench_pipeline`, or bench_scaling / \
             bench_obs / bench_serve); an overhead-budget failure (ratio > {:.2}) means tracing \
             itself got more expensive and must be fixed, not re-baselined; a serve-floor \
             failure means the daemon missed its absolute targets and cannot be re-baselined away",
            limits.obs_budget
        );
        return ExitCode::from(1);
    }
    eprintln!("bench_check: all metrics within their bounds");
    ExitCode::SUCCESS
}
