//! Bench-regression guard: re-measures the pipeline (or reads a fresh
//! measurement) and fails when any metric is slower than the committed
//! `BENCH_pipeline.json` baseline by more than the threshold.
//!
//! ```text
//! bench_check [--baseline FILE] [--fresh FILE] [--threshold F]
//!             [--scaling-baseline FILE] [--scaling-fresh FILE]
//!             [--obs-baseline FILE] [--obs-fresh FILE] [--obs-budget F]
//!             [--serve-baseline FILE] [--serve-fresh FILE]
//!             [--trace FILE]
//! ```
//!
//! * `--baseline FILE` — committed baseline (default `BENCH_pipeline.json`)
//! * `--fresh FILE`    — compare an existing measurement instead of
//!   re-measuring (useful when `bench_pipeline` already ran)
//! * `--threshold F`   — allowed slowdown factor, fresh/baseline
//!   (default 2.0: best-of-N on shared CI machines is noisy, so the guard
//!   catches order-of-magnitude regressions, not percent-level drift)
//! * `--scaling-fresh FILE` — additionally check a `bench_scaling` run
//!   against the committed scaling baseline; rows are matched by
//!   `(workload, jobs)`, so a `--max-jobs`-limited smoke run checks only
//!   the tiers it measured
//! * `--scaling-baseline FILE` — the scaling baseline
//!   (default `BENCH_scaling.json`; only read with `--scaling-fresh`)
//! * `--scaling-mem-threshold F` — allowed peak-bytes growth factor,
//!   fresh/baseline, for scaling rows where both runs measured a peak
//!   (default 1.5: allocator peaks are near-deterministic, so the
//!   committed peaks act as hard memory budgets for the big tiers — a
//!   10⁷-job parse that balloons past its budget fails even if it got
//!   faster)
//! * `--obs-fresh FILE` — additionally gate a `bench_obs` run: per row
//!   the traced (and sampled) wall time must stay within `--obs-budget`
//!   of the untraced time measured in the *same* run (machine speed
//!   cancels out of the ratio, so the budget is tight where the wall-time
//!   threshold cannot be), the default ring must have dropped 0 events,
//!   and — when rows match the committed baseline by `(workload, jobs)`
//!   — absolute times are also held to `--threshold`
//! * `--obs-baseline FILE` — the observability baseline
//!   (default `BENCH_obs.json`; only read with `--obs-fresh`)
//! * `--obs-budget F` — allowed traced/untraced overhead ratio
//!   (default 1.10: tracing must cost under 10%)
//! * `--serve-fresh FILE` — additionally gate a `bench_serve` run: the
//!   absolute floors always apply (sustained ≥ 10k req/s, open-loop
//!   p99 ≤ 100 ms, closed-loop p99 ≤ 10 ms, warm-cache hit ratio ≥ 0.90,
//!   zero errors), and throughput/p99 are
//!   also held to `--threshold` against the committed baseline
//! * `--serve-baseline FILE` — the serve baseline
//!   (default `BENCH_serve.json`; only read with `--serve-fresh`)
//! * `--trace FILE` — additionally stream a `--trace-out` JSONL file
//!   through the lifecycle analysis (the `prio trace` ingestion path),
//!   reporting event count and throughput; a malformed trace fails the
//!   check, so CI catches schema drift between writer and reader
//!
//! Exit codes: 0 within threshold, 1 regression, 2 usage/IO error.

use prio_bench::obs_overhead::{self, ObsBench};
use prio_bench::pipeline::{self, PipelineBench};
use prio_bench::scaling::{self, ScalingBench};
use prio_bench::serve::{self, ServeBench};
use std::process::ExitCode;

const DEFAULT_BASELINE: &str = "BENCH_pipeline.json";
const DEFAULT_SCALING_BASELINE: &str = "BENCH_scaling.json";
const DEFAULT_OBS_BASELINE: &str = "BENCH_obs.json";
const DEFAULT_SERVE_BASELINE: &str = "BENCH_serve.json";
const DEFAULT_THRESHOLD: f64 = 2.0;
const DEFAULT_OBS_BUDGET: f64 = 1.10;
const DEFAULT_SCALING_MEM_THRESHOLD: f64 = 1.5;

struct Options {
    baseline: String,
    fresh: Option<String>,
    scaling_baseline: String,
    scaling_fresh: Option<String>,
    scaling_mem_threshold: f64,
    obs_baseline: String,
    obs_fresh: Option<String>,
    obs_budget: f64,
    serve_baseline: String,
    serve_fresh: Option<String>,
    trace: Option<String>,
    threshold: f64,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        baseline: DEFAULT_BASELINE.into(),
        fresh: None,
        scaling_baseline: DEFAULT_SCALING_BASELINE.into(),
        scaling_fresh: None,
        scaling_mem_threshold: DEFAULT_SCALING_MEM_THRESHOLD,
        obs_baseline: DEFAULT_OBS_BASELINE.into(),
        obs_fresh: None,
        obs_budget: DEFAULT_OBS_BUDGET,
        serve_baseline: DEFAULT_SERVE_BASELINE.into(),
        serve_fresh: None,
        trace: None,
        threshold: DEFAULT_THRESHOLD,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {} requires a value", argv[i]))
        };
        match argv[i].as_str() {
            "--baseline" => {
                opts.baseline = value(i)?;
                i += 2;
            }
            "--fresh" => {
                opts.fresh = Some(value(i)?);
                i += 2;
            }
            "--scaling-baseline" => {
                opts.scaling_baseline = value(i)?;
                i += 2;
            }
            "--scaling-fresh" => {
                opts.scaling_fresh = Some(value(i)?);
                i += 2;
            }
            "--scaling-mem-threshold" => {
                let v = value(i)?;
                opts.scaling_mem_threshold = v
                    .parse()
                    .map_err(|_| format!("--scaling-mem-threshold: cannot parse {v:?}"))?;
                if opts.scaling_mem_threshold.is_nan() || opts.scaling_mem_threshold < 1.0 {
                    return Err(format!("--scaling-mem-threshold must be >= 1.0, got {v}"));
                }
                i += 2;
            }
            "--obs-baseline" => {
                opts.obs_baseline = value(i)?;
                i += 2;
            }
            "--obs-fresh" => {
                opts.obs_fresh = Some(value(i)?);
                i += 2;
            }
            "--obs-budget" => {
                let v = value(i)?;
                opts.obs_budget = v
                    .parse()
                    .map_err(|_| format!("--obs-budget: cannot parse {v:?}"))?;
                if opts.obs_budget.is_nan() || opts.obs_budget < 1.0 {
                    return Err(format!("--obs-budget must be >= 1.0, got {v}"));
                }
                i += 2;
            }
            "--serve-baseline" => {
                opts.serve_baseline = value(i)?;
                i += 2;
            }
            "--serve-fresh" => {
                opts.serve_fresh = Some(value(i)?);
                i += 2;
            }
            "--trace" => {
                opts.trace = Some(value(i)?);
                i += 2;
            }
            "--threshold" => {
                let v = value(i)?;
                opts.threshold = v
                    .parse()
                    .map_err(|_| format!("--threshold: cannot parse {v:?}"))?;
                if opts.threshold.is_nan() || opts.threshold < 1.0 {
                    return Err(format!("--threshold must be >= 1.0, got {v}"));
                }
                i += 2;
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn load(path: &str) -> Result<PipelineBench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    PipelineBench::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("bench_check: error: {msg}");
            }
            eprintln!(
                "usage: bench_check [--baseline FILE] [--fresh FILE] [--threshold F] \
                 [--scaling-baseline FILE] [--scaling-fresh FILE] [--scaling-mem-threshold F] \
                 [--obs-baseline FILE] [--obs-fresh FILE] [--obs-budget F] \
                 [--serve-baseline FILE] [--serve-fresh FILE] [--trace FILE]"
            );
            return ExitCode::from(2);
        }
    };

    let baseline = match load(&opts.baseline) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_check: error: {e}");
            return ExitCode::from(2);
        }
    };
    let fresh = match &opts.fresh {
        Some(path) => match load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!("bench_check: measuring (no --fresh file given)...");
            pipeline::measure()
        }
    };

    if baseline.jobs != fresh.jobs || baseline.workload != fresh.workload {
        eprintln!(
            "bench_check: warning: baseline is {} ({} jobs), fresh is {} ({} jobs) — \
             comparing anyway, but the workload changed",
            baseline.workload, baseline.jobs, fresh.workload, fresh.jobs
        );
    }

    let mut failed = false;
    for check in pipeline::compare(&baseline, &fresh, opts.threshold) {
        let verdict = if check.regressed { "REGRESSED" } else { "ok" };
        eprintln!(
            "bench_check: {:<17} baseline {:>10} ns, fresh {:>10} ns, ratio {:.2} (threshold {:.2}) {verdict}",
            check.name, check.baseline_ns, check.fresh_ns, check.ratio, opts.threshold
        );
        failed |= check.regressed;
    }
    if let Some(path) = &opts.scaling_fresh {
        let loaded = load_scaling(&opts.scaling_baseline).and_then(|baseline| {
            let fresh = load_scaling(path)?;
            Ok((baseline, fresh))
        });
        let (baseline, fresh) = match loaded {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        };
        let checks = scaling::compare_scaling(&baseline, &fresh, opts.threshold);
        if checks.is_empty() {
            eprintln!(
                "bench_check: warning: no scaling rows in {path} match the baseline \
                 — nothing checked"
            );
        }
        for (label, check) in checks {
            let verdict = if check.regressed { "REGRESSED" } else { "ok" };
            eprintln!(
                "bench_check: {label:<16} {:<12} baseline {:>13} ns, fresh {:>13} ns, ratio {:.2} (threshold {:.2}) {verdict}",
                check.name, check.baseline_ns, check.fresh_ns, check.ratio, opts.threshold
            );
            failed |= check.regressed;
        }
        // Memory budgets: the committed peaks bound the fresh peaks.
        for (label, check) in
            scaling::compare_scaling_memory(&baseline, &fresh, opts.scaling_mem_threshold)
        {
            let verdict = if check.regressed { "REGRESSED" } else { "ok" };
            eprintln!(
                "bench_check: {label:<16} {:<12} budget {:>13} B, fresh {:>13} B, ratio {:.2} (threshold {:.2}) {verdict}",
                check.name, check.baseline_ns, check.fresh_ns, check.ratio, opts.scaling_mem_threshold
            );
            failed |= check.regressed;
        }
    }

    if let Some(path) = &opts.obs_fresh {
        let fresh = match load_obs(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        };
        // The overhead budget gate is self-contained: it compares the
        // fresh run against its own untraced baseline, so it holds on
        // any machine, fast or slow.
        for (label, check) in obs_overhead::check_overhead(&fresh, opts.obs_budget) {
            let verdict = if check.regressed { "REGRESSED" } else { "ok" };
            if check.name == "dropped_events" {
                eprintln!(
                    "bench_check: {label:<16} {:<16} {} dropped (must be 0) {verdict}",
                    check.name, check.fresh_ns
                );
            } else {
                eprintln!(
                    "bench_check: {label:<16} {:<16} untraced {:>13} ns, fresh {:>13} ns, ratio {:.3} (budget {:.2}) {verdict}",
                    check.name, check.baseline_ns, check.fresh_ns, check.ratio, opts.obs_budget
                );
            }
            failed |= check.regressed;
        }
        // Absolute wall times are additionally held to the ordinary
        // threshold against the committed baseline when it exists.
        match load_obs(&opts.obs_baseline) {
            Ok(baseline) => {
                for (label, check) in obs_overhead::compare_obs(&baseline, &fresh, opts.threshold) {
                    let verdict = if check.regressed { "REGRESSED" } else { "ok" };
                    eprintln!(
                        "bench_check: {label:<16} {:<16} baseline {:>13} ns, fresh {:>13} ns, ratio {:.2} (threshold {:.2}) {verdict}",
                        check.name, check.baseline_ns, check.fresh_ns, check.ratio, opts.threshold
                    );
                    failed |= check.regressed;
                }
            }
            Err(e) => {
                eprintln!(
                    "bench_check: warning: {e} — budget gate ran, cross-run comparison skipped"
                );
            }
        }
    }

    if let Some(path) = &opts.serve_fresh {
        let fresh = match load_serve(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        };
        // The absolute floors hold regardless of any baseline: the
        // daemon must sustain the target rate with bounded tail latency
        // and a warm cache, and a load test that produced errors is not
        // a measurement at all.
        for check in serve::check_floors(&fresh) {
            let verdict = if check.failed { "REGRESSED" } else { "ok" };
            eprintln!(
                "bench_check: serve {:<21} value {:>12.1}, bound {:>10.1} {verdict}",
                check.name, check.value, check.bound
            );
            failed |= check.failed;
        }
        match load_serve(&opts.serve_baseline) {
            Ok(baseline) => {
                for check in serve::compare_serve(&baseline, &fresh, opts.threshold) {
                    let verdict = if check.failed { "REGRESSED" } else { "ok" };
                    eprintln!(
                        "bench_check: serve {:<21} value {:>12.1}, bound {:>10.1} (threshold {:.2}) {verdict}",
                        check.name, check.value, check.bound, opts.threshold
                    );
                    failed |= check.failed;
                }
            }
            Err(e) => {
                eprintln!(
                    "bench_check: warning: {e} — serve floors ran, cross-run comparison skipped"
                );
            }
        }
    }

    if let Some(path) = &opts.trace {
        match analyze_trace(path) {
            Ok(stats) => {
                let secs = stats.elapsed.as_secs_f64().max(1e-9);
                eprintln!(
                    "bench_check: trace {path}: {} records ({} lifecycle events, {} jobs) \
                     streamed in {:.1} ms ({:.0} records/s)",
                    stats.records,
                    stats.events,
                    stats.jobs,
                    secs * 1e3,
                    stats.records as f64 / secs
                );
                if stats.events == 0 {
                    eprintln!("bench_check: error: {path}: no lifecycle events in trace");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("bench_check: error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if failed {
        eprintln!(
            "bench_check: FAIL — a metric exceeded its threshold; if an absolute-time drift is \
             intentional, regenerate the baseline with `cargo run --release -p prio-bench --bin \
             bench_pipeline` (and `--bin bench_scaling` / `--bin bench_obs` / `--bin bench_serve` \
             for scaling/overhead/serve rows); an overhead-budget failure (ratio > {:.2}) means \
             tracing itself got more expensive and must be fixed, not re-baselined; a serve-floor \
             failure means the daemon missed its absolute targets and cannot be re-baselined away",
            opts.obs_budget
        );
        return ExitCode::from(1);
    }
    eprintln!("bench_check: all metrics within threshold");
    ExitCode::SUCCESS
}

fn load_scaling(path: &str) -> Result<ScalingBench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ScalingBench::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_obs(path: &str) -> Result<ObsBench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ObsBench::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_serve(path: &str) -> Result<ServeBench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    ServeBench::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

struct TraceStats {
    records: u64,
    events: u64,
    jobs: usize,
    elapsed: std::time::Duration,
}

/// Streams a `--trace-out` JSONL file through the same reader and event
/// decoder `prio trace` uses, counting records and distinct jobs. Any
/// parse or schema error fails the check — the committed trace format and
/// the reader must never drift apart.
fn analyze_trace(path: &str) -> Result<TraceStats, String> {
    use prio_sim::trace::TraceEvent;
    let reader = prio_obs::stream::open(path).map_err(|e| format!("{path}: {e}"))?;
    let start = std::time::Instant::now();
    let mut stats = TraceStats {
        records: 0,
        events: 0,
        jobs: 0,
        elapsed: std::time::Duration::ZERO,
    };
    for record in reader {
        let record = record.map_err(|e| format!("{path}: {e}"))?;
        stats.records += 1;
        let event = prio_sim::trace_json::event_from_value(&record.value)
            .map_err(|e| format!("{path}: line {}: {e}", record.line_no))?;
        if let Some(event) = event {
            stats.events += 1;
            let job = match event {
                TraceEvent::JobSubmitted { job, .. }
                | TraceEvent::JobEligible { job, .. }
                | TraceEvent::JobAssigned { job, .. }
                | TraceEvent::JobCompleted { job, .. }
                | TraceEvent::JobFailed { job, .. }
                | TraceEvent::JobRetried { job, .. } => Some(job.index()),
                TraceEvent::BatchArrived { .. }
                | TraceEvent::WorkerDown { .. }
                | TraceEvent::WorkerUp { .. } => None,
            };
            if let Some(j) = job {
                stats.jobs = stats.jobs.max(j + 1);
            }
        }
    }
    stats.elapsed = start.elapsed();
    Ok(stats)
}
