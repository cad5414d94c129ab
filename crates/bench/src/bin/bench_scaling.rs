//! Measures pipeline + simulator wall time and peak allocator bytes at
//! the 10³–10⁷-job tiers, DAGMan parse + CSR build at 10⁷ (through
//! `parse_dagman_threads` and `to_dag`, the path `prio instrument` runs),
//! and writes `BENCH_scaling.json`.
//!
//! ```text
//! bench_scaling [--max-jobs N] [--threads N] [--parse-only] [--out FILE]
//! ```
//!
//! * `--max-jobs N` — skip tiers above `N` jobs (CI smoke runs pass
//!   `10000` to cover only the two cheap tiers)
//! * `--threads N`  — worker threads for the parallel pipeline stages
//!   (default 0 = serial; recorded in each row)
//! * `--parse-only` — measure only the `dagman_parse` rows (the
//!   time-boxed front-half smoke run)
//! * `--out FILE`   — output path (default `BENCH_scaling.json`)
//!
//! Gate a run against the committed baseline with `bench_check FILE`.

use prio_bench::{record, scaling};
use prio_obs::mem::CountingAllocator;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const DEFAULT_OUT: &str = "BENCH_scaling.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut max_jobs: Option<usize> = None;
    let mut threads = 0usize;
    let mut parse_only = false;
    let mut out = DEFAULT_OUT.to_string();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {} requires a value", argv[i]))
        };
        let mut consumed = 2;
        let result = match argv[i].as_str() {
            "--max-jobs" => value(i).and_then(|v| {
                v.parse()
                    .map(|n| max_jobs = Some(n))
                    .map_err(|_| format!("--max-jobs: cannot parse {v:?}"))
            }),
            "--threads" => value(i).and_then(|v| {
                v.parse()
                    .map(|n| threads = n)
                    .map_err(|_| format!("--threads: cannot parse {v:?}"))
            }),
            "--parse-only" => {
                parse_only = true;
                consumed = 1;
                Ok(())
            }
            "--out" => value(i).map(|v| out = v),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(msg) = result {
            eprintln!("bench_scaling: error: {msg}");
            eprintln!(
                "usage: bench_scaling [--max-jobs N] [--threads N] [--parse-only] [--out FILE]"
            );
            return ExitCode::from(2);
        }
        i += consumed;
    }

    let rows = scaling::measure(max_jobs, threads, parse_only, |label| {
        eprintln!("bench_scaling: measuring {label}");
    });
    for row in &rows {
        let front = if row.workload == "dagman_parse" {
            "parse"
        } else {
            "pipeline"
        };
        eprintln!(
            "bench_scaling: {:<12} {:>9} jobs  {front} {:>13} ns  sim {:>13} ns  peak {:>13} B",
            row.workload,
            row.jobs,
            row.metric(&format!("{front}_ns")),
            row.metric("sim_ns"),
            row.metric("peak_bytes")
        );
    }
    if let Err(e) = record::save(&out, &rows) {
        eprintln!("bench_scaling: error: {e}");
        return ExitCode::from(2);
    }
    eprintln!("bench_scaling: wrote {out}");
    ExitCode::SUCCESS
}
