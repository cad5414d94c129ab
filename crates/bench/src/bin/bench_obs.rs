//! Measures traced-vs-untraced pipeline + simulator wall time at the
//! 10⁵/10⁶-job tiers and writes `BENCH_obs.json`.
//!
//! ```text
//! bench_obs [--max-jobs N] [--out FILE]
//! ```
//!
//! * `--max-jobs N` — skip tiers above `N` jobs (CI smoke runs pass
//!   `100000` to cover only the cheap tier)
//! * `--out FILE`   — output path (default `BENCH_obs.json`)
//!
//! Traced runs go through the production trace pipeline — the one
//! `prio simulate --trace-out` uses, its writer thread draining
//! concurrently — into a discarding sink. Gate a run with
//! `bench_check FILE`: the traced (and sampled) producing-phase wall
//! time must stay within `--obs-budget` (default 1.10×) of the untraced
//! run and the ring must drop nothing; `drain_ns`, the time `finish`
//! blocks on the writer's residual drain, is recorded per row and
//! guarded cross-run against the committed baseline.

use prio_bench::{obs_overhead, record};
use std::process::ExitCode;

const DEFAULT_OUT: &str = "BENCH_obs.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut max_jobs: Option<usize> = None;
    let mut out = DEFAULT_OUT.to_string();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {} requires a value", argv[i]))
        };
        let result = match argv[i].as_str() {
            "--max-jobs" => value(i).and_then(|v| {
                v.parse()
                    .map(|n| max_jobs = Some(n))
                    .map_err(|_| format!("--max-jobs: cannot parse {v:?}"))
            }),
            "--out" => value(i).map(|v| out = v),
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(msg) = result {
            eprintln!("bench_obs: error: {msg}");
            eprintln!("usage: bench_obs [--max-jobs N] [--out FILE]");
            return ExitCode::from(2);
        }
        i += 2;
    }

    let rows = obs_overhead::measure(max_jobs, |label| {
        eprintln!("bench_obs: measuring {label}");
    });
    for row in &rows {
        let m = |name| row.metric(name);
        eprintln!(
            "bench_obs: {:<8} {:>8} jobs  untraced {:>13} ns  traced {:>13} ns ({:.3}x)  \
             sampled {:>13} ns ({:.3}x)  drain {:>13} ns ({} events)  dropped {}",
            row.workload,
            row.jobs,
            m("untraced_ns"),
            m("traced_ns"),
            m("traced_ns") / m("untraced_ns").max(1.0),
            m("sampled_ns"),
            m("sampled_ns") / m("untraced_ns").max(1.0),
            m("drain_ns"),
            m("events"),
            m("dropped")
        );
    }
    if let Err(e) = record::save(&out, &rows) {
        eprintln!("bench_obs: error: {e}");
        return ExitCode::from(2);
    }
    eprintln!("bench_obs: wrote {out}");
    ExitCode::SUCCESS
}
