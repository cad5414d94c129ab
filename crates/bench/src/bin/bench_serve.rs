//! Measures sustained daemon throughput and latency and writes
//! `BENCH_serve.json` — the committed baseline `bench_check` guards.
//!
//! ```text
//! cargo run -p prio-bench --release --bin bench_serve -- \
//!     [--rate N] [--duration-secs S] [--serve-threads N] [--unique N] \
//!     [--fresh-every N] [--repeat N] [--out FILE]
//! ```
//!
//! Starts an in-process daemon on an ephemeral port and drives it
//! open-loop with a duplicate-heavy mix of ~100-job Montage-like dags,
//! then closed-loop (one request in flight) over the warm pool (see
//! `prio_bench::serve`). The measurement runs `--repeat` times
//! (default 3) and the best run by p99 is kept — open-loop tails on a
//! shared runner are scheduler-noise dominated. Prints the measurement
//! as a table and writes the JSON to `--out` (default
//! `BENCH_serve.json`). Exits 1 if any absolute floor (≥10k req/s
//! sustained, bounded p99, closed-loop p99 ≤ 10 ms, hit ratio ≥ 0.90,
//! zero errors) is violated — the gate's in-run bounds, without a
//! baseline — so CI never commits a baseline that fails its own gate.

use prio_bench::gate::{gate, Limits};
use prio_bench::record;
use prio_bench::serve::{measure_best, ServeBenchOptions};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ServeBenchOptions::default();
    let mut out = String::from("BENCH_serve.json");
    let mut repeat = 3usize;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("bench_serve: {} requires a value", args[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        let parse_u64 = |i: usize| -> u64 {
            value(i).parse().unwrap_or_else(|_| {
                eprintln!("bench_serve: cannot parse value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--rate" => {
                opts.rate = parse_u64(i);
                i += 2;
            }
            "--duration-secs" => {
                opts.duration = Duration::from_secs(parse_u64(i));
                i += 2;
            }
            "--serve-threads" => {
                opts.threads = parse_u64(i) as usize;
                i += 2;
            }
            "--unique" => {
                opts.unique = parse_u64(i) as usize;
                i += 2;
            }
            "--fresh-every" => {
                opts.fresh_every = parse_u64(i) as usize;
                i += 2;
            }
            "--repeat" => {
                repeat = parse_u64(i) as usize;
                i += 2;
            }
            "--out" => {
                out = value(i);
                i += 2;
            }
            other => {
                eprintln!("bench_serve: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if opts.rate == 0
        || opts.threads == 0
        || opts.unique == 0
        || opts.fresh_every == 0
        || repeat == 0
    {
        eprintln!(
            "bench_serve: --rate/--serve-threads/--unique/--fresh-every/--repeat must be nonzero"
        );
        return ExitCode::from(2);
    }

    let row = measure_best(&opts, repeat);
    let m = |name| row.metric(name);
    println!(
        "bench_serve: {} x {}-job {} dags, {} threads, offered {} req/s for {:.1}s",
        m("unique_dags"),
        row.jobs,
        row.workload,
        row.threads,
        m("offered_rps"),
        m("duration_ns") / 1e9,
    );
    println!(
        "bench_serve: {} sent, {} ok, {} overloaded, {} errors",
        m("requests"),
        m("completed"),
        m("overloaded"),
        m("errors")
    );
    println!(
        "bench_serve: sustained {:.0} req/s, latency p50 {}us p90 {}us p99 {}us, hit ratio {:.3}",
        m("achieved_rps"),
        m("p50_us"),
        m("p90_us"),
        m("p99_us"),
        m("hit_ratio")
    );
    println!(
        "bench_serve: closed loop (1 in flight) service time p50 {}us p99 {}us",
        m("closed_p50_us"),
        m("closed_p99_us")
    );

    let rows = [row];
    if let Err(e) = record::save(&out, &rows) {
        eprintln!("bench_serve: cannot write {e}");
        return ExitCode::from(2);
    }
    println!("bench_serve: wrote {out}");

    let mut failed = false;
    for check in gate(&rows, None, Limits::default()) {
        if check.failed {
            eprintln!(
                "bench_serve: FLOOR VIOLATED: {} = {:.1} (bound {:.1})",
                check.metric, check.value, check.bound
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
