//! Pipeline throughput measurement for CI and the README: times the PRIO
//! pipeline on a Montage-like dag (~1k jobs) in three configurations —
//! single-shot (fresh scratch each run), context reuse
//! ([`prio_core::prio::Prioritizer::prioritize_in`] with one persistent
//! [`prio_core::PrioContext`]), and the threaded Step 3 — plus the
//! per-frontend parse tier, and writes one `pipeline` row.
//!
//! ```text
//! bench_pipeline [--out FILE]
//! ```
//!
//! * `--out FILE` — output path (default `BENCH_pipeline.json`)
//!
//! Gate a run with `bench_check FILE`.

use prio_bench::{pipeline, record};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out = match argv.as_slice() {
        [] => "BENCH_pipeline.json".to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: bench_pipeline [--out FILE]");
            return ExitCode::from(2);
        }
    };

    let row = pipeline::measure();
    eprintln!(
        "bench_pipeline: Montage-like dag, {} jobs, {} arcs",
        row.jobs, row.arcs
    );
    let rows = [row];
    print!("{}", record::to_json(&rows));
    if let Err(e) = record::save(&out, &rows) {
        eprintln!("bench_pipeline: error: {e}");
        return ExitCode::from(2);
    }
    eprintln!("bench_pipeline: wrote {out}");

    let (single, reuse) = (
        rows[0].metric("single_shot_ns"),
        rows[0].metric("context_reuse_ns"),
    );
    assert!(
        reuse <= single,
        "context reuse ({reuse} ns) must not be slower than single-shot ({single} ns)"
    );
    ExitCode::SUCCESS
}
