//! Pipeline-throughput measurement, behind the `bench_pipeline` binary.
//!
//! The measurement times the PRIO pipeline on a Montage-like dag (~1k
//! jobs) in three configurations — single-shot, context reuse, threaded
//! Step 3 — interleaved round-robin so background load biases no variant,
//! reporting best-of-N wall time. A second tier times each frontend's
//! parser (DAGMan vs JSON vs edge list) importing the same ~10^5-job
//! Montage-like workflow. Both tiers land in one `pipeline` [`Row`]; the
//! parse tier's size and rounds are its `parse_jobs` and `parse_iters`
//! metrics.

use crate::record::Row;
use crate::{best_ns_interleaved_n, timed};
use prio_core::prio::{PrioOptions, Prioritizer};
use prio_core::PrioContext;
use prio_ir::{FormatId, Workflow};
use prio_workloads::montage::{montage, MontageParams};

/// Warm-up rounds before timing starts.
pub const WARMUP: usize = 3;
/// Timed rounds; the metric is the minimum over them.
pub const ITERS: usize = 40;
/// Target size of the parse-tier workflow (the 10^5 Montage-like dag).
pub const PARSE_TARGET_JOBS: usize = 100_000;
/// Warm-up rounds for the parse tier (each round parses ~10^5 jobs three
/// ways, so fewer rounds than the pipeline tier).
pub const PARSE_WARMUP: usize = 1;
/// Timed rounds for the parse tier.
pub const PARSE_ITERS: usize = 5;

/// Runs the measurement on the standard Montage-like dag, with the parse
/// tier at [`PARSE_TARGET_JOBS`].
pub fn measure() -> Row {
    measure_with_parse_target(PARSE_TARGET_JOBS)
}

/// [`measure`] with a caller-chosen parse-tier size (tests use a small
/// one; the committed baseline always uses [`PARSE_TARGET_JOBS`]).
pub fn measure_with_parse_target(parse_target: usize) -> Row {
    let dag = montage(MontageParams::scaled(0.13));
    let serial = Prioritizer::new();
    let threaded_prio = Prioritizer::with_options(PrioOptions {
        threads: 4,
        ..PrioOptions::default()
    });
    let mut ctx = PrioContext::new();
    let mut tctx = PrioContext::new();

    let mut run_single = || {
        timed(|| {
            serial.prioritize(&dag).unwrap();
        })
    };
    let mut run_reuse = || {
        timed(|| {
            serial.prioritize_in(&dag, &mut ctx).unwrap();
        })
    };
    let mut run_threaded = || {
        timed(|| {
            threaded_prio.prioritize_in(&dag, &mut tctx).unwrap();
        })
    };
    let best = best_ns_interleaved_n(
        &mut [&mut run_single, &mut run_reuse, &mut run_threaded],
        WARMUP,
        ITERS,
    );
    let (single_shot, context_reuse) = (best[0], best[1]);
    let (parse_jobs, parse_best) = measure_parse_tier(parse_target);

    // Threads 0: the row's configurations are serial except the one its
    // `threaded_4_ns` name gives a thread count.
    Row::new(
        "pipeline",
        "montage",
        dag.num_nodes() as u64,
        dag.num_arcs() as u64,
        0,
        ITERS as u64,
    )
    .with("single_shot_ns", single_shot as f64)
    .with("context_reuse_ns", context_reuse as f64)
    .with("threaded_4_ns", best[2] as f64)
    .with(
        "reuse_speedup",
        single_shot as f64 / context_reuse.max(1) as f64,
    )
    .with("parse_jobs", parse_jobs as f64)
    .with("parse_iters", PARSE_ITERS as f64)
    .with("parse_dagman_ns", parse_best[0] as f64)
    .with("parse_json_ns", parse_best[1] as f64)
    .with("parse_edges_ns", parse_best[2] as f64)
}

/// Times each frontend importing the same ~10^5-job Montage-like workflow
/// (exported once per format beforehand), interleaved like the pipeline
/// tier. Returns the job count and best-of-N per format in
/// dagman/json/edges order.
fn measure_parse_tier(target: usize) -> (u64, Vec<u64>) {
    let wf = Workflow::synthetic(crate::scaling::montage_tier(target));
    let reg = prio_dagman::registry();
    let texts: Vec<(FormatId, String)> = [FormatId::Dagman, FormatId::Json, FormatId::Edges]
        .into_iter()
        .map(|id| {
            let f = reg.get(id).expect("builtin frontend registered");
            (id, f.export(&wf, wf.priorities()))
        })
        .collect();
    let mut runs: Vec<Box<dyn FnMut() -> u64>> = texts
        .iter()
        .map(|(id, text)| {
            let f = reg.get(*id).expect("builtin frontend registered");
            Box::new(move || {
                timed(|| {
                    std::hint::black_box(f.import(text).expect("own export re-imports"));
                })
            }) as Box<dyn FnMut() -> u64>
        })
        .collect();
    let mut fs: Vec<&mut dyn FnMut() -> u64> = runs.iter_mut().map(|f| f.as_mut() as _).collect();
    let best = best_ns_interleaved_n(&mut fs, PARSE_WARMUP, PARSE_ITERS);
    (wf.num_jobs() as u64, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gate, Limits};

    #[test]
    fn measurement_smoke_is_consistent() {
        // Not a timing assertion (CI machines vary wildly) — just that the
        // measurement runs and produces internally consistent fields. The
        // parse tier is shrunk so the debug-mode test stays fast.
        let b = measure_with_parse_target(2_000);
        assert_eq!(
            (b.suite.as_str(), b.workload.as_str()),
            ("pipeline", "montage")
        );
        assert!(b.jobs > 0 && b.arcs > 0 && b.host_cores > 0);
        for metric in ["single_shot_ns", "context_reuse_ns", "threaded_4_ns"] {
            assert!(b.metric(metric) > 0.0, "{metric}");
        }
        let expected = b.metric("single_shot_ns") / b.metric("context_reuse_ns").max(1.0);
        assert!((b.metric("reuse_speedup") - expected).abs() < 1e-9);
        assert!(b.metric("parse_jobs") >= 2_000.0);
        for metric in ["parse_dagman_ns", "parse_json_ns", "parse_edges_ns"] {
            assert!(b.metric(metric) > 0.0, "{metric}");
        }
        // Every gated pipeline metric is present: the row gates against
        // itself with no failure.
        let rows = [b];
        let checks = gate(&rows, Some(&rows), Limits::default());
        assert_eq!(checks.len(), 6);
        assert!(checks.iter().all(|c| !c.failed), "{checks:?}");
    }
}
