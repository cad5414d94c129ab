//! Observability-overhead measurement: traced-vs-untraced pipeline+sim
//! wall time at the 10⁵/10⁶-job tiers, behind the `bench_obs` binary.
//!
//! Each row measures the same Montage-tier dag three ways:
//!
//! * **untraced** — prioritize + simulate, no trace consumer attached
//!   (the baseline everything is judged against);
//! * **traced** — prioritize + [`simulate_streamed`] through a full-rate
//!   [`StreamingTraceWriter`] into the production [`event_pipeline`] (the
//!   one `prio simulate --trace-out` runs, default ring, writer thread
//!   draining concurrently) over a discarding sink;
//! * **sampled** — the same with a 1/[`SAMPLE_MODULUS`] [`JobSampler`],
//!   the low-cost mode `--trace-sample` offers.
//!
//! ## What is gated vs. what is recorded
//!
//! The traced and sampled columns time the *producing phase*: from the
//! start of prioritization to the simulator's return, with the writer
//! thread encoding and discarding concurrently, exactly as it does under
//! `--trace-out`. Their ratio to the untraced column is what the
//! `budget` (default 1.10×) gates. On a host with a spare core the
//! writer runs beside the simulator and the ratio is the producer-side
//! cost — a sampler hash, a buffer append and an amortized ring push per
//! event; on a single core the writer's time-slices land inside it too.
//!
//! **`drain_ns`** is the time [`TracePipeline::finish`] then blocks: the
//! residual drain of whatever the writer had not caught up with when the
//! simulator returned, plus the join. It is recorded per row and guarded
//! cross-run against the committed baseline like any other wall time.
//! The `dropped` column (gated at 0) proves the production ring keeps
//! every event of a full-rate trace at these scales.
//!
//! The committed `BENCH_obs.json` is the contract. Rows are matched by
//! `(workload, jobs)` like the scaling rows, so a smoke run covering only
//! the 10⁵ tier still checks against the committed file.
//!
//! [`TracePipeline::finish`]: prio_obs::TracePipeline::finish

use crate::record::Row;
use crate::scaling::montage_tier;
use crate::{best_ns_interleaved_n, timed};
use prio_core::prio::Prioritizer;
use prio_graph::Dag;
use prio_obs::{JobSampler, JsonlSink, DEFAULT_RING_CAPACITY};
use prio_sim::engine::{simulate, simulate_streamed};
use prio_sim::model::GridModel;
use prio_sim::trace_json::{event_pipeline, StreamingTraceWriter};
use prio_sim::PolicySpec;

/// The job-count tiers, smallest first. Only the big tiers matter here:
/// per-event overhead is invisible under a small run's fixed costs.
pub const TIERS: [usize; 2] = [100_000, 1_000_000];

/// Sampling modulus of the `sampled` column.
pub const SAMPLE_MODULUS: u64 = 1_000;

/// Same arrival process as the scaling rows.
const SIM_SEED: u64 = 42;

/// Best-of-11 keeps the full run near two minutes while giving the
/// min estimator enough rounds to find quiet windows on a busy host —
/// the gated metric is a ratio of two ~1.5 s measurements, and on a
/// single-core machine any background process lands entirely on the
/// benchmarked thread, so each side of the ratio needs its own lucky
/// quiet window.
fn iters_for(_jobs: usize) -> usize {
    11
}

/// Measures one dag untraced / traced / sampled. Returns the row: the
/// best-of-N `untraced_ns`, `traced_ns` and `sampled_ns` (the producing
/// phase — see the module docs), the best-of-N `drain_ns` of the
/// full-rate trace, its `events`, and the events the ring `dropped`
/// across all full-rate rounds (must be 0).
///
/// The three configurations are *interleaved* round-robin (untraced,
/// traced, sampled, repeat) after one untimed warm-up round, rather than
/// measured phase-by-phase: the gated metric is a ratio, and on a shared
/// machine a slow patch hitting one whole phase would skew it.
/// Interleaving spreads drift evenly across the configurations;
/// best-of-N then discards the slow rounds.
pub fn measure_dag(workload: &str, dag: &Dag) -> Row {
    let iters = iters_for(dag.num_nodes());
    let prio = Prioritizer::new();
    let model = GridModel::paper(1.0, 64.0);
    let schedule = prio.prioritize(dag).unwrap().schedule;
    let policy = PolicySpec::Oblivious(schedule);

    let untraced = || {
        std::hint::black_box(prio.prioritize(dag).unwrap());
        std::hint::black_box(simulate(dag, &policy, &model, SIM_SEED));
    };

    // One traced run as `--trace-out` does it, over a discarding sink so
    // disk speed stays out of the numbers. Returns (producer_ns,
    // drain_ns, enqueued, dropped).
    let streamed = |sampler: JobSampler| -> (u64, u64, u64, u64) {
        let sink = JsonlSink::to_writer(Box::new(std::io::sink()));
        let pipeline = event_pipeline(sink, DEFAULT_RING_CAPACITY, sampler.modulus());
        let writer = StreamingTraceWriter::new(&pipeline, sampler);
        let producer_ns = timed(|| {
            std::hint::black_box(prio.prioritize(dag).unwrap());
            std::hint::black_box(simulate_streamed(
                dag, &policy, &model, None, SIM_SEED, &writer,
            ));
        });
        let mut finished = None;
        let drain_ns = timed(|| finished = Some(pipeline.finish()));
        let (_sink, stats, result) = finished.expect("timed closure ran");
        result.expect("discarding sink never fails");
        (producer_ns, drain_ns, stats.enqueued, stats.dropped)
    };

    let mut dropped = 0u64;
    let mut events = 0u64;
    let mut drain_ns = u64::MAX;
    let mut traced = || {
        let (producer, drain, enqueued, drops) = streamed(JobSampler::full_rate());
        drain_ns = drain_ns.min(drain);
        events = enqueued;
        dropped += drops;
        producer
    };
    let mut sampled = || streamed(JobSampler::new(SAMPLE_MODULUS)).0;
    let best = best_ns_interleaved_n(
        &mut [&mut || timed(untraced), &mut traced, &mut sampled],
        1,
        iters,
    );

    Row::new(
        "obs",
        workload,
        dag.num_nodes() as u64,
        dag.num_arcs() as u64,
        0,
        iters as u64,
    )
    .with("untraced_ns", best[0] as f64)
    .with("traced_ns", best[1] as f64)
    .with("sampled_ns", best[2] as f64)
    .with("drain_ns", drain_ns as f64)
    .with("events", events as f64)
    .with("dropped", dropped as f64)
}

/// Runs every tier at or below `max_jobs` (None = all). `progress` is
/// called before each row with a human-readable label.
pub fn measure(max_jobs: Option<usize>, mut progress: impl FnMut(&str)) -> Vec<Row> {
    let mut rows = Vec::new();
    for &tier in &TIERS {
        if max_jobs.is_some_and(|cap| tier > cap) {
            continue;
        }
        let dag = montage_tier(tier);
        progress(&format!(
            "montage tier {tier}: {} jobs, {} arcs",
            dag.num_nodes(),
            dag.num_arcs()
        ));
        rows.push(measure_dag("montage", &dag));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_dag_smoke() {
        // A small dag: not a meaningful overhead measurement, but proves
        // the three paths run and account drops.
        let dag = montage_tier(200);
        let row = measure_dag("montage", &dag);
        assert_eq!(
            (row.suite.as_str(), row.jobs),
            ("obs", dag.num_nodes() as u64)
        );
        for metric in ["untraced_ns", "traced_ns", "sampled_ns"] {
            assert!(row.metric(metric) > 0.0, "{metric}");
        }
        assert!(
            row.metric("drain_ns") > 0.0,
            "finish joins the writer thread"
        );
        assert!(row.metric("events") > 0.0, "a full-rate trace has events");
        assert_eq!(
            row.metric("dropped"),
            0.0,
            "default ring never drops at this scale"
        );
    }
}
