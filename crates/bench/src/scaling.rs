//! Scaling measurement: pipeline and simulator wall time plus peak
//! allocator bytes at the 10³–10⁷ job tiers — and DAGMan parse + CSR
//! build at 10⁷ — behind the `bench_scaling` binary.
//!
//! Two dag families per pipeline tier: a Montage-like dag (the paper's
//! structure, scaled to the tier's job count) and a layered random dag
//! (fixed layer width, ~4 children per job) whose single giant component
//! stresses the CSR adjacency directly rather than the decomposition.
//! The parse tier measures the front door instead: a deterministic
//! generated DAGMan file pushed through [`parse_dagman_threads`] and
//! [`DagmanFile::to_dag`](prio_dagman::DagmanFile::to_dag), the path
//! `prio instrument`, `prio batch` and the facade run with `--threads`.
//! Every row carries the same metrics, 0 where one does not apply
//! (`parse_ns` on a pipeline row, the pipeline and stage times on a
//! parse row); the gate matches rows by `(workload, jobs)`, so a smoke
//! run covering only the small tiers still checks against a committed
//! full run, and the committed peaks double as memory budgets.

use crate::record::Row;
use crate::{best_ns_interleaved_n, timed};
use prio_core::prio::{PrioOptions, Prioritizer};
use prio_dagman::parse_dagman_threads;
use prio_graph::Dag;
use prio_obs::mem;
use prio_sim::engine::simulate;
use prio_sim::model::GridModel;
use prio_sim::PolicySpec;
use prio_workloads::montage::{montage, MontageParams};
use prio_workloads::random_dag::{layered, LayeredParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The full-pipeline job-count tiers, smallest first.
pub const TIERS: [usize; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The parse + CSR-build tiers (the `"dagman_parse"` workload). They run
/// only the front half, whose peak bytes double as its memory budget.
pub const PARSE_TIERS: [usize; 1] = [10_000_000];

/// Montage jobs at the paper's default parameters; tier targets scale
/// against this.
const MONTAGE_PAPER_JOBS: f64 = 7_881.0;

/// Layer width of the random layered family. ~4 children per job keeps
/// the arc count at roughly 4× the job count at every tier.
const LAYER_WIDTH: usize = 100;

/// Fixed seeds so every run measures the same dag and the same batch
/// arrival process.
const DAG_SEED: u64 = 0x5CA1_AB1E;
const SIM_SEED: u64 = 42;

/// Fewer timed iterations at the larger tiers: the 10⁶-job pipeline runs
/// near a second, best-of-2 is stable enough there, and the 10⁷ tier is
/// timed once (its run-to-run noise is far below the 2× gate).
fn iters_for(jobs: usize) -> usize {
    match jobs {
        0..=10_000 => 20,
        10_001..=100_000 => 6,
        100_001..=2_000_000 => 2,
        _ => 1,
    }
}

/// A Montage-like dag with roughly `target` jobs.
pub fn montage_tier(target: usize) -> Dag {
    montage(MontageParams::scaled(target as f64 / MONTAGE_PAPER_JOBS))
}

/// A seeded layered random dag with roughly `target` jobs.
pub fn layered_tier(target: usize) -> Dag {
    let p = LayeredParams {
        layers: (target / LAYER_WIDTH).max(2),
        width: LAYER_WIDTH,
        arc_prob: 4.0 / LAYER_WIDTH as f64,
    };
    layered(p, &mut SmallRng::seed_from_u64(DAG_SEED))
}

/// Layer width of the generated-DAGMan parse workload.
const PARSE_LAYER_WIDTH: usize = 1_000;

/// Appends `n{id}` without going through `format!` (the generator emits
/// hundreds of millions of names; a per-name `String` would dominate).
fn push_name(text: &mut String, id: usize) {
    let mut buf = [0u8; 20];
    let mut k = buf.len();
    let mut x = id;
    loop {
        k -= 1;
        buf[k] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    text.push('n');
    text.push_str(std::str::from_utf8(&buf[k..]).expect("ascii digits"));
}

/// Deterministic DAGMan text with roughly `target` jobs: layers of width
/// [`PARSE_LAYER_WIDTH`]; job `(l, i)` feeds `(l+1, i)`, and every fourth
/// job also feeds `(l+1, (i+7) % width)` — one giant weakly-connected
/// component with ~1.25 arcs per job. All `JOB` declarations come first
/// (in id order), then one `PARENT … CHILD …` statement per parent.
pub fn dagman_text_tier(target: usize) -> String {
    let width = PARSE_LAYER_WIDTH;
    let layers = (target / width).max(2);
    let n = layers * width;
    // ~30 B per JOB line + ~45 B per PARENT line.
    let mut text = String::with_capacity(n * 78);
    for id in 0..n {
        text.push_str("JOB ");
        push_name(&mut text, id);
        text.push(' ');
        push_name(&mut text, id);
        text.push_str(".sub\n");
    }
    for l in 0..layers - 1 {
        for i in 0..width {
            let id = l * width + i;
            text.push_str("PARENT ");
            push_name(&mut text, id);
            text.push_str(" CHILD ");
            push_name(&mut text, (l + 1) * width + i);
            if i % 4 == 0 {
                text.push(' ');
                push_name(&mut text, (l + 1) * width + (i + 7) % width);
            }
            text.push('\n');
        }
    }
    text
}

/// Measures one dag: pipeline wall time, simulated-execution wall time
/// under the resulting schedule, the allocator peak of one combined run,
/// and the per-stage wall breakdown of that run (from the pipeline's
/// stage spans).
pub fn measure_dag(workload: &str, dag: &Dag, threads: usize) -> Row {
    let iters = iters_for(dag.num_nodes());
    let prio = Prioritizer::with_options(PrioOptions {
        threads,
        ..PrioOptions::default()
    });
    let model = GridModel::paper(1.0, 64.0);
    let schedule = prio.prioritize(dag).unwrap().schedule;
    let policy = PolicySpec::Oblivious(schedule);

    // Measured one after the other, each with its own warm-up round:
    // interleaved, every simulation would start with the caches the
    // pipeline run left behind.
    let pipeline_ns = best_ns_interleaved_n(
        &mut [&mut || {
            timed(|| {
                std::hint::black_box(prio.prioritize(dag).unwrap());
            })
        }],
        1,
        iters,
    )[0];
    let sim_ns = best_ns_interleaved_n(
        &mut [&mut || {
            timed(|| {
                std::hint::black_box(simulate(dag, &policy, &model, SIM_SEED));
            })
        }],
        1,
        iters,
    )[0];

    // One combined run measures the allocator peak and, via the stage
    // spans, the per-stage wall breakdown of a single pipeline pass.
    prio_obs::span::reset_spans();
    let baseline = mem::reset_peak();
    let r = prio.prioritize(dag).unwrap();
    let out = simulate(dag, &PolicySpec::Oblivious(r.schedule), &model, SIM_SEED);
    std::hint::black_box(&out);
    let peak_bytes = mem::peak_since(baseline);
    let stage_ns =
        |name: &str| prio_obs::span::stat_of(name).map_or(0.0, |s| s.total.as_nanos() as f64);

    Row::new(
        "scaling",
        workload,
        dag.num_nodes() as u64,
        dag.num_arcs() as u64,
        threads as u64,
        iters as u64,
    )
    .with("pipeline_ns", pipeline_ns as f64)
    .with("sim_ns", sim_ns as f64)
    .with("peak_bytes", peak_bytes as f64)
    .with("parse_ns", 0.0)
    .with("reduce_ns", stage_ns(prio_obs::stage::REDUCE))
    .with("decompose_ns", stage_ns(prio_obs::stage::DECOMPOSE))
    .with("schedule_ns", stage_ns(prio_obs::stage::SCHEDULE))
    .with("combine_ns", stage_ns(prio_obs::stage::COMBINE))
    .with("emit_ns", stage_ns(prio_obs::stage::EMIT))
}

/// Measures one parse tier: generates the DAGMan text, then times the
/// parse + CSR build users run ([`parse_dagman_threads`], then `to_dag`)
/// and its allocator peak (text excluded — it is allocated before the
/// baseline is taken). Best of two runs, without a warm-up: a 10⁷-job
/// parse is seconds of wall time, and its noise is far below the gate.
pub fn measure_parse(target: usize, threads: usize) -> Row {
    let text = dagman_text_tier(target);
    let iters = 2;
    let mut peak_bytes = 0;
    let mut shape = (0, 0);
    let mut parse = || {
        let baseline = mem::reset_peak();
        let mut dag = None;
        let ns = timed(|| {
            dag = Some(
                parse_dagman_threads(&text, threads)
                    .unwrap()
                    .to_dag()
                    .unwrap(),
            );
        });
        peak_bytes = peak_bytes.max(mem::peak_since(baseline));
        let dag = dag.expect("timed closure ran");
        shape = (dag.num_nodes() as u64, dag.num_arcs() as u64);
        std::hint::black_box(&dag);
        ns
    };
    let best = best_ns_interleaved_n(&mut [&mut parse], 0, iters);
    Row::new(
        "scaling",
        "dagman_parse",
        shape.0,
        shape.1,
        threads as u64,
        iters as u64,
    )
    .with("pipeline_ns", 0.0)
    .with("sim_ns", 0.0)
    .with("peak_bytes", peak_bytes as f64)
    .with("parse_ns", best[0] as f64)
    .with("reduce_ns", 0.0)
    .with("decompose_ns", 0.0)
    .with("schedule_ns", 0.0)
    .with("combine_ns", 0.0)
    .with("emit_ns", 0.0)
}

/// Runs the whole grid — pipeline tiers then parse tiers — skipping tiers
/// above `max_jobs` (for CI smoke runs). `parse_only` restricts the run
/// to the `"dagman_parse"` rows. `progress` is called before each row
/// with a human-readable label.
pub fn measure(
    max_jobs: Option<usize>,
    threads: usize,
    parse_only: bool,
    mut progress: impl FnMut(&str),
) -> Vec<Row> {
    let mut rows = Vec::new();
    if !parse_only {
        for &tier in &TIERS {
            if max_jobs.is_some_and(|cap| tier > cap) {
                continue;
            }
            for (name, dag) in [
                ("montage", montage_tier(tier)),
                ("layered", layered_tier(tier)),
            ] {
                progress(&format!(
                    "{name} tier {tier}: {} jobs, {} arcs",
                    dag.num_nodes(),
                    dag.num_arcs()
                ));
                rows.push(measure_dag(name, &dag, threads));
            }
        }
    }
    for &tier in &PARSE_TIERS {
        if max_jobs.is_some_and(|cap| tier > cap) {
            continue;
        }
        progress(&format!("dagman_parse tier {tier}"));
        rows.push(measure_parse(tier, threads));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dagman_text_tier_parses_to_the_expected_shape() {
        let text = dagman_text_tier(3_000);
        let parse = |threads| {
            parse_dagman_threads(&text, threads)
                .unwrap()
                .to_dag()
                .unwrap()
        };
        let dag = parse(0);
        assert_eq!(dag.num_nodes(), 3_000);
        // ~1.25 arcs per job, minus the last layer which has no children.
        let arcs = dag.num_arcs();
        assert!(
            (2_400..=2_600).contains(&arcs),
            "unexpected arc count {arcs}"
        );
        // Deterministic and identical across the parallel chunked path.
        assert_eq!(text, dagman_text_tier(3_000));
        assert_eq!(parse(3), dag);
    }

    #[test]
    fn tier_generators_hit_their_targets() {
        for &tier in &TIERS[..2] {
            for (name, dag) in [
                ("montage", montage_tier(tier)),
                ("layered", layered_tier(tier)),
            ] {
                let jobs = dag.num_nodes() as f64;
                let lo = tier as f64 * 0.8;
                let hi = tier as f64 * 1.25;
                assert!(
                    (lo..=hi).contains(&jobs),
                    "{name} tier {tier} produced {jobs} jobs"
                );
            }
        }
        // Seeded: the layered dag is identical across calls.
        assert_eq!(layered_tier(1_000), layered_tier(1_000));
    }

    #[test]
    fn measure_dag_smoke() {
        let dag = montage_tier(150);
        let row = measure_dag("montage", &dag, 0);
        assert_eq!(
            (row.suite.as_str(), row.jobs),
            ("scaling", dag.num_nodes() as u64)
        );
        assert!(row.metric("pipeline_ns") > 0.0 && row.metric("sim_ns") > 0.0);
        assert!(row.iters > 0);
        // The stage breakdown comes from the combined run's spans.
        let stages = ["reduce_ns", "decompose_ns", "schedule_ns"];
        assert!(stages.iter().map(|m| row.metric(m)).sum::<f64>() > 0.0);
        assert_eq!(row.metric("parse_ns"), 0.0);
    }

    #[test]
    fn measure_parse_smoke() {
        let row = measure_parse(2_000, 0);
        assert_eq!(row.workload, "dagman_parse");
        assert_eq!(row.jobs, 2_000);
        assert!(row.metric("parse_ns") > 0.0);
        assert_eq!(row.metric("pipeline_ns"), 0.0);
        assert_eq!(row.metric("sim_ns"), 0.0);
        // Both kinds of row carry the same metrics.
        let dag_row = measure_dag("montage", &montage_tier(150), 0);
        assert!(row.metrics.keys().eq(dag_row.metrics.keys()));
    }
}
