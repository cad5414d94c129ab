//! Scaling measurement: pipeline and simulator wall time plus peak
//! allocator bytes at the 10³–10⁷ job tiers — and DAGMan parse + CSR
//! build at 10⁷ — behind the `bench_scaling` binary and the
//! `bench_check --scaling-fresh` regression guard.
//!
//! Two dag families per pipeline tier: a Montage-like dag (the paper's
//! structure, scaled to the tier's job count) and a layered random dag
//! (fixed layer width, ~4 children per job) whose single giant component
//! stresses the CSR adjacency directly rather than the decomposition.
//! The parse tier measures the front door instead: a deterministic
//! generated DAGMan file pushed through [`parse_dagman_threads`] and
//! [`DagmanFile::to_dag`](prio_dagman::DagmanFile::to_dag), the path
//! `prio instrument`, `prio batch` and the facade run with `--threads`.
//! Rows serialize to `BENCH_scaling.json` with a fixed key order, and
//! rows from two files are compared by their `(workload, jobs)`
//! identity, so a smoke run covering only the small tiers can still be
//! checked against a committed full run. Peak bytes are additionally
//! gated by [`compare_scaling_memory`] so the committed peaks double as
//! memory budgets.

use crate::mem;
use crate::pipeline::MetricCheck;
use prio_core::prio::{PrioOptions, Prioritizer};
use prio_dagman::parse_dagman_threads;
use prio_graph::Dag;
use prio_obs::json::{parse, JsonValue};
use prio_sim::engine::simulate;
use prio_sim::model::GridModel;
use prio_sim::PolicySpec;
use prio_workloads::montage::{montage, MontageParams};
use prio_workloads::random_dag::{layered, LayeredParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

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

/// One `(workload, tier)` measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Dag family: `"montage"` or `"layered"`.
    pub workload: String,
    /// Jobs in the generated dag (close to, not exactly, the tier).
    pub jobs: u64,
    /// Arcs in the generated dag.
    pub arcs: u64,
    /// Timed iterations behind the best-of-N metrics.
    pub iters: u64,
    /// Best-of-N wall time of one full PRIO pipeline run.
    pub pipeline_ns: u64,
    /// Best-of-N wall time of one simulated execution under the PRIO
    /// schedule.
    pub sim_ns: u64,
    /// Peak bytes allocated above the pre-run baseline across one
    /// pipeline + simulation run (needs the binary to install
    /// [`mem::CountingAllocator`]; 0 when it is not installed).
    pub peak_bytes: u64,
    /// Worker threads the measurement ran with (0 = serial).
    pub threads: u64,
    /// Best-of-N wall time of DAGMan parse + CSR build (`"dagman_parse"`
    /// rows only; 0 elsewhere).
    pub parse_ns: u64,
    /// Wall time of the reduce stage in one pipeline run (0 for parse
    /// rows).
    pub reduce_ns: u64,
    /// Wall time of the decompose stage in one pipeline run.
    pub decompose_ns: u64,
    /// Wall time of the schedule stage in one pipeline run.
    pub schedule_ns: u64,
    /// Wall time of the combine stage in one pipeline run.
    pub combine_ns: u64,
    /// Wall time of the emit stage in one pipeline run.
    pub emit_ns: u64,
}

/// A full measurement: the metric name and one row per workload × tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingBench {
    /// Metric name (`"best_of_n_wall_ns"`).
    pub metric: String,
    /// Rows, in measurement order (tier-major, montage before layered).
    pub rows: Vec<ScalingRow>,
}

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

fn best_ns(iters: usize, f: &mut dyn FnMut()) -> u64 {
    f(); // warm-up
    let mut best = u128::MAX;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best as u64
}

/// Measures one dag: pipeline wall time, simulated-execution wall time
/// under the resulting schedule, the allocator peak of one combined run,
/// and the per-stage wall breakdown of that run (from the pipeline's
/// stage spans).
pub fn measure_dag(workload: &str, dag: &Dag, threads: usize) -> ScalingRow {
    let iters = iters_for(dag.num_nodes());
    let prio = Prioritizer::with_options(PrioOptions {
        threads,
        ..PrioOptions::default()
    });
    let model = GridModel::paper(1.0, 64.0);

    let pipeline_ns = best_ns(iters, &mut || {
        std::hint::black_box(prio.prioritize(dag).unwrap());
    });

    let schedule = prio.prioritize(dag).unwrap().schedule;
    let policy = PolicySpec::Oblivious(schedule);
    let sim_ns = best_ns(iters, &mut || {
        std::hint::black_box(simulate(dag, &policy, &model, SIM_SEED));
    });

    // One combined run measures the allocator peak and, via the stage
    // spans, the per-stage wall breakdown of a single pipeline pass.
    prio_obs::span::reset_spans();
    let baseline = mem::reset_peak();
    let r = prio.prioritize(dag).unwrap();
    let out = simulate(dag, &PolicySpec::Oblivious(r.schedule), &model, SIM_SEED);
    std::hint::black_box(&out);
    let peak_bytes = mem::peak_since(baseline) as u64;
    let stage_ns = |name: &str| {
        prio_obs::span::stat_of(name)
            .map(|s| s.total.as_nanos() as u64)
            .unwrap_or(0)
    };

    ScalingRow {
        workload: workload.into(),
        jobs: dag.num_nodes() as u64,
        arcs: dag.num_arcs() as u64,
        iters: iters as u64,
        pipeline_ns,
        sim_ns,
        peak_bytes,
        threads: threads as u64,
        parse_ns: 0,
        reduce_ns: stage_ns(prio_obs::stage::REDUCE),
        decompose_ns: stage_ns(prio_obs::stage::DECOMPOSE),
        schedule_ns: stage_ns(prio_obs::stage::SCHEDULE),
        combine_ns: stage_ns(prio_obs::stage::COMBINE),
        emit_ns: stage_ns(prio_obs::stage::EMIT),
    }
}

/// Measures one parse tier: generates the DAGMan text, then times the
/// parse + CSR build users run ([`parse_dagman_threads`], then `to_dag`)
/// and its allocator peak (text excluded — it is allocated before the
/// baseline is taken). Best of two runs, without a warm-up: a 10⁷-job
/// parse is seconds of wall time, and its noise is far below the gate.
pub fn measure_parse(target: usize, threads: usize) -> ScalingRow {
    let text = dagman_text_tier(target);
    let iters = 2;
    let mut best = u128::MAX;
    let mut peak_bytes = 0u64;
    let mut row = None;
    for _ in 0..iters {
        let baseline = mem::reset_peak();
        let t = Instant::now();
        let dag = parse_dagman_threads(&text, threads)
            .unwrap()
            .to_dag()
            .unwrap();
        best = best.min(t.elapsed().as_nanos());
        peak_bytes = peak_bytes.max(mem::peak_since(baseline) as u64);
        row.get_or_insert((dag.num_nodes() as u64, dag.num_arcs() as u64));
        std::hint::black_box(&dag);
    }
    let (jobs, arcs) = row.expect("at least one iteration");
    ScalingRow {
        workload: "dagman_parse".into(),
        jobs,
        arcs,
        iters: iters as u64,
        pipeline_ns: 0,
        sim_ns: 0,
        peak_bytes,
        threads: threads as u64,
        parse_ns: best as u64,
        reduce_ns: 0,
        decompose_ns: 0,
        schedule_ns: 0,
        combine_ns: 0,
        emit_ns: 0,
    }
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
) -> ScalingBench {
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
    ScalingBench {
        metric: "best_of_n_wall_ns".into(),
        rows,
    }
}

impl ScalingRow {
    fn to_json(&self) -> String {
        format!(
            "    {{\"workload\": \"{}\", \"jobs\": {}, \"arcs\": {}, \"iters\": {}, \"pipeline_ns\": {}, \"sim_ns\": {}, \"peak_bytes\": {}, \"threads\": {}, \"parse_ns\": {}, \"reduce_ns\": {}, \"decompose_ns\": {}, \"schedule_ns\": {}, \"combine_ns\": {}, \"emit_ns\": {}}}",
            self.workload, self.jobs, self.arcs, self.iters, self.pipeline_ns, self.sim_ns, self.peak_bytes,
            self.threads, self.parse_ns, self.reduce_ns, self.decompose_ns, self.schedule_ns, self.combine_ns, self.emit_ns,
        )
    }

    fn from_json(v: &JsonValue) -> Result<ScalingRow, String> {
        let u = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("row missing integer field {key:?}"))
        };
        // Fields added after the first committed baselines default to 0 so
        // historic `BENCH_scaling.json` files still load.
        let opt = |key: &str| v.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
        Ok(ScalingRow {
            workload: v
                .get("workload")
                .and_then(JsonValue::as_str)
                .ok_or("row missing string field \"workload\"")?
                .to_owned(),
            jobs: u("jobs")?,
            arcs: u("arcs")?,
            iters: u("iters")?,
            pipeline_ns: u("pipeline_ns")?,
            sim_ns: u("sim_ns")?,
            peak_bytes: u("peak_bytes")?,
            threads: opt("threads"),
            parse_ns: opt("parse_ns"),
            reduce_ns: opt("reduce_ns"),
            decompose_ns: opt("decompose_ns"),
            schedule_ns: opt("schedule_ns"),
            combine_ns: opt("combine_ns"),
            emit_ns: opt("emit_ns"),
        })
    }
}

impl ScalingBench {
    /// Serializes in the committed `BENCH_scaling.json` format: fixed key
    /// order, one row per line — byte-deterministic for identical
    /// measurements.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.rows.iter().map(ScalingRow::to_json).collect();
        format!(
            "{{\n  \"metric\": \"{}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.metric,
            rows.join(",\n")
        )
    }

    /// Parses the `BENCH_scaling.json` format (any key order).
    pub fn from_json(text: &str) -> Result<ScalingBench, String> {
        let v = parse(text)?;
        let metric = v
            .get("metric")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"metric\"")?
            .to_owned();
        let rows = match v.get("rows") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(ScalingRow::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing array field \"rows\"".into()),
        };
        Ok(ScalingBench { metric, rows })
    }

    /// The row for a `(workload, jobs)` identity, if present.
    pub fn row(&self, workload: &str, jobs: u64) -> Option<&ScalingRow> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.jobs == jobs)
    }
}

/// Compares every fresh row that has a baseline row with the same
/// `(workload, jobs)` identity — rows only one side measured (e.g. the
/// big tiers during a CI smoke run) are skipped. Each matched row yields
/// two [`MetricCheck`]s (pipeline and sim wall time); peak bytes are
/// reported by the caller but not thresholded, since allocator peaks are
/// exact and assertable in tests instead.
pub fn compare_scaling(
    baseline: &ScalingBench,
    fresh: &ScalingBench,
    threshold: f64,
) -> Vec<(String, MetricCheck)> {
    let mut checks = Vec::new();
    for f in &fresh.rows {
        let Some(b) = baseline.row(&f.workload, f.jobs) else {
            continue;
        };
        let label = format!("{}/{}", f.workload, f.jobs);
        for (name, baseline_ns, fresh_ns) in [
            ("pipeline_ns", b.pipeline_ns, f.pipeline_ns),
            ("sim_ns", b.sim_ns, f.sim_ns),
            ("parse_ns", b.parse_ns, f.parse_ns),
        ] {
            if baseline_ns == 0 && fresh_ns == 0 {
                // Metric not applicable to this workload kind (e.g.
                // parse_ns on a pipeline row).
                continue;
            }
            let ratio = fresh_ns as f64 / baseline_ns.max(1) as f64;
            checks.push((
                label.clone(),
                MetricCheck {
                    name,
                    baseline_ns,
                    fresh_ns,
                    ratio,
                    regressed: ratio > threshold,
                },
            ));
        }
    }
    checks
}

/// Gates allocator peaks against the committed baseline: for every
/// matched `(workload, jobs)` row where both sides measured a peak (a run
/// without the counting allocator records 0 and is skipped), the fresh
/// peak must stay within `factor` of the baseline — the committed peaks
/// are the memory budgets of the big tiers.
pub fn compare_scaling_memory(
    baseline: &ScalingBench,
    fresh: &ScalingBench,
    factor: f64,
) -> Vec<(String, MetricCheck)> {
    let mut checks = Vec::new();
    for f in &fresh.rows {
        let Some(b) = baseline.row(&f.workload, f.jobs) else {
            continue;
        };
        if b.peak_bytes == 0 || f.peak_bytes == 0 {
            continue;
        }
        let ratio = f.peak_bytes as f64 / b.peak_bytes as f64;
        checks.push((
            format!("{}/{}", f.workload, f.jobs),
            MetricCheck {
                name: "peak_bytes",
                baseline_ns: b.peak_bytes,
                fresh_ns: f.peak_bytes,
                ratio,
                regressed: ratio > factor,
            },
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, jobs: u64, pipeline_ns: u64, sim_ns: u64, peak: u64) -> ScalingRow {
        ScalingRow {
            workload: workload.into(),
            jobs,
            arcs: jobs * 2,
            iters: 20,
            pipeline_ns,
            sim_ns,
            peak_bytes: peak,
            threads: 4,
            parse_ns: 0,
            reduce_ns: 10,
            decompose_ns: 20,
            schedule_ns: 30,
            combine_ns: 5,
            emit_ns: 1,
        }
    }

    fn sample() -> ScalingBench {
        ScalingBench {
            metric: "best_of_n_wall_ns".into(),
            rows: vec![
                row("montage", 1033, 500_000, 250_000, 1_000_000),
                row("layered", 1000, 700_000, 300_000, 2_000_000),
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let b = sample();
        let back = ScalingBench::from_json(&b.to_json()).unwrap();
        assert_eq!(back, b);
        // Byte-deterministic.
        assert_eq!(b.to_json(), back.to_json());
    }

    #[test]
    fn missing_fields_are_errors() {
        assert!(ScalingBench::from_json("{}").is_err());
        assert!(ScalingBench::from_json("{\"metric\": \"m\"}").is_err());
        assert!(ScalingBench::from_json("{\"metric\": \"m\", \"rows\": [{}]}").is_err());
        assert!(ScalingBench::from_json("not json").is_err());
    }

    #[test]
    fn pre_breakdown_baselines_still_load() {
        // A row in the original committed format — no threads, parse_ns or
        // stage fields — must load with those fields defaulted to 0.
        let old = "{\"metric\": \"m\", \"rows\": [{\"workload\": \"montage\", \"jobs\": 10, \
                   \"arcs\": 20, \"iters\": 2, \"pipeline_ns\": 5, \"sim_ns\": 3, \
                   \"peak_bytes\": 7}]}";
        let b = ScalingBench::from_json(old).unwrap();
        let r = &b.rows[0];
        assert_eq!((r.pipeline_ns, r.sim_ns, r.peak_bytes), (5, 3, 7));
        assert_eq!(r.threads, 0);
        assert_eq!(r.parse_ns, 0);
        assert_eq!(r.reduce_ns + r.decompose_ns + r.schedule_ns, 0);
    }

    #[test]
    fn memory_gate_compares_matched_nonzero_peaks() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.rows[0].peak_bytes *= 2; // montage peak doubled
        fresh.rows[1].peak_bytes = 0; // no counting allocator
        let checks = compare_scaling_memory(&baseline, &fresh, 1.5);
        assert_eq!(checks.len(), 1, "zero-peak rows are skipped");
        assert_eq!(checks[0].0, "montage/1033");
        assert!(checks[0].1.regressed, "2.0x exceeds the 1.5x budget");
        let ok = compare_scaling_memory(&baseline, &baseline, 1.5);
        assert!(ok.iter().all(|(_, c)| !c.regressed));
    }

    #[test]
    fn parse_rows_compare_parse_ns_only() {
        let mk = |parse_ns: u64| ScalingBench {
            metric: "m".into(),
            rows: vec![ScalingRow {
                workload: "dagman_parse".into(),
                jobs: 1_000_000,
                arcs: 1_250_000,
                iters: 1,
                pipeline_ns: 0,
                sim_ns: 0,
                peak_bytes: 1,
                threads: 0,
                parse_ns,
                reduce_ns: 0,
                decompose_ns: 0,
                schedule_ns: 0,
                combine_ns: 0,
                emit_ns: 0,
            }],
        };
        let checks = compare_scaling(&mk(100), &mk(250), 2.0);
        assert_eq!(checks.len(), 1, "pipeline/sim metrics are skipped at 0");
        assert_eq!(checks[0].1.name, "parse_ns");
        assert!(checks[0].1.regressed, "2.5x exceeds 2x");
    }

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
    fn compare_matches_rows_by_identity_and_skips_unmatched() {
        let baseline = sample();
        let mut fresh = sample();
        fresh.rows[0].pipeline_ns *= 3; // montage pipeline 3× slower
        fresh.rows[1].workload = "other".into(); // no baseline row
        let checks = compare_scaling(&baseline, &fresh, 2.0);
        assert_eq!(checks.len(), 2, "one matched row × two metrics");
        assert!(checks.iter().all(|(label, _)| label == "montage/1033"));
        assert!(checks[0].1.regressed, "3× exceeds 2×");
        assert!(!checks[1].1.regressed);
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
        assert_eq!(row.jobs, dag.num_nodes() as u64);
        assert!(row.pipeline_ns > 0 && row.sim_ns > 0);
        // No counting allocator installed in the test harness.
        assert!(row.iters > 0);
        // The stage breakdown comes from the combined run's spans.
        assert!(row.reduce_ns + row.decompose_ns + row.schedule_ns > 0);
        assert_eq!(row.parse_ns, 0);
    }

    #[test]
    fn measure_parse_smoke() {
        let row = measure_parse(2_000, 0);
        assert_eq!(row.workload, "dagman_parse");
        assert_eq!(row.jobs, 2_000);
        assert!(row.parse_ns > 0);
        assert_eq!(row.pipeline_ns, 0);
        assert_eq!(row.sim_ns, 0);
    }
}
