//! Seeded input generation. Everything the program receives is built here
//! from `--seed`: the same seed gives byte-identical files and requests.
//!
//! The DAG shapes come from the repository's own generators (`prio-workloads`)
//! so the benchmark runs the paper's workflow families; the text the program
//! reads is written by this module, not by the program's exporters.

use prio_graph::Dag;
use prio_workloads::{airsn, inspiral, montage, random_dag, sdss};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// A generated DAG in a form that does not depend on the program's types:
/// job names in declaration order and arcs as index pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub names: Vec<String>,
    pub arcs: Vec<(u32, u32)>,
}

impl Graph {
    pub fn from_dag(dag: &Dag) -> Graph {
        Graph {
            names: dag.node_ids().map(|u| dag.label(u).to_string()).collect(),
            arcs: dag.arcs().map(|(u, v)| (u.0, v.0)).collect(),
        }
    }

    /// This graph plus one extra job `name`, a child of job `parent`.
    pub fn with_extra(&self, name: &str, parent: u32) -> Graph {
        let mut g = self.clone();
        g.arcs.push((parent, g.names.len() as u32));
        g.names.push(name.to_string());
        g
    }

    pub fn num_jobs(&self) -> usize {
        self.names.len()
    }
}

/// The request formats the daemon and the CLI accept.
pub const FORMATS: [&str; 3] = ["dagman", "json", "edges"];

/// Jobs in the Montage file of `instrument_montage`: the paper's 7,881-job
/// shape scaled to about 2×10^4 jobs (19,982 jobs, 39,770 arcs).
pub const MONTAGE_FRACTION: f64 = 20000.0 / 7881.0;

/// Shape of the `schedule_layered` file: 10^4 layers of 100 jobs, each
/// pair of jobs in consecutive layers joined with probability 0.04, which
/// gives about 4×10^6 arcs.
pub const LAYERED: random_dag::LayeredParams = random_dag::LayeredParams {
    layers: 10_000,
    width: 100,
    arc_prob: 0.04,
};

/// The transformation a Montage job runs: its name without the trailing
/// index (`mDiffFit_3_2` runs `mDiffFit`).
pub fn transformation(job: &str) -> &str {
    job.trim_end_matches(|c: char| c.is_ascii_digit() || c == '_')
}

fn permutation(n: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// Parent lists in index order: `children[u]` are the children of job `u`.
fn children_lists(g: &Graph) -> Vec<Vec<u32>> {
    let mut children = vec![Vec::new(); g.num_jobs()];
    for &(u, v) in &g.arcs {
        children[u as usize].push(v);
    }
    children
}

/// The graph of the `schedule_layered` input.
pub fn layered_graph(seed: u64) -> Graph {
    Graph::from_dag(&random_dag::layered(
        LAYERED,
        &mut SmallRng::seed_from_u64(seed),
    ))
}

/// A DAGMan file with its generated graph and the submit files it names.
pub struct DagmanInput {
    pub text: String,
    pub graph: Graph,
    /// `(file name, contents)` of each submit description file.
    pub jsdfs: Vec<(String, String)>,
}

/// The `instrument_montage` input: Montage-shaped, with the seed permuting
/// the order of the `JOB` and `PARENT` statements. Each job names its
/// transformation's submit file, so a handful of JSDFs serve 19,982 jobs.
pub fn montage_file(seed: u64) -> DagmanInput {
    let dag = montage::montage(montage::MontageParams::scaled(MONTAGE_FRACTION));
    let graph = Graph::from_dag(&dag);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut text = format!("# Montage-shaped workflow, {} jobs\n", graph.num_jobs());
    for i in permutation(graph.num_jobs(), &mut rng) {
        let name = &graph.names[i];
        let _ = writeln!(text, "JOB {name} {}.submit", transformation(name));
    }
    let children = children_lists(&graph);
    for u in permutation(graph.num_jobs(), &mut rng) {
        if children[u].is_empty() {
            continue;
        }
        let _ = write!(text, "PARENT {} CHILD", graph.names[u]);
        for &c in &children[u] {
            let _ = write!(text, " {}", graph.names[c as usize]);
        }
        text.push('\n');
    }
    let jsdfs = montage_jsdf_kinds(&graph)
        .into_iter()
        .map(|t| (format!("{t}.submit"), jsdf_text(&t)))
        .collect();
    DagmanInput { text, graph, jsdfs }
}

/// The transformations a graph's jobs run, sorted: one submit file each.
pub fn montage_jsdf_kinds(g: &Graph) -> Vec<String> {
    let mut kinds: Vec<String> = g
        .names
        .iter()
        .map(|n| transformation(n).to_string())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
}

/// A submit description file for one transformation.
pub fn jsdf_text(transformation: &str) -> String {
    format!(
        "# {transformation} jobs\nuniverse = vanilla\nexecutable = {transformation}\n\
         arguments = $(job)\nlog = workflow.log\nqueue\n"
    )
}

/// The `schedule_layered` input: a seeded layered random DAG of 10^6 jobs,
/// one `JOB` per job and one `PARENT` statement per job with children.
pub fn layered_file(seed: u64) -> DagmanInput {
    let graph = layered_graph(seed);
    let mut text = String::with_capacity(90 << 20);
    for name in &graph.names {
        let _ = writeln!(text, "JOB {name} {name}.submit");
    }
    let children = children_lists(&graph);
    for (u, kids) in children.iter().enumerate() {
        if kids.is_empty() {
            continue;
        }
        let _ = write!(text, "PARENT {} CHILD", graph.names[u]);
        for &c in kids {
            let _ = write!(text, " {}", graph.names[c as usize]);
        }
        text.push('\n');
    }
    DagmanInput {
        text,
        graph,
        jsdfs: Vec::new(),
    }
}

/// Which DAG families a workload's daemon requests carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Families {
    /// Montage-shaped DAGs only (`instrument_montage`).
    Montage,
    /// Layered random DAGs only (`schedule_layered`).
    Layered,
    /// AIRSN, Inspiral, Montage and SDSS in turn (`serve_mix`).
    Mix,
}

/// Number of distinct DAGs in the pre-warmed request pool.
pub const POOL_SIZE: usize = 64;

/// Request DAG sizes run from about `MIN_JOBS` to `MAX_JOBS`.
const MIN_JOBS: f64 = 100.0;
const MAX_JOBS: f64 = 2000.0;

/// One DAG of the request pool and the format it is first sent in.
pub struct PoolEntry {
    pub graph: Graph,
    pub format: &'static str,
}

/// The request pool: `POOL_SIZE` DAGs at seeded sizes of about 100 to
/// 2,000 jobs. Sizes are stratified: each family gets one size from each
/// of 16 equal log-size bands, at a seeded point within ±5% of the band's
/// middle. Every entry still moves with the seed, but the pool's work (and
/// so its medians) barely does.
pub fn pool(families: Families, seed: u64) -> Vec<PoolEntry> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_900D);
    let kinds: &[&str] = match families {
        Families::Montage => &["montage"],
        Families::Layered => &["layered"],
        Families::Mix => &["airsn", "inspiral", "montage", "sdss"],
    };
    let bands = POOL_SIZE / kinds.len();
    (0..POOL_SIZE)
        .map(|i| {
            let family = kinds[i % kinds.len()];
            let band = i / kinds.len();
            let u = 0.45 + 0.1 * rng.gen::<f64>();
            let target = MIN_JOBS * (MAX_JOBS / MIN_JOBS).powf((band as f64 + u) / bands as f64);
            let dag = family_dag(family, target, &mut rng);
            PoolEntry {
                graph: Graph::from_dag(&dag),
                format: FORMATS[(i + band) % FORMATS.len()],
            }
        })
        .collect()
}

/// A DAG of `family` with about `target` jobs.
fn family_dag(family: &str, target: f64, rng: &mut SmallRng) -> Dag {
    match family {
        "airsn" => airsn::airsn(((target - 9.0) / 6.0).round().max(4.0) as usize),
        "inspiral" => inspiral::inspiral(inspiral::InspiralParams::scaled(target / 2988.0)),
        "montage" => montage::montage(montage::MontageParams::scaled(target / 7881.0)),
        "sdss" => sdss::sdss(sdss::SdssParams::scaled(target / 48013.0)),
        "layered" => {
            let width = 10;
            let p = random_dag::LayeredParams {
                layers: ((target / width as f64).round() as usize).max(2),
                width,
                arc_prob: 0.4,
            };
            random_dag::layered(p, rng)
        }
        other => unreachable!("unknown family {other}"),
    }
}

/// Writes `g` in `format`, plus the optional extra job (name, parent) that
/// turns a pool DAG into a never-seen one. Jobs are declared in index order
/// in every format, so one DAG sent in two formats has one structure.
pub fn render(format: &str, g: &Graph, extra: Option<(&str, u32)>, submit: bool) -> String {
    let mut out = String::with_capacity(g.num_jobs() * 48);
    let children = children_lists(g);
    match format {
        "dagman" => {
            for name in &g.names {
                if submit {
                    let _ = writeln!(out, "JOB {name} {}.submit", transformation(name));
                } else {
                    let _ = writeln!(out, "JOB {name} {name}.submit");
                }
            }
            for (u, kids) in children.iter().enumerate() {
                if !kids.is_empty() {
                    let _ = write!(out, "PARENT {} CHILD", g.names[u]);
                    for &c in kids {
                        let _ = write!(out, " {}", g.names[c as usize]);
                    }
                    out.push('\n');
                }
            }
            if let Some((name, parent)) = extra {
                let _ = writeln!(out, "JOB {name} {name}.submit");
                let _ = writeln!(out, "PARENT {} CHILD {name}", g.names[parent as usize]);
            }
        }
        "json" => {
            out.push_str("{\"format\":\"prio-workflow-v1\",\"jobs\":[\n");
            let extra_name = extra.map(|(name, _)| name);
            let names = g.names.iter().map(String::as_str).chain(extra_name);
            for (i, name) in names.enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(out, "{{\"name\":\"{name}\"}}");
            }
            out.push_str("\n],\"arcs\":[\n");
            let extra_arc = extra.map(|(name, p)| (g.names[p as usize].as_str(), name));
            let arcs = g
                .arcs
                .iter()
                .map(|&(u, v)| (g.names[u as usize].as_str(), g.names[v as usize].as_str()))
                .chain(extra_arc);
            for (i, (p, c)) in arcs.enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(out, "[\"{p}\",\"{c}\"]");
            }
            out.push_str("\n]}\n");
        }
        "edges" => {
            out.push_str("# edge list\n");
            for name in &g.names {
                let _ = writeln!(out, "{name}");
            }
            for &(u, v) in &g.arcs {
                let _ = writeln!(out, "{}\t{}", g.names[u as usize], g.names[v as usize]);
            }
            if let Some((name, parent)) = extra {
                let _ = writeln!(out, "{}\t{name}", g.names[parent as usize]);
            }
        }
        other => unreachable!("unknown format {other}"),
    }
    out
}

/// File extension the CLI detects `format` by.
pub fn extension(format: &str) -> &'static str {
    match format {
        "dagman" => "dag",
        "json" => "json",
        _ => "edges",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = montage_file(7);
        let b = montage_file(7);
        assert_eq!(a.text, b.text);
        assert_eq!(a.jsdfs, b.jsdfs);
        assert_ne!(a.text, montage_file(8).text, "the seed permutes statements");
        for fam in [Families::Montage, Families::Layered, Families::Mix] {
            let (p, q) = (pool(fam, 3), pool(fam, 3));
            for (x, y) in p.iter().zip(&q) {
                for f in FORMATS {
                    assert_eq!(
                        render(f, &x.graph, Some(("x", 0)), true),
                        render(f, &y.graph, Some(("x", 0)), true)
                    );
                }
            }
        }
    }

    #[test]
    fn montage_file_has_the_stated_size() {
        let m = montage_file(1);
        assert_eq!(m.graph.num_jobs(), 19_982);
        assert_eq!(m.graph.arcs.len(), 39_770);
        assert!(m.jsdfs.iter().any(|(f, _)| f == "mProject.submit"));
    }

    #[test]
    fn pool_sizes_span_the_stated_range() {
        for fam in [Families::Montage, Families::Layered, Families::Mix] {
            let p = pool(fam, 11);
            assert_eq!(p.len(), POOL_SIZE);
            for e in &p {
                let n = e.graph.num_jobs();
                assert!((60..=2600).contains(&n), "{n} jobs");
            }
        }
    }
}
