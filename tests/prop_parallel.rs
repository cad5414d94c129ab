//! Parallel-vs-serial bit-identity properties.
//!
//! Every parallel path in the front half of the pipeline — the CSR build,
//! transitive reduction, decomposition, and the chunked DAGMan parse —
//! promises results *bit-identical* to its serial twin for every thread
//! count. The properties here hold that promise on random dags and
//! catalog-family compositions; the `*_at_scale` tests additionally cross
//! the adaptive work thresholds so the sharded code paths (not just their
//! serial fallbacks) are the ones being compared.

use dagprio::core::decompose::{decompose_in, DecomposeOptions, Decomposition};
use dagprio::core::prio::{PrioOptions, Prioritizer};
use dagprio::dagman::scan::chunk_at_lines;
use dagprio::dagman::{parse_dagman, parse_dagman_threads, DagmanError};
use dagprio::graph::reduction::{shortcut_arcs_into, shortcut_arcs_par_into};
use dagprio::graph::{Dag, GraphScratch, Label, NodeId, ScratchArena};
use proptest::prelude::*;

/// Random DAG strategy: arcs only between `i < j`.
fn arb_dag(max_n: usize, density: f64) -> impl Strategy<Value = Dag> {
    (2..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let k = pairs.len();
        proptest::collection::vec(proptest::bool::weighted(density), k).prop_map(move |mask| {
            let arcs: Vec<(u32, u32)> = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &m)| m)
                .map(|(&p, _)| p)
                .collect();
            Dag::from_arcs(n, &arcs).unwrap()
        })
    })
}

/// Random series composition of catalog-family blocks — the workload
/// shape the decomposition's fast path is built for.
fn arb_composed() -> impl Strategy<Value = Dag> {
    use dagprio::core::families::Family;
    use dagprio::graph::compose::series_zip;
    let fam = prop_oneof![
        (1usize..=3, 2usize..=3).prop_map(|(s, d)| Family::W { s, d }),
        (1usize..=2, 2usize..=3).prop_map(|(s, d)| Family::M { s, d }),
        (2usize..=4).prop_map(|d| Family::N { d }),
        (3usize..=4).prop_map(|d| Family::Cycle { d }),
        (1usize..=3, 1usize..=3).prop_map(|(s, t)| Family::Clique { s, t }),
    ];
    proptest::collection::vec(fam, 2..=3).prop_map(|fams| {
        let mut dag = fams[0].instantiate().0;
        for f in &fams[1..] {
            dag = series_zip(&dag, &f.instantiate().0).expect("zip composition");
        }
        dag
    })
}

/// `dag` rebuilt through [`Dag::from_sorted_arcs_unchecked`] (the CSR
/// build `build_superdag` runs) on `threads` threads, from its sorted,
/// duplicate-free arc list.
fn rebuilt(dag: &Dag, threads: usize) -> Dag {
    let arcs: Vec<(NodeId, NodeId)> = dag.arcs().collect();
    Dag::from_sorted_arcs_unchecked(labels_of(dag), &arcs, threads)
}

fn labels_of(dag: &Dag) -> Vec<Label> {
    dag.node_ids().map(|u| Label::from(dag.label(u))).collect()
}

fn assert_decompositions_equal(a: &Decomposition, b: &Decomposition) {
    assert_eq!(a.comp_removed, b.comp_removed);
    assert_eq!(a.general_search_iterations, b.general_search_iterations);
    assert_eq!(a.superdag, b.superdag);
    assert_eq!(a.parts.len(), b.parts.len());
    for (pa, pb) in a.parts.iter().zip(&b.parts) {
        assert_eq!(pa.nodes, pb.nodes);
        assert_eq!(pa.removed, pb.removed);
        assert_eq!(pa.local, pb.local);
        assert_eq!(pa.bipartite, pb.bipartite);
        assert_eq!(pa.via_fast_path, pb.via_fast_path);
    }
}

/// Renders `dag` as DAGMan text (JOB declarations in id order, one
/// PARENT statement per non-sink).
fn to_dagman_text(dag: &Dag) -> String {
    let mut text = String::new();
    for u in dag.node_ids() {
        text.push_str(&format!("JOB {} {}.sub\n", dag.label(u), dag.label(u)));
    }
    for u in dag.node_ids() {
        if dag.children(u).is_empty() {
            continue;
        }
        text.push_str(&format!("PARENT {} CHILD", dag.label(u)));
        for &v in dag.children(u) {
            text.push_str(&format!(" {}", dag.label(v)));
        }
        text.push('\n');
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The CSR build is thread-count invariant (including offset arrays
    /// and both adjacency directions, via `Dag`'s structural equality).
    #[test]
    fn assemble_is_thread_count_invariant(dag in arb_dag(24, 0.25)) {
        let serial = rebuilt(&dag, 0);
        for threads in [1, 2, 4] {
            prop_assert_eq!(&rebuilt(&dag, threads), &serial);
        }
        prop_assert_eq!(&serial, &dag);
    }

    /// The sharded transitive-reduction scan finds exactly the serial
    /// shortcut set, in the same order.
    #[test]
    fn parallel_reduction_matches_serial(dag in arb_dag(24, 0.3)) {
        let mut scratch = GraphScratch::new();
        let mut serial = Vec::new();
        shortcut_arcs_into(&dag, &mut scratch, &mut serial);
        for threads in [2, 3, 4] {
            let mut par = Vec::new();
            shortcut_arcs_par_into(&dag, &mut scratch, threads, &mut par);
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }

    /// The decomposition — peel order, part contents, local dags,
    /// superdag — is thread-count invariant on random dags.
    #[test]
    fn parallel_decompose_matches_serial(dag in arb_dag(20, 0.25)) {
        let opts = DecomposeOptions::default();
        let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
        for threads in [2, 4] {
            let par = decompose_in(&dag, opts, threads, &mut ScratchArena::new());
            assert_decompositions_equal(&par, &serial);
        }
    }

    /// Same, on the catalog-family compositions the fast path detaches.
    #[test]
    fn parallel_decompose_matches_serial_on_compositions(dag in arb_composed()) {
        let opts = DecomposeOptions::default();
        let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
        let par = decompose_in(&dag, opts, 4, &mut ScratchArena::new());
        assert_decompositions_equal(&par, &serial);
    }

    /// End to end: the full pipeline's schedule and priorities are
    /// bit-identical for every thread count.
    #[test]
    fn prioritize_is_thread_count_invariant(dag in arb_dag(20, 0.25)) {
        let run = |threads: usize| {
            Prioritizer::with_options(PrioOptions { threads, ..PrioOptions::default() })
                .prioritize(&dag)
                .unwrap()
                .schedule
        };
        let serial = run(0);
        for threads in [1, 4] {
            prop_assert_eq!(&run(threads), &serial, "threads={}", threads);
        }
    }

    /// The serial and the chunked DAGMan parse produce the same dag.
    #[test]
    fn dagman_parse_paths_agree(dag in arb_dag(16, 0.3)) {
        let text = to_dagman_text(&dag);
        let ast = parse_dagman(&text).unwrap().to_dag().unwrap();
        let chunked = parse_dagman_threads(&text, 4).unwrap().to_dag().unwrap();
        prop_assert_eq!(&chunked, &ast);
    }
}

/// A deterministic layered dag big enough to cross every adaptive
/// parallelism threshold (`MIN_PARALLEL_ARCS` = 2¹⁶ arcs for the CSR
/// build, `PARALLEL_WORK_THRESHOLD` = 2·10⁴ for materialization).
fn scale_dag() -> Dag {
    const WIDTH: usize = 60;
    const LAYERS: usize = 900;
    let n = WIDTH * LAYERS;
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    for l in 0..LAYERS - 1 {
        for i in 0..WIDTH {
            let u = (l * WIDTH + i) as u32;
            arcs.push((u, ((l + 1) * WIDTH + i) as u32));
            if i % 3 == 0 {
                arcs.push((u, ((l + 1) * WIDTH + (i + 11) % WIDTH) as u32));
            }
        }
    }
    Dag::from_arcs(n, &arcs).unwrap()
}

/// Above `MIN_PARALLEL_ARCS` the sharded CSR build actually runs (not its
/// serial fallback) — and still matches the serial arrays exactly.
#[test]
fn parallel_csr_build_bit_identical_at_scale() {
    let dag = scale_dag();
    assert!(dag.num_arcs() > 1 << 16, "must cross MIN_PARALLEL_ARCS");
    assert_eq!(rebuilt(&dag, 4), rebuilt(&dag, 0));
}

/// The four scientific workloads at a reduced-but-structural scale:
/// every stage — the CSR build, reduction, decomposition, the full
/// pipeline — is thread-count invariant on each of them.
#[test]
fn workload_suite_is_thread_count_invariant() {
    for w in dagprio::workloads::scaled_suite(0.25) {
        let dag = w.dag();

        assert_eq!(
            rebuilt(dag, 4),
            rebuilt(dag, 0),
            "{}: CSR build diverged",
            w.name
        );

        let mut scratch = GraphScratch::new();
        let mut shortcuts_serial = Vec::new();
        shortcut_arcs_into(dag, &mut scratch, &mut shortcuts_serial);
        let mut shortcuts_par = Vec::new();
        shortcut_arcs_par_into(dag, &mut scratch, 4, &mut shortcuts_par);
        assert_eq!(
            shortcuts_par, shortcuts_serial,
            "{}: reduction diverged",
            w.name
        );

        let opts = DecomposeOptions::default();
        let dec_serial = decompose_in(dag, opts, 0, &mut ScratchArena::new());
        let dec_par = decompose_in(dag, opts, 4, &mut ScratchArena::new());
        assert_decompositions_equal(&dec_par, &dec_serial);

        let run = |threads: usize| {
            Prioritizer::with_options(PrioOptions {
                threads,
                ..PrioOptions::default()
            })
            .prioritize(dag)
            .unwrap()
            .schedule
        };
        assert_eq!(run(4), run(0), "{}: pipeline diverged", w.name);
    }
}

/// Above `PARALLEL_WORK_THRESHOLD` the decomposition materializes parts
/// on worker threads — placed by index, so the result is still identical.
#[test]
fn parallel_decompose_bit_identical_at_scale() {
    let dag = scale_dag();
    assert!(
        dag.num_nodes() > 20_000,
        "must cross PARALLEL_WORK_THRESHOLD"
    );
    let opts = DecomposeOptions::default();
    let serial = decompose_in(&dag, opts, 0, &mut ScratchArena::new());
    let par = decompose_in(&dag, opts, 4, &mut ScratchArena::new());
    assert_decompositions_equal(&par, &serial);
}

/// A DAGMan file past `MIN_PARALLEL_PARSE_BYTES` (64 KiB): per job a `JOB`
/// and a `VARS` line and a `PARENT … CHILD` chain link, a two-parent fan-in
/// every 7 jobs and a comment plus a blank line every 10, so chunk
/// boundaries fall among every statement kind.
fn large_dagman_text() -> String {
    let mut text = String::new();
    for i in 0..3000usize {
        text.push_str(&format!("JOB j{i:05} j{i:05}.sub\n"));
        text.push_str(&format!("VARS j{i:05} jobpriority=\"{i}\"\n"));
        if i % 10 == 0 {
            text.push_str("# checkpoint\n\n");
        }
        if i > 0 {
            text.push_str(&format!("PARENT j{:05} CHILD j{i:05}\n", i - 1));
        }
        if i >= 7 && i % 7 == 0 {
            text.push_str(&format!(
                "PARENT j{:05} j{:05} CHILD j{i:05}\n",
                i - 7,
                i - 3
            ));
        }
    }
    assert!(text.len() > 1 << 16, "must cross MIN_PARALLEL_PARSE_BYTES");
    text
}

/// The 1-based number of the first `VARS` line at or after the middle of
/// chunk `k` when `text` is split for `threads` workers.
fn vars_line_in_chunk(text: &str, threads: usize, k: usize) -> usize {
    let (range, start_line) = chunk_at_lines(text, threads)[k].clone();
    let chunk = &text[range];
    let lines: Vec<&str> = chunk.lines().collect();
    let offset = (lines.len() / 2..lines.len())
        .find(|&i| lines[i].starts_with("VARS "))
        .expect("a VARS line in the chunk's second half");
    start_line + offset
}

/// `text` with line `line` (1-based) replaced by `new`, padded with spaces
/// to the old length so every chunk boundary stays where it was.
fn replace_line(text: &str, line: usize, new: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, old) in text.lines().enumerate() {
        if i + 1 == line {
            assert!(new.len() <= old.len(), "{new:?} longer than {old:?}");
            out.push_str(&format!("{new:<width$}", width = old.len()));
        } else {
            out.push_str(old);
        }
        out.push('\n');
    }
    out
}

/// Above `MIN_PARALLEL_PARSE_BYTES` the chunked parse actually splits the
/// input, and still equals the serial parse: the whole statement list,
/// not only the dag it reduces to.
#[test]
fn dagman_chunked_parse_matches_serial_above_threshold() {
    let text = large_dagman_text();
    let serial = parse_dagman(&text).unwrap();
    for threads in [2, 3, 4] {
        assert_eq!(chunk_at_lines(&text, threads).len(), threads);
        let chunked = parse_dagman_threads(&text, threads).unwrap();
        assert_eq!(chunked, serial, "threads={threads}");
    }
}

/// A malformed line in the first, a middle or the last chunk gives the
/// chunked parse exactly the serial parser's error (variant and line),
/// also when a second malformed line sits in a later chunk.
#[test]
fn dagman_chunked_parse_errors_match_serial_in_every_chunk() {
    let text = large_dagman_text();
    for threads in [2, 3, 4] {
        let last = threads - 1;
        for k in [0, threads / 2, last] {
            let bad_line = vars_line_in_chunk(&text, threads, k);
            let mut bad = replace_line(&text, bad_line, "JOB onlyname");
            if k < last {
                let later = vars_line_in_chunk(&text, threads, last);
                bad = replace_line(&bad, later, "PRIORITY j00001 x");
            }
            assert_eq!(
                chunk_at_lines(&bad, threads),
                chunk_at_lines(&text, threads)
            );
            let serial = parse_dagman(&bad).unwrap_err();
            assert!(
                matches!(serial, DagmanError::Malformed { line, .. } if line == bad_line),
                "{serial:?}"
            );
            let ctx = format!("threads={threads} chunk={k}");
            assert_eq!(
                parse_dagman_threads(&bad, threads).unwrap_err(),
                serial,
                "{ctx}"
            );
        }
    }
}

/// A duplicate `JOB` whose two declarations sit in different chunks is
/// reported exactly as the serial parse-then-`to_dag` path reports it.
#[test]
fn dagman_duplicate_job_across_chunks_matches_serial() {
    let text = large_dagman_text();
    for threads in [2, 3, 4] {
        let line = vars_line_in_chunk(&text, threads, threads - 1);
        let dup = replace_line(&text, line, "JOB j00002 dup.sub");
        let serial = parse_dagman(&dup).unwrap();
        let chunked = parse_dagman_threads(&dup, threads).unwrap();
        assert_eq!(chunked, serial, "threads={threads}");
        let expected = serial.to_dag().unwrap_err();
        assert!(
            matches!(&expected, DagmanError::DuplicateJob { job, .. } if job == "j00002"),
            "{expected:?}"
        );
        assert_eq!(chunked.to_dag().unwrap_err(), expected, "threads={threads}");
    }
}
