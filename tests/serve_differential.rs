//! Differential tests: every response the daemon produces is
//! byte-identical to the one-shot `prioritize_workflow_text` facade —
//! for every workload family, every frontend format, a cold cache and
//! two warm sightings (the first renders and memoizes, the second replays
//! through the text-memo fast path), and worker pools of 1 and 4
//! threads. A cache hit or a fast-path replay must never change a single
//! byte.

use std::collections::BTreeMap;
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};

use dagprio::ir::Workflow;
use dagprio::obs::json::{parse, JsonValue};
use dagprio::serve::{encode_request, serve_streams, ServeConfig, ServeStats};
use dagprio::workloads::scaled_suite;
use proptest::prelude::*;

const FORMATS: [&str; 3] = ["dagman", "json", "edges"];

/// A writer handing the daemon's output back through a shared buffer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one in-process daemon session over the given request lines and
/// returns the parsed responses keyed by id, plus the final statistics.
fn run_session(lines: &[String], config: ServeConfig) -> (BTreeMap<String, JsonValue>, ServeStats) {
    let buf = SharedBuf::default();
    let input = lines.join("\n") + "\n";
    let stats = serve_streams(Cursor::new(input), Box::new(buf.clone()), config);
    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("responses are UTF-8");
    let by_id = text
        .lines()
        .map(|line| {
            let v = parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
            let id = v
                .get("id")
                .and_then(JsonValue::as_str)
                .expect("response has an id")
                .to_owned();
            (id, v)
        })
        .collect();
    (by_id, stats)
}

fn str_field<'v>(v: &'v JsonValue, key: &str) -> &'v str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing string field {key:?} in {v:?}"))
}

fn bool_field(v: &JsonValue, key: &str) -> bool {
    v.get(key)
        .and_then(JsonValue::as_bool)
        .unwrap_or_else(|| panic!("missing bool field {key:?} in {v:?}"))
}

/// Renders a workflow as *input* text in the named format (priorities
/// unset, exactly like a file a user would feed the tool).
fn input_text(workflow: &Workflow, format: &str) -> String {
    let reg = dagprio::dagman::registry();
    let frontend = reg
        .by_name(format)
        .unwrap_or_else(|| panic!("format {format:?} registered"));
    frontend.export(workflow, workflow.priorities())
}

/// The cold/warm differential at one (input text, format, thread count):
/// a fresh daemon serves the same request three times; every response
/// must be byte-identical to the facade, and with a single worker exactly
/// one of the first two is served from cache and the third replays.
fn assert_cold_warm(label: &str, text: &str, format: &str, threads: usize) {
    let reference = dagprio::prioritize_workflow_text(text, None, Some(format))
        .unwrap_or_else(|e| panic!("{label}/{format}: facade failed: {e}"))
        .1;
    let lines = vec![
        encode_request("cold", text, Some(format), None),
        encode_request("warm", text, Some(format), None),
        encode_request("replay", text, Some(format), None),
    ];
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let (by_id, stats) = run_session(&lines, config);
    assert_eq!(by_id.len(), 3, "{label}/{format}/t{threads}");
    for id in ["cold", "warm", "replay"] {
        let v = &by_id[id];
        assert_eq!(
            str_field(v, "status"),
            "ok",
            "{label}/{format}/t{threads}/{id}"
        );
        assert_eq!(
            str_field(v, "format"),
            format,
            "{label}/{format}/t{threads}/{id}"
        );
        assert_eq!(
            str_field(v, "output"),
            reference,
            "{label}/{format}/t{threads}/{id}: served output differs from the one-shot facade"
        );
    }
    if threads == 1 {
        // A single worker serializes the pair: the first compute misses,
        // the replay hits. (With more workers the two may race and both
        // miss — byte identity must hold either way, asserted above.)
        let cached: Vec<bool> = ["cold", "warm"]
            .iter()
            .map(|id| bool_field(&by_id[*id], "cached"))
            .collect();
        assert_eq!(
            cached.iter().filter(|&&c| c).count(),
            1,
            "{label}/{format}: exactly one of an identical pair is cached, got {cached:?}"
        );
        assert!(
            bool_field(&by_id["replay"], "cached"),
            "{label}/{format}: the third sighting replays from cache"
        );
        assert_eq!(
            (stats.cache.hits, stats.cache.misses),
            (2, 1),
            "{label}/{format}"
        );
    }
    assert_eq!(
        (stats.ok, stats.errors),
        (3, 0),
        "{label}/{format}/t{threads}"
    );
}

/// Every scientific workload family × every frontend format × cold/warm
/// × 1 worker thread.
#[test]
fn families_and_formats_match_the_facade_single_worker() {
    for workload in scaled_suite(0.02) {
        for format in FORMATS {
            let text = input_text(&workload.workflow, format);
            assert_cold_warm(workload.name, &text, format, 1);
        }
    }
}

/// The same matrix with a 4-worker pool, plus a duplicate-heavy burst:
/// six identical pipelined requests race through the pool and every one
/// must still replay the facade's bytes, whichever mix of cache hits and
/// parallel recomputes actually happened.
#[test]
fn families_and_formats_match_the_facade_four_workers() {
    for workload in scaled_suite(0.02) {
        for format in FORMATS {
            let text = input_text(&workload.workflow, format);
            assert_cold_warm(workload.name, &text, format, 4);

            let reference = dagprio::prioritize_workflow_text(&text, None, Some(format))
                .unwrap()
                .1;
            let lines: Vec<String> = (0..6)
                .map(|i| encode_request(&format!("r{i}"), &text, Some(format), None))
                .collect();
            let config = ServeConfig {
                threads: 4,
                ..ServeConfig::default()
            };
            let (by_id, stats) = run_session(&lines, config);
            assert_eq!(by_id.len(), 6, "{}/{format}", workload.name);
            for (id, v) in &by_id {
                assert_eq!(
                    str_field(v, "output"),
                    reference,
                    "{}/{format}/{id}: racing duplicate diverged from the facade",
                    workload.name
                );
            }
            assert_eq!(
                (stats.ok, stats.errors),
                (6, 0),
                "{}/{format}",
                workload.name
            );
        }
    }
}

/// Cross-format serving: the response rendered in a *different* output
/// format than the input is identical cold and warm, and matches an
/// import→prioritize→export reference built from the same pipeline
/// pieces the facade uses.
#[test]
fn cross_format_output_is_stable_cold_and_warm() {
    let workload = &scaled_suite(0.02)[0];
    let text = input_text(&workload.workflow, "edges");

    let reg = dagprio::dagman::registry();
    let input = reg.by_name("edges").unwrap();
    let wf = input.import(&text).unwrap();
    let result = dagprio::core::prioritize(&wf).unwrap();
    for output in FORMATS {
        let reference = reg
            .by_name(output)
            .unwrap()
            .export(&wf, &result.priorities());
        let lines = vec![
            encode_request("cold", &text, Some("edges"), Some(output)),
            encode_request("warm", &text, Some("edges"), Some(output)),
            encode_request("replay", &text, Some("edges"), Some(output)),
        ];
        let (by_id, stats) = run_session(&lines, ServeConfig::default());
        for id in ["cold", "warm", "replay"] {
            let v = &by_id[id];
            assert_eq!(str_field(v, "status"), "ok", "{output}/{id}");
            assert_eq!(str_field(v, "format"), output, "{output}/{id}");
            assert_eq!(str_field(v, "output"), reference, "{output}/{id}");
        }
        assert_eq!((stats.ok, stats.errors), (3, 0), "{output}");
    }
}

/// Two inputs with the identical CSR but different per-job metadata
/// (dagman submit files) share one *schedule* entry — and must never
/// share rendered bytes: every response, cold and warm, is
/// byte-identical to its own facade run, not the other input's.
#[test]
fn same_csr_different_metadata_never_replays_foreign_bytes() {
    let x = "JOB a ax.sub\nJOB b bx.sub\nPARENT a CHILD b\n";
    let y = "JOB a ay.sub\nJOB b by.sub\nPARENT a CHILD b\n";
    let ref_x = dagprio::prioritize_workflow_text(x, None, Some("dagman"))
        .unwrap()
        .1;
    let ref_y = dagprio::prioritize_workflow_text(y, None, Some("dagman"))
        .unwrap()
        .1;
    assert_ne!(ref_x, ref_y, "submit files must show up in the export");

    let lines = vec![
        encode_request("x1", x, Some("dagman"), None),
        encode_request("y1", y, Some("dagman"), None),
        encode_request("x2", x, Some("dagman"), None),
        encode_request("y2", y, Some("dagman"), None),
    ];
    let config = ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    };
    let (by_id, stats) = run_session(&lines, config);
    for (id, reference) in [
        ("x1", &ref_x),
        ("y1", &ref_y),
        ("x2", &ref_x),
        ("y2", &ref_y),
    ] {
        let v = &by_id[id];
        assert_eq!(str_field(v, "status"), "ok", "{id}");
        assert_eq!(
            str_field(v, "output"),
            reference.as_str(),
            "{id}: rendered bytes leaked across same-CSR cache entries"
        );
    }
    // x1 misses cold; y1 hits the shared schedule entry but renders its
    // own bytes; the two replays hit. One entry total.
    assert_eq!((stats.cache.hits, stats.cache.misses), (3, 1), "{stats:?}");
    assert_eq!(stats.cache.entries, 1, "same CSR shares one schedule entry");
    assert_eq!((stats.ok, stats.errors), (4, 0));
}

/// Random DAG strategy: arcs only between `i < j`, so every sample is
/// acyclic by construction (mirrors the pipeline proptest suite).
fn arb_dag(max_n: usize, density: f64) -> impl Strategy<Value = dagprio::graph::Dag> {
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
            dagprio::graph::Dag::from_arcs(n, &arcs).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random dags through every format: the served response (cold and
    /// warm) equals the facade byte-for-byte.
    #[test]
    fn random_dags_match_the_facade(dag in arb_dag(14, 0.3)) {
        let workflow = Workflow::synthetic(dag);
        for format in FORMATS {
            let text = input_text(&workflow, format);
            assert_cold_warm("random", &text, format, 1);
        }
    }
}
