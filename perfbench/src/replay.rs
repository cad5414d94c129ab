//! The traced replay: the same inputs the programs received, run again
//! in-process through each layer's public functions, one call at a time.
//! Spans are taken here, around the calls; the program itself is not
//! instrumented. The replay's outputs must equal what the CLI and the
//! daemon returned, and its layer times must add up to its own wall time.

use crate::client::Planned;
use crate::gen::PoolEntry;
use prio_core::combine::{combine, CombineEngine};
use prio_core::component::ScheduleSource;
use prio_core::component_schedule::schedule_part;
use prio_core::decompose::{decompose_in, DecomposeOptions};
use prio_core::{PrioContext, Prioritizer};
use prio_dagman::frontend::workflow_from_file;
use prio_dagman::instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
use prio_dagman::jsdf::Jsdf;
use prio_dagman::parse::{parse_dagman, parse_dagman_threads};
use prio_dagman::write::write_dagman;
use prio_graph::reduction::{remove_arcs, shortcut_arcs_par_into};
use prio_graph::topo::linear_extension_violation;
use prio_graph::{Dag, GraphScratch, NodeId, ScratchArena};
use prio_ir::{FormatRegistry, Priorities};
use prio_obs::mem;
use prio_serve::protocol::ok_response;
use prio_serve::{parse_request, render_key, text_key, workflow_key, ResultCache, ServeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Busy time per layer function, and the counts the calls returned.
#[derive(Default, Debug)]
pub struct Layers {
    pub secs: BTreeMap<String, f64>,
    pub calls: BTreeMap<String, u64>,
    pub counts: BTreeMap<String, f64>,
}

impl Layers {
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        *self.secs.entry(name.to_string()).or_default() += t0.elapsed().as_secs_f64();
        *self.calls.entry(name.to_string()).or_default() += 1;
        out
    }

    /// Records the peak bytes allocated since `base` (from
    /// [`mem::reset_peak`]) as `name`, in MiB, keeping the largest seen.
    fn peak(&mut self, name: &str, base: usize) {
        let mb = mem::peak_since(base) as f64 / f64::from(1 << 20);
        let slot = self.counts.entry(name.to_string()).or_default();
        *slot = slot.max(mb);
    }

    fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_default() += v;
    }

    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }
}

/// One replayed CLI operation: what it wrote and the time of each layer.
pub struct FileOp {
    pub output: String,
    pub jsdfs: BTreeMap<String, String>,
    pub layers: Layers,
    pub wall: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `prio instrument` on a DAGMan file, as the CLI runs it with default
/// flags: parse, extract the DAG, prioritize, insert the `VARS` lines,
/// instrument each referenced submit file, write the file back. `jsdfs`
/// holds the submit files found beside the DAG; reading and writing files
/// is I/O, left to the residual.
pub fn instrument_dagman(text: &str, jsdfs: &BTreeMap<String, String>) -> Result<FileOp, String> {
    let mut l = Layers::default();
    let t0 = Instant::now();
    let base = mem::reset_peak();
    let mut file = l
        .time("dagman.parse", || parse_dagman_threads(text, 0))
        .map_err(err)?;
    let dag = l.time("dagman.to_dag", || file.to_dag()).map_err(err)?;
    l.peak("dagman.to_dag_peak_mb", base);
    let base = mem::reset_peak();
    let result = l
        .time("core.prioritize", || Prioritizer::new().prioritize(&dag))
        .map_err(err)?;
    l.peak("core.prioritize_peak_mb", base);
    let order = result.schedule.order();
    let before = file.statements.len();
    l.time("dagman.instrument", || {
        let priorities = priorities_by_job(order.iter().map(|&u| dag.label(u)));
        instrument_dagman_with(&mut file, &priorities, InstrumentMode::VarsMacro)
    })
    .map_err(err)?;
    let out_jsdfs = l.time("dagman.jsdf", || {
        let mut seen = BTreeSet::new();
        let mut out = BTreeMap::new();
        for job in file.job_names() {
            if let Some(submit) = file.submit_file(job) {
                if !seen.insert(submit.to_string()) {
                    continue;
                }
                if let Some(text) = jsdfs.get(submit) {
                    let mut jsdf = Jsdf::parse(text);
                    jsdf.instrument_priority();
                    out.insert(submit.to_string(), jsdf.to_text());
                }
            }
        }
        out
    });
    let output = l.time("dagman.write", || write_dagman(&file));
    let wall = t0.elapsed().as_secs_f64();
    l.count(
        "dagman.statements_inserted",
        (file.statements.len() - before) as f64,
    );
    l.count("dagman.bytes_out", output.len() as f64);
    stages(&dag, order, &mut l)?;
    Ok(FileOp {
        output,
        jsdfs: out_jsdfs,
        layers: l,
        wall,
    })
}

/// `prio instrument` on a JSON or edge-list file: the frontend imports,
/// the pipeline prioritizes, the same frontend exports.
pub fn instrument_generic(format: &str, text: &str) -> Result<FileOp, String> {
    let reg = prio_dagman::registry();
    let frontend = reg.by_name(format).ok_or("unknown format")?;
    let mut l = Layers::default();
    let t0 = Instant::now();
    let import = format!("ir.import.{format}");
    let workflow = l.time(&import, || frontend.import(text)).map_err(err)?;
    let base = mem::reset_peak();
    let result = l
        .time("core.prioritize", || {
            Prioritizer::new().prioritize_workflow(&workflow)
        })
        .map_err(err)?;
    l.peak("core.prioritize_peak_mb", base);
    let export = format!("ir.export.{format}");
    let output = l.time(&export, || frontend.export(&workflow, &result.priorities()));
    let wall = t0.elapsed().as_secs_f64();
    l.count("dagman.bytes_out", output.len() as f64);
    stages(workflow.dag(), result.schedule.order(), &mut l)?;
    Ok(FileOp {
        output,
        jsdfs: BTreeMap::new(),
        layers: l,
        wall,
    })
}

/// `prio schedule` on a DAGMan file: the DAGMan frontend's import (parse,
/// then the IR), the pipeline, then one `name<TAB>priority` line per job.
/// Formatting the lines is not a layer call; it is built outside the timed
/// calls, for the comparison with the CLI's output.
pub fn schedule_dagman(text: &str) -> Result<FileOp, String> {
    let mut l = Layers::default();
    let t0 = Instant::now();
    let base = mem::reset_peak();
    let file = l.time("dagman.parse", || parse_dagman(text)).map_err(err)?;
    // The CLI drops the parsed file inside its import call; so does this.
    let workflow = l
        .time("dagman.to_workflow", || {
            let workflow = workflow_from_file(&file);
            drop(file);
            workflow
        })
        .map_err(err)?;
    l.peak("dagman.to_dag_peak_mb", base);
    let dag = workflow.into_dag();
    let base = mem::reset_peak();
    let result = l
        .time("core.prioritize", || Prioritizer::new().prioritize(&dag))
        .map_err(err)?;
    l.peak("core.prioritize_peak_mb", base);
    let wall = t0.elapsed().as_secs_f64();
    let order = result.schedule.order();
    let n = order.len();
    let mut output = String::with_capacity(n * 16);
    for (i, &u) in order.iter().enumerate() {
        output.push_str(dag.label(u));
        output.push('\t');
        output.push_str(&(n - i).to_string());
        output.push('\n');
    }
    stages(&dag, order, &mut l)?;
    Ok(FileOp {
        output,
        jsdfs: BTreeMap::new(),
        layers: l,
        wall,
    })
}

/// The pipeline behind `Prioritizer::prioritize_in`, one stage call at a
/// time with the stages' own public functions: shortcut removal, the
/// decomposition, each component's schedule, the greedy combine and the
/// linear-extension check. Its order must equal `expected`; its stage
/// times break `core.prioritize` down and are kept apart from the
/// reconciled layer sum, which already holds `core.prioritize`.
fn stages(dag: &Dag, expected: &[NodeId], l: &mut Layers) -> Result<(), String> {
    let mut s = Layers::default();
    let mut scratch = GraphScratch::default();
    let mut shortcuts = Vec::new();
    s.time("graph.reduce", || {
        shortcut_arcs_par_into(dag, &mut scratch, 0, &mut shortcuts)
    });
    let reduced_storage;
    let reduced = if shortcuts.is_empty() {
        dag
    } else {
        reduced_storage = s.time("graph.remove_arcs", || remove_arcs(dag, &shortcuts));
        &reduced_storage
    };
    let d = s.time("core.decompose", || {
        decompose_in(
            reduced,
            DecomposeOptions::default(),
            0,
            &mut ScratchArena::new(),
        )
    });
    let scheduled = s.time("core.schedule", || {
        d.parts
            .iter()
            .map(|p| schedule_part(reduced, p, 0))
            .collect::<Vec<_>>()
    });
    let profiles: Vec<&[usize]> = scheduled.iter().map(|(_, _, p)| p.as_slice()).collect();
    let comp_order = s.time("core.combine", || {
        combine(&d.superdag, &profiles, CombineEngine::default())
    });
    let mut order: Vec<NodeId> = Vec::with_capacity(dag.num_nodes());
    for &ci in &comp_order {
        order.extend_from_slice(&scheduled[ci].0);
    }
    order.extend(dag.sinks());
    if let Some(v) = s.time("graph.check", || linear_extension_violation(dag, &order)) {
        return Err(format!(
            "staged pipeline order is not a linear extension: {v}"
        ));
    }
    if order != expected {
        return Err("staged pipeline order differs from Prioritizer::prioritize".into());
    }
    let fallback = scheduled
        .iter()
        .filter(|(_, src, _)| matches!(src, ScheduleSource::OutDegreeHeuristic))
        .count();
    l.count("graph.shortcuts", shortcuts.len() as f64);
    l.count("core.components", d.parts.len() as f64);
    l.count(
        "core.general_search_iterations",
        d.general_search_iterations as f64,
    );
    l.count("core.fallback_components", fallback as f64);
    for (k, v) in s.secs {
        l.count(&format!("stage.{k}"), v);
    }
    Ok(())
}

/// The daemon's request path (`prio serve`, default settings), replayed
/// in send order with one result cache: parse the request line, key it,
/// look it up, and on a miss import, prioritize, export and remember.
pub struct ServeReplay {
    pub layers: Layers,
    pub wall: f64,
    pub requests: u64,
    pub misses: u64,
    pub mismatches: Vec<String>,
}

pub fn serve(log: &[(Planned, u64)], pool: &[PoolEntry]) -> Result<ServeReplay, String> {
    let reg: FormatRegistry = prio_dagman::registry();
    let cache = ResultCache::new(ServeConfig::default().cache_bytes);
    let mut ctx = PrioContext::new();
    let mut l = Layers::default();
    let mut r = ServeReplay {
        layers: Layers::default(),
        wall: 0.0,
        requests: 0,
        misses: 0,
        mismatches: Vec::new(),
    };
    let lines: Vec<String> = log.iter().map(|(p, _)| p.line(pool)).collect();
    let t0 = Instant::now();
    for ((p, want), line) in log.iter().zip(&lines) {
        let output = serve_one(line, &reg, &cache, &mut ctx, &mut l, &mut r.misses)?;
        if crate::client::digest(&output) != *want && r.mismatches.len() < 5 {
            r.mismatches.push(p.id.clone());
        }
        r.requests += 1;
    }
    r.wall = t0.elapsed().as_secs_f64();
    r.layers = l;
    Ok(r)
}

fn serve_one(
    line: &str,
    reg: &FormatRegistry,
    cache: &ResultCache,
    ctx: &mut PrioContext,
    l: &mut Layers,
    misses: &mut u64,
) -> Result<Arc<str>, String> {
    let req = l
        .time("serve.parse_request", || parse_request(line, &mut None))
        .map_err(|e| e.message)?;
    let format = req.format.as_deref().ok_or("request without format")?;
    let tk = l.time("serve.key", || text_key(format, &req.workflow));
    let out = reg
        .by_name(req.output.as_deref().unwrap_or(format))
        .ok_or("unknown output format")?;
    let fast = l.time("serve.cache", || {
        let (key, _, n, render) = cache.memo_get(tk)?;
        cache.rendered_hit(key, n, render, out.id())
    });
    let rendered: Arc<str> = match fast {
        Some(text) => text,
        None => {
            let frontend = reg.by_name(format).ok_or("unknown format")?;
            let import = format!("ir.import.{format}");
            let workflow = l
                .time(&import, || frontend.import(&req.workflow))
                .map_err(err)?;
            let n = workflow.num_jobs();
            let (key, rk) = l.time("serve.key", || {
                (workflow_key(workflow.dag()), render_key(&workflow))
            });
            let export = format!("ir.export.{}", out.id().name());
            let hit = l.time("serve.cache", || {
                cache.get_with_rendered(key, n, rk, out.id())
            });
            let (order, text) = match hit {
                Some((order, text)) => (order, text),
                None => {
                    *misses += 1;
                    let result = l
                        .time("core.prioritize", || {
                            Prioritizer::new().prioritize_workflow_in(&workflow, ctx)
                        })
                        .map_err(err)?;
                    let order: Arc<[NodeId]> = result.schedule.order().into();
                    l.time("serve.cache", || cache.insert(key, order.clone()));
                    (order, None)
                }
            };
            let text = match text {
                Some(text) => text,
                None => {
                    let text: Arc<str> = l
                        .time(&export, || {
                            out.export(&workflow, &Priorities::from_order(&order, n))
                        })
                        .into();
                    l.time("serve.cache", || {
                        cache.note_rendered(key, rk, out.id(), Arc::clone(&text))
                    });
                    text
                }
            };
            l.time("serve.cache", || {
                cache.memo_insert(tk, key, frontend.id(), n, rk)
            });
            text
        }
    };
    l.time("serve.respond", || {
        ok_response(&req.id, out.id().name(), true, &rendered)
    });
    Ok(rendered)
}
