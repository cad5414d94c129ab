//! `prio instrument` (alias `run`) — the paper's tool: prioritize a
//! workflow file.
//!
//! DAGMan inputs get the paper's line-faithful treatment: `jobpriority`
//! `VARS` statements are inserted into a minimal diff of the original
//! file and each referenced job-submit description file found on disk is
//! instrumented with `priority = $(jobpriority)`. Other formats
//! (`--format json|edges`, or auto-detected) go through their frontend:
//! import to the IR, prioritize, and export the same format with the
//! computed priorities attached.

use crate::args::Args;
use crate::commands::resolve_frontend;
use crate::error::CliError;
use prio_core::prio::{PrioOptions, Prioritizer};
use prio_dagman::instrument::{instrument_dagman_with, priorities_by_job, InstrumentMode};
use prio_dagman::jsdf::Jsdf;
use prio_dagman::parse::parse_dagman_threads;
use prio_dagman::registry;
use prio_dagman::write::write_dagman;
use prio_graph::Dag;
use prio_ir::FormatId;
use std::path::{Path, PathBuf};

pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = Args::parse(argv)?;
    let path = args.one_positional()?.to_string();
    let text =
        std::fs::read_to_string(&path).map_err(|e| CliError::input(format!("{path}: {e}")))?;
    let reg = registry();
    let frontend = resolve_frontend(&reg, args.get("format"), Some(&path), &text)?;

    let search: usize = args.get_parsed("search", 0)?;
    let threads: usize = args.get_parsed("threads", 0)?;
    let prioritizer = Prioritizer::with_options(PrioOptions {
        optimal_search_limit: search,
        threads,
        ..PrioOptions::default()
    });

    let (instrumented, dag, stats_line) = if frontend.id() == FormatId::Dagman {
        // Paper-exact path: minimal diff of the original DAGMan text.
        let mode = match args.get("mode") {
            None | Some("vars") => InstrumentMode::VarsMacro,
            Some("priority") => InstrumentMode::PriorityStatement,
            Some(other) => {
                return Err(CliError::usage(format!(
                    "unknown --mode {other:?} (vars|priority)"
                )))
            }
        };
        let mut file = parse_dagman_threads(&text, threads)
            .map_err(|e| CliError::input(format!("{path}: {}", prio_core::PrioError::from(e))))?;
        let dag = file
            .to_dag()
            .map_err(|e| CliError::input(format!("{path}: {}", prio_core::PrioError::from(e))))?;
        let result = prioritizer.prioritize(&dag)?;
        let names = result.schedule.order().iter().map(|&u| dag.label(u));
        let priorities = priorities_by_job(names);
        instrument_dagman_with(&mut file, &priorities, mode)?;
        let stats = format!(
            "{} components, {} shortcuts removed",
            result.stats.num_components, result.stats.shortcuts_removed
        );

        // Instrument each distinct referenced JSDF we can locate, once.
        let jsdf_dir = args
            .get("jsdf-dir")
            .map(PathBuf::from)
            .or_else(|| Path::new(&path).parent().map(Path::to_path_buf))
            .unwrap_or_else(|| PathBuf::from("."));
        for submit in file.submit_files() {
            let jsdf_path = jsdf_dir.join(submit);
            match std::fs::read_to_string(&jsdf_path) {
                Ok(jsdf_text) => {
                    let mut jsdf = Jsdf::parse(&jsdf_text);
                    jsdf.instrument_priority();
                    std::fs::write(&jsdf_path, jsdf.to_text())
                        .map_err(|e| CliError::input(format!("{}: {e}", jsdf_path.display())))?;
                    eprintln!("prio: instrumented {}", jsdf_path.display());
                }
                Err(_) => {
                    eprintln!(
                        "prio: note: submit file {} not found, skipped",
                        jsdf_path.display()
                    );
                }
            }
        }
        (write_dagman(&file), dag, stats)
    } else {
        // Generic frontend path: IR in, same format out with priorities.
        let workflow = frontend
            .import(&text)
            .map_err(|e| CliError::input(format!("{path}: {e}")))?;
        let result = prioritizer.prioritize_workflow(&workflow)?;
        let rendered = frontend.export(&workflow, &result.priorities());
        let stats = format!(
            "{} components, {} shortcuts removed",
            result.stats.num_components, result.stats.shortcuts_removed
        );
        (rendered, workflow.into_dag(), stats)
    };

    let output: PathBuf = if args.has("in-place") {
        PathBuf::from(&path)
    } else if let Some(out) = args.get("output") {
        PathBuf::from(out)
    } else {
        // foo.dag -> foo.prio.dag (and foo.json -> foo.prio.json, …)
        let p = Path::new(&path);
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("out");
        let ext = p
            .extension()
            .and_then(|s| s.to_str())
            .unwrap_or_else(|| frontend.id().extension());
        p.with_file_name(format!("{stem}.prio.{ext}"))
    };
    std::fs::write(&output, instrumented)
        .map_err(|e| CliError::input(format!("{}: {e}", output.display())))?;
    eprintln!(
        "prio: wrote {} ({} jobs, {stats_line})",
        output.display(),
        dag.num_nodes(),
    );

    // Structured snapshot of the pipeline's spans and counters as JSONL.
    if let Some(out) = args.get("trace-out") {
        write_trace(out, &path, &dag)?;
    }
    Ok(())
}

fn write_trace(out: &str, path: &str, dag: &Dag) -> Result<(), CliError> {
    let sink = prio_obs::JsonlSink::to_file(Path::new(out))
        .map_err(|e| CliError::input(format!("{out}: {e}")))?;
    sink.write_meta(
        "instrument",
        &format!("input={path} jobs={}", dag.num_nodes()),
    )
    .map_err(|e| CliError::input(format!("{out}: {e}")))?;
    sink.write_span_snapshot()
        .map_err(|e| CliError::input(format!("{out}: {e}")))?;
    sink.write_metrics_snapshot()
        .map_err(|e| CliError::input(format!("{out}: {e}")))?;
    sink.flush()
        .map_err(|e| CliError::input(format!("{out}: {e}")))?;
    eprintln!("prio: wrote timing snapshot to {out}");
    Ok(())
}
