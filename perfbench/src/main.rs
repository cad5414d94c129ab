//! Helper for `perfbench/run.py`: builds the seeded inputs, checks the
//! programs' outputs, drives the daemon's clients, and replays each run
//! in-process with a timer around every layer call.
//!
//! ```text
//! perfbench gen     <workload> --seed N --dir D
//! perfbench checker <workload> --seed N --dir D      (stdin: "<entry> <output path>" lines)
//! perfbench warm    <workload> --seed N --dir D --addr HOST:PORT
//! perfbench client  <workload> --seed N --dir D --addr HOST:PORT     (stdin: slice lengths in s)
//! perfbench replay  <workload> --seed N --dir D --entries E,E,.. --reps R --serve-limit N
//! ```
//!
//! Each prints one JSON object on stdout and exits non-zero on an error.
//! `checker` answers one line per checked output; `client` runs its closed
//! loop for each slice length it reads, answers `done`, and prints its
//! summary at end of input.

mod check;
mod client;
mod gen;
mod minijson;
mod replay;

use gen::{Families, Graph};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// Peak-memory figures of the replay come from the same counting allocator
/// the `prio` binary installs.
#[global_allocator]
static ALLOC: prio_obs::mem::CountingAllocator = prio_obs::mem::CountingAllocator;

struct Args {
    workload: String,
    seed: u64,
    dir: PathBuf,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn flag(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or(format!("missing --{name}"))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let workload = argv.first().ok_or("missing workload")?.clone();
    let mut flags = BTreeMap::new();
    let mut it = argv[1..].iter();
    while let Some(k) = it.next() {
        let name = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), v.clone());
    }
    let seed = flags
        .get("seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let dir = PathBuf::from(flags.get("dir").ok_or("missing --dir")?);
    Ok(Args {
        workload,
        seed,
        dir,
        flags,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => parse_args(rest).and_then(|a| match cmd.as_str() {
            "gen" => cmd_gen(&a),
            "checker" => cmd_checker(&a),
            "warm" => cmd_warm(&a),
            "client" => cmd_client(&a),
            "replay" => cmd_replay(&a),
            other => Err(format!("unknown command {other:?}")),
        }),
        None => Err(
            "usage: perfbench gen|checker|warm|client|replay <workload> --seed N --dir D".into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The file a one-shot operation of `workload` reads, by entry.
fn input_path(a: &Args, entry: usize, pool: &[gen::PoolEntry]) -> PathBuf {
    match a.workload.as_str() {
        "serve_mix" => a
            .dir
            .join("pool")
            .join(format!("{entry}.{}", gen::extension(pool[entry].format))),
        _ => a.dir.join("input.dag"),
    }
}

fn cmd_gen(a: &Args) -> Result<(), String> {
    let (jobs, arcs, bytes, files) = match a.workload.as_str() {
        "instrument_montage" | "schedule_layered" => {
            let input = if a.workload == "schedule_layered" {
                gen::layered_file(a.seed)
            } else {
                gen::montage_file(a.seed)
            };
            write(&a.dir.join("input.dag"), &input.text)?;
            for (name, text) in &input.jsdfs {
                write(&a.dir.join(name), text)?;
            }
            (
                input.graph.num_jobs(),
                input.graph.arcs.len(),
                input.text.len(),
                1,
            )
        }
        "serve_mix" => {
            let pool = gen::pool(Families::Mix, a.seed);
            let (mut jobs, mut arcs, mut bytes) = (0, 0, 0);
            let mut kinds = std::collections::BTreeSet::new();
            for (i, e) in pool.iter().enumerate() {
                let text = gen::render(e.format, &e.graph, None, true);
                write(&input_path(a, i, &pool), &text)?;
                if e.format == "dagman" {
                    kinds.extend(
                        e.graph
                            .names
                            .iter()
                            .map(|n| gen::transformation(n).to_string()),
                    );
                }
                jobs += e.graph.num_jobs();
                arcs += e.graph.arcs.len();
                bytes += text.len();
            }
            for t in kinds {
                write(
                    &a.dir.join("pool").join(format!("{t}.submit")),
                    &gen::jsdf_text(&t),
                )?;
            }
            (jobs, arcs, bytes, pool.len())
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("{{\"jobs\":{jobs},\"arcs\":{arcs},\"input_bytes\":{bytes},\"files\":{files}}}");
    Ok(())
}

/// The generated graph of a one-shot entry.
fn entry_graph(a: &Args, entry: usize, pool: &[gen::PoolEntry]) -> Result<Graph, String> {
    Ok(match a.workload.as_str() {
        "instrument_montage" => gen::montage_file(a.seed).graph,
        "schedule_layered" => gen::layered_graph(a.seed),
        _ => pool.get(entry).ok_or("bad entry")?.graph.clone(),
    })
}

/// Checks one-shot outputs as they come: one `"<entry> <path>"` line in,
/// one `ok <mean eligible jobs>` or `fail <reason>` line out.
fn cmd_checker(a: &Args) -> Result<(), String> {
    let pool = if a.workload == "serve_mix" {
        gen::pool(Families::Mix, a.seed)
    } else {
        Vec::new()
    };
    let mut graphs: BTreeMap<usize, Graph> = BTreeMap::new();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (entry, path) = line.split_once(' ').ok_or("bad checker request")?;
        let entry: usize = entry.parse().map_err(|_| "bad entry")?;
        let g = match graphs.entry(entry) {
            std::collections::btree_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry_graph(a, entry, &pool)?)
            }
        };
        let verdict = check_one(a, entry, Path::new(path), g, &pool);
        match verdict {
            Ok(mean) => println!("ok {mean}"),
            Err(m) => println!("fail {}", m.replace('\n', " ")),
        }
    }
    Ok(())
}

fn check_one(
    a: &Args,
    entry: usize,
    out: &Path,
    g: &Graph,
    pool: &[gen::PoolEntry],
) -> Result<f64, String> {
    let output = read(out)?;
    let prio = match a.workload.as_str() {
        "schedule_layered" => check::check_schedule(&output, g)?,
        "instrument_montage" => {
            let prio = check::check_instrument(&read(&a.dir.join("input.dag"))?, &output, g)?;
            for t in gen::montage_jsdf_kinds(g) {
                check_jsdf(&a.dir.join(format!("{t}.submit")), &t)?;
            }
            prio
        }
        _ => {
            let e = &pool[entry];
            let prio = if e.format == "dagman" {
                check::check_instrument(&read(&input_path(a, entry, pool))?, &output, g)?
            } else {
                check::priorities_from_output(e.format, &output, g)?
            };
            // Served ≡ one-shot: the daemon's warm-up reply for this DAG
            // carries the same priorities.
            let served = read(&a.dir.join("served").join(format!("{entry}.out")))?;
            if check::priorities_from_output(e.format, &served, g)? != prio {
                return Err(format!(
                    "entry {entry}: one-shot priorities differ from the daemon's"
                ));
            }
            prio
        }
    };
    Ok(check::mean_eligible(g, &prio))
}

/// The tool adds `priority = $(jobpriority)` before `queue` and changes
/// nothing else.
fn check_jsdf(path: &Path, transformation: &str) -> Result<(), String> {
    let want =
        gen::jsdf_text(transformation).replace("queue\n", "priority = $(jobpriority)\nqueue\n");
    if read(path)? != want {
        return Err(format!(
            "{} is not the instrumented submit file",
            path.display()
        ));
    }
    Ok(())
}

fn cmd_warm(a: &Args) -> Result<(), String> {
    let pool = client::workload_pool(&a.workload, a.seed)?;
    let mean = client::warm(a.flag("addr")?, &pool, &a.dir)?;
    println!("{{\"mean_eligible\":{mean}}}");
    Ok(())
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn cmd_client(a: &Args) -> Result<(), String> {
    let pool = client::workload_pool(&a.workload, a.seed)?;
    let addr = a.flag("addr")?;
    let mut session = client::Session::open(addr, &pool, &a.dir, a.seed)?;
    for line in std::io::stdin().lock().lines() {
        let seconds: f64 = line
            .map_err(|e| e.to_string())?
            .trim()
            .parse()
            .map_err(|_| "bad slice length")?;
        session.run_for(seconds)?;
        println!("done");
    }
    let mut s = session.finish(addr)?;
    write(&a.dir.join("serve.log"), &client::format_log(&s.log))?;
    s.hit_us.sort_by(f64::total_cmp);
    s.miss_us.sort_by(f64::total_cmp);
    let stat = |k: &str| match s.stats.get(k) {
        Some(minijson::Value::Num(v)) => *v,
        _ => 0.0,
    };
    let mut errors = String::new();
    minijson::quote(&s.errors.join("; "), &mut errors);
    println!(
        "{{\"attempted\":{},\"failed\":{},\"hits\":{},\"misses\":{},\"elapsed_s\":{},\
         \"hit_p50_us\":{},\"hit_p99_us\":{},\"miss_p50_us\":{},\"miss_p99_us\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\"cache_bytes\":{},\
         \"shed\":{},\"errors\":{},\"error_messages\":{errors}}}",
        s.attempted,
        s.failed,
        s.hit_us.len(),
        s.miss_us.len(),
        s.elapsed,
        percentile(&s.hit_us, 0.5),
        percentile(&s.hit_us, 0.99),
        percentile(&s.miss_us, 0.5),
        percentile(&s.miss_us, 0.99),
        stat("cache_hits"),
        stat("cache_misses"),
        stat("cache_evictions"),
        stat("cache_bytes"),
        stat("shed"),
        stat("errors"),
    );
    Ok(())
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            let mut q = String::new();
            minijson::quote(k, &mut q);
            format!("{q}:{v}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Replays the run: each one-shot entry `reps` times (median layer times),
/// compared with the CLI's saved output, then the daemon's logged requests
/// in send order, compared with the daemon's replies.
fn cmd_replay(a: &Args) -> Result<(), String> {
    let reps: usize = a.flag("reps")?.parse().map_err(|_| "bad --reps")?;
    let limit: usize = a
        .flag("serve-limit")?
        .parse()
        .map_err(|_| "bad --serve-limit")?;
    let mix_pool = if a.workload == "serve_mix" {
        gen::pool(Families::Mix, a.seed)
    } else {
        Vec::new()
    };
    let mut entries = Vec::new();
    for e in a.flag("entries")?.split(',') {
        let entry: usize = e.parse().map_err(|_| "bad --entries")?;
        let text = read(&input_path(a, entry, &mix_pool))?;
        let cli = read(&a.dir.join("cli").join(format!("{entry}.out")))?;
        let mut runs = Vec::new();
        for _ in 0..reps.max(1) {
            let op = match a.workload.as_str() {
                "schedule_layered" => replay::schedule_dagman(&text)?,
                "instrument_montage" => replay::instrument_dagman(&text, &montage_jsdfs(a.seed))?,
                _ if mix_pool[entry].format == "dagman" => {
                    replay::instrument_dagman(&text, &mix_jsdfs(a)?)?
                }
                _ => replay::instrument_generic(mix_pool[entry].format, &text)?,
            };
            if op.output != cli {
                return Err(format!(
                    "entry {entry}: replayed output differs from the CLI's"
                ));
            }
            for (name, text) in &op.jsdfs {
                let dir = if a.workload == "serve_mix" {
                    a.dir.join("pool")
                } else {
                    a.dir.clone()
                };
                if &read(&dir.join(name))? != text {
                    return Err(format!(
                        "entry {entry}: replayed {name} differs from the CLI's"
                    ));
                }
            }
            runs.push(op);
        }
        entries.push((entry, median_op(runs)));
    }
    let log = client::parse_log(&read(&a.dir.join("serve.log"))?)?;
    let log = &log[..log.len().min(limit)];
    let pool = client::workload_pool(&a.workload, a.seed)?;
    let sr = replay::serve(log, &pool)?;
    if !sr.mismatches.is_empty() {
        return Err(format!(
            "replayed serve outputs differ from the daemon's: {:?}",
            sr.mismatches
        ));
    }
    let ops: Vec<String> = entries
        .iter()
        .map(|(e, (ms, counts, wall_ms))| {
            format!(
                "{{\"entry\":{e},\"layers_ms\":{},\"counts\":{},\"wall_ms\":{wall_ms}}}",
                json_map(ms),
                json_map(counts)
            )
        })
        .collect();
    let mut serve_us: BTreeMap<String, f64> = sr
        .layers
        .secs
        .iter()
        .map(|(k, v)| (k.clone(), v * 1e6 / sr.layers.calls[k] as f64))
        .collect();
    serve_us.insert("requests".into(), sr.requests as f64);
    serve_us.insert("misses".into(), sr.misses as f64);
    serve_us.insert("sum_ms".into(), sr.layers.total() * 1e3);
    serve_us.insert("wall_ms".into(), sr.wall * 1e3);
    let per_request: BTreeMap<String, f64> = sr
        .layers
        .secs
        .iter()
        .map(|(k, v)| (k.clone(), v * 1e6 / sr.requests.max(1) as f64))
        .collect();
    println!(
        "{{\"ops\":[{}],\"serve_per_call_us\":{},\"serve_per_request_us\":{}}}",
        ops.join(","),
        json_map(&serve_us),
        json_map(&per_request)
    );
    Ok(())
}

/// Per-layer medians over repeated replays of one entry, with the counts of
/// the first replay and the median wall time, in ms.
fn median_op(runs: Vec<replay::FileOp>) -> (BTreeMap<String, f64>, BTreeMap<String, f64>, f64) {
    let med = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let mut ms = BTreeMap::new();
    for k in runs[0].layers.secs.keys() {
        ms.insert(
            k.clone(),
            med(runs.iter().map(|r| r.layers.secs[k] * 1e3).collect()),
        );
    }
    ms.insert(
        "sum".into(),
        med(runs.iter().map(|r| r.layers.total() * 1e3).collect()),
    );
    let wall = med(runs.iter().map(|r| r.wall * 1e3).collect());
    (ms, runs[0].layers.counts.clone(), wall)
}

fn montage_jsdfs(seed: u64) -> BTreeMap<String, String> {
    gen::montage_file(seed).jsdfs.into_iter().collect()
}

fn mix_jsdfs(a: &Args) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(a.dir.join("pool")).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "submit") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or("bad file name")?;
            let t = name.trim_end_matches(".submit");
            out.insert(name.to_string(), gen::jsdf_text(t));
        }
    }
    Ok(out)
}
