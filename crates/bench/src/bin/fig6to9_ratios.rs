//! Reproduces the paper's Figs. 6–9: ratios of (a) expected execution
//! time, (b) probability of stalling and (c) expected utilization between
//! the PRIO and FIFO scheduling algorithms, swept over
//! `μ_BIT ∈ {10⁻³ … 10³}` × `μ_BS ∈ {2⁰ … 2¹⁶}`, with 95% confidence
//! intervals and medians.
//!
//! ```text
//! fig6to9_ratios <airsn|inspiral|montage|sdss|all>
//!     [--p N] [--q N] [--seed S] [--threads T]
//!     [--scale F]     dag scale (default: paper sizes except SDSS,
//!                     which defaults to 0.1 of its 48,013 jobs; pass
//!                     --full for the full SDSS)
//!     [--quick]       3×5 sub-grid instead of the full 7×17
//! ```
//!
//! Output: a TSV per dag under `results/` plus a console summary of the
//! headline shape checks.

use prio_bench::report::fmt_ci;
use prio_core::prio::prioritize;
use prio_obs::report::Table;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::sweep::{paper_mu_bits, paper_mu_bss, sweep, SweepCell};
use prio_sim::PolicySpec;
use prio_workloads::{airsn, inspiral, montage, sdss};
use std::time::Instant;

struct Options {
    p: usize,
    q: usize,
    seed: u64,
    threads: usize,
    scale: Option<f64>,
    full: bool,
    quick: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Options {
        p: 20,
        q: 10,
        seed: 20060401,
        threads: 0,
        scale: None,
        full: false,
        quick: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--p" => opts.p = next(&argv, &mut i),
            "--q" => opts.q = next(&argv, &mut i),
            "--seed" => opts.seed = next(&argv, &mut i),
            "--threads" => opts.threads = next(&argv, &mut i),
            "--scale" => opts.scale = Some(next(&argv, &mut i)),
            "--full" => opts.full = true,
            "--quick" => opts.quick = true,
            other if !other.starts_with("--") => which.push(other.to_lowercase()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = vec![
            "airsn".into(),
            "inspiral".into(),
            "montage".into(),
            "sdss".into(),
        ];
    }
    std::fs::create_dir_all("results").expect("create results dir");
    for name in which {
        run_dag(&name, &opts);
    }
}

fn next<T: std::str::FromStr>(argv: &[String], i: &mut usize) -> T {
    *i += 1;
    argv.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("flag {} needs a value", argv[*i - 1]);
            std::process::exit(2);
        })
}

fn build_dag(name: &str, opts: &Options) -> prio_graph::Dag {
    let scale = opts.scale;
    match name {
        "airsn" => airsn::airsn(scale.map_or(airsn::PAPER_WIDTH, |f| {
            ((airsn::PAPER_WIDTH as f64 * f).round() as usize).max(4)
        })),
        "inspiral" => inspiral::inspiral(scale.map_or_else(
            inspiral::InspiralParams::default,
            inspiral::InspiralParams::scaled,
        )),
        "montage" => montage::montage(scale.map_or_else(
            montage::MontageParams::default,
            montage::MontageParams::scaled,
        )),
        "sdss" => {
            // The full 48,013-job SDSS is expensive to sweep; default to a
            // 1/10-scale instance unless --full (or an explicit --scale).
            let params = match (opts.full, scale) {
                (true, _) => sdss::SdssParams::default(),
                (false, Some(f)) => sdss::SdssParams::scaled(f),
                (false, None) => sdss::SdssParams::scaled(0.1),
            };
            sdss::sdss(params)
        }
        other => {
            eprintln!("unknown dag {other}");
            std::process::exit(2);
        }
    }
}

fn run_dag(name: &str, opts: &Options) {
    let dag = build_dag(name, opts);
    eprintln!("== {name}: {} jobs ==", dag.num_nodes());
    let start = Instant::now();
    let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
    eprintln!(
        "{name}: prioritized in {:.2}s",
        start.elapsed().as_secs_f64()
    );

    let (mu_bits, mu_bss) = if opts.quick {
        (
            vec![1e-2, 1.0, 1e2],
            vec![1.0, 16.0, 256.0, 4096.0, 65536.0],
        )
    } else {
        (paper_mu_bits(), paper_mu_bss())
    };
    let plan = ReplicationPlan {
        p: opts.p,
        q: opts.q,
        seed: opts.seed,
        threads: opts.threads,
    };

    let total = mu_bits.len() * mu_bss.len();
    let mut done = 0usize;
    let sweep_start = Instant::now();
    let cells = sweep(
        &dag,
        &prio,
        &PolicySpec::Fifo,
        &mu_bits,
        &mu_bss,
        &plan,
        |c| {
            done += 1;
            eprintln!(
            "{name}: cell {done}/{total} mu_bit={:.0e} mu_bs={:.0} time_ratio={} ({:.0}s elapsed)",
            c.mu_bit,
            c.mu_bs,
            fmt_ci(&c.result.execution_time_ratio),
            sweep_start.elapsed().as_secs_f64()
        );
        },
    );

    let mut tsv = Table::new(&[
        "mu_bit",
        "mu_bs",
        "time_ratio_median",
        "time_ratio_lo",
        "time_ratio_hi",
        "stall_ratio_median",
        "stall_ratio_lo",
        "stall_ratio_hi",
        "util_ratio_median",
        "util_ratio_lo",
        "util_ratio_hi",
        "prio_time_mean",
        "fifo_time_mean",
    ]);
    for c in &cells {
        let tri = |ci: &Option<prio_stats::ConfidenceInterval>| -> [String; 3] {
            match ci {
                Some(ci) => [
                    format!("{:.5}", ci.median),
                    format!("{:.5}", ci.lo),
                    format!("{:.5}", ci.hi),
                ],
                None => ["-".into(), "-".into(), "-".into()],
            }
        };
        let t = tri(&c.result.execution_time_ratio);
        let s = tri(&c.result.stalling_ratio);
        let u = tri(&c.result.utilization_ratio);
        tsv.row(vec![
            format!("{:e}", c.mu_bit),
            format!("{}", c.mu_bs),
            t[0].clone(),
            t[1].clone(),
            t[2].clone(),
            s[0].clone(),
            s[1].clone(),
            s[2].clone(),
            u[0].clone(),
            u[1].clone(),
            u[2].clone(),
            format!("{:.4}", c.result.a.execution_time.summary().mean),
            format!("{:.4}", c.result.b.execution_time.summary().mean),
        ]);
    }
    let path = format!("results/fig_ratios_{name}.tsv");
    std::fs::write(&path, tsv.render_tsv()).expect("write tsv");
    eprintln!("{name}: wrote {path}");

    summarize(name, &cells);
}

fn summarize(name: &str, cells: &[SweepCell]) {
    // Best (smallest) median execution-time ratio and where it occurs.
    let best = cells
        .iter()
        .filter_map(|c| {
            c.result
                .execution_time_ratio
                .as_ref()
                .map(|ci| (ci.median, c))
        })
        .min_by(|a, b| a.0.total_cmp(&b.0));
    println!("\n== {name} summary ==");
    if let Some((median, cell)) = best {
        println!(
            "best median time ratio {:.3} at mu_bit={:.0e}, mu_bs={:.0} (CI {})",
            median,
            cell.mu_bit,
            cell.mu_bs,
            fmt_ci(&cell.result.execution_time_ratio)
        );
    }
    // Shape check: ratios near 1 at the extreme ends.
    let near_one = |c: &SweepCell| -> bool {
        c.result
            .execution_time_ratio
            .as_ref()
            .map(|ci| (ci.median - 1.0).abs() < 0.05)
            .unwrap_or(true)
    };
    let fast_arrivals: Vec<&SweepCell> = cells.iter().filter(|c| c.mu_bit <= 1e-2).collect();
    let frac = fast_arrivals.iter().filter(|c| near_one(c)).count();
    println!(
        "cells with mu_bit <= 1e-2 and median time ratio within 5% of 1: {frac}/{}",
        fast_arrivals.len()
    );
    let huge_batches: Vec<&SweepCell> = cells.iter().filter(|c| c.mu_bs >= 65536.0).collect();
    let frac = huge_batches.iter().filter(|c| near_one(c)).count();
    println!(
        "cells with mu_bs = 2^16 and median time ratio within 5% of 1: {frac}/{}",
        huge_batches.len()
    );
    // Headline (AIRSN): mu_bit = 1, mu_bs = 2^4 => >= 13% faster.
    if name == "airsn" {
        if let Some(cell) = cells.iter().find(|c| c.mu_bit == 1.0 && c.mu_bs == 16.0) {
            if let Some(ci) = &cell.result.execution_time_ratio {
                println!(
                    "headline cell (mu_bit=1, mu_bs=2^4): median {:.3}, hi {:.3} (paper: median < 0.85, hi < 0.87)",
                    ci.median, ci.hi
                );
            }
        }
    }
}
