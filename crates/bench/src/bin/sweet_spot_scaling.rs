//! Extension experiment: how a dag's PRIO-favourable batch-size band moves
//! with dag scale.
//!
//! The paper reports per-dag sweet spots (AIRSN ≈ 2⁵, Inspiral ≈ 2⁹,
//! Montage ≈ 2⁷, SDSS ≈ 2¹³) that track the dags' parallel widths. Our
//! default SDSS sweep runs at 1/10 scale, so its sweet spot sits far below
//! the paper's 2¹³; this experiment sweeps μ_BS at several dag scales and
//! shows the argmin batch size growing with scale — evidence that the
//! full-size spot extrapolates toward the paper's.
//!
//! ```text
//! sweet_spot_scaling [--dag sdss|airsn|inspiral|montage] [--mu-bit X]
//!                    [--p N] [--q N] [--scales a,b,c]
//! ```

use prio_bench::report::fmt_ci;
use prio_core::prio::prioritize;
use prio_obs::report::Table;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::sweep::{paper_mu_bss, sweep};
use prio_sim::PolicySpec;
use prio_workloads::{airsn, inspiral, montage, sdss};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut dag_name = "sdss".to_string();
    let mut mu_bit = 1.0f64;
    let mut p = 16usize;
    let mut q = 8usize;
    let mut scales = vec![0.02, 0.05, 0.1, 0.2];
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dag" => {
                i += 1;
                dag_name = argv[i].clone();
            }
            "--mu-bit" => {
                i += 1;
                mu_bit = argv[i].parse().expect("numeric --mu-bit");
            }
            "--p" => {
                i += 1;
                p = argv[i].parse().expect("numeric --p");
            }
            "--q" => {
                i += 1;
                q = argv[i].parse().expect("numeric --q");
            }
            "--scales" => {
                i += 1;
                scales = argv[i]
                    .split(',')
                    .map(|s| s.parse().expect("numeric scale"))
                    .collect();
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut table = Table::new(&[
        "scale",
        "jobs",
        "best mu_bs",
        "best time ratio (median, CI)",
        "log2(best mu_bs)",
    ]);
    for &scale in &scales {
        let dag = match dag_name.as_str() {
            "sdss" => sdss::sdss(sdss::SdssParams::scaled(scale)),
            "airsn" => airsn::airsn(((airsn::PAPER_WIDTH as f64 * scale).round() as usize).max(4)),
            "inspiral" => inspiral::inspiral(inspiral::InspiralParams::scaled(scale)),
            "montage" => montage::montage(montage::MontageParams::scaled(scale)),
            other => {
                eprintln!("unknown dag {other}");
                std::process::exit(2);
            }
        };
        let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
        let plan = ReplicationPlan {
            p,
            q,
            seed: 42,
            threads: 0,
        };
        let mu_bss = paper_mu_bss();
        eprintln!(
            "scale {scale}: {} jobs, sweeping {} batch sizes…",
            dag.num_nodes(),
            mu_bss.len()
        );
        let cells = sweep(
            &dag,
            &prio,
            &PolicySpec::Fifo,
            &[mu_bit],
            &mu_bss,
            &plan,
            |_| {},
        );
        let best = cells
            .iter()
            .filter_map(|c| {
                c.result
                    .execution_time_ratio
                    .as_ref()
                    .map(|ci| (ci.median, c))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty sweep");
        table.row(vec![
            format!("{scale}"),
            dag.num_nodes().to_string(),
            format!("{}", best.1.mu_bs),
            fmt_ci(&best.1.result.execution_time_ratio),
            format!("{:.1}", best.1.mu_bs.log2()),
        ]);
    }
    println!("\n== sweet-spot batch size vs dag scale ({dag_name}, mu_bit={mu_bit}) ==\n");
    println!("{}", table.render());
    println!("expected shape: log2(best mu_bs) grows with scale.");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(format!("results/sweet_spot_{dag_name}.txt"), table.render())
        .expect("write table");
}
