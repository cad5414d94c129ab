//! Extension experiment: does PRIO's advantage survive unreliable
//! workers?
//!
//! The paper's model is reliable ("a more comprehensive model that
//! explicitly models a worker temporarily quitting … is beyond the scope
//! of this paper"). This extension sweeps a per-assignment failure
//! probability — a failed job re-enters the eligible queue — at the AIRSN
//! sweet-spot cell (`μ_BIT = 1`, `μ_BS = 2⁴`) and reports the PRIO/FIFO
//! ratios. Expected shape: PRIO's edge persists (failures delay both
//! policies roughly proportionally) and erodes only slowly.

use prio_bench::report::fmt_ci;
use prio_core::prio::prioritize;
use prio_obs::report::Table;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::{compare_policies, GridModel, PolicySpec};
use prio_workloads::airsn::airsn;

fn main() {
    let width: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);
    let dag = airsn(width);
    let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
    let plan = ReplicationPlan {
        p: 20,
        q: 12,
        seed: 1123,
        threads: 0,
    };

    let mut table = Table::new(&[
        "failure prob",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "util ratio (median, CI)",
    ]);
    for f in [0.0, 0.05, 0.1, 0.2, 0.3] {
        let model = GridModel::paper(1.0, 16.0).with_failures(f);
        let r = compare_policies(&dag, &prio, &PolicySpec::Fifo, &model, &plan);
        table.row(vec![
            format!("{f:.2}"),
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.utilization_ratio),
        ]);
    }
    println!(
        "\n== robustness: PRIO vs FIFO under worker failures (AIRSN width {width}, {} jobs) ==\n",
        dag.num_nodes()
    );
    println!("{}", table.render());
    println!("expected shape: time ratio stays below 1 as failures grow.");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/robustness.txt", table.render()).expect("write table");
}
