//! Extension experiment: what happens when the equal-execution-time
//! assumption breaks?
//!
//! §4's evaluation assumes all jobs run for roughly the same time
//! (`N(1, 0.1)`) and the paper flags this as "certainly an idealization".
//! This extension widens the runtime spread (standard deviation 0.1 → 0.9,
//! truncated to stay positive) at the AIRSN sweet-spot cell. Expected
//! shape: PRIO's advantage degrades gracefully — eligibility-maximizing
//! priorities say nothing about job *lengths*, so a high-variance grid
//! erodes (but does not invert) the gain.

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
        seed: 7741,
        threads: 0,
    };

    let mut table = Table::new(&[
        "runtime sd",
        "PRIO mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
        "stall ratio (median, CI)",
    ]);
    for sd in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let model = GridModel {
            runtime_sd: sd,
            ..GridModel::paper(1.0, 16.0)
        };
        let r = compare_policies(&dag, &prio, &PolicySpec::Fifo, &model, &plan);
        table.row(vec![
            format!("{sd:.1}"),
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.stalling_ratio),
        ]);
    }
    println!(
        "\n== heterogeneity: PRIO vs FIFO as job runtimes spread (AIRSN width {width}, {} jobs) ==\n",
        dag.num_nodes()
    );
    println!("{}", table.render());
    println!("expected shape: the advantage shrinks with the spread but stays <= 1.");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/heterogeneity.txt", table.render()).expect("write table");
}
