//! Extension experiment: PRIO against schedulers beyond FIFO.
//!
//! The paper compares PRIO only with DAGMan's FIFO. This extension adds
//! two classic oblivious baselines at the AIRSN sweet-spot cell:
//!
//! * **CP** — critical-path (largest height first), the standard
//!   makespan-oriented list-scheduling priority;
//! * **RANDOM** — a random linear extension (seeded), the no-information
//!   floor.
//!
//! Each row reports the baseline's mean execution time and the
//! PRIO/baseline ratio. Expected shape: PRIO ≤ CP < FIFO ≈ RANDOM on the
//! fringed-umbrella AIRSN (CP also pushes the handle early, but does not
//! reason about *widths*, only depths).

use prio_bench::report::fmt_ci;
use prio_core::baselines::{critical_path_schedule, random_schedule};
use prio_core::prio::prioritize;
use prio_obs::report::Table;
use prio_sim::replicate::ReplicationPlan;
use prio_sim::{compare_policies, GridModel, PolicySpec};
use prio_workloads::airsn::airsn;
use rand::SeedableRng;

fn main() {
    let width: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);
    let dag = airsn(width);
    let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
    let baselines: Vec<(&str, PolicySpec)> = vec![
        ("FIFO", PolicySpec::Fifo),
        ("CP", PolicySpec::Oblivious(critical_path_schedule(&dag))),
        (
            "RANDOM",
            PolicySpec::Oblivious(random_schedule(&dag, &mut rng)),
        ),
    ];
    let plan = ReplicationPlan {
        p: 20,
        q: 12,
        seed: 3203,
        threads: 0,
    };
    let model = GridModel::paper(1.0, 16.0);

    let mut table = Table::new(&[
        "baseline",
        "PRIO mean time",
        "baseline mean time",
        "PRIO/baseline time ratio",
        "PRIO/baseline util ratio",
    ]);
    for (name, policy) in &baselines {
        let r = compare_policies(&dag, &prio, policy, &model, &plan);
        table.row(vec![
            name.to_string(),
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
            fmt_ci(&r.utilization_ratio),
        ]);
    }
    println!(
        "\n== baselines: PRIO vs FIFO/CP/RANDOM (AIRSN width {width}, {} jobs, mu_bit=1, mu_bs=16) ==\n",
        dag.num_nodes()
    );
    println!("{}", table.render());
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/baselines.txt", table.render()).expect("write table");
}
