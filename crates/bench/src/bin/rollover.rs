//! Ablation of a modeling assumption: the paper discards unfilled worker
//! requests ("these workers may meanwhile be intercepted by other
//! computations"). What if they parked at the server instead?
//!
//! Sweeps the AIRSN `μ_BIT = 1` section under both fates. Expected shape:
//! with parked workers the grid never runs dry, so both policies speed up
//! massively and PRIO's advantage narrows toward 1 — evidence that the
//! eligibility-maximizing objective matters *because* worker supply is
//! perishable, exactly the paper's motivation.

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
        .unwrap_or(250);
    let dag = airsn(width);
    let prio = PolicySpec::Oblivious(prioritize(&dag).unwrap().schedule);
    let plan = ReplicationPlan {
        p: 16,
        q: 10,
        seed: 515,
        threads: 0,
    };

    let mut table = Table::new(&[
        "mu_bs",
        "discard: time ratio",
        "discard: FIFO mean",
        "wait: time ratio",
        "wait: FIFO mean",
    ]);
    for mu_bs in [2.0, 8.0, 16.0, 64.0, 256.0] {
        let discard = GridModel::paper(1.0, mu_bs);
        let wait = discard.with_waiting_workers();
        let rd = compare_policies(&dag, &prio, &PolicySpec::Fifo, &discard, &plan);
        let rw = compare_policies(&dag, &prio, &PolicySpec::Fifo, &wait, &plan);
        table.row(vec![
            format!("{mu_bs}"),
            fmt_ci(&rd.execution_time_ratio),
            format!("{:.1}", rd.b.execution_time.summary().mean),
            fmt_ci(&rw.execution_time_ratio),
            format!("{:.1}", rw.b.execution_time.summary().mean),
        ]);
    }
    println!(
        "\n== rollover ablation: discarded vs parked unfilled workers (AIRSN width {width}) ==\n"
    );
    println!("{}", table.render());
    println!(
        "expected shape: under parked workers both policies get much faster and the\n\
         PRIO/FIFO ratio moves toward 1 — perishable worker supply is what makes\n\
         eligibility-maximization pay."
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/rollover.txt", table.render()).expect("write table");
}
