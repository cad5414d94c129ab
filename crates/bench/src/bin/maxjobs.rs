//! Quantifying the §3.2 integration shortcoming: DAGMan's `-maxjobs`
//! throttle.
//!
//! "In order to enforce the order of job assignment to workers, all
//! eligible jobs must be forwarded to the Condor queue … Hence, the
//! -maxjobs parameter … should not be used." The paper argues this
//! qualitatively; this experiment measures it: the PRIO priorities are run
//! through a model of the DAGMan-queue → Condor-queue forwarding with a
//! `maxjobs` cap, and compared against FIFO at the AIRSN sweet-spot cell.
//!
//! Expected shape: with a generous cap PRIO keeps its full advantage;
//! as the cap shrinks, priorities act on an ever-smaller window of the
//! FIFO stream and the ratio climbs to 1 (at `maxjobs = 1` the priorities
//! are inert).

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
    let schedule = prioritize(&dag).unwrap().schedule;
    let plan = ReplicationPlan {
        p: 20,
        q: 12,
        seed: 32001,
        threads: 0,
    };
    let model = GridModel::paper(1.0, 16.0);

    let mut table = Table::new(&[
        "maxjobs",
        "PRIO(throttled) mean time",
        "FIFO mean time",
        "time ratio (median, CI)",
    ]);
    let caps: [usize; 6] = [1, 4, 16, 64, 256, usize::MAX];
    for cap in caps {
        let policy = PolicySpec::ThrottledOblivious {
            schedule: schedule.clone(),
            maxjobs: cap,
        };
        let r = compare_policies(&dag, &policy, &PolicySpec::Fifo, &model, &plan);
        table.row(vec![
            if cap == usize::MAX {
                "unlimited".into()
            } else {
                cap.to_string()
            },
            format!("{:.2}", r.a.execution_time.summary().mean),
            format!("{:.2}", r.b.execution_time.summary().mean),
            fmt_ci(&r.execution_time_ratio),
        ]);
    }
    println!("\n== §3.2 shortcoming: PRIO behind a -maxjobs throttle (AIRSN width {width}) ==\n");
    println!("{}", table.render());
    println!(
        "expected shape: the advantage collapses toward 1 as maxjobs shrinks —\n\
         the paper's advice that -maxjobs 'should not be used' with prio, quantified."
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/maxjobs.txt", table.render()).expect("write table");
}
