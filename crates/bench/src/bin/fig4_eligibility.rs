//! Reproduces the paper's Fig. 4: the per-step difference
//! `E_PRIO(t) − E_FIFO(t)` for the four scientific dags, both absolute and
//! normalized by the number of jobs.
//!
//! Full series are written as TSV under `results/`; the console shows the
//! summary shape checks (difference almost everywhere non-negative, large
//! positive spike for AIRSN).

use prio_core::fifo::fifo_schedule;
use prio_core::prio::prioritize;
use prio_core::schedule::profile_difference;
use prio_obs::report::Table;
use prio_workloads::paper_suite;
use std::time::Instant;

fn main() {
    std::fs::create_dir_all("results").expect("create results dir");
    let mut summary = Table::new(&[
        "dag",
        "jobs",
        "max diff",
        "max diff (normalized)",
        "min diff",
        "steps PRIO >= FIFO",
        "mean diff",
    ]);
    for w in paper_suite() {
        let start = Instant::now();
        let prio = prioritize(w.dag()).unwrap().schedule;
        let fifo = fifo_schedule(w.dag());
        let diff = profile_difference(w.dag(), &prio, &fifo);
        let n = w.dag().num_nodes();
        eprintln!(
            "fig4: {} ({} jobs) computed in {:.2}s",
            w.name,
            n,
            start.elapsed().as_secs_f64()
        );

        let mut tsv = Table::new(&["t", "t_normalized", "diff", "diff_normalized"]);
        for (t, &d) in diff.iter().enumerate() {
            tsv.row(vec![
                t.to_string(),
                format!("{:.6}", t as f64 / n as f64),
                d.to_string(),
                format!("{:.6}", d as f64 / n as f64),
            ]);
        }
        let path = format!("results/fig4_{}.tsv", w.name.to_lowercase());
        std::fs::write(&path, tsv.render_tsv()).expect("write series");
        eprintln!("fig4: wrote {path}");

        let max = diff.iter().copied().max().unwrap_or(0);
        let min = diff.iter().copied().min().unwrap_or(0);
        let nonneg = diff.iter().filter(|&&d| d >= 0).count();
        let mean = diff.iter().sum::<i64>() as f64 / diff.len() as f64;
        summary.row(vec![
            w.name.to_string(),
            n.to_string(),
            max.to_string(),
            format!("{:.4}", max as f64 / n as f64),
            min.to_string(),
            format!("{}/{}", nonneg, diff.len()),
            format!("{mean:.2}"),
        ]);
    }
    println!("\n== Fig. 4 summary: E_PRIO(t) - E_FIFO(t) ==\n");
    println!("{}", summary.render());
    println!(
        "shape check: the difference should be >= 0 at (essentially) every step,\n\
         with the largest normalized spike on AIRSN (the fringed double umbrella)."
    );
}
