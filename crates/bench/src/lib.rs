//! # prio-bench — benchmark and figure-regeneration harness
//!
//! One target per table/figure of the paper (see DESIGN.md §4 for the full
//! index):
//!
//! | paper artifact | target |
//! |----------------|--------|
//! | Fig. 3 (tool invocation) | `cargo run -p prio-bench --bin fig3_example` |
//! | Fig. 4 (eligibility differences) | `cargo run -p prio-bench --release --bin fig4_eligibility` |
//! | Fig. 5 (prioritized AIRSN drawing) | `cargo run -p prio-bench --bin fig5_dot` |
//! | Figs. 6–9 (simulation ratio sweeps) | `cargo run -p prio-bench --release --bin fig6to9_ratios -- <dag>` |
//! | §3.5 engineering speedups | `cargo bench -p prio-bench --bench decompose` / `--bench combine`, `cargo run -p prio-bench --release --bin ablations` |
//! | §3.6 overhead table | `cargo bench -p prio-bench --bench overhead`, `cargo run -p prio-bench --release --bin table_overhead` |
//!
//! The library part holds shared plumbing: the one benchmark record
//! ([`record`]) the four measurement suites ([`pipeline`], [`scaling`],
//! [`obs_overhead`], [`serve`]) write and the one gate ([`gate`])
//! `bench_check` holds them to, the timing helper they share
//! (`best_ns_interleaved_n`), and number formatting for the figure
//! binaries ([`report`]).

pub mod gate;
pub mod obs_overhead;
pub mod pipeline;
pub mod record;
pub mod report;
pub mod scaling;
pub mod serve;

use std::time::Instant;

/// Wall time of one call of `f`, in nanoseconds.
pub(crate) fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Best-of-`iters` nanoseconds for each closure, after `warmup` untimed
/// rounds. Each call returns the nanoseconds it counts — usually
/// [`timed`] around its whole body, or around only the phase a
/// measurement gates, with setup outside. One call of every closure runs
/// per round (round-robin), so clock drift and background load hit all
/// variants alike instead of biasing whichever happened to run first.
pub(crate) fn best_ns_interleaved_n(
    fs: &mut [&mut dyn FnMut() -> u64],
    warmup: usize,
    iters: usize,
) -> Vec<u64> {
    for _ in 0..warmup {
        for f in fs.iter_mut() {
            f();
        }
    }
    let mut best = vec![u64::MAX; fs.len()];
    for _ in 0..iters {
        for (f, best) in fs.iter_mut().zip(&mut best) {
            *best = (*best).min(f());
        }
    }
    best
}
