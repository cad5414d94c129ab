//! Per-run simulator telemetry: the dynamic state the paper's evaluation
//! reasons about, sampled at every processed event.
//!
//! Four time series track the shape of a run over simulated time —
//! the eligible-job pool `E_Σ(t)` (eligible-or-running jobs, the
//! quantity PRIO maximizes), the ready queue (eligible and unassigned),
//! parked idle workers (rollover ablation; 0 under the paper's Discard
//! model), and running utilization (jobs assigned / requests arrived) —
//! and two histograms capture per-job latencies: *wait* (eligible →
//! assigned) and *service* (assigned → completed), recorded in
//! milli-timeunits ([`TIME_SCALE`]).
//!
//! Collection happens only in streamed runs
//! ([`crate::engine::simulate_streamed`]); it is deterministic per seed and
//! independent of how many threads drive surrounding replications, so
//! serial and `--threads` invocations report identical telemetry.

use prio_obs::hist::Histogram;
use prio_obs::timeseries::TimeSeries;

/// Simulated times are multiplied by this before entering a histogram
/// (`u64` milli-timeunits: a mean-1.0 job runtime records as ~1000).
pub const TIME_SCALE: f64 = 1000.0;

/// Stored samples per time series; longer runs downsample themselves.
const SERIES_CAPACITY: usize = 512;

/// The telemetry of one simulated run.
#[derive(Debug, Clone)]
pub struct SimTelemetry {
    /// Eligible-or-running jobs over simulated time (`E_Σ(t)`).
    pub eligible_pool: TimeSeries,
    /// Eligible, unassigned jobs over simulated time.
    pub ready_queue: TimeSeries,
    /// Parked workers over simulated time (rollover ablation only).
    pub idle_workers: TimeSeries,
    /// Running utilization: jobs assigned so far / requests so far.
    pub utilization: TimeSeries,
    /// Eligible → assigned latency per assignment, milli-timeunits.
    pub job_wait: Histogram,
    /// Assigned → completed latency per completion, milli-timeunits.
    pub job_service: Histogram,
    /// Attempts per resolved job (fault-injected runs only; empty under
    /// the reliable model).
    pub job_attempts: Histogram,
    /// Simulated time lost per failed attempt, milli-timeunits (empty on
    /// failure-free runs).
    pub wasted_work: Histogram,
}

impl Default for SimTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTelemetry {
    /// Empty telemetry with the default series capacity.
    pub fn new() -> SimTelemetry {
        SimTelemetry {
            eligible_pool: TimeSeries::new(SERIES_CAPACITY),
            ready_queue: TimeSeries::new(SERIES_CAPACITY),
            idle_workers: TimeSeries::new(SERIES_CAPACITY),
            utilization: TimeSeries::new(SERIES_CAPACITY),
            job_wait: Histogram::new(),
            job_service: Histogram::new(),
            job_attempts: Histogram::new(),
            wasted_work: Histogram::new(),
        }
    }

    /// Records one sampling step at simulated time `t`.
    pub fn record_step(&mut self, t: f64, eligible: usize, ready: usize, idle: u64, util: f64) {
        self.eligible_pool.push(t, eligible as f64);
        self.ready_queue.push(t, ready as f64);
        self.idle_workers.push(t, idle as f64);
        self.utilization.push(t, util);
    }

    /// Records one job's eligible → assigned wait.
    pub fn record_wait(&mut self, wait: f64) {
        self.job_wait.record_mut(scale_time(wait));
    }

    /// Records one job's assigned → completed service time.
    pub fn record_service(&mut self, service: f64) {
        self.job_service.record_mut(scale_time(service));
    }

    /// Records how many attempts a job needed before it resolved
    /// (fault-injected runs only).
    pub fn record_attempts(&mut self, attempts: u32) {
        self.job_attempts.record_mut(attempts as u64);
    }

    /// Records the simulated time lost to one failed attempt.
    pub fn record_waste(&mut self, waste: f64) {
        self.wasted_work.record_mut(scale_time(waste));
    }

    /// The four series with their canonical record names, in emission
    /// order.
    pub fn series(&self) -> [(&'static str, &TimeSeries); 4] {
        [
            ("eligible_pool", &self.eligible_pool),
            ("ready_queue", &self.ready_queue),
            ("idle_workers", &self.idle_workers),
            ("utilization", &self.utilization),
        ]
    }

    /// All histograms with their canonical record names (the `_milli`
    /// suffix records the [`TIME_SCALE`] unit), in emission order. The
    /// fault histograms stay empty on failure-free runs; serialization
    /// skips empty histograms so reliable-run artifacts are unchanged.
    pub fn histograms(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("job_wait_milli", &self.job_wait),
            ("job_service_milli", &self.job_service),
            ("job_attempts", &self.job_attempts),
            ("wasted_work_milli", &self.wasted_work),
        ]
    }
}

/// A simulated time as histogram milli-timeunits.
fn scale_time(t: f64) -> u64 {
    (t.max(0.0) * TIME_SCALE).round() as u64
}

impl PartialEq for SimTelemetry {
    fn eq(&self, other: &Self) -> bool {
        self.series()
            .iter()
            .zip(other.series().iter())
            .all(|((_, a), (_, b))| a == b)
            && self
                .histograms()
                .iter()
                .zip(other.histograms().iter())
                .all(|((_, a), (_, b))| a.snapshot() == b.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_feed_all_four_series() {
        let mut t = SimTelemetry::new();
        t.record_step(0.0, 3, 2, 0, 0.0);
        t.record_step(1.0, 5, 1, 2, 0.5);
        for (name, series) in t.series() {
            assert_eq!(series.pushed(), 2, "{name}");
        }
        assert_eq!(t.eligible_pool.digest().peak, 5.0);
        assert_eq!(t.idle_workers.digest().last_v, 2.0);
        assert_eq!(t.utilization.digest().last_v, 0.5);
    }

    #[test]
    fn latencies_scale_to_milli_timeunits() {
        let mut t = SimTelemetry::new();
        t.record_wait(1.0);
        t.record_service(0.25);
        assert_eq!(t.job_wait.summary().max, 1000);
        assert_eq!(t.job_service.summary().max, 250);
        // Tiny negative rounding artifacts clamp to zero.
        t.record_wait(-1e-12);
        assert_eq!(t.job_wait.count(), 2);
    }

    #[test]
    fn equality_compares_contents() {
        let build = || {
            let mut t = SimTelemetry::new();
            t.record_step(0.5, 1, 1, 0, 0.1);
            t.record_wait(0.5);
            t
        };
        assert_eq!(build(), build());
        let mut other = build();
        other.record_service(1.0);
        assert_ne!(build(), other);
    }
}
