//! The one benchmark record every `bench_*` binary writes and
//! `bench_check` reads.
//!
//! A [`Row`] is one measurement: the identity fields `suite`, `workload`,
//! `jobs`, `arcs`, `threads`, `iters` and `host_cores`, then named numeric
//! metrics. A file is `{"rows": [...]}`, one row per line. [`to_json`]
//! writes the identity fields in that order and the metrics sorted by
//! name, so a measurement is byte-deterministic and a file read back by
//! [`from_json`] writes back byte-identical.
//!
//! Metric names carry their unit (`_ns`, `_us`, `_bytes`; the rest are
//! counts, rates or ratios). Unless its suite documents otherwise, a
//! `_ns` metric is the best of `iters` timed wall-clock runs. An identity
//! field a committed baseline did not record (its rows predate the field)
//! is 0.

use prio_obs::json::{parse, write_escaped, write_json_f64, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The identity fields, in the order [`to_json`] writes them.
const IDENTITY: [&str; 7] = [
    "suite",
    "workload",
    "jobs",
    "arcs",
    "threads",
    "iters",
    "host_cores",
];

/// One measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The suite that measured it: `pipeline`, `scaling`, `obs` or `serve`.
    /// Its baseline is `BENCH_<suite>.json`.
    pub suite: String,
    /// Dag family the row measured (`montage`, `layered`, `dagman_parse`).
    pub workload: String,
    /// Jobs in the measured dag.
    pub jobs: u64,
    /// Arcs in the measured dag.
    pub arcs: u64,
    /// Worker threads the measurement ran with (0 = serial).
    pub threads: u64,
    /// Timed iterations (or runs) behind the metrics.
    pub iters: u64,
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_cores: u64,
    /// Named numeric metrics.
    pub metrics: BTreeMap<String, f64>,
}

impl Row {
    /// A row measured on this host, with no metrics yet.
    pub fn new(suite: &str, workload: &str, jobs: u64, arcs: u64, threads: u64, iters: u64) -> Row {
        Row {
            suite: suite.into(),
            workload: workload.into(),
            jobs,
            arcs,
            threads,
            iters,
            host_cores: host_cores(),
            metrics: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a metric.
    pub fn with(mut self, name: &str, value: f64) -> Row {
        self.metrics.insert(name.into(), value);
        self
    }

    /// The metric's value; NaN when the row lacks it, so every bound on
    /// a missing metric fails.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }

    /// `workload/jobs`: the identity rows are matched by within a suite.
    pub(crate) fn label(&self) -> String {
        format!("{}/{}", self.workload, self.jobs)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"suite\": ");
        write_escaped(&self.suite, out);
        out.push_str(", \"workload\": ");
        write_escaped(&self.workload, out);
        let _ = write!(
            out,
            ", \"jobs\": {}, \"arcs\": {}, \"threads\": {}, \"iters\": {}, \"host_cores\": {}",
            self.jobs, self.arcs, self.threads, self.iters, self.host_cores
        );
        for (name, &value) in &self.metrics {
            out.push_str(", ");
            write_escaped(name, out);
            out.push_str(": ");
            write_json_f64(value, out);
        }
        out.push('}');
    }

    fn from_value(v: &JsonValue) -> Result<Row, String> {
        let JsonValue::Obj(fields) = v else {
            return Err("row is not a JSON object".into());
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("row missing string field {key:?}"))
        };
        let u = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("row missing integer field {key:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (name, value) in fields {
            if IDENTITY.contains(&name.as_str()) {
                continue;
            }
            let value = value
                .as_f64()
                .ok_or_else(|| format!("metric {name:?} is not a number"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(Row {
            suite: s("suite")?,
            workload: s("workload")?,
            jobs: u("jobs")?,
            arcs: u("arcs")?,
            threads: u("threads")?,
            iters: u("iters")?,
            host_cores: u("host_cores")?,
            metrics,
        })
    }
}

/// The core count recorded in every fresh row.
fn host_cores() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

/// Serializes rows in the committed `BENCH_*.json` format.
pub fn to_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        row.write_json(&mut out);
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the `BENCH_*.json` format (any key order).
pub fn from_json(text: &str) -> Result<Vec<Row>, String> {
    match parse(text)?.get("rows") {
        Some(JsonValue::Arr(rows)) => rows.iter().map(Row::from_value).collect(),
        _ => Err("missing array field \"rows\"".into()),
    }
}

/// Reads and parses a `BENCH_*.json` file; errors name the path.
pub fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Writes rows to `path` in the committed format.
pub fn save(path: &str, rows: &[Row]) -> Result<(), String> {
    std::fs::write(path, to_json(rows)).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Row> {
        let mut a = Row::new("scaling", "montage", 1008, 1994, 4, 20)
            .with("pipeline_ns", 284_624.0)
            .with("peak_bytes", 4_438_683_682.0);
        a.host_cores = 2;
        let b = Row::new("serve", "montage", 99, 0, 2, 3)
            .with("hit_ratio", 0.95)
            .with("achieved_rps", 10_499.8)
            .with("errors", 0.0);
        vec![a, b]
    }

    #[test]
    fn rows_round_trip_with_a_fixed_key_order() {
        let rows = sample();
        let json = to_json(&rows);
        assert_eq!(from_json(&json).unwrap(), rows);
        assert_eq!(to_json(&from_json(&json).unwrap()), json);
        // Identity fields first in IDENTITY order, then metrics by name,
        // whatever order they were added in.
        let line = json.lines().find(|l| l.contains("\"serve\"")).unwrap();
        let keys = IDENTITY
            .iter()
            .copied()
            .chain(["achieved_rps", "errors", "hit_ratio"]);
        let mut last = 0;
        for key in keys {
            let pos = line
                .find(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("missing {key} in {line}"));
            assert!(pos > last, "{key} out of order in {line}");
            last = pos;
        }
        // Numbers keep their value exactly, integers print without a
        // fraction.
        assert!(line.contains("\"achieved_rps\": 10499.8,"), "{line}");
        assert!(json.contains("\"peak_bytes\": 4438683682"), "{json}");
    }

    #[test]
    fn malformed_files_are_errors() {
        assert!(from_json("{}").is_err());
        assert!(from_json("not json").is_err());
        assert!(from_json("{\"rows\": [1]}").is_err());
        assert!(from_json("{\"rows\": [{\"suite\": \"obs\"}]}").is_err());
        let row = "{\"suite\": \"obs\", \"workload\": \"montage\", \"jobs\": 1, \"arcs\": 0, \
                   \"threads\": 0, \"iters\": 1, \"host_cores\": 0";
        assert!(from_json(&format!("{{\"rows\": [{row}, \"x\": \"y\"}}]}}")).is_err());
        let ok = from_json(&format!("{{\"rows\": [{row}, \"x\": 1.5}}]}}")).unwrap();
        assert_eq!(ok[0].metric("x"), 1.5);
        assert!(ok[0].metric("y").is_nan());
    }

    #[test]
    fn every_committed_baseline_loads_and_writes_back_byte_identical() {
        for (suite, text) in [
            ("pipeline", include_str!("../../../BENCH_pipeline.json")),
            ("scaling", include_str!("../../../BENCH_scaling.json")),
            ("obs", include_str!("../../../BENCH_obs.json")),
            ("serve", include_str!("../../../BENCH_serve.json")),
        ] {
            let rows = from_json(text).unwrap_or_else(|e| panic!("BENCH_{suite}.json: {e}"));
            assert!(!rows.is_empty(), "BENCH_{suite}.json has no rows");
            assert!(rows.iter().all(|r| r.suite == suite), "BENCH_{suite}.json");
            assert_eq!(to_json(&rows), text, "BENCH_{suite}.json");
        }
    }
}
