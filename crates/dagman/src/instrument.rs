//! Instrumenting a DAGMan file with job priorities (§3.2, Fig. 3).
//!
//! Given a priority per job (larger = assigned to a worker earlier), the
//! tool defines the `jobpriority` macro for each job using a `VARS`
//! statement placed directly after the job's `JOB` statement, exactly like
//! the bold lines of Fig. 3. Each job's JSDF is separately instrumented
//! with `priority = $(jobpriority)` (see [`crate::jsdf`]).

use crate::ast::{DagmanFile, JobName, Statement};
use crate::error::DagmanError;
use std::collections::BTreeMap;

/// The name of the macro the tool defines.
pub const JOBPRIORITY: &str = "jobpriority";

/// Converts a schedule position map into Condor priorities: the job at
/// schedule position 0 (executed first) of an `n`-job dag gets priority
/// `n`, the last gets 1.
///
/// `order` lists job names in schedule order.
pub fn priorities_by_job<'a>(order: impl IntoIterator<Item = &'a str>) -> BTreeMap<String, u32> {
    let names: Vec<&str> = order.into_iter().collect();
    let n = names.len() as u32;
    names
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), n - i as u32))
        .collect()
}

/// How priorities are written back into the DAGMan file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrumentMode {
    /// The paper's mechanism: define the `jobpriority` macro per job via
    /// `VARS` and let the JSDF assign `priority = $(jobpriority)`.
    /// External sub-dag nodes (which have no JSDF) get a `PRIORITY`
    /// statement instead.
    #[default]
    VarsMacro,
    /// Direct `PRIORITY <node> <value>` statements (DAGMan's node-priority
    /// mechanism, usable without touching JSDFs).
    PriorityStatement,
}

/// Instruments `file` in place with the paper's `VARS` mechanism
/// (see [`instrument_dagman_with`]).
pub fn instrument_dagman(
    file: &mut DagmanFile,
    priorities: &BTreeMap<String, u32>,
) -> Result<(), DagmanError> {
    instrument_dagman_with(file, priorities, InstrumentMode::VarsMacro)
}

/// Instruments `file` in place: after each `JOB`/`SUBDAG` statement,
/// inserts (or updates) the statement carrying the node's priority.
///
/// Nodes missing from `priorities` are an error; extra entries are
/// ignored. Existing definitions anywhere in the file are updated in
/// place instead of duplicated, making instrumentation idempotent.
pub fn instrument_dagman_with(
    file: &mut DagmanFile,
    priorities: &BTreeMap<String, u32>,
    mode: InstrumentMode,
) -> Result<(), DagmanError> {
    let _span = prio_obs::span(prio_obs::stage::WRITE);
    // Verify coverage first.
    for name in file.job_names() {
        if !priorities.contains_key(name) {
            return Err(DagmanError::UnknownJob {
                line: 0,
                job: name.to_string(),
            });
        }
    }
    // Update existing definitions in place. Cloning an interned JobName is
    // a refcount bump, so the updated-set costs no string allocations.
    let mut updated: std::collections::HashSet<JobName> = std::collections::HashSet::new();
    for s in file.statements.iter_mut() {
        match s {
            Statement::Vars { job, pairs } if mode == InstrumentMode::VarsMacro => {
                if let Some(p) = priorities.get(&**job) {
                    for (k, v) in pairs.iter_mut() {
                        if k == JOBPRIORITY {
                            *v = p.to_string();
                            updated.insert(job.clone());
                        }
                    }
                }
            }
            Statement::Priority { job, value } => {
                if let Some(&p) = priorities.get(&**job) {
                    *value = p as i64;
                    updated.insert(job.clone());
                }
            }
            _ => {}
        }
    }
    prio_obs::counter("dagman.instrument.statements_updated").add(updated.len() as u64);

    // Insert after each node statement lacking one, in one pass: grow the
    // list once by the number of insertions, then fill it from the back so
    // every statement moves exactly once (a `Vec::insert` per job would
    // shift the whole tail each time, quadratic in the file size).
    let missing = |name: &JobName| !updated.contains(name);
    let inserts = file
        .statements
        .iter()
        .filter(|s| {
            matches!(s, Statement::Job { name, .. } | Statement::Subdag { name, .. } if missing(name))
        })
        .count();
    let statements = &mut file.statements;
    let mut read = statements.len();
    statements.resize_with(read + inserts, || Statement::Blank);
    // Slots `read..write` are vacated (`Blank`); once no insertion remains
    // below `read`, the prefix is already in its final place.
    let mut write = statements.len();
    while write > read {
        read -= 1;
        let inserted = match &statements[read] {
            Statement::Job { name, .. } if missing(name) && mode == InstrumentMode::VarsMacro => {
                Some(Statement::Vars {
                    job: name.clone(),
                    pairs: vec![(JOBPRIORITY.to_string(), priorities[&**name].to_string())],
                })
            }
            Statement::Job { name, .. } | Statement::Subdag { name, .. } if missing(name) => {
                Some(Statement::Priority {
                    job: name.clone(),
                    value: priorities[&**name] as i64,
                })
            }
            _ => None,
        };
        if let Some(stmt) = inserted {
            write -= 1;
            statements[write] = stmt;
        }
        write -= 1;
        statements.swap(read, write);
    }
    prio_obs::counter("dagman.instrument.statements_inserted").add(inserts as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dagman;
    use crate::write::write_dagman;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The original insertion loop, kept as the oracle for the one-pass
    /// back-fill: one `Vec::insert` per node statement lacking a priority.
    fn instrument_by_vec_insert(
        file: &mut DagmanFile,
        priorities: &BTreeMap<String, u32>,
        mode: InstrumentMode,
    ) -> Result<(), DagmanError> {
        for name in file.job_names() {
            if !priorities.contains_key(name) {
                return Err(DagmanError::UnknownJob {
                    line: 0,
                    job: name.to_string(),
                });
            }
        }
        let mut updated = std::collections::HashSet::new();
        for s in file.statements.iter_mut() {
            match s {
                Statement::Vars { job, pairs } if mode == InstrumentMode::VarsMacro => {
                    if let Some(p) = priorities.get(&**job) {
                        for (k, v) in pairs.iter_mut() {
                            if k == JOBPRIORITY {
                                *v = p.to_string();
                                updated.insert(job.clone());
                            }
                        }
                    }
                }
                Statement::Priority { job, value } => {
                    if let Some(&p) = priorities.get(&**job) {
                        *value = p as i64;
                        updated.insert(job.clone());
                    }
                }
                _ => {}
            }
        }
        let mut i = 0;
        while i < file.statements.len() {
            let node = match &file.statements[i] {
                Statement::Job { name, .. } => Some((name.clone(), false)),
                Statement::Subdag { name, .. } => Some((name.clone(), true)),
                _ => None,
            };
            if let Some((name, is_subdag)) = node {
                if !updated.contains(&name) {
                    let p = priorities[&*name];
                    let stmt = if mode == InstrumentMode::PriorityStatement || is_subdag {
                        Statement::Priority {
                            job: name,
                            value: p as i64,
                        }
                    } else {
                        Statement::Vars {
                            job: name,
                            pairs: vec![(JOBPRIORITY.to_string(), p.to_string())],
                        }
                    };
                    file.statements.insert(i + 1, stmt);
                    i += 1;
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// A seeded DAGMan file mixing every statement kind instrumentation
    /// meets: `JOB` and `SUBDAG EXTERNAL` nodes, pre-existing `VARS …
    /// jobpriority` (alone, among other pairs, before or after the node's
    /// declaration), unrelated `VARS`, `PRIORITY`, `PARENT … CHILD`,
    /// comments, blank lines and verbatim `Other` statements. Returns the
    /// text and the node names.
    fn seeded_file(seed: u64) -> (String, Vec<String>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..40);
        let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let mut text = String::new();
        for (i, name) in names.iter().enumerate() {
            if rng.gen_bool(0.2) {
                text += &format!("SUBDAG EXTERNAL {name} {name}.dag\n");
            } else if rng.gen_bool(0.2) {
                text += &format!("JOB {name} shared.sub DIR d{i}\n");
            } else {
                text += &format!("JOB {name} {name}.sub\n");
            }
            for _ in 0..rng.gen_range(0usize..4) {
                let other = &names[rng.gen_range(0..n)];
                text += &match rng.gen_range(0u32..9) {
                    0 => "\n".to_string(),
                    1 => format!("# note about {other}\n"),
                    2 => format!("RETRY {other} 3\n"),
                    3 => format!("VARS {other} jobpriority=\"{}\"\n", rng.gen_range(0u32..99)),
                    4 => format!("VARS {other} a=\"x\" jobpriority=\"0\" b=\"y\"\n"),
                    5 => format!("VARS {other} input=\"{other}.in\"\n"),
                    6 => format!("PRIORITY {other} {}\n", rng.gen_range(0u32..99)),
                    7 if i > 0 => format!("PARENT {} CHILD {name}\n", names[i - 1]),
                    _ => format!("SCRIPT PRE {other} pre.sh\n"),
                };
            }
        }
        (text, names)
    }

    /// Priorities for `names` in a seeded order, plus an entry for a job
    /// the file does not declare (extra entries are ignored).
    fn seeded_priorities(names: &[String], seed: u64) -> BTreeMap<String, u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<&str> = names.iter().map(String::as_str).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order.push("not_in_the_file");
        priorities_by_job(order)
    }

    #[test]
    fn one_pass_insertion_matches_the_vec_insert_oracle() {
        for seed in 0..300u64 {
            let (text, names) = seeded_file(seed);
            let file = parse_dagman(&text).unwrap();
            for mode in [InstrumentMode::VarsMacro, InstrumentMode::PriorityStatement] {
                let (mut fast, mut oracle) = (file.clone(), file.clone());
                // A first pass, then a second with fresh priorities that
                // updates the first pass's statements.
                let passes = [
                    seeded_priorities(&names, seed),
                    seeded_priorities(&names, seed + 1_000),
                ];
                for (pass, p) in passes.iter().enumerate() {
                    instrument_dagman_with(&mut fast, p, mode).unwrap();
                    instrument_by_vec_insert(&mut oracle, p, mode).unwrap();
                    assert_eq!(
                        write_dagman(&fast),
                        write_dagman(&oracle),
                        "seed {seed}, {mode:?}, pass {pass}, input:\n{text}"
                    );
                    assert_eq!(fast, oracle, "seed {seed}, {mode:?}, pass {pass}");
                }
                let before = write_dagman(&fast);
                instrument_dagman_with(&mut fast, &passes[1], mode).unwrap();
                assert_eq!(write_dagman(&fast), before, "seed {seed}: not idempotent");
            }
        }
    }

    const FIG3: &str = "\
JOB a a.submit
JOB b b.submit
JOB c c.submit
JOB d d.submit
JOB e e.submit
PARENT a CHILD b
PARENT c CHILD d e
";

    fn fig3_priorities() -> BTreeMap<String, u32> {
        // PRIO schedule: c, a, b, d, e.
        priorities_by_job(["c", "a", "b", "d", "e"])
    }

    #[test]
    fn priorities_by_job_matches_fig3() {
        let p = fig3_priorities();
        assert_eq!(p["c"], 5);
        assert_eq!(p["a"], 4);
        assert_eq!(p["b"], 3);
        assert_eq!(p["d"], 2);
        assert_eq!(p["e"], 1);
    }

    #[test]
    fn instrumentation_inserts_vars_after_each_job() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        let text = write_dagman(&f);
        let expected = "\
JOB a a.submit
VARS a jobpriority=\"4\"
JOB b b.submit
VARS b jobpriority=\"3\"
JOB c c.submit
VARS c jobpriority=\"5\"
JOB d d.submit
VARS d jobpriority=\"2\"
JOB e e.submit
VARS e jobpriority=\"1\"
PARENT a CHILD b
PARENT c CHILD d e
";
        assert_eq!(text, expected);
    }

    #[test]
    fn instrumentation_is_idempotent() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        let once = write_dagman(&f);
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        assert_eq!(write_dagman(&f), once);
    }

    #[test]
    fn reinstrumentation_updates_values() {
        let mut f = parse_dagman(FIG3).unwrap();
        instrument_dagman(&mut f, &fig3_priorities()).unwrap();
        // New schedule: a first.
        let new = priorities_by_job(["a", "b", "c", "d", "e"]);
        instrument_dagman(&mut f, &new).unwrap();
        assert_eq!(f.vars_value("a", JOBPRIORITY), Some("5"));
        assert_eq!(f.vars_value("c", JOBPRIORITY), Some("3"));
    }

    #[test]
    fn missing_priority_is_an_error() {
        let mut f = parse_dagman(FIG3).unwrap();
        let before = f.clone();
        let partial = priorities_by_job(["a", "b"]);
        assert!(matches!(
            instrument_dagman(&mut f, &partial),
            Err(DagmanError::UnknownJob { .. })
        ));
        assert_eq!(
            f, before,
            "a failed instrumentation leaves the file untouched"
        );
    }

    #[test]
    fn priority_statement_mode() {
        let mut f = parse_dagman("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n").unwrap();
        let p = priorities_by_job(["a", "b"]);
        instrument_dagman_with(&mut f, &p, InstrumentMode::PriorityStatement).unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("PRIORITY a 2"));
        assert!(text.contains("PRIORITY b 1"));
        assert!(!text.contains("VARS"));
        // Idempotent and updatable.
        instrument_dagman_with(
            &mut f,
            &priorities_by_job(["b", "a"]),
            InstrumentMode::PriorityStatement,
        )
        .unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("PRIORITY a 1"));
        assert!(text.contains("PRIORITY b 2"));
        assert_eq!(text.matches("PRIORITY").count(), 2);
    }

    #[test]
    fn subdag_nodes_get_priority_statements_even_in_vars_mode() {
        let mut f =
            parse_dagman("JOB a a.sub\nSUBDAG EXTERNAL inner inner.dag\nPARENT a CHILD inner\n")
                .unwrap();
        let p = priorities_by_job(["a", "inner"]);
        instrument_dagman(&mut f, &p).unwrap();
        let text = write_dagman(&f);
        assert!(text.contains("VARS a jobpriority=\"2\""));
        assert!(text.contains("PRIORITY inner 1"));
    }

    #[test]
    fn preserves_unrelated_statements() {
        let text = "# hdr\nJOB a a.sub\nRETRY a 2\n";
        let mut f = parse_dagman(text).unwrap();
        instrument_dagman(&mut f, &priorities_by_job(["a"])).unwrap();
        let out = write_dagman(&f);
        assert!(out.contains("# hdr"));
        assert!(out.contains("RETRY a 2"));
        assert!(out.contains("VARS a jobpriority=\"1\""));
    }
}
