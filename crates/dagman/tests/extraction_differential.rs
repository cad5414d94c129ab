//! Differential test of the two DAGMan graph extractions:
//! [`DagmanFile::to_dag`] and [`workflow_from_file`] (through
//! [`DagmanFrontend::import`]).
//!
//! Both must agree with each other on every valid file, and each must
//! give exactly what the reference extraction below gives: the same
//! `Dag`, the same `submit`/`options`/`subdag` metadata and the same
//! `VARS jobpriority`/`PRIORITY` priorities, and on an invalid file the
//! same error, down to its `Display` text. The reference functions are
//! the original, separately written extraction passes, kept here as the
//! oracle.
//!
//! The corpus is seeded: random forward-pair dags rendered as DAGMan text
//! with every statement kind (custom and default submit files, `JOB`
//! options, `SUBDAG EXTERNAL`, product `PARENT … CHILD` statements,
//! repeated arcs, `VARS` and `PRIORITY` lines, comments, blanks and
//! unknown keywords in mixed keyword case), then one defect spliced into
//! each valid file at a random line: a malformed line of every kind, a
//! duplicate `JOB` or `SUBDAG EXTERNAL`, unknown jobs, a self-loop, or an
//! arc that closes a cycle.

use prio_dagman::frontend::{workflow_from_file, META_OPTIONS, META_SUBDAG, META_SUBMIT};
use prio_dagman::instrument::JOBPRIORITY;
use prio_dagman::{parse_dagman, DagmanError, DagmanFile, DagmanFrontend, JobName, Statement};
use prio_graph::{Dag, DagBuilder, GraphError, NodeId};
use prio_ir::{FormatId, Frontend, PrioError, Workflow, WorkflowBuilder};
use prio_workloads::random_dag::forward_pairs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Reference `DagmanFile::to_dag`.
fn reference_to_dag(file: &DagmanFile) -> Result<Dag, DagmanError> {
    let mut b = DagBuilder::new();
    let mut ids: HashMap<&str, NodeId> = HashMap::new();
    for s in &file.statements {
        let name = match s {
            Statement::Job { name, .. } => name,
            Statement::Subdag { name, .. } => name,
            _ => continue,
        };
        if ids.contains_key(&**name) {
            return Err(DagmanError::DuplicateJob {
                line: 0,
                job: name.to_string(),
            });
        }
        ids.insert(&**name, b.add_node(&**name));
    }
    for s in &file.statements {
        if let Statement::ParentChild { parents, children } = s {
            for p in parents {
                for c in children {
                    let (&pu, &cu) = match (ids.get(&**p), ids.get(&**c)) {
                        (Some(pu), Some(cu)) => (pu, cu),
                        (None, _) => {
                            return Err(DagmanError::UnknownJob {
                                line: 0,
                                job: p.to_string(),
                            })
                        }
                        (_, None) => {
                            return Err(DagmanError::UnknownJob {
                                line: 0,
                                job: c.to_string(),
                            })
                        }
                    };
                    b.add_arc(pu, cu)
                        .map_err(|_| DagmanError::Cyclic { job: p.to_string() })?;
                }
            }
        }
    }
    b.build().map_err(|e| match e {
        GraphError::Cycle { on_cycle } => DagmanError::Cyclic {
            job: file
                .job_names()
                .get(on_cycle as usize)
                .unwrap_or(&"?")
                .to_string(),
        },
        other => DagmanError::Malformed {
            line: 0,
            message: other.to_string(),
        },
    })
}

/// Reference `workflow_from_file`.
fn reference_workflow(file: &DagmanFile) -> Result<Workflow, PrioError> {
    let mut b = WorkflowBuilder::with_capacity(FormatId::Dagman, file.statements.len(), 0);
    for s in &file.statements {
        let name = match s {
            Statement::Job { name, .. } | Statement::Subdag { name, .. } => name,
            _ => continue,
        };
        if b.get(name).is_some() {
            return Err(DagmanError::DuplicateJob {
                line: 0,
                job: name.to_string(),
            }
            .into());
        }
        let u = b.job(name);
        match s {
            Statement::Job {
                submit_file,
                options,
                ..
            } => {
                if *submit_file != format!("{name}.submit") {
                    b.set_meta(u, META_SUBMIT, submit_file.clone());
                }
                if !options.is_empty() {
                    b.set_meta(u, META_OPTIONS, options.join(" "));
                }
            }
            Statement::Subdag { dag_file, .. } => b.set_meta(u, META_SUBDAG, dag_file.clone()),
            _ => {}
        }
    }
    for s in &file.statements {
        match s {
            Statement::ParentChild { parents, children } => {
                for p in parents {
                    for c in children {
                        let unknown = |job: &JobName| DagmanError::UnknownJob {
                            line: 0,
                            job: job.to_string(),
                        };
                        let pu = b.get(p).ok_or_else(|| unknown(p))?;
                        let cu = b.get(c).ok_or_else(|| unknown(c))?;
                        b.arc(pu, cu)
                            .map_err(|_| DagmanError::Cyclic { job: p.to_string() })?;
                    }
                }
            }
            Statement::Vars { job, pairs } => {
                if let Some(u) = b.get(job) {
                    for (k, v) in pairs {
                        if k == JOBPRIORITY {
                            if let Ok(p) = v.parse::<i64>() {
                                b.set_priority(u, p);
                            }
                        }
                    }
                }
            }
            Statement::Priority { job, value } => {
                if let Some(u) = b.get(job) {
                    b.set_priority(u, *value);
                }
            }
            _ => {}
        }
    }
    b.build()
}

/// `keyword` in upper, lower or mixed case.
fn kw(rng: &mut SmallRng, keyword: &str) -> String {
    match rng.gen_range(0u32..4) {
        0 => keyword.to_ascii_lowercase(),
        1 => {
            let mut s = keyword.to_ascii_lowercase();
            s[..1].make_ascii_uppercase();
            s
        }
        _ => keyword.to_string(),
    }
}

/// A valid DAGMan file for a seeded random dag, one statement per line.
fn valid_file(seed: u64) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..24);
    let dag = forward_pairs(n, 0.2, &mut rng);
    let name = |u: NodeId| format!("j{}", u.0);
    let mut lines = Vec::new();
    // Declarations, with each job's VARS/PRIORITY lines and some filler.
    for u in dag.node_ids() {
        let job = name(u);
        if rng.gen_bool(0.15) {
            lines.push(format!(
                "{} {} {job} {job}.dag",
                kw(&mut rng, "SUBDAG"),
                kw(&mut rng, "EXTERNAL")
            ));
        } else {
            let submit = match rng.gen_range(0u32..3) {
                0 => format!("{job}.submit"),
                1 => "shared.sub".to_string(),
                _ => format!("{job}.sub"),
            };
            let options = match rng.gen_range(0u32..4) {
                0 => " DIR d DONE",
                1 => " NOOP",
                _ => "",
            };
            lines.push(format!("{} {job} {submit}{options}", kw(&mut rng, "JOB")));
        }
        match rng.gen_range(0u32..6) {
            0 => {
                let p = rng.gen_range(0u64..2000) as i64 - 1000;
                lines.push(format!(
                    "{} {job} {JOBPRIORITY}=\"{p}\"",
                    kw(&mut rng, "VARS")
                ));
            }
            1 => lines.push(format!(
                "{} {job} note=\"a \\\"b\\\"\" {JOBPRIORITY}=\"x1\"",
                kw(&mut rng, "VARS")
            )),
            2 => {
                let p = rng.gen_range(0u64..50);
                lines.push(format!("{} {job} {p}", kw(&mut rng, "PRIORITY")));
            }
            3 => lines.push(format!("RETRY {job} 3")),
            4 => lines.push("# a comment".to_string()),
            _ => lines.push(String::new()),
        }
    }
    // Priorities that mention undeclared jobs are ignored, not errors.
    if rng.gen_bool(0.3) {
        lines.push(format!("VARS ghost {JOBPRIORITY}=\"5\""));
        lines.push("PRIORITY ghost 5".to_string());
    }
    // Arcs: per parent, all children in one product statement or one
    // statement per child; an arc is repeated now and then.
    for u in dag.node_ids() {
        let children: Vec<String> = dag.children(u).iter().map(|&c| name(c)).collect();
        if children.is_empty() {
            continue;
        }
        let (parent, child) = (kw(&mut rng, "PARENT"), kw(&mut rng, "CHILD"));
        if rng.gen_bool(0.5) {
            lines.push(format!(
                "{parent} {} {child} {}",
                name(u),
                children.join(" ")
            ));
        } else {
            for c in &children {
                lines.push(format!("{parent} {} {child} {c}", name(u)));
            }
        }
        if rng.gen_bool(0.2) {
            lines.push(format!("PARENT {} CHILD {}", name(u), children[0]));
        }
    }
    // A many-to-many statement over arcs that already exist: the parents
    // of the last job that has two of them.
    if let Some(v) = dag.node_ids().rev().find(|&v| dag.in_degree(v) >= 2) {
        let parents: Vec<String> = dag.parents(v).iter().map(|&p| name(p)).collect();
        lines.push(format!("PARENT {} CHILD {}", parents.join(" "), name(v)));
    }
    // Shuffle the declarations' position relative to the arcs a little:
    // arcs may precede the JOB lines they name.
    if rng.gen_bool(0.3) {
        let k = rng.gen_range(0..lines.len());
        lines.rotate_left(k);
    }
    lines
}

/// One defect per entry; `{a}`/`{b}` are two declared jobs (`b` after
/// `a` in index order, so `a -> b` may exist but `b -> a` closes a
/// cycle whenever `a` reaches `b`).
const DEFECTS: &[&str] = &[
    // Malformed lines, one per rejecting branch of the line parser.
    "JOB",
    "JOB onlyname",
    "PARENT",
    "PARENT {a} CHILD",
    "PARENT {a} {b}",
    "VARS",
    "VARS {a}",
    "VARS {a} nokey",
    "VARS {a} =\"v\"",
    "VARS {a} k=v",
    "VARS {a} k=\"unterminated",
    "VARS {a} k=\"dangling\\",
    "SUBDAG",
    "SUBDAG {a} inner.dag",
    "SUBDAG EXTERNAL",
    "SUBDAG EXTERNAL inner",
    "PRIORITY",
    "PRIORITY {a}",
    "PRIORITY {a} high",
    // Duplicate declarations.
    "JOB {a} again.sub",
    "SUBDAG EXTERNAL {a} again.dag",
    "SUBDAG EXTERNAL {b} again.dag",
    // Unknown jobs: both in one statement, then each alone.
    "PARENT ghost_p CHILD ghost_c",
    "PARENT ghost_p CHILD {a}",
    "PARENT {a} CHILD ghost_c",
    "PARENT {a} {b} CHILD {b} ghost_c",
    // Self-loops, alone and after a good arc of the same statement.
    "PARENT {a} CHILD {a}",
    "PARENT {a} CHILD {b} {a}",
    // An arc against index order: a cycle whenever a -> … -> b exists.
    "PARENT {b} CHILD {a}",
];

/// Compares both extractions on `text` against the reference and each
/// other; returns whether the file was valid.
#[track_caller]
fn check(text: &str) -> bool {
    let parsed = parse_dagman(text);
    let want_dag = parsed.clone().and_then(|f| reference_to_dag(&f));
    let want_wf = parsed
        .clone()
        .map_err(PrioError::from)
        .and_then(|f| reference_workflow(&f));

    let got_dag = parsed.clone().and_then(|f| f.to_dag());
    let got_wf = DagmanFrontend.import(text);
    let got_wf_direct = parsed
        .map_err(PrioError::from)
        .and_then(|f| workflow_from_file(&f));

    match (&want_dag, &got_dag) {
        (Ok(want), Ok(got)) => assert_eq!(got, want, "to_dag on\n{text}"),
        (Err(want), Err(got)) => {
            assert_eq!(got, want, "to_dag error on\n{text}");
            assert_eq!(got.to_string(), want.to_string());
        }
        _ => panic!("to_dag: got {got_dag:?}, want {want_dag:?} on\n{text}"),
    }
    for got in [&got_wf, &got_wf_direct] {
        match (&want_wf, got) {
            (Ok(want), Ok(got)) => assert_eq!(got, want, "workflow_from_file on\n{text}"),
            (Err(want), Err(got)) => assert_eq!(
                got.to_string(),
                want.to_string(),
                "workflow_from_file error on\n{text}"
            ),
            _ => panic!("workflow_from_file: got {got:?}, want {want_wf:?} on\n{text}"),
        }
    }
    if let (Ok(dag), Ok(wf)) = (&got_dag, &got_wf) {
        assert_eq!(dag, wf.dag(), "the two extractions disagree on\n{text}");
    }
    got_dag.is_ok()
}

#[test]
fn extractions_agree_on_valid_files() {
    let (mut with_meta, mut with_priorities) = (0, 0);
    for seed in 0..300u64 {
        let text = valid_file(seed).join("\n");
        assert!(check(&text), "seed {seed} should be valid:\n{text}");
        let wf = DagmanFrontend.import(&text).unwrap();
        with_meta += usize::from(wf.node_ids().any(|u| wf.meta_of(u).next().is_some()));
        with_priorities += usize::from(!wf.priorities().is_empty());
    }
    // The corpus really exercises the metadata and priority branches.
    assert!(with_meta > 200 && with_priorities > 200);
}

#[test]
fn extractions_agree_on_invalid_files() {
    let mut failures = 0;
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
        let mut lines = valid_file(seed);
        let jobs: Vec<String> = parse_dagman(&lines.join("\n"))
            .unwrap()
            .job_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let i = rng.gen_range(0..jobs.len());
        let j = rng.gen_range(i..jobs.len());
        let defect = DEFECTS[seed as usize % DEFECTS.len()]
            .replace("{a}", &jobs[i])
            .replace("{b}", &jobs[j]);
        lines.insert(rng.gen_range(0..=lines.len()), defect);
        failures += usize::from(!check(&lines.join("\n")));
    }
    // Every defect but the backward arc is fatal, and that one is
    // whenever it closes a cycle.
    assert!(
        failures > 280,
        "only {failures} of 300 defective files failed"
    );
}

#[test]
fn each_error_kind_matches_the_reference() {
    let cases = [
        "JOB a a.sub\nJOB onlyname",
        "JOB a a.sub\nJOB a b.sub",
        "JOB a a.sub\nSUBDAG EXTERNAL a a.dag",
        "SUBDAG EXTERNAL s s.dag\nSUBDAG EXTERNAL s t.dag",
        "JOB a a.sub\nPARENT ghost_p CHILD ghost_c",
        "JOB a a.sub\nPARENT a CHILD a",
        "JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a",
        "JOB a a.sub\nJOB b b.sub\nJOB c c.sub\nPARENT a CHILD b\nPARENT b CHILD c\nPARENT c CHILD b",
    ];
    for text in cases {
        assert!(!check(text), "{text:?} should be rejected");
    }
}
