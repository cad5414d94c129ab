//! Output checks that rely only on the generated graph and this module's own
//! readers, never on the program's parsers. Every check returns the
//! priority of each job (indexed like the graph) so callers can compare
//! outputs and compute the eligibility measure.

use crate::gen::Graph;
use crate::minijson::{self, Value};
use std::collections::{HashMap, HashSet};

fn index_of(g: &Graph) -> HashMap<&str, u32> {
    g.names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect()
}

/// Collects `(job, priority)` pairs into a per-index vector: every job
/// exactly once, no unknown jobs.
fn assign<'a>(
    g: &Graph,
    pairs: impl IntoIterator<Item = (&'a str, i64)>,
) -> Result<Vec<i64>, String> {
    let index = index_of(g);
    let mut prio = vec![0i64; g.num_jobs()];
    let mut seen = 0usize;
    for (name, p) in pairs {
        let &i = index
            .get(name)
            .ok_or_else(|| format!("priority for unknown job {name:?}"))?;
        if prio[i as usize] != 0 {
            return Err(format!("job {name:?} has two priorities"));
        }
        if p <= 0 {
            return Err(format!("job {name:?} has priority {p}, expected 1..=n"));
        }
        prio[i as usize] = p;
        seen += 1;
    }
    if seen != g.num_jobs() {
        return Err(format!("{seen} priorities for {} jobs", g.num_jobs()));
    }
    Ok(prio)
}

/// Priorities must be a permutation of 1..=n that decreases along every
/// generated arc (a parent runs before its child).
pub fn check_priorities(g: &Graph, prio: &[i64]) -> Result<(), String> {
    let n = g.num_jobs();
    let mut hit = vec![false; n + 1];
    for (i, &p) in prio.iter().enumerate() {
        let slot = usize::try_from(p).ok().filter(|&p| (1..=n).contains(&p));
        match slot {
            Some(s) if !hit[s] => hit[s] = true,
            _ => {
                return Err(format!(
                    "job {:?}: priority {p} is not a free slot of 1..={n}",
                    g.names[i]
                ))
            }
        }
    }
    for &(u, v) in &g.arcs {
        if prio[u as usize] <= prio[v as usize] {
            return Err(format!(
                "arc {} -> {}: parent priority {} is not above child priority {}",
                g.names[u as usize], g.names[v as usize], prio[u as usize], prio[v as usize]
            ));
        }
    }
    Ok(())
}

/// `VARS <job> jobpriority="<p>"`, as the tool writes it.
fn vars_priority(line: &str) -> Option<(&str, i64)> {
    let rest = line.strip_prefix("VARS ")?;
    let (job, value) = rest.split_once(' ')?;
    let p = value.strip_prefix("jobpriority=\"")?.strip_suffix('"')?;
    Some((job, p.parse().ok()?))
}

/// Reads the priorities out of an output in `format`.
pub fn priorities_from_output(format: &str, text: &str, g: &Graph) -> Result<Vec<i64>, String> {
    let prio = match format {
        "dagman" => {
            let mut pairs = Vec::with_capacity(g.num_jobs());
            for line in text.lines() {
                if line.starts_with("VARS ") {
                    pairs.push(
                        vars_priority(line).ok_or_else(|| format!("bad VARS line {line:?}"))?,
                    );
                }
            }
            assign(g, pairs)?
        }
        "json" => {
            let doc = minijson::parse(text)?;
            let Some(Value::Arr(jobs)) = doc.get("jobs") else {
                return Err("json output has no jobs array".into());
            };
            let mut pairs = Vec::with_capacity(jobs.len());
            for job in jobs {
                let name = job
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("job without name")?;
                match job.get("priority") {
                    Some(&Value::Num(p)) if p.fract() == 0.0 => pairs.push((name, p as i64)),
                    _ => return Err(format!("job {name:?} has no integer priority")),
                }
            }
            assign(g, pairs)?
        }
        "edges" => {
            let mut pairs = Vec::with_capacity(g.num_jobs());
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix("@priority\t") {
                    let (job, p) = rest.split_once('\t').ok_or("bad @priority line")?;
                    pairs.push((job, p.parse().map_err(|_| format!("bad priority {p:?}"))?));
                }
            }
            assign(g, pairs)?
        }
        other => return Err(format!("unknown output format {other:?}")),
    };
    check_priorities(g, &prio)?;
    Ok(prio)
}

/// The paper's instrumentation: the output is the input with exactly one
/// `VARS <job> jobpriority="p"` line added directly after each `JOB` line.
/// Nothing is dropped, reordered or edited.
pub fn check_instrument(input: &str, output: &str, g: &Graph) -> Result<Vec<i64>, String> {
    let mut kept = input.lines();
    let mut pending_job: Option<&str> = None;
    let mut pairs = Vec::with_capacity(g.num_jobs());
    for (no, line) in output.lines().enumerate() {
        if let Some(job) = pending_job.take() {
            let (vjob, p) = vars_priority(line).ok_or_else(|| {
                format!(
                    "output line {}: expected VARS for {job:?}, got {line:?}",
                    no + 1
                )
            })?;
            if vjob != job {
                return Err(format!(
                    "output line {}: VARS names {vjob:?}, expected {job:?}",
                    no + 1
                ));
            }
            pairs.push((vjob, p));
            continue;
        }
        match kept.next() {
            Some(orig) if orig == line => {
                if let Some(rest) = orig.strip_prefix("JOB ") {
                    pending_job = rest.split_whitespace().next();
                }
            }
            Some(orig) => {
                return Err(format!(
                    "output line {}: {line:?} should be the input line {orig:?}",
                    no + 1
                ))
            }
            None => return Err(format!("output line {}: extra line {line:?}", no + 1)),
        }
    }
    if let Some(job) = pending_job {
        return Err(format!("missing VARS line for {job:?} at end of output"));
    }
    if let Some(orig) = kept.next() {
        return Err(format!("input line {orig:?} is missing from the output"));
    }
    let prio = assign(g, pairs)?;
    check_priorities(g, &prio)?;
    Ok(prio)
}

/// `prio schedule` output: one `name<TAB>priority` line per job, in
/// schedule order with priorities n, n-1, …, 1, forming a linear
/// extension of the generated arcs.
pub fn check_schedule(output: &str, g: &Graph) -> Result<Vec<i64>, String> {
    let n = g.num_jobs() as i64;
    let mut pairs = Vec::with_capacity(g.num_jobs());
    for (i, line) in output.lines().enumerate() {
        let (name, p) = line
            .split_once('\t')
            .ok_or_else(|| format!("line {}: no tab", i + 1))?;
        let p: i64 = p
            .parse()
            .map_err(|_| format!("line {}: bad priority", i + 1))?;
        if p != n - i as i64 {
            return Err(format!(
                "line {}: priority {p}, expected {}",
                i + 1,
                n - i as i64
            ));
        }
        pairs.push((name, p));
    }
    let prio = assign(g, pairs)?;
    check_priorities(g, &prio)?;
    Ok(prio)
}

/// The paper's quality measure: the mean over t = 0..=n of E(t), the number
/// of jobs eligible (all parents done, itself not yet done) after the first
/// t jobs in priority order have run.
pub fn mean_eligible(g: &Graph, prio: &[i64]) -> f64 {
    let n = g.num_jobs();
    let mut order = vec![0usize; n];
    for (i, &p) in prio.iter().enumerate() {
        order[n - p as usize] = i;
    }
    let mut missing = vec![0u32; n];
    let mut children = vec![Vec::new(); n];
    for &(u, v) in &g.arcs {
        missing[v as usize] += 1;
        children[u as usize].push(v as usize);
    }
    let mut eligible = missing.iter().filter(|&&m| m == 0).count();
    let mut total = eligible as f64;
    for &u in &order {
        eligible -= 1;
        for &c in &children[u] {
            missing[c] -= 1;
            if missing[c] == 0 {
                eligible += 1;
            }
        }
        total += eligible as f64;
    }
    total / (n + 1) as f64
}

/// One `ok` reply of the daemon.
#[derive(Debug)]
pub struct Reply {
    pub format: String,
    pub cached: bool,
    pub output: String,
}

/// Checks the replies of one connection: each reply answers the request
/// sent last, and no request id is answered twice.
#[derive(Default)]
pub struct ReplyTracker {
    answered: HashSet<String>,
}

impl ReplyTracker {
    pub fn accept(&mut self, sent_id: &str, line: &str) -> Result<Reply, String> {
        let v = minijson::parse(line).map_err(|e| format!("reply is not JSON: {e}"))?;
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or("reply without id")?;
        if !self.answered.insert(id.to_string()) {
            return Err(format!("reply id {id:?} answered twice"));
        }
        if id != sent_id {
            return Err(format!(
                "reply id {id:?} does not match request id {sent_id:?}"
            ));
        }
        let status = v.get("status").and_then(Value::as_str).unwrap_or("");
        if status != "ok" {
            return Err(format!("request {id}: status {status:?}: {line}"));
        }
        let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        Ok(Reply {
            format: field("format").ok_or("reply without format")?,
            cached: v.get("cached") == Some(&Value::Bool(true)),
            output: field("output").ok_or("reply without output")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 3 DAG: a -> b, c -> d, c -> e.
    fn fig3() -> Graph {
        Graph {
            names: ["a", "b", "c", "d", "e"].map(String::from).to_vec(),
            arcs: vec![(0, 1), (2, 3), (2, 4)],
        }
    }

    const FIG3_IN: &str = "JOB a a.submit\nJOB b b.submit\nJOB c c.submit\nJOB d d.submit\n\
                           JOB e e.submit\nPARENT a CHILD b\nPARENT c CHILD d e\n";
    /// The tool's output on Fig. 3 (PRIO order c, a, b, d, e).
    const FIG3_OUT: &str = "JOB a a.submit\nVARS a jobpriority=\"4\"\nJOB b b.submit\n\
                            VARS b jobpriority=\"3\"\nJOB c c.submit\nVARS c jobpriority=\"5\"\n\
                            JOB d d.submit\nVARS d jobpriority=\"2\"\nJOB e e.submit\n\
                            VARS e jobpriority=\"1\"\nPARENT a CHILD b\nPARENT c CHILD d e\n";

    #[test]
    fn accepts_the_papers_fig3_output() {
        assert_eq!(
            check_instrument(FIG3_IN, FIG3_OUT, &fig3()),
            Ok(vec![4, 3, 5, 2, 1])
        );
    }

    #[test]
    fn rejects_an_arc_with_inverted_priorities() {
        // Swap the priorities of a and its child b.
        let bad = FIG3_OUT
            .replace("VARS a jobpriority=\"4\"", "VARS a jobpriority=\"3\"")
            .replace("VARS b jobpriority=\"3\"", "VARS b jobpriority=\"4\"");
        let err = check_instrument(FIG3_IN, &bad, &fig3()).unwrap_err();
        assert!(err.contains("arc a -> b"), "{err}");
        let sched = "c\t5\nb\t4\na\t3\nd\t2\ne\t1\n";
        assert!(check_schedule(sched, &fig3()).is_err());
        assert!(check_schedule("c\t5\na\t4\nb\t3\nd\t2\ne\t1\n", &fig3()).is_ok());
    }

    #[test]
    fn rejects_a_dropped_vars_line() {
        let bad = FIG3_OUT.replace("VARS d jobpriority=\"2\"\n", "");
        assert!(check_instrument(FIG3_IN, &bad, &fig3()).is_err());
    }

    #[test]
    fn rejects_an_edited_line() {
        let bad = FIG3_OUT.replace("JOB b b.submit", "JOB b other.submit");
        assert!(check_instrument(FIG3_IN, &bad, &fig3()).is_err());
        let moved = FIG3_OUT.replace(
            "PARENT a CHILD b\nPARENT c CHILD d e\n",
            "PARENT c CHILD d e\nPARENT a CHILD b\n",
        );
        assert!(check_instrument(FIG3_IN, &moved, &fig3()).is_err());
    }

    #[test]
    fn rejects_a_duplicated_reply_id() {
        let reply = |id: &str| {
            format!("{{\"type\":\"response\",\"id\":\"{id}\",\"status\":\"ok\",\"format\":\"edges\",\"cached\":false,\"output\":\"a\\tb\\n\"}}")
        };
        let mut t = ReplyTracker::default();
        assert!(t.accept("r1", &reply("r1")).is_ok());
        let err = t.accept("r2", &reply("r1")).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        assert!(ReplyTracker::default().accept("r2", &reply("r3")).is_err());
    }

    #[test]
    fn reads_priorities_from_every_output_format() {
        let g = fig3();
        let json = "{\"jobs\":[{\"name\":\"a\",\"priority\":4},{\"name\":\"b\",\"priority\":3},\
                    {\"name\":\"c\",\"priority\":5},{\"name\":\"d\",\"priority\":2},\
                    {\"name\":\"e\",\"priority\":1}],\"arcs\":[]}";
        let edges = "a\nb\n@priority\ta\t4\n@priority\tb\t3\n@priority\tc\t5\n@priority\td\t2\n@priority\te\t1\n";
        let want = vec![4, 3, 5, 2, 1];
        assert_eq!(priorities_from_output("json", json, &g), Ok(want.clone()));
        assert_eq!(priorities_from_output("edges", edges, &g), Ok(want.clone()));
        assert_eq!(priorities_from_output("dagman", FIG3_OUT, &g), Ok(want));
        let missing = edges.replace("@priority\te\t1\n", "");
        assert!(priorities_from_output("edges", &missing, &g).is_err());
    }

    #[test]
    fn mean_eligible_matches_a_hand_count_on_fig3() {
        // Order c, a, b, d, e. E(0) = |{a, c}| = 2; after c: a, d, e = 3;
        // after a: b, d, e = 3; after b: d, e = 2; after d: e = 1; then 0.
        // Mean over t = 0..=5: (2 + 3 + 3 + 2 + 1 + 0) / 6.
        let m = mean_eligible(&fig3(), &[4, 3, 5, 2, 1]);
        assert!((m - 11.0 / 6.0).abs() < 1e-12, "{m}");
    }
}
