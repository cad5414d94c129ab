//! The direct DAGMan-text → [`Dag`] path: parse without building an AST.
//!
//! [`crate::parse::parse_dagman`] + [`crate::ast::DagmanFile::to_dag`]
//! materialize a [`Statement`](crate::ast::Statement) per input line —
//! submit-file strings, option vectors, interned name handles — only for
//! `to_dag` to immediately reduce them to declarations and arcs. At 10⁷–10⁸
//! jobs that intermediate AST costs several times the memory of the dag
//! itself. [`parse_dagman_to_dag`] instead scans each line *leanly*:
//! name tokens stay `&str` borrows into the input text until the single
//! final copy into the dag's label table, statement validation runs
//! allocation-free, and the per-chunk scans run on worker threads
//! ([`prio_graph::par`]).
//!
//! **Error parity is a hard contract**: for every input and thread count,
//! this path returns exactly the error (variant, line, job, message) that
//! `parse_dagman(text).and_then(|f| f.to_dag())` would — property-tested
//! in `tests/` against the AST path. The phases mirror the AST path's
//! precedence: all lines are scanned for `Malformed` first (lowest line
//! wins), then duplicate declarations in declaration order, then unknown
//! jobs and self-loops in statement × parent × child product order, then
//! cycles from the final acyclicity check.

use crate::error::DagmanError;
use crate::parse::{find_after_token, malformed, parse_vars_pairs_into, MIN_PARALLEL_PARSE_BYTES};
use crate::scan;
use prio_graph::{par, Dag, GraphError, Label, NameHashBuild, NodeId};
use std::collections::HashMap;

/// Borrowed per-chunk scan output: declaration and arc-statement name
/// tokens, pointing into the input text (nothing is copied here).
#[derive(Debug, Default)]
struct ChunkEvents<'a> {
    /// `JOB`/`SUBDAG EXTERNAL` names, in declaration order.
    decls: Vec<&'a str>,
    /// Flattened `PARENT … CHILD …` name lists, parents then children,
    /// statement by statement.
    pc_names: Vec<&'a str>,
    /// Per `PARENT … CHILD` statement: (parent count, child count) into
    /// `pc_names`.
    pc_stmts: Vec<(u32, u32)>,
}

/// Parses DAGMan text straight into the dependency [`Dag`], skipping the
/// AST; sharded across up to `threads` worker threads (`0`/`1` = one
/// chunk on the caller's thread). Equivalent to
/// `parse_dagman(text).and_then(|f| f.to_dag())` — same dag, same errors —
/// at a fraction of the memory and time. Labels are in declaration order,
/// exactly as the AST path's [`crate::DagmanFile::job_names`] would list
/// them.
pub fn parse_dagman_to_dag(text: &str, threads: usize) -> Result<Dag, DagmanError> {
    let _span = prio_obs::span(prio_obs::stage::PARSE);
    prio_obs::counter("dagman.parse.direct_to_dag").add(1);
    let t = if text.len() < MIN_PARALLEL_PARSE_BYTES {
        1
    } else {
        threads.max(1)
    };
    let chunks = scan::chunk_at_lines(text, t);

    // Phase 1: lean-scan every line. Workers stop at their first malformed
    // line; the lowest chunk's error has the lowest line number, which is
    // exactly the serial parser's first error.
    let events: Vec<ChunkEvents<'_>> = par::map(chunks.len(), t, |i| {
        let (range, start_line) = &chunks[i];
        scan_chunk(&text[range.clone()], *start_line)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    // Phase 2 (serial): the declaration table. First duplicate in
    // declaration order wins, matching the AST path's decl pass. The one
    // copy of each name happens here, into the dag's own label table.
    let num_decls: usize = events.iter().map(|e| e.decls.len()).sum();
    let mut ids: HashMap<&str, NodeId, NameHashBuild> =
        HashMap::with_capacity_and_hasher(num_decls, NameHashBuild);
    let mut labels: Vec<Label> = Vec::with_capacity(num_decls);
    for ev in &events {
        for &name in &ev.decls {
            if ids.contains_key(name) {
                return Err(DagmanError::DuplicateJob {
                    line: 0,
                    job: name.to_string(),
                });
            }
            ids.insert(name, NodeId(labels.len() as u32));
            labels.push(Label::from(name));
        }
    }

    // Phase 3: resolve arc statements, per chunk on worker threads. Name
    // lookups and self-loop checks run in statement × parent × child
    // product order within each chunk, and chunk order is statement order,
    // so the first error across chunks is the AST path's first error.
    let arcs = par::concat(
        par::map(events.len(), t, |i| resolve_arcs(&events[i], &ids))
            .into_iter()
            .collect::<Result<_, _>>()?,
    );
    drop(ids);

    // Phase 4: assemble the CSR dag (sort, dedup, parallel build, Kahn
    // acyclicity check), mapping graph errors exactly as the AST path
    // does. The labels move into the dag, so the (terminal, rare) cycle
    // error re-derives the witness job's name with one serial re-scan of
    // the declarations rather than keeping a full label copy around.
    match Dag::assemble(labels, arcs, threads) {
        Ok(dag) => Ok(dag),
        Err(GraphError::Cycle { on_cycle }) => Err(DagmanError::Cyclic {
            job: nth_decl(text, on_cycle as usize).unwrap_or_else(|| "?".to_string()),
        }),
        Err(other) => Err(DagmanError::Malformed {
            line: 0,
            message: other.to_string(),
        }),
    }
}

/// The `k`-th (0-based) `JOB`/`SUBDAG EXTERNAL` declaration name of
/// already-validated input — node ids are declaration indices, so this is
/// the AST path's `job_names()[k]`.
fn nth_decl(text: &str, k: usize) -> Option<String> {
    let ev = scan_chunk(text, 1).ok()?;
    ev.decls.get(k).map(|s| s.to_string())
}

/// Resolves one chunk's `PARENT … CHILD` statements against the
/// declaration table, in product order, with the AST path's error
/// precedence (unknown parent, then unknown child, then self-loop).
fn resolve_arcs(
    ev: &ChunkEvents<'_>,
    ids: &HashMap<&str, NodeId, NameHashBuild>,
) -> Result<Vec<(NodeId, NodeId)>, DagmanError> {
    let mut arcs = Vec::with_capacity(ev.pc_names.len());
    let mut cur = 0usize;
    for &(np, nc) in &ev.pc_stmts {
        let parents = &ev.pc_names[cur..cur + np as usize];
        cur += np as usize;
        let children = &ev.pc_names[cur..cur + nc as usize];
        cur += nc as usize;
        for &p in parents {
            for &c in children {
                let (pu, cu) = match (ids.get(p), ids.get(c)) {
                    (Some(&pu), Some(&cu)) => (pu, cu),
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
                if pu == cu {
                    // The AST path's `add_arc` rejects self-loops here.
                    return Err(DagmanError::Cyclic { job: p.to_string() });
                }
                arcs.push((pu, cu));
            }
        }
    }
    Ok(arcs)
}

/// Lean version of [`crate::parse`]'s per-line parser: identical keyword
/// dispatch and validation (the two must stay in lockstep — the error-
/// parity property tests enforce it), but name tokens are borrowed and
/// nothing else of the statement is kept.
fn scan_chunk(chunk: &str, start_line: usize) -> Result<ChunkEvents<'_>, DagmanError> {
    let mut ev = ChunkEvents::default();
    for (i, raw) in scan::lines(chunk).enumerate() {
        scan_line(raw, start_line + i, &mut ev)?;
    }
    Ok(ev)
}

fn scan_line<'a>(raw: &'a str, line: usize, ev: &mut ChunkEvents<'a>) -> Result<(), DagmanError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(());
    }
    let mut tokens = trimmed.split_whitespace();
    let keyword = tokens.next().expect("non-empty line has a first token");
    let mut kwbuf = [0u8; 8];
    let keyword = if keyword.len() <= kwbuf.len() {
        let buf = &mut kwbuf[..keyword.len()];
        buf.copy_from_slice(keyword.as_bytes());
        buf.make_ascii_uppercase();
        std::str::from_utf8(buf).unwrap_or("")
    } else {
        "" // longer than any keyword: passes through as Other
    };
    match keyword {
        "JOB" => {
            let name = tokens
                .next()
                .ok_or_else(|| malformed(line, "JOB requires a name"))?;
            tokens
                .next()
                .ok_or_else(|| malformed(line, "JOB requires a submit description file"))?;
            ev.decls.push(name);
        }
        "PARENT" => {
            let stmt_start = ev.pc_names.len();
            let mut num_parents = 0u32;
            let mut num_children = 0u32;
            let mut in_children = false;
            for t in tokens {
                if !in_children && num_parents > 0 && t.eq_ignore_ascii_case("CHILD") {
                    in_children = true;
                } else if in_children {
                    ev.pc_names.push(t);
                    num_children += 1;
                } else {
                    ev.pc_names.push(t);
                    num_parents += 1;
                }
            }
            if num_parents == 0 || num_children == 0 {
                ev.pc_names.truncate(stmt_start);
                return Err(malformed(line, "PARENT … CHILD … requires both lists"));
            }
            ev.pc_stmts.push((num_parents, num_children));
        }
        "VARS" => {
            tokens
                .next()
                .ok_or_else(|| malformed(line, "VARS requires a job name"))?;
            let rest_start = find_after_token(trimmed, 2);
            let count = parse_vars_pairs_into(&trimmed[rest_start..], line, None)?;
            if count == 0 {
                return Err(malformed(line, "VARS requires at least one key=\"value\""));
            }
        }
        "SUBDAG" => {
            let external = tokens
                .next()
                .ok_or_else(|| malformed(line, "SUBDAG requires the EXTERNAL keyword"))?;
            if !external.eq_ignore_ascii_case("EXTERNAL") {
                return Err(malformed(line, "only SUBDAG EXTERNAL is supported"));
            }
            let name = tokens
                .next()
                .ok_or_else(|| malformed(line, "SUBDAG EXTERNAL requires a name"))?;
            tokens
                .next()
                .ok_or_else(|| malformed(line, "SUBDAG EXTERNAL requires a dag file"))?;
            ev.decls.push(name);
        }
        "PRIORITY" => {
            tokens
                .next()
                .ok_or_else(|| malformed(line, "PRIORITY requires a job name"))?;
            tokens
                .next()
                .ok_or_else(|| malformed(line, "PRIORITY requires a value"))?
                .parse::<i64>()
                .map_err(|_| malformed(line, "PRIORITY value must be an integer"))?;
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dagman;

    fn ast_path(text: &str) -> Result<Dag, DagmanError> {
        parse_dagman(text).and_then(|f| f.to_dag())
    }

    #[track_caller]
    fn assert_parity(text: &str) {
        for threads in [0, 1, 3] {
            match (ast_path(text), parse_dagman_to_dag(text, threads)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.num_nodes(), b.num_nodes(), "{text:?}");
                    assert_eq!(
                        a.arcs().collect::<Vec<_>>(),
                        b.arcs().collect::<Vec<_>>(),
                        "{text:?}"
                    );
                    let la: Vec<&str> = a.node_ids().map(|u| a.label(u)).collect();
                    let lb: Vec<&str> = b.node_ids().map(|u| b.label(u)).collect();
                    assert_eq!(la, lb, "{text:?}");
                }
                (a, b) => assert_eq!(a.err(), b.err(), "{text:?} (threads={threads})"),
            }
        }
    }

    #[test]
    fn matches_ast_path_on_small_inputs() {
        assert_parity("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\n");
        assert_parity("# only a comment\n\n");
        assert_parity("");
        assert_parity("JOB a a.sub\nSUBDAG EXTERNAL s s.dag\nPARENT a CHILD s\n");
        assert_parity("JOB a a.sub\nVARS a k=\"v\"\nPRIORITY a 9\nRETRY a 3\n");
    }

    #[test]
    fn matches_ast_path_on_errors() {
        assert_parity("JOB onlyname");
        assert_parity("JOB a a.sub\nJOB a b.sub"); // duplicate
        assert_parity("JOB a a.sub\nPARENT a CHILD ghost"); // unknown child
        assert_parity("JOB a a.sub\nPARENT ghost CHILD a"); // unknown parent
        assert_parity("JOB a a.sub\nPARENT a CHILD a"); // self-loop
        assert_parity("PARENT a CHILD"); // missing children
        assert_parity("VARS a nokey");
        assert_parity("VARS a k=\"unterminated");
        assert_parity("SUBDAG inner inner.dag");
        assert_parity("PRIORITY a notanumber");
        // Malformed beats duplicate regardless of line order.
        assert_parity("JOB a a.sub\nJOB a b.sub\nJOB onlyname");
        // Cycle through the final acyclicity check.
        assert_parity("JOB a a.sub\nJOB b b.sub\nPARENT a CHILD b\nPARENT b CHILD a\n");
    }
}
