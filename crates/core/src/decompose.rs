//! The generalized decomposition (Divide phase, Step 2).
//!
//! The theoretical algorithm repeatedly detaches a maximal connected
//! *bipartite* building block whose sources are sources of the remnant of
//! `G'` — and fails when none exists. The heuristic generalizes the
//! decomposition so it never fails: for a source `s` of the remnant, `C(s)`
//! is the smallest subgraph containing `s` that is closed under
//! *children-of-contained-sources* and *parents-of-contained-jobs*; a
//! containment-minimal `C(s)` is detached instead. When the remnant does
//! have bipartite blocks the two notions coincide.
//!
//! §3.5 engineering: identifying a bipartite block first and falling back
//! to the general (and much more expensive) minimal-`C(s)` search only when
//! no bipartite block exists reduced the SDSS decomposition "from over
//! 2 days to a few minutes". Both paths are implemented here;
//! [`DecomposeOptions::fast_path`] toggles the optimization so the ablation
//! benchmark can quantify it.
//!
//! Detaching removes the block's non-sinks plus those of its sinks that are
//! sinks of `G'`; a sink with surviving children stays and becomes a source
//! of a later component. The **superdag** is the quotient of `G'` by the
//! "removed in component i" map: an arc `i → j` records that some job
//! removed with component `i` has a child removed with component `j`, i.e.
//! component `j` cannot start before `i` contributes.

use crate::component::{Component, ScheduleSource};
use crate::prio::PARALLEL_WORK_THRESHOLD;
use prio_graph::bipartite::is_bipartite_dag;
use prio_graph::{par, Dag, Label, NodeId, ScratchArena, SubgraphMap, SubgraphScratch};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options controlling the decomposition.
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOptions {
    /// Try to detach a connected bipartite block first, invoking the
    /// general minimal-`C(s)` search only when none exists (§3.5). Turning
    /// this off forces the general search every iteration — the "naive"
    /// arm of the decomposition ablation.
    pub fast_path: bool,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions { fast_path: true }
    }
}

/// A detached block before the Recurse phase assigns it a schedule.
#[derive(Debug, Clone)]
pub struct Part {
    /// Global ids of the block's nodes, sorted.
    pub nodes: Vec<NodeId>,
    /// The induced local dag on `nodes` (remnant view: arcs between two
    /// alive nodes always survive, so inducing on the original `G'` is
    /// exact).
    pub local: Dag,
    /// Local ↔ global id mapping.
    pub map: SubgraphMap,
    /// Whether the block is bipartite.
    pub bipartite: bool,
    /// Whether the block came from the bipartite fast path.
    pub via_fast_path: bool,
    /// Global ids of the nodes *removed* by this detach (non-sinks plus
    /// sinks of `G'`), sorted.
    pub removed: Vec<NodeId>,
}

impl Part {
    /// The block's non-sinks (global ids, sorted) — the jobs this component
    /// contributes to the global schedule.
    pub fn nonsinks(&self) -> Vec<NodeId> {
        self.local
            .node_ids()
            .filter(|&l| !self.local.is_sink(l))
            .map(|l| self.map.to_super(l))
            .collect()
    }

    /// Converts this part into a [`Component`] once the Recurse phase has
    /// chosen a non-sink schedule and computed the local eligibility
    /// profile.
    pub fn into_component(
        self,
        index: usize,
        nonsink_schedule: Vec<NodeId>,
        schedule_source: ScheduleSource,
        profile: Vec<usize>,
    ) -> Component {
        Component {
            index,
            nodes: self.nodes,
            local: self.local,
            map: self.map,
            bipartite: self.bipartite,
            nonsink_schedule,
            schedule_source,
            profile,
        }
    }
}

/// The result of decomposing `G'`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The detached blocks, in detach order.
    pub parts: Vec<Part>,
    /// The superdag: node `i` is `parts[i]`; an arc `i → j` means some job
    /// removed with part `i` has a child in part `j`.
    pub superdag: Dag,
    /// `comp_removed[u]` = index of the part whose detach removed job `u`.
    pub comp_removed: Vec<usize>,
    /// How many detach iterations used the general minimal-`C(s)` search.
    pub general_search_iterations: usize,
}

/// Decomposes `g` (assumed shortcut-free; the caller runs the transitive
/// reduction first) into components plus a superdag. One-shot entry point:
/// fresh scratch arena, serial part materialization.
pub fn decompose(g: &Dag, opts: DecomposeOptions) -> Decomposition {
    decompose_in(g, opts, 0, &mut ScratchArena::new())
}

/// [`decompose`] with explicit worker `threads` for the part-materialization
/// phase and a caller-owned scratch `arena` for the peel loop's worklists.
///
/// The decomposition runs in three phases:
///
/// 1. **Peel** (inherently serial — each detach changes what the next
///    iteration sees): the block/closure searches over the shrinking
///    remnant, producing per-part node and removed sets only.
/// 2. **Superdag**: quotient of `g` by the removed-in-part map. Each node
///    of `g` appears in exactly one part's `removed` list, so walking those
///    lists part by part visits every arc of `g` exactly once, already
///    grouped by source part — the quotient arcs come out globally sorted
///    without a quotient-wide sort, and the detach order is its own
///    topological witness, so no re-validation pass is needed either.
/// 3. **Materialize** (independent per part, parallelized when the total
///    node count clears [`PARALLEL_WORK_THRESHOLD`]): induce each part's
///    local dag and classify bipartiteness. Results are placed by part
///    index, so every thread count is bit-identical.
pub fn decompose_in(
    g: &Dag,
    opts: DecomposeOptions,
    threads: usize,
    arena: &mut ScratchArena,
) -> Decomposition {
    let _span = prio_obs::span(prio_obs::stage::DECOMPOSE);
    let (seeds, comp_removed, general_search_iterations) = peel(g, opts, arena);
    let superdag = build_superdag(g, &seeds, &comp_removed, threads);
    let parts = materialize_parts(g, seeds, threads);

    prio_obs::counter("core.decompose.components_detached").add(parts.len() as u64);
    prio_obs::counter("core.decompose.general_search_iterations")
        .add(general_search_iterations as u64);
    Decomposition {
        parts,
        superdag,
        comp_removed,
        general_search_iterations,
    }
}

/// A detached block before materialization: the node/removed sets the peel
/// loop decided on, with the local dag still unbuilt.
#[derive(Debug)]
struct PartSeed {
    nodes: Vec<NodeId>,
    removed: Vec<NodeId>,
    via_fast_path: bool,
}

/// The peel loop: repeatedly picks a block (bipartite fast path, general
/// minimal-`C(s)` search as fallback) and detaches it from the remnant.
/// Returns the part seeds in detach order, the removed-in-part map and the
/// general-search iteration count.
fn peel(
    g: &Dag,
    opts: DecomposeOptions,
    arena: &mut ScratchArena,
) -> (Vec<PartSeed>, Vec<usize>, usize) {
    let _span = prio_obs::span("decompose.peel");
    let n = g.num_nodes();
    let mut alive = arena.take_bools();
    alive.resize(n, true);
    let mut alive_indeg = arena.take_u32s();
    alive_indeg.extend(g.node_ids().map(|u| g.in_degree(u) as u32));
    // Candidate remnant sources as a lazy min-heap: entries may be stale
    // (node removed, deferred, or duplicated) and are validated on pop.
    // The heap replaces an ordered source *set* — membership deletions
    // were ~2 ordered-set operations per job on a pointer-chasing tree —
    // with O(1)-amortized pushes into a dense array; ascending pops keep
    // the detach order bit-identical to the ordered-set iteration.
    let mut candidates: BinaryHeap<Reverse<NodeId>> = g.sources().map(Reverse).collect();
    let mut comp_removed = vec![usize::MAX; n];
    let mut remaining = n;
    let mut seeds: Vec<PartSeed> = Vec::new();
    let mut general_search_iterations = 0usize;

    // Scratch for the closure searches (stamped visited marks).
    let mut stamp_of = arena.take_u32s();
    stamp_of.resize(n, 0);
    let mut stamp = 0u32;

    // Failure deferral for the fast path. A failed seed attempt visits a
    // set of sources and fails at one internal "blocker" parent; the
    // attempt's outcome cannot change until one of those visited nodes is
    // removed or the blocker becomes a source, so all visited sources are
    // deferred as a group and re-enabled only when a watched node fires.
    // Without this, dags in which a wide join's parents become ready one
    // by one (e.g. SDSS's 14k per-target chains feeding one collector)
    // re-scan every dead-end seed on every detach — a cubic blowup.
    // All three structures are dense (indexed by node / group id) — the
    // hash-set variant paid a SipHash probe per membership test on the
    // hottest peel-loop branch.
    let mut deferred = arena.take_bools();
    deferred.resize(n, false);
    let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut groups: Vec<Option<Vec<NodeId>>> = Vec::new();
    macro_rules! fire_watch {
        ($node:expr) => {
            for gid in std::mem::take(&mut watchers[$node.index()]) {
                if let Some(members) = groups[gid as usize].take() {
                    for &m in &members {
                        deferred[m.index()] = false;
                        // An un-deferred member that is still a remnant
                        // source becomes a candidate again.
                        if alive[m.index()] && alive_indeg[m.index()] == 0 {
                            candidates.push(Reverse(m));
                        }
                    }
                    arena.put_nodes(members);
                }
            }
        };
    }

    while remaining > 0 {
        let mut via_fast_path = false;
        let mut block: Option<Vec<NodeId>> = None;

        if opts.fast_path {
            // Pop candidates in ascending order, validating lazily: an
            // entry may be dead, no longer minimal (duplicate) or deferred.
            // The first candidate whose block attempt succeeds is the same
            // source an ordered ascending scan would have picked.
            while let Some(&Reverse(s)) = candidates.peek() {
                if !alive[s.index()] || alive_indeg[s.index()] != 0 || deferred[s.index()] {
                    candidates.pop();
                    continue;
                }
                stamp += 1;
                match bipartite_block(g, &alive, &alive_indeg, s, &mut stamp_of, stamp, arena) {
                    Ok(nodes) => {
                        // `s` stays in the heap; the detach below kills it
                        // (block sources are always removed), so the entry
                        // goes stale and is skipped on a later pop.
                        block = Some(nodes);
                        via_fast_path = true;
                        break;
                    }
                    Err(failure) => {
                        candidates.pop();
                        let gid = groups.len() as u32;
                        for &src in &failure.visited_sources {
                            deferred[src.index()] = true;
                            watchers[src.index()].push(gid);
                        }
                        watchers[failure.blocker.index()].push(gid);
                        groups.push(Some(failure.visited_sources));
                    }
                }
            }
        }

        let nodes = match block {
            Some(nodes) => nodes,
            None => {
                // General search: compute C(s) for every remnant source and
                // take a containment-minimal one (smallest size; minimal
                // closures are equal or disjoint, so smallest size suffices).
                general_search_iterations += 1;
                // Current remnant sources, ascending. With the fast path
                // on, the candidate heap is exhausted here (every source is
                // deferred), so recover them by scanning; with it off, the
                // heap still holds them all (plus stale entries, filtered
                // out) and survivors are pushed back for later iterations.
                let srcs: Vec<NodeId> = if opts.fast_path {
                    (0..n)
                        .map(|i| NodeId(i as u32))
                        .filter(|u| alive[u.index()] && alive_indeg[u.index()] == 0)
                        .collect()
                } else {
                    let mut v: Vec<NodeId> = candidates
                        .drain()
                        .map(|Reverse(u)| u)
                        .filter(|u| alive[u.index()] && alive_indeg[u.index()] == 0)
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    candidates.extend(v.iter().copied().map(Reverse));
                    v
                };
                let mut best: Option<(usize, NodeId, Vec<NodeId>)> = None;
                for &s in srcs.iter() {
                    stamp += 1;
                    let c = closure(g, &alive, &alive_indeg, s, &mut stamp_of, stamp, arena);
                    let better = match &best {
                        None => true,
                        Some((size, seed, _)) => c.len() < *size || (c.len() == *size && s < *seed),
                    };
                    if better {
                        if let Some((_, _, old)) = best.replace((c.len(), s, c)) {
                            arena.put_nodes(old);
                        }
                    } else {
                        arena.put_nodes(c);
                    }
                }
                best.expect("at least one source exists").2
            }
        };

        // Detach: remove non-sinks of the block and block sinks that are
        // sinks of G' (= have no children at all, since children of alive
        // nodes are always alive). Block membership is tested via a fresh
        // stamp, so no local dag is needed here — materialization happens
        // later, outside the serial loop.
        stamp += 1;
        for &u in &nodes {
            stamp_of[u.index()] = stamp;
        }
        let mut removed: Vec<NodeId> = Vec::new();
        for &u in &nodes {
            let has_block_child = g.children(u).iter().any(|v| stamp_of[v.index()] == stamp);
            if has_block_child || g.is_sink(u) {
                removed.push(u);
            }
        }
        assert!(
            !removed.is_empty(),
            "detach must make progress (block of {} nodes)",
            nodes.len()
        );
        let part_index = seeds.len();
        for &u in &removed {
            debug_assert!(alive[u.index()], "removing a dead node");
            alive[u.index()] = false;
            comp_removed[u.index()] = part_index;
            deferred[u.index()] = false;
            fire_watch!(u);
            remaining -= 1;
            for &v in g.children(u) {
                // Children of an alive node are always alive; u was alive.
                let vi = v.index();
                alive_indeg[vi] -= 1;
                if alive_indeg[vi] == 0 && alive[vi] {
                    candidates.push(Reverse(v));
                    fire_watch!(v);
                }
            }
        }
        seeds.push(PartSeed {
            nodes,
            removed,
            via_fast_path,
        });
    }

    arena.put_bools(alive);
    arena.put_bools(deferred);
    arena.put_u32s(alive_indeg);
    arena.put_u32s(stamp_of);
    (seeds, comp_removed, general_search_iterations)
}

/// Builds each seed's local induced dag and bipartiteness flag — the
/// per-part work the peel loop deferred. Independent across parts; runs on
/// worker threads ([`par::map_owned`]) when `threads > 1` and the total
/// node count clears [`PARALLEL_WORK_THRESHOLD`]. Parts are placed by
/// index, so the result is bit-identical for every thread count.
fn materialize_parts(g: &Dag, seeds: Vec<PartSeed>, threads: usize) -> Vec<Part> {
    let _span = prio_obs::span("decompose.materialize");
    let work: usize = seeds.iter().map(|s| s.nodes.len()).sum();
    let parallel = threads.min(seeds.len()) > 1 && work >= PARALLEL_WORK_THRESHOLD;
    let threads = if parallel {
        prio_obs::counter("core.decompose.parallel_materialize").add(1);
        threads
    } else {
        prio_obs::counter("core.decompose.serial_materialize").add(1);
        1
    };
    par::map_owned(seeds, threads, SubgraphScratch::new, |scratch, seed| {
        materialize_one(g, seed, scratch)
    })
}

/// Materializes one part: induces the local dag (stamped membership plus a
/// dense local-id table — no per-arc searches) and classifies
/// bipartiteness. The scratch lives across parts, so the dense tables are
/// grown once per worker, not once per part.
fn materialize_one(g: &Dag, seed: PartSeed, scratch: &mut SubgraphScratch) -> Part {
    let (local, map) = g.induced_subgraph_in(&seed.nodes, scratch);
    let bipartite = is_bipartite_dag(&local);
    Part {
        nodes: seed.nodes,
        local,
        map,
        bipartite,
        via_fast_path: seed.via_fast_path,
        removed: seed.removed,
    }
}

/// Builds the superdag — the quotient of `g` by `comp_removed` — from the
/// seeds' `removed` lists. Each job is removed by exactly one part, so
/// scanning the lists part by part covers every arc of `g` exactly once,
/// already grouped by source part: deduping against a `k`-sized stamp table
/// and sorting only each part's (typically tiny) target list yields a
/// globally sorted quotient arc list with no quotient-wide sort. Every arc
/// points forward in detach order (a parent is never removed after its
/// child), so detach order is a topological witness and the acyclicity
/// re-check is skipped too.
fn build_superdag(g: &Dag, seeds: &[PartSeed], comp_removed: &[usize], threads: usize) -> Dag {
    let _span = prio_obs::span("decompose.superdag");
    let k = seeds.len();
    let labels: Vec<Label> = (0..k).map(|i| format!("C{i}").into()).collect();
    let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut seen: Vec<u32> = vec![u32::MAX; k];
    let mut buf: Vec<u32> = Vec::new();
    for (i, seed) in seeds.iter().enumerate() {
        buf.clear();
        for &u in &seed.removed {
            for &v in g.children(u) {
                let j = comp_removed[v.index()];
                if j != i && seen[j] != i as u32 {
                    seen[j] = i as u32;
                    debug_assert!(i < j, "a parent is never removed after its child");
                    buf.push(j as u32);
                }
            }
        }
        buf.sort_unstable();
        arcs.extend(buf.iter().map(|&j| (NodeId(i as u32), NodeId(j))));
    }
    Dag::from_sorted_arcs_unchecked(labels, &arcs, threads)
}

/// Why a bipartite-block attempt failed: the sources visited before the
/// failure (they would all fail identically) and the internal parent that
/// forced the closure past bipartiteness. The attempt's outcome cannot
/// change while every visited source stays a live source and the blocker
/// stays a live non-source, which is what the deferral machinery watches.
struct BlockFailure {
    visited_sources: Vec<NodeId>,
    blocker: NodeId,
}

/// Tries to grow a connected bipartite block from remnant source `s`:
/// sources `S`, sinks `T`, closed under children-of-`S` and
/// parents-of-`T`, where every parent of a `T` node must itself be a
/// remnant source (otherwise no bipartite block containing `s` exists).
///
/// Returns the sorted node set on success, or the failure witness.
#[allow(clippy::too_many_arguments)]
fn bipartite_block(
    g: &Dag,
    alive: &[bool],
    alive_indeg: &[u32],
    s: NodeId,
    stamp_of: &mut [u32],
    stamp: u32,
    arena: &mut ScratchArena,
) -> Result<Vec<NodeId>, BlockFailure> {
    let mut nodes = arena.take_nodes();
    let mut visited_sources = arena.take_nodes();
    let mut src_queue = arena.take_nodes();
    nodes.push(s);
    visited_sources.push(s);
    src_queue.push(s);
    stamp_of[s.index()] = stamp;
    while let Some(u) = src_queue.pop() {
        for &w in g.children(u) {
            if stamp_of[w.index()] == stamp {
                continue;
            }
            stamp_of[w.index()] = stamp;
            nodes.push(w);
            // Every alive parent of a block sink must itself be a remnant
            // source (otherwise the closure is forced past bipartiteness).
            for &p in g.parents(w) {
                if alive[p.index()] {
                    if alive_indeg[p.index()] != 0 {
                        arena.put_nodes(nodes);
                        arena.put_nodes(src_queue);
                        return Err(BlockFailure {
                            visited_sources,
                            blocker: p,
                        });
                    }
                    if stamp_of[p.index()] != stamp {
                        stamp_of[p.index()] = stamp;
                        nodes.push(p);
                        visited_sources.push(p);
                        src_queue.push(p);
                    }
                }
            }
        }
    }
    nodes.sort_unstable();
    arena.put_nodes(visited_sources);
    arena.put_nodes(src_queue);
    Ok(nodes)
}

/// The general closure `C(s)`: smallest set containing `s`, closed under
/// children-of-contained-remnant-sources and alive-parents-of-contained
/// jobs. Returns the sorted node set.
fn closure(
    g: &Dag,
    alive: &[bool],
    alive_indeg: &[u32],
    s: NodeId,
    stamp_of: &mut [u32],
    stamp: u32,
    arena: &mut ScratchArena,
) -> Vec<NodeId> {
    let mut nodes = arena.take_nodes();
    let mut queue = arena.take_nodes();
    nodes.push(s);
    queue.push(s);
    stamp_of[s.index()] = stamp;
    while let Some(u) = queue.pop() {
        if alive_indeg[u.index()] == 0 {
            // u is a remnant source: include all its (alive) children.
            for &w in g.children(u) {
                if stamp_of[w.index()] != stamp {
                    stamp_of[w.index()] = stamp;
                    nodes.push(w);
                    queue.push(w);
                }
            }
        }
        // Include all alive parents of u.
        for &p in g.parents(u) {
            if alive[p.index()] && stamp_of[p.index()] != stamp {
                stamp_of[p.index()] = stamp;
                nodes.push(p);
                queue.push(p);
            }
        }
    }
    nodes.sort_unstable();
    arena.put_nodes(queue);
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompose_default(g: &Dag) -> Decomposition {
        decompose(g, DecomposeOptions::default())
    }

    /// Every non-sink of `g` must be scheduled by exactly one part, and
    /// every node removed exactly once.
    fn check_invariants(g: &Dag, dec: &Decomposition) {
        let mut removed_by = vec![usize::MAX; g.num_nodes()];
        let mut nonsink_owner = vec![usize::MAX; g.num_nodes()];
        for (i, part) in dec.parts.iter().enumerate() {
            for &u in &part.removed {
                assert_eq!(removed_by[u.index()], usize::MAX, "{u:?} removed twice");
                removed_by[u.index()] = i;
            }
            for u in part.nonsinks() {
                assert_eq!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "{u:?} scheduled twice"
                );
                nonsink_owner[u.index()] = i;
            }
        }
        for u in g.node_ids() {
            assert_ne!(removed_by[u.index()], usize::MAX, "{u:?} never removed");
            assert_eq!(removed_by[u.index()], dec.comp_removed[u.index()]);
            if !g.is_sink(u) {
                assert_ne!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "non-sink {u:?} unscheduled"
                );
            } else {
                assert_eq!(
                    nonsink_owner[u.index()],
                    usize::MAX,
                    "sink {u:?} scheduled early"
                );
            }
        }
        // Superdag arcs all point forward in detach order.
        for (a, b) in dec.superdag.arcs() {
            assert!(a < b);
        }
        assert_eq!(dec.superdag.num_nodes(), dec.parts.len());
    }

    #[test]
    fn fig3_decomposes_into_two_bipartite_parts() {
        let g = Dag::from_arcs(5, &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 2);
        assert!(dec.parts.iter().all(|p| p.bipartite && p.via_fast_path));
        assert_eq!(dec.superdag.num_arcs(), 0);
        assert_eq!(dec.general_search_iterations, 0);
        let sizes: Vec<usize> = dec.parts.iter().map(|p| p.nodes.len()).collect();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn chain_peels_one_link_at_a_time() {
        let g = Dag::from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 3);
        // Superdag is itself a chain.
        assert_eq!(dec.superdag.num_arcs(), 2);
        assert!(dec.superdag.has_arc(NodeId(0), NodeId(1)));
        assert!(dec.superdag.has_arc(NodeId(1), NodeId(2)));
    }

    #[test]
    fn diamond_becomes_fork_then_join() {
        let g = Dag::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 2);
        assert_eq!(dec.parts[0].nodes.len(), 3); // {0,1,2}: the fork
        assert_eq!(dec.parts[1].nodes.len(), 3); // {1,2,3}: the join
        assert!(dec.superdag.has_arc(NodeId(0), NodeId(1)));
    }

    #[test]
    fn shared_sink_survives_and_reappears_as_source() {
        // 0 -> 1 -> 2: part 0 = {0,1} detaches only node 0; node 1
        // reappears as the source of part 1.
        let g = Dag::from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let dec = decompose_default(&g);
        assert_eq!(dec.parts[0].removed, vec![NodeId(0)]);
        assert!(dec.parts[0].nodes.contains(&NodeId(1)));
        assert!(dec.parts[1].nodes.contains(&NodeId(1)));
        assert_eq!(dec.comp_removed[1], 1);
    }

    #[test]
    fn entangled_dag_falls_back_to_general_search() {
        // Both sources' closures include internal nodes, so no bipartite
        // block exists: 0->4, 2->4, 1->2, 1->5, 3->5, 0->3.
        let g = Dag::from_arcs(6, &[(0, 4), (2, 4), (1, 2), (1, 5), (3, 5), (0, 3)]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 1);
        assert!(!dec.parts[0].bipartite);
        assert!(!dec.parts[0].via_fast_path);
        assert_eq!(dec.general_search_iterations, 1);
        assert_eq!(dec.parts[0].nodes.len(), 6);
    }

    #[test]
    fn fast_path_off_matches_fast_path_on_for_bipartite_compositions() {
        // A dag assembled from bipartite blocks: both paths must produce
        // the same parts (the generalized decomposition coincides with the
        // block decomposition there).
        let g = Dag::from_arcs(
            7,
            &[
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let with = decompose(&g, DecomposeOptions { fast_path: true });
        let without = decompose(&g, DecomposeOptions { fast_path: false });
        check_invariants(&g, &with);
        check_invariants(&g, &without);
        let nodes = |d: &Decomposition| -> Vec<Vec<NodeId>> {
            d.parts.iter().map(|p| p.nodes.clone()).collect()
        };
        assert_eq!(nodes(&with), nodes(&without));
        assert!(without.general_search_iterations > 0);
        assert_eq!(with.general_search_iterations, 0);
    }

    #[test]
    fn isolated_nodes_are_their_own_parts() {
        let g = Dag::from_arcs(3, &[]).unwrap();
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 3);
        assert!(dec.parts.iter().all(|p| p.nodes.len() == 1));
        assert!(dec.parts.iter().all(|p| p.nonsinks().is_empty()));
    }

    #[test]
    fn empty_dag() {
        let g = prio_graph::DagBuilder::new().build().unwrap();
        let dec = decompose_default(&g);
        assert!(dec.parts.is_empty());
        assert_eq!(dec.superdag.num_nodes(), 0);
    }

    #[test]
    fn w_dag_is_a_single_block() {
        let (g, _) = crate::families::w_dag(4, 3);
        let dec = decompose_default(&g);
        check_invariants(&g, &dec);
        assert_eq!(dec.parts.len(), 1);
        assert!(dec.parts[0].bipartite);
        assert_eq!(dec.parts[0].nonsinks().len(), 4);
    }
}
