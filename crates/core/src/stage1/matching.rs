//! MATCHING(E) — the constant-shrink algorithm (paper §4.1).
//!
//! One constant-depth pass that, given an edge set whose ends are roots,
//! reduces the number of live roots by a constant fraction w.h.p.
//! (Lemma 4.4), while guaranteeing every original root ends up a root or a
//! child of a root (Lemma 4.5). The nine steps of the paper's pseudocode are
//! implemented literally; each concurrent election uses the write-then-check
//! CRCW idiom from the paper's own implementation notes (Lemma 4.3).
//!
//! The two elections whose winner shapes the result are priority writes, so
//! the hooks depend on the input and the seed alone, never on the schedule:
//!
//! - **Step 3** lets each tail keep an arbitrary outgoing arc. Here the tail
//!   keeps the arc to its smallest-id head (ties, i.e. parallel edges, go to
//!   the smallest edge index): the arc elects itself under the packed key
//!   `head << 32 | index` and the smallest key wins. This is min-label
//!   hooking (Liu–Tarjan, "Simple Concurrent Labeling Algorithms"), and one
//!   valid ARBITRARY resolution. It concentrates D's in-arcs on low-id
//!   roots, so Steps 5–6 absorb whole in-stars.
//! - **Step 4** hooks each singleton head under an arbitrary original arc
//!   into it. A singleton has no outgoing arc, so it is a root smaller than
//!   every tail pointing at it, and a max-priority hook keeps the largest
//!   such tail whatever order the offers arrive in.
//!
//! The remaining elections (Steps 5, 6 and 8) only detect whether a vertex
//! has more than one arc, which does not depend on who wins, and their
//! hooks each have a single writer.
//!
//! ## Passes
//!
//! After Step 1's deletions, four passes scan E: Step 3's write, Step 3's
//! check, Step 4's singleton hook and Step 9's shortcut. After Step 3 only
//! D's arcs are live, at most one per tail, so Step 3's check collects them
//! as a list of edge indices and Steps 5–8 run as seven passes over that
//! list: Step 5's check, Step 5's prune with Step 6's write, Step 6's
//! check, Step 6's hook, Step 6's prune with Step 7's coin and Step 8's
//! write, Step 8's check and Step 8's hook. The two prunes compact the list
//! in place, in index order, so the hooked list comes out in edge-index
//! order within each step. Each pass only reads what earlier passes
//! finished. Every arc of D has a non-singleton head, so Step 3's check
//! also casts its Step-5 vote.
//!
//! ## Cell lifetimes
//!
//! The per-vertex cells live in [`Stage1Scratch`] across calls, and a call
//! never sweeps them clean. The four election cells (`out_winner`,
//! `in_winner`, `in_winner2`, `end_mark`) start every call empty: each
//! written cell has one winner, and the pass that checks the election
//! (Steps 3, 5, 6 and 8) clears it through that winner
//! ([`TagCells::check_clear`](parcc_pram::crcw::TagCells::check_clear)).
//! A loser that reads the cleared cell still sees a mismatch, so every
//! outcome is that of the plain check. The five flags are epoch bytes
//! under the call's epoch ([`Stage1Scratch::epoch_for`]), so flags from
//! earlier calls read as clear. The hooked list comes from the hook passes
//! themselves: Steps 6 and 8 have one writer per hooked vertex. A singleton
//! hooked in Step 4 is reported by its smallest-index arc, elected in
//! `in_winner` (a singleton is never a head in D, so its cell is free) and
//! checked in Step 9, so the list's order does not depend on the schedule.

use crate::stage1::scratch::Stage1Scratch;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::primitives::retain;
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// Run MATCHING(E). `edges` is filtered in place (Step 1's deletions);
/// the vertices hooked are returned, each once: Step 4's singletons, then
/// Step 6's absorbed tails, then Step 8's isolated heads, each step's in
/// the order of the edge that hooks it. `tag` must come fresh from
/// `scratch.next_tag()`. Charges `O(|E|)` work at `O(1)` depth.
///
/// # Panics
///
/// If more than `u32::MAX` edges survive Step 1: the Step-3 key and D's
/// arc list hold edge indices in 32 bits.
pub fn matching(
    edges: &mut Vec<Edge>,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    stream: Stream,
    tag: u64,
    tracker: &CostTracker,
) -> Vec<Vertex> {
    // Step 1: delete edges touching non-roots, and self-loops.
    retain(
        edges,
        |e| forest.is_root(e.u()) && forest.is_root(e.v()) && !e.is_loop(),
        tracker,
    );
    if edges.is_empty() {
        return Vec::new();
    }
    let edges: &[Edge] = edges;
    let m = edges.len();
    assert!(
        u32::try_from(m).is_ok(),
        "MATCHING indexes its edges in 32 bits, got {m} edges"
    );
    tracker.charge(m as u64 * 9, 9);
    let epoch = scratch.epoch_for(tag, tracker);
    // The charge above pays for every pass, the arc-list compactions
    // included.
    let uncharged = CostTracker::new();

    // Step 2: orient each edge from the large end to the small end.
    let tail = |e: Edge| e.u().max(e.v()) as usize;
    let head = |e: Edge| e.u().min(e.v()) as usize;
    let key = |i: usize, e: Edge| (head(e) as u64) << 32 | i as u64;
    let arc = |i: u32| {
        let e = edges[i as usize];
        (tail(e), head(e))
    };

    // Step 3: each tail keeps its arc to the smallest head.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        scratch.out_winner.write_min(tail(e), key(i, e));
    });
    // Step 3 check: the winners are D. Step 4 marks their ends; Step 5
    // write: each arc votes for its head.
    let mut arcs: Vec<u32> = edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            let (t, h) = (tail(e), head(e));
            scratch.out_winner.check_clear(t, key(i, e)).then(|| {
                scratch.non_singleton.set(t, epoch);
                scratch.non_singleton.set(h, epoch);
                scratch.in_winner.write_vacant(h, i as u64);
                i as u32
            })
        })
        .collect();
    // Step 4: hook each singleton head under its largest tail; its
    // smallest-index arc will report it in Step 9.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        let h = head(e);
        if !scratch.non_singleton.get(h, epoch) {
            forest.offer_parent_max(h as Vertex, tail(e) as Vertex);
            scratch.in_winner.write_min(h, i as u64);
        }
    });
    // Step 5 check: roots with >1 incoming arcs lose all their outgoing
    // arcs.
    arcs.par_iter().for_each(|&i| {
        let (_, h) = arc(i);
        if !scratch.in_winner.check_clear(h, u64::from(i)) {
            scratch.multi_in.set(h, epoch);
        }
    });
    // Step 5 prune; Step 6 write: re-detect multi-in heads on the pruned D.
    retain(
        &mut arcs,
        |&i| {
            let (t, h) = arc(i);
            let keep = !scratch.multi_in.get(t, epoch);
            if keep {
                scratch.in_winner2.write_vacant(h, u64::from(i));
            }
            keep
        },
        &uncharged,
    );
    arcs.par_iter().for_each(|&i| {
        let (_, h) = arc(i);
        if !scratch.in_winner2.check_clear(h, u64::from(i)) {
            scratch.multi_in2.set(h, epoch);
        }
    });
    // Step 6 hook: multi-in heads absorb all their in-neighbours, which
    // leave D. A tail has one arc left, so one writer per hooked vertex.
    let absorbed: Vec<Vertex> = arcs
        .par_iter()
        .filter_map(|&i| {
            let (t, h) = arc(i);
            scratch.multi_in2.get(h, epoch).then(|| {
                forest.set_parent(t as Vertex, h as Vertex);
                scratch.deleted.set(t, epoch);
                t as Vertex
            })
        })
        .collect();
    // Step 6 prune; Step 7 deletes each remaining arc with probability 1/2;
    // Step 8 write: isolated arcs are found by write-then-verify, where any
    // losing arc marks the shared end.
    retain(
        &mut arcs,
        |&i| {
            let (t, h) = arc(i);
            let keep = !(scratch.deleted.get(t, epoch)
                || scratch.deleted.get(h, epoch)
                || stream.coin(u64::from(i), 0.5));
            if keep {
                scratch.end_mark.write_vacant(t, u64::from(i));
                scratch.end_mark.write_vacant(h, u64::from(i));
            }
            keep
        },
        &uncharged,
    );
    arcs.par_iter().for_each(|&i| {
        let (t, h) = arc(i);
        for v in [t, h] {
            if !scratch.end_mark.check_clear(v, u64::from(i)) {
                scratch.shared.set(v, epoch);
            }
        }
    });
    // Step 8 hook: isolated arcs hook their head under their tail; an
    // unshared head has this one arc, so one writer per hooked vertex.
    let isolated: Vec<Vertex> = arcs
        .par_iter()
        .filter_map(|&i| {
            let (t, h) = arc(i);
            (!scratch.shared.get(t, epoch) && !scratch.shared.get(h, epoch)).then(|| {
                forest.set_parent(h as Vertex, t as Vertex);
                h as Vertex
            })
        })
        .collect();

    // Step 9: both ends of every edge shortcut once. Step 4's report:
    // Step 5's check emptied the `in_winner` cell of every head in D, so
    // only singletons' cells are occupied, each by the arc that reports it.
    let singletons: Vec<Vertex> = edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            forest.shortcut_vertex(e.u());
            forest.shortcut_vertex(e.v());
            let h = head(e);
            scratch
                .in_winner
                .check_clear(h, i as u64)
                .then_some(h as Vertex)
        })
        .collect();

    let mut hooked = Vec::with_capacity(singletons.len() + absorbed.len() + isolated.len());
    for part in [singletons, absorbed, isolated] {
        hooked.extend_from_slice(&part);
    }
    hooked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_once(
        n: usize,
        pairs: &[(u32, u32)],
        seed: u64,
    ) -> (ParentForest, Vec<Edge>, Vec<Vertex>) {
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let mut edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        let hooked = matching(
            &mut edges,
            &forest,
            &scratch,
            Stream::new(seed, 1),
            scratch.next_tag(),
            &tracker,
        );
        (forest, edges, hooked)
    }

    #[test]
    fn drops_loops_and_nonroot_edges() {
        let forest = ParentForest::new(4);
        forest.set_parent(3, 2);
        let scratch = Stage1Scratch::new(4);
        let tracker = CostTracker::new();
        let mut edges = vec![Edge::new(0, 0), Edge::new(3, 1), Edge::new(0, 1)];
        matching(
            &mut edges,
            &forest,
            &scratch,
            Stream::new(1, 1),
            scratch.next_tag(),
            &tracker,
        );
        // Loop gone; (3,1) gone because 3 is not a root.
        assert!(!edges.contains(&Edge::new(0, 0)));
        assert!(!edges.contains(&Edge::new(3, 1)));
    }

    #[test]
    fn single_edge_always_matches() {
        // A single arc is isolated unless deleted by the Step-7 coin; the
        // Step-4 singleton rule cannot apply (both ends are covered), so
        // run several seeds and require at least one success, plus
        // never-merging beyond the component.
        let mut merged = 0;
        for seed in 0..20 {
            let (f, _, _) = run_once(2, &[(0, 1)], seed);
            if f.find_root(0).0 == f.find_root(1).0 {
                merged += 1;
            }
        }
        assert!(
            merged >= 5,
            "single edge should often match, got {merged}/20"
        );
    }

    #[test]
    fn star_center_absorbs_leaves() {
        // Star from high id to low ids: all arcs point into vertex 0, which
        // has >1 incoming arcs — Step 6 absorbs every leaf.
        let n = 10;
        let pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (v, 0)).collect();
        let (f, _, hooked) = run_once(n, &pairs, 3);
        for v in 1..n as u32 {
            assert_eq!(f.find_root(v).0, 0, "leaf {v} should hook under 0");
        }
        assert_eq!(hooked.len(), n - 1);
    }

    #[test]
    fn tail_keeps_its_arc_to_the_smallest_head_in_any_input_order() {
        // Tail 10 offers arcs to 5, 2 and 9; tail 7 points at 2 as well.
        // If 10 keeps its arc to 2, head 2 has two in-arcs and absorbs both
        // tails in Step 6, and the singletons 5 and 9 hook under 10 in
        // Step 4 and shortcut to 2 in Step 9. Had 10 kept any other arc, no
        // step would hook it under 2. None of this depends on Step 7's
        // coins.
        let arcs = [(10u32, 5u32), (10, 2), (10, 9)];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let forest = ParentForest::new(11);
            let scratch = Stage1Scratch::new(11);
            let mut edges: Vec<Edge> = order
                .iter()
                .map(|&k| Edge::new(arcs[k].0, arcs[k].1))
                .collect();
            edges.push(Edge::new(7, 2));
            let mut hooked = matching(
                &mut edges,
                &forest,
                &scratch,
                Stream::new(1, 1),
                scratch.next_tag(),
                &CostTracker::new(),
            );
            assert_eq!(forest.parent(10), 2, "order {order:?}");
            assert_eq!(forest.parent(7), 2, "order {order:?}");
            assert_eq!(forest.parent(5), 2, "order {order:?}");
            assert_eq!(forest.parent(9), 2, "order {order:?}");
            assert!(forest.is_root(2));
            hooked.sort_unstable();
            assert_eq!(hooked, vec![5, 7, 9, 10], "order {order:?}");
            // The winner emptied the Step-3 cell.
            assert!(scratch.out_winner.vacant(10), "order {order:?}");
        }
    }

    #[test]
    fn a_vertex_hooked_in_successive_calls_is_reported_by_each() {
        // The star's leaves hook under 0 deterministically (Step 6). A later
        // call under a newer tag, on a fresh forest but the same scratch,
        // must report them again: the update log keeps the latest tag.
        let n = 8;
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        for _ in 0..2 {
            let forest = ParentForest::new(n);
            let mut edges: Vec<Edge> = (1..n as u32).map(|v| Edge::new(v, 0)).collect();
            let mut hooked = matching(
                &mut edges,
                &forest,
                &scratch,
                Stream::new(2, 2),
                scratch.next_tag(),
                &tracker,
            );
            hooked.sort_unstable();
            assert_eq!(hooked, (1..n as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reduces_roots_by_constant_fraction() {
        // Random graph with ~2n edges: expect a solid root reduction.
        let n = 2000usize;
        let s = Stream::new(7, 7);
        let pairs: Vec<(u32, u32)> = (0..2 * n as u64)
            .map(|i| {
                (
                    s.below(2 * i, n as u64) as u32,
                    s.below(2 * i + 1, n as u64) as u32,
                )
            })
            .filter(|&(a, b)| a != b)
            .collect();
        let (f, _, _) = run_once(n, &pairs, 11);
        let roots = f.root_count();
        assert!(
            roots < n - n / 20,
            "matching should remove ≥5% of roots, left {roots}/{n}"
        );
    }

    #[test]
    fn lemma_4_5_root_or_child_of_root() {
        // Every original root is a root or a child of a root afterwards.
        for seed in 0..10 {
            let n = 300usize;
            let s = Stream::new(seed, 3);
            let pairs: Vec<(u32, u32)> = (0..n as u64)
                .map(|i| {
                    (
                        s.below(2 * i, n as u64) as u32,
                        s.below(2 * i + 1, n as u64) as u32,
                    )
                })
                .collect();
            let (f, _, _) = run_once(n, &pairs, seed);
            assert!(f.max_height() <= 1, "trees must stay flat (Lemma 4.5)");
        }
    }

    #[test]
    fn hooks_stay_within_components() {
        // Two disjoint triangles never merge.
        for seed in 0..10 {
            let (f, _, _) = run_once(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], seed);
            let left = f.find_root(0).0;
            let right = f.find_root(3).0;
            assert_ne!(left, right);
            for v in [1u32, 2] {
                assert_eq!(f.find_root(v).0, left);
            }
        }
    }

    #[test]
    fn charges_linear_work_constant_depth() {
        let n = 1000usize;
        let pairs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let mut edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        matching(
            &mut edges,
            &forest,
            &scratch,
            Stream::new(5, 5),
            scratch.next_tag(),
            &tracker,
        );
        assert!(tracker.work() <= 20 * n as u64, "work {}", tracker.work());
        assert!(tracker.depth() <= 16, "depth {}", tracker.depth());
    }

    #[test]
    fn scratch_is_reusable_across_calls() {
        let n = 100usize;
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let pairs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let mut edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
        for round in 0..6u64 {
            matching(
                &mut edges,
                &forest,
                &scratch,
                Stream::new(9, round),
                scratch.next_tag(),
                &tracker,
            );
            parcc_pram::ops::alter_edges(&forest, &mut edges, true, &tracker);
        }
        // Path must never split into different components.
        let labels: Vec<u32> = (0..n as u32).map(|v| forest.find_root(v).0).collect();
        // All hooks stayed inside the single true component.
        let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
        assert!(distinct.len() < n, "repeated matching must contract");
    }

    fn with_threads<T: Send>(k: usize, f: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(k)
            .build()
            .expect("pool")
            .install(f)
    }

    fn random_pairs(n: usize, m: u64, seed: u64) -> Vec<(u32, u32)> {
        let s = Stream::new(seed, 3);
        (0..m)
            .map(|i| {
                (
                    s.below(2 * i, n as u64) as u32,
                    s.below(2 * i + 1, n as u64) as u32,
                )
            })
            .collect()
    }

    /// Sequential MATCHING in the paper's form: each step is a full pass
    /// over every edge with a per-edge live flag, and plain per-vertex
    /// counts stand in for the CRCW elections. Hooks into `parent` and
    /// returns the edges left by Step 1 and the hooked list.
    fn reference_matching(
        parent: &mut [Vertex],
        edges: &[Edge],
        stream: Stream,
    ) -> (Vec<Edge>, Vec<Vertex>) {
        let n = parent.len();
        // Step 1: drop loops and edges touching non-roots.
        let edges: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| {
                parent[e.u() as usize] == e.u() && parent[e.v() as usize] == e.v() && !e.is_loop()
            })
            .collect();
        // Step 2: orient from the large end to the small end.
        let arcs: Vec<(usize, usize)> = edges
            .iter()
            .map(|e| (e.u().max(e.v()) as usize, e.u().min(e.v()) as usize))
            .collect();
        // Step 3: each tail keeps its arc to the smallest head, ties to the
        // smallest index.
        let mut best = vec![(usize::MAX, usize::MAX); n];
        for (i, &(t, h)) in arcs.iter().enumerate() {
            best[t] = best[t].min((h, i));
        }
        let mut live: Vec<bool> = arcs
            .iter()
            .enumerate()
            .map(|(i, &(t, h))| best[t] == (h, i))
            .collect();
        // Step 4: a head touching no arc of D hooks under its largest tail.
        let mut in_d = vec![false; n];
        for (i, &(t, h)) in arcs.iter().enumerate() {
            if live[i] {
                in_d[t] = true;
                in_d[h] = true;
            }
        }
        let mut singletons = Vec::new();
        for &(t, h) in &arcs {
            if !in_d[h] {
                if parent[h] == h as Vertex {
                    singletons.push(h as Vertex);
                }
                parent[h] = parent[h].max(t as Vertex);
            }
        }
        let in_degree = |live: &[bool]| {
            let mut d = vec![0u32; n];
            for (i, &(_, h)) in arcs.iter().enumerate() {
                d[h] += u32::from(live[i]);
            }
            d
        };
        // Step 5: a root with more than one in-arc loses its out-arc.
        let d5 = in_degree(&live);
        for (i, &(t, _)) in arcs.iter().enumerate() {
            if d5[t] > 1 {
                live[i] = false;
            }
        }
        // Step 6: heads still with more than one in-arc absorb their
        // in-neighbours, and both leave D.
        let d6 = in_degree(&live);
        let mut deleted = vec![false; n];
        let mut absorbed = Vec::new();
        for (i, &(t, h)) in arcs.iter().enumerate() {
            if live[i] && d6[h] > 1 {
                parent[t] = h as Vertex;
                deleted[t] = true;
                absorbed.push(t as Vertex);
            }
        }
        for (i, &(t, h)) in arcs.iter().enumerate() {
            if deleted[t] || deleted[h] {
                live[i] = false;
            }
        }
        // Step 7: delete each arc with probability 1/2.
        for (i, l) in live.iter_mut().enumerate() {
            if stream.coin(i as u64, 0.5) {
                *l = false;
            }
        }
        // Step 8: an arc sharing neither end hooks its head under its tail.
        let mut degree = vec![0u32; n];
        for (i, &(t, h)) in arcs.iter().enumerate() {
            if live[i] {
                degree[t] += 1;
                degree[h] += 1;
            }
        }
        let mut isolated = Vec::new();
        for (i, &(t, h)) in arcs.iter().enumerate() {
            if live[i] && degree[t] == 1 && degree[h] == 1 {
                parent[h] = t as Vertex;
                isolated.push(h as Vertex);
            }
        }
        // Step 9: both ends of every edge shortcut once.
        for e in &edges {
            for v in [e.u() as usize, e.v() as usize] {
                parent[v] = parent[parent[v] as usize];
            }
        }
        (edges, [singletons, absorbed, isolated].concat())
    }

    /// A shuffled multigraph on `n` vertices with what MATCHING's
    /// elections must resolve: random pairs repeated up to 6 times, hub
    /// stars whose arcs point both in and out, loops, and isolated pairs
    /// (parallel ones too) on the top 2,000 ids.
    fn mixed_multigraph(n: usize, seed: u64) -> Vec<(u32, u32)> {
        let s = Stream::new(seed, 0x6d69);
        let mut draws = 0;
        let mut below = |bound: u32| {
            draws += 1;
            s.below(draws, u64::from(bound)) as u32
        };
        let core = n as u32 - 2000;
        let mut pairs = Vec::new();
        for _ in 0..core {
            let (a, b) = (below(core), below(core));
            for _ in 0..=below(6) {
                pairs.push((a, b));
            }
        }
        for hub in [0, 1, core - 1] {
            for _ in 0..400 {
                let leaf = below(core);
                pairs.extend([(hub, leaf), (leaf, hub)]);
            }
        }
        pairs.extend((0..core).step_by(101).map(|v| (v, v)));
        for a in (core..n as u32).step_by(2) {
            for _ in 0..=below(3) {
                pairs.push((a, a + 1));
            }
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, below(i as u32 + 1) as usize);
        }
        pairs
    }

    #[test]
    fn matches_the_sequential_reference_at_any_thread_count() {
        let n = 20_000;
        for seed in 0..3u64 {
            let edges: Vec<Edge> = mixed_multigraph(n, seed)
                .into_iter()
                .map(|(u, v)| Edge::new(u, v))
                .collect();
            // A few vertices hooked before the call: Step 1 drops their edges.
            let prehooked: Vec<Vertex> = (50..n as Vertex).step_by(97).collect();
            let stream = Stream::new(seed, 0x7e57);
            let mut parent: Vec<Vertex> = (0..n as Vertex).collect();
            for &v in &prehooked {
                parent[v as usize] = 0;
            }
            let (want_edges, want_hooked) = reference_matching(&mut parent, &edges, stream);
            assert!(want_hooked.len() > n / 10, "seed {seed}: too few hooks");
            for k in [1, 2, 8] {
                let (forest, got_edges, got_hooked) = with_threads(k, || {
                    let forest = ParentForest::new(n);
                    for &v in &prehooked {
                        forest.set_parent(v, 0);
                    }
                    let scratch = Stage1Scratch::new(n);
                    let mut e = edges.clone();
                    let hooked = matching(
                        &mut e,
                        &forest,
                        &scratch,
                        stream,
                        scratch.next_tag(),
                        &CostTracker::new(),
                    );
                    (forest.snapshot(), e, hooked)
                });
                assert!(forest == parent, "seed {seed}, {k} threads: forest");
                assert!(got_edges == want_edges, "seed {seed}, {k} threads: edges");
                assert!(
                    got_hooked == want_hooked,
                    "seed {seed}, {k} threads: hooked list"
                );
            }
        }
    }

    #[test]
    fn hooked_lists_each_changed_vertex_once_at_any_thread_count() {
        // A hub-heavy graph large enough for every pass to split into
        // parallel chunks.
        let g = parcc_graph::generators::chung_lu(20_000, 2.5, 8.0, 5);
        let pairs: Vec<(u32, u32)> = g.edges().iter().map(|e| e.ends()).collect();
        let mut base = None;
        for k in [1, 2, 8] {
            let (forest, edges, hooked) = with_threads(k, || run_once(g.n(), &pairs, 21));
            let mut sorted = hooked.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), hooked.len(), "duplicates at {k} threads");
            let changed: Vec<Vertex> = (0..g.n() as Vertex)
                .filter(|&v| !forest.is_root(v))
                .collect();
            assert_eq!(sorted, changed, "hooked != parent changed at {k} threads");
            assert!(!changed.is_empty());
            let result = (forest.snapshot(), edges, sorted);
            match &base {
                None => base = Some(result),
                Some(b) => assert!(*b == result, "result differs at {k} threads"),
            }
        }
    }

    #[test]
    fn election_cells_are_empty_after_every_call() {
        let n = 500;
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        for call in 0..20u64 {
            let forest = ParentForest::new(n);
            let mut edges: Vec<Edge> = random_pairs(n, 1500, call)
                .into_iter()
                .map(|(u, v)| Edge::new(u, v))
                .collect();
            matching(
                &mut edges,
                &forest,
                &scratch,
                Stream::new(call, 4),
                scratch.next_tag(),
                &tracker,
            );
            for cells in [
                &scratch.out_winner,
                &scratch.in_winner,
                &scratch.in_winner2,
                &scratch.end_mark,
            ] {
                assert!((0..n).all(|v| cells.vacant(v)), "call {call}");
            }
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_across_epoch_wraps() {
        // More calls than one epoch cycle holds: a flag left over from an
        // epoch's previous use would change some later call's hooks.
        let n = 300;
        let shared = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        for call in 0..600u64 {
            let pairs = random_pairs(n, 400 + call % 7 * 50, call);
            let stream = Stream::new(call, 8);
            let run = |scratch: &Stage1Scratch| {
                let forest = ParentForest::new(n);
                let mut edges: Vec<Edge> = pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect();
                let mut hooked = matching(
                    &mut edges,
                    &forest,
                    scratch,
                    stream,
                    scratch.next_tag(),
                    &tracker,
                );
                hooked.sort_unstable();
                (forest.snapshot(), edges, hooked)
            };
            let fresh = run(&Stage1Scratch::new(n));
            assert!(
                run(&shared) == fresh,
                "call {call} differs on reused scratch"
            );
        }
    }
}
