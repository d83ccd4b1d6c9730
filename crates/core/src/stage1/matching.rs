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
//! hooks each have a single writer. The nine steps run as 11 fused passes
//! over the edges; each pass only reads what earlier passes finished.
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
//! themselves: Steps 6 and 8 have one writer per hooked vertex, and Step
//! 4's many offers into one singleton report it once, through a claim on
//! `update_log` under the call's tag.

use crate::stage1::scratch::Stage1Scratch;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::primitives::retain;
use parcc_pram::rng::Stream;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Run MATCHING(E). `edges` is filtered in place (Step 1's deletions);
/// the vertices hooked are returned, each once. `tag` must come fresh from
/// `scratch.next_tag()`. Charges `O(|E|)` work at `O(1)` depth. Edge
/// indices must fit in 32 bits (the Step-3 election key).
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
    let m = edges.len();
    debug_assert!(m <= u32::MAX as usize, "edge index must fit the Step-3 key");
    tracker.charge(m as u64 * 9, 9);
    let epoch = scratch.epoch_for(tag, tracker);

    // Step 2: orient each edge from the large end to the small end.
    let tail = |e: Edge| e.u().max(e.v()) as usize;
    let head = |e: Edge| e.u().min(e.v()) as usize;
    let key = |i: usize, e: Edge| (head(e) as u64) << 32 | i as u64;
    let mut in_d = Vec::with_capacity(m);
    in_d.resize_with(m, || AtomicBool::new(true));
    let live = |i: usize| in_d[i].load(Ordering::Relaxed);
    let remove = |i: usize| in_d[i].store(false, Ordering::Relaxed);

    // Step 3: each tail keeps its arc to the smallest head.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        scratch.out_winner.write_min(tail(e), key(i, e));
    });
    // Step 3 check; Step 4 marks the ends of D's surviving arcs.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if scratch.out_winner.check_clear(tail(e), key(i, e)) {
            scratch.non_singleton.set(tail(e), epoch);
            scratch.non_singleton.set(head(e), epoch);
        } else {
            remove(i);
        }
    });
    // Step 4: hook each singleton head under its largest tail. Step 5
    // write: roots with >1 incoming arcs lose all their outgoing arcs.
    let singletons: Vec<Vertex> = edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            let (t, h) = (tail(e), head(e));
            if !scratch.non_singleton.get(h, epoch) {
                forest.offer_parent_max(h as Vertex, t as Vertex);
                return scratch.update_log.claim_tag(h, tag).then_some(h as Vertex);
            }
            if live(i) {
                scratch.in_winner.write_vacant(h, i as u64);
            }
            None
        })
        .collect();
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if live(i) && !scratch.in_winner.check_clear(head(e), i as u64) {
            scratch.multi_in.set(head(e), epoch);
        }
    });
    // Step 5 prune; Step 6 write: re-detect multi-in heads on the pruned D.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if live(i) {
            if scratch.multi_in.get(tail(e), epoch) {
                remove(i);
            } else {
                scratch.in_winner2.write_vacant(head(e), i as u64);
            }
        }
    });
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if live(i) && !scratch.in_winner2.check_clear(head(e), i as u64) {
            scratch.multi_in2.set(head(e), epoch);
        }
    });
    // Step 6 hook: multi-in heads absorb all their in-neighbours, which
    // leave D. A tail has one arc left, so one writer per hooked vertex.
    let absorbed: Vec<Vertex> = edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            let (t, h) = (tail(e), head(e));
            (live(i) && scratch.multi_in2.get(h, epoch)).then(|| {
                forest.set_parent(t as Vertex, h as Vertex);
                scratch.deleted.set(t, epoch);
                t as Vertex
            })
        })
        .collect();
    // Step 6 prune; Step 7 deletes each remaining arc with probability 1/2;
    // Step 8 write: isolated arcs are found by write-then-verify, where any
    // losing arc marks the shared end.
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if live(i) {
            let (t, h) = (tail(e), head(e));
            if scratch.deleted.get(t, epoch)
                || scratch.deleted.get(h, epoch)
                || stream.coin(i as u64, 0.5)
            {
                remove(i);
            } else {
                scratch.end_mark.write_vacant(t, i as u64);
                scratch.end_mark.write_vacant(h, i as u64);
            }
        }
    });
    edges.par_iter().enumerate().for_each(|(i, &e)| {
        if live(i) {
            for v in [tail(e), head(e)] {
                if !scratch.end_mark.check_clear(v, i as u64) {
                    scratch.shared.set(v, epoch);
                }
            }
        }
    });
    // Step 8 hook: isolated arcs hook their head under their tail; an
    // unshared head has this one arc, so one writer per hooked vertex.
    let isolated: Vec<Vertex> = edges
        .par_iter()
        .enumerate()
        .filter_map(|(i, &e)| {
            let (t, h) = (tail(e), head(e));
            (live(i) && !scratch.shared.get(t, epoch) && !scratch.shared.get(h, epoch)).then(|| {
                forest.set_parent(h as Vertex, t as Vertex);
                h as Vertex
            })
        })
        .collect();

    // Step 9: both ends of every edge shortcut once.
    edges.par_iter().for_each(|&e| {
        forest.shortcut_vertex(e.u());
        forest.shortcut_vertex(e.v());
    });

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
