//! FILTER(E, k) and REVERSE(V', E) (paper §4.2).
//!
//! FILTER runs `k+1` rounds of MATCHING + ALTER + geometric edge deletion on
//! a *copy* of the edge set (pass-by-value, per the paper), then flattens the
//! hooked vertices in reverse round order (each hooked vertex's parent is a
//! root at the end of its round's reverse iteration — Lemma 4.6). It returns
//! the surviving high-degree vertices `V(E)`.
//!
//! REVERSE re-roots flat trees so that a tree containing a high-degree
//! vertex from `V'` becomes rooted at one (the dense part keeps the names).

use crate::stage1::matching::matching;
use crate::stage1::scratch::Stage1Scratch;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;
use parcc_pram::primitives::retain;
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// Result of one FILTER call.
#[derive(Debug)]
pub struct FilterOutcome {
    /// `V(E)`: distinct endpoints of the surviving edges (the "filtered out"
    /// high-degree part).
    pub survivors: Vec<Vertex>,
    /// Every vertex hooked during the call (already reverse-flattened).
    pub hooked: Vec<Vertex>,
}

/// FILTER(E, k): see module docs. `delete_prob` is the per-round edge
/// deletion probability (paper: `10^-4`).
#[must_use]
pub fn filter(
    edges_in: &[Edge],
    k: u32,
    delete_prob: f64,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    stream: Stream,
    tracker: &CostTracker,
) -> FilterOutcome {
    // Pass-by-value: FILTER's deletions must not touch the caller's edges.
    let mut e = edges_in.to_vec();
    tracker.charge(e.len() as u64, 1);
    let mut hooked_by_round: Vec<Vec<Vertex>> = Vec::with_capacity(k as usize + 1);

    // Step 1: k+1 rounds of MATCHING; ALTER; random deletion.
    for j in 0..=k {
        let round_stream = stream.substream(j as u64);
        let tag = scratch.next_tag();
        let hooked = matching(&mut e, forest, scratch, round_stream, tag, tracker);
        alter_edges(forest, &mut e, true, tracker);
        tracker.charge(e.len() as u64, 1);
        let del = round_stream.substream(0xde1);
        retain(&mut e, |&ed| !del.coin(ed.0, delete_prob), tracker);
        hooked_by_round.push(hooked);
    }

    // Step 2: reverse flattening — round k down to 0.
    for hooked in hooked_by_round.iter().rev() {
        forest.shortcut_set(hooked, tracker);
    }

    // Step 3: return V(E).
    let survivors: Vec<Vertex> = e
        .par_iter()
        .flat_map_iter(|ed| [ed.u(), ed.v()])
        .filter(|&v| scratch.vert_mark.try_claim(v as usize, 1))
        .collect();
    survivors
        .par_iter()
        .for_each(|&v| scratch.vert_mark.clear(v as usize));
    tracker.charge(e.len() as u64, 1);

    FilterOutcome {
        survivors,
        hooked: hooked_by_round.into_iter().flatten().collect(),
    }
}

/// REVERSE(V', E) (paper §4.2): for every non-root `v ∈ V'`, an arbitrary
/// such child wins `v.p.p = v` and becomes the new root; then one global
/// shortcut flattens, and ALTER moves `E` onto the new roots. The winner is
/// the smallest such child, a priority write, so the new roots do not
/// depend on the schedule.
pub fn reverse(
    v_prime: &[Vertex],
    edges: &mut Vec<Edge>,
    forest: &ParentForest,
    tracker: &CostTracker,
) {
    // Step 1 (two synchronous sub-steps over the same non-root set).
    let nonroots: Vec<Vertex> = v_prime
        .par_iter()
        .copied()
        .filter(|&v| !forest.is_root(v))
        .collect();
    tracker.charge(v_prime.len() as u64 + 2 * nonroots.len() as u64, 3);
    nonroots.par_iter().for_each(|&v| {
        forest.hook_root_min(forest.parent(v), v);
    });
    nonroots.par_iter().for_each(|&v| {
        forest.shortcut_vertex(v);
    });
    // Step 2: one global shortcut.
    forest.shortcut_all(tracker);
    // Step 3: ALTER(E).
    alter_edges(forest, edges, true, tracker);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_edges(n: usize) -> Vec<Edge> {
        (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect()
    }

    #[test]
    fn filter_contracts_and_flattens() {
        let n = 1000;
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let out = filter(
            &path_edges(n),
            6,
            0.02,
            &forest,
            &scratch,
            Stream::new(3, 3),
            &tracker,
        );
        assert!(forest.root_count() < n, "filter must contract something");
        assert!(
            forest.max_height() <= 2,
            "reverse flattening keeps trees shallow, got {}",
            forest.max_height()
        );
        assert!(!out.hooked.is_empty());
    }

    #[test]
    fn filter_does_not_mutate_input() {
        let n = 50;
        let edges = path_edges(n);
        let copy = edges.clone();
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let _ = filter(
            &edges,
            3,
            0.02,
            &forest,
            &scratch,
            Stream::new(1, 1),
            &tracker,
        );
        assert_eq!(edges, copy);
    }

    #[test]
    fn filter_contraction_is_component_safe() {
        // Two halves must never share a root.
        let n = 200;
        let mut edges = path_edges(100);
        edges.extend((100..199u32).map(|i| Edge::new(i, i + 1)));
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let _ = filter(
            &edges,
            5,
            0.02,
            &forest,
            &scratch,
            Stream::new(2, 2),
            &tracker,
        );
        for v in 0..100u32 {
            let r = forest.find_root(v).0;
            assert!(r < 100, "left-half vertex {v} escaped to {r}");
        }
        for v in 100..200u32 {
            let r = forest.find_root(v).0;
            assert!(r >= 100, "right-half vertex {v} escaped to {r}");
        }
    }

    #[test]
    fn filter_survivors_have_edges() {
        let n = 400;
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let out = filter(
            &path_edges(n),
            2,
            0.05,
            &forest,
            &scratch,
            Stream::new(9, 9),
            &tracker,
        );
        for &v in &out.survivors {
            assert!(forest.is_root(v) || !forest.is_root(v)); // well-formed id
            assert!((v as usize) < n);
        }
        // Dedup: no vertex twice.
        let set: std::collections::HashSet<_> = out.survivors.iter().collect();
        assert_eq!(set.len(), out.survivors.len());
    }

    #[test]
    fn reverse_reroots_at_vprime() {
        // Flat tree rooted at 0 with children 1, 2; V' = {2}.
        let forest = ParentForest::new(3);
        forest.set_parent(1, 0);
        forest.set_parent(2, 0);
        let tracker = CostTracker::new();
        let mut edges = vec![Edge::new(0, 1)];
        reverse(&[2], &mut edges, &forest, &tracker);
        assert!(forest.is_root(2), "V' member must become the root");
        assert_eq!(forest.parent(0), 2);
        assert_eq!(forest.parent(1), 2);
        assert!(forest.max_height() <= 1);
    }

    #[test]
    fn reverse_reroots_at_the_smallest_vprime_child_in_any_order() {
        for vprime in [[1u32, 3, 8], [8, 3, 1], [3, 8, 1]] {
            let forest = ParentForest::new(9);
            for c in [1u32, 3, 8] {
                forest.set_parent(c, 5);
            }
            reverse(&vprime, &mut Vec::new(), &forest, &CostTracker::new());
            assert!(forest.is_root(1), "order {vprime:?}");
            assert!([3u32, 5, 8].iter().all(|&v| forest.parent(v) == 1));
        }
    }

    #[test]
    fn reverse_ignores_roots_in_vprime() {
        let forest = ParentForest::new(2);
        let tracker = CostTracker::new();
        let mut edges = vec![];
        reverse(&[0, 1], &mut edges, &forest, &tracker);
        assert!(forest.is_root(0) && forest.is_root(1));
    }

    #[test]
    fn reverse_alters_edges() {
        let forest = ParentForest::new(4);
        forest.set_parent(1, 0);
        let tracker = CostTracker::new();
        let mut edges = vec![Edge::new(1, 3)];
        reverse(&[1], &mut edges, &forest, &tracker);
        // 1 became the root; edge endpoint follows.
        assert_eq!(edges, vec![Edge::new(1, 3)]);
        assert!(forest.is_root(1));
        assert_eq!(forest.parent(0), 1);
    }
}
