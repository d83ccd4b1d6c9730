//! EXTRACT(E, k) — the `log log n`-shrink (paper §4.2).
//!
//! Iterated FILTER: each round extracts more high-degree vertices into `V'`
//! and removes the edges already internal to `V'`, so later rounds work on
//! the ever-sparser low-degree remainder. A final REVERSE re-roots every
//! tree containing a `V'` vertex at one (Lemma 4.9: trees end flat, edges on
//! roots). Lemma 4.20: with `k = Θ(log log log n)` the current graph shrinks
//! to `n/log log n` vertices at linear work.

use crate::stage1::filter::{filter, reverse};
use crate::stage1::scratch::Stage1Scratch;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;
use parcc_pram::primitives::retain;
use parcc_pram::rng::Stream;
use rayon::prelude::*;

/// EXTRACT(E, k): contracts into `forest`, alters `edges` (pass-by-
/// reference), and returns `V'` — the extracted high-degree vertices.
#[must_use]
pub fn extract(
    edges: &mut Vec<Edge>,
    k: u32,
    delete_prob: f64,
    forest: &ParentForest,
    scratch: &Stage1Scratch,
    stream: Stream,
    tracker: &CostTracker,
) -> Vec<Vertex> {
    // Step 1: E' = the non-loops of E (a working copy).
    let mut e_prime: Vec<Edge> = edges.par_iter().copied().filter(|e| !e.is_loop()).collect();
    tracker.charge(edges.len() as u64, 1);
    let mut v_prime: Vec<Vertex> = Vec::new();
    let mut hooked_by_round: Vec<Vec<Vertex>> = Vec::with_capacity(k as usize + 1);

    // Step 2: k+1 rounds of FILTER; prune edges internal to V'.
    for i in 0..=k {
        let out = filter(
            &e_prime,
            k,
            delete_prob,
            forest,
            scratch,
            stream.substream(i as u64),
            tracker,
        );
        tracker.charge(out.survivors.len() as u64, 1);
        for &v in &out.survivors {
            if !scratch.in_vprime.get(v as usize) {
                scratch.in_vprime.set(v as usize);
                v_prime.push(v);
            }
        }
        alter_edges(forest, &mut e_prime, true, tracker);
        retain(
            &mut e_prime,
            |e| !(scratch.in_vprime.get(e.u() as usize) && scratch.in_vprime.get(e.v() as usize)),
            tracker,
        );
        hooked_by_round.push(out.hooked);
    }

    // Step 3: reverse flattening over EXTRACT rounds.
    for hooked in hooked_by_round.iter().rev() {
        forest.shortcut_set(hooked, tracker);
    }

    // Step 4: REVERSE(V', E) on the caller's edge set.
    reverse(&v_prime, edges, forest, tracker);

    // Release the membership marks.
    tracker.charge(v_prime.len() as u64, 1);
    v_prime
        .par_iter()
        .for_each(|&v| scratch.in_vprime.unset(v as usize));
    v_prime
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::components;

    fn run_extract(
        g: &parcc_graph::Graph,
        k: u32,
        seed: u64,
    ) -> (ParentForest, Vec<Edge>, Vec<Vertex>) {
        let n = g.n();
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let mut edges = g.edges().to_vec();
        let vp = extract(
            &mut edges,
            k,
            0.02,
            &forest,
            &scratch,
            Stream::new(seed, 4),
            &tracker,
        );
        (forest, edges, vp)
    }

    #[test]
    fn contracts_heavily_on_random_graph() {
        let g = gen::gnp(4000, 0.002, 5);
        let (forest, _, _) = run_extract(&g, 3, 1);
        let roots = forest.root_count();
        assert!(
            roots < g.n() / 2,
            "extract should contract at least half, left {roots}"
        );
    }

    #[test]
    fn trees_flat_edges_on_roots_lemma_4_9() {
        let g = gen::gnp(1200, 0.004, 2);
        let (forest, edges, _) = run_extract(&g, 2, 3);
        assert!(forest.max_height() <= 1, "Lemma 4.9: trees must be flat");
        for e in &edges {
            assert!(forest.is_root(e.u()), "edge end {} not a root", e.u());
            assert!(forest.is_root(e.v()), "edge end {} not a root", e.v());
        }
    }

    #[test]
    fn contraction_respects_components() {
        let g = gen::expander_union(4, 120, 4, 9);
        let truth = components(&g);
        let (forest, _, _) = run_extract(&g, 2, 7);
        for v in 0..g.n() as u32 {
            let r = forest.find_root(v).0;
            assert_eq!(
                truth[r as usize], truth[v as usize],
                "vertex {v} contracted across components"
            );
        }
    }

    #[test]
    fn work_is_near_linear() {
        let g = gen::gnp(8000, 0.001, 8);
        let n = g.n();
        let forest = ParentForest::new(n);
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let mut edges = g.edges().to_vec();
        let _ = extract(
            &mut edges,
            2,
            0.02,
            &forest,
            &scratch,
            Stream::new(1, 4),
            &tracker,
        );
        let per_item = tracker.work() as f64 / (g.n() + g.m()) as f64;
        // FILTER copies decay geometrically; constant small multiple of m+n.
        assert!(per_item < 400.0, "work per item {per_item}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let g = parcc_graph::Graph::new(3, vec![]);
        let (forest, edges, vp) = run_extract(&g, 2, 1);
        assert_eq!(forest.root_count(), 3);
        assert!(edges.is_empty());
        assert!(vp.is_empty());
    }
}
