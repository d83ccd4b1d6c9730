//! DENSIFY(H, b) (paper §5.2): run EXPAND-MAXLINK on the skeleton for
//! `O(log b)` rounds — shrinking every skeleton shortest path to length ≤ 2
//! (Lemma 5.17) — then finish contracting the close graph with a bounded
//! Theorem-2 call and return `E_close`, the current-graph edge multiset
//! (altered skeleton edges plus all added edges from the hash tables).

use crate::params::Params;
use parcc_ltz::connect::ltz_bounded;
use parcc_ltz::round::LtzEngine;
use parcc_ltz::state::Budget;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::Edge;
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;

/// Output of DENSIFY.
#[derive(Debug)]
pub struct DensifyOutcome {
    /// `E_close`: altered skeleton edges + added edges, loop-free.
    pub eclose: Vec<Edge>,
    /// EXPAND-MAXLINK rounds actually executed.
    pub rounds: u64,
    /// Did the bounded Theorem-2 pass finish contracting the close graph?
    pub solve_done: bool,
}

/// Run DENSIFY on the skeleton edge set, contracting into `forest`.
#[must_use]
pub fn densify(
    skeleton_edges: Vec<Edge>,
    b: u64,
    forest: &ParentForest,
    params: &Params,
    seed: u64,
    tracker: &CostTracker,
) -> DensifyOutcome {
    let n = forest.len();
    let budget = Budget::for_n(n);
    // Step 1: R = Θ(log b) rounds of EXPAND-MAXLINK.
    let mut engine = LtzEngine::new(n, skeleton_edges, forest, budget, seed, tracker);
    let budget_rounds = params.densify_rounds(b);
    let mut rounds = 0;
    while rounds < budget_rounds && !engine.is_done() {
        engine.step(forest, tracker);
        rounds += 1;
    }
    // Step 3: a few SHORTCUT + ALTER passes flatten what the rounds built.
    for _ in 0..3 {
        forest.shortcut_set(&engine.active, tracker);
        alter_edges(forest, &mut engine.edges, true, tracker);
        engine.st.alter_tables(&engine.active, forest, tracker);
    }
    // Step 4: materialize E_close.
    let eclose = engine.export_current_edges(tracker);
    // Step 5: bounded Theorem 2 on (V(E_close), E_close).
    let (solve_done, _) = ltz_bounded(
        eclose.clone(),
        forest,
        budget,
        params.bounded_solve_rounds,
        seed ^ 0xd5,
        tracker,
    );
    // Step 6: ALTER(E_close).
    let mut eclose = eclose;
    alter_edges(forest, &mut eclose, true, tracker);
    DensifyOutcome {
        eclose,
        rounds,
        solve_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::components;

    fn run(gedges: Vec<Edge>, n: usize, b: u64) -> (ParentForest, DensifyOutcome) {
        let forest = ParentForest::new(n);
        let tracker = CostTracker::new();
        let params = Params::for_n(n);
        let out = densify(gedges, b, &forest, &params, 5, &tracker);
        (forest, out)
    }

    #[test]
    fn contracts_small_components_fully() {
        // Skeleton = union of triangles: each must land in one tree.
        let g = parcc_graph::Graph::disjoint_union(&[
            gen::complete(3),
            gen::complete(3),
            gen::complete(3),
        ]);
        let (forest, out) = run(g.edges().to_vec(), g.n(), 16);
        assert!(out.solve_done);
        for base in [0u32, 3, 6] {
            let r = forest.find_root(base).0;
            assert_eq!(forest.find_root(base + 1).0, r);
            assert_eq!(forest.find_root(base + 2).0, r);
        }
        assert_ne!(forest.find_root(0).0, forest.find_root(3).0);
    }

    #[test]
    fn eclose_respects_components() {
        let g = gen::expander_union(3, 80, 4, 7);
        let truth = components(&g);
        let (forest, out) = run(g.edges().to_vec(), g.n(), 16);
        for e in &out.eclose {
            assert_eq!(
                truth[forest.find_root(e.u()).0 as usize],
                truth[forest.find_root(e.v()).0 as usize],
                "E_close edge crosses true components"
            );
        }
    }

    #[test]
    fn empty_skeleton() {
        let (forest, out) = run(vec![], 5, 16);
        assert!(out.eclose.is_empty());
        assert!(out.solve_done);
        assert_eq!(forest.root_count(), 5);
    }

    #[test]
    fn rounds_respect_budget() {
        let g = gen::cycle(4096);
        let n = g.n();
        let forest = ParentForest::new(n);
        let tracker = CostTracker::new();
        let params = Params::for_n(n);
        let out = densify(g.edges().to_vec(), 16, &forest, &params, 1, &tracker);
        assert!(out.rounds <= params.densify_rounds(16));
    }
}
