//! Theorem-2 connectivity: iterate EXPAND-MAXLINK to fixpoint.
//!
//! The paper uses `[LTZ20]` as a black box: "There is an ARBITRARY CRCW PRAM
//! algorithm using O(m + n) processors that computes the connected components
//! of any given graph ... in O(log d + log log n) time" (Theorem 2). Here the
//! black box is [`ltz_connectivity`]; the round budget defaults to a generous
//! multiple of `log n` and, should it ever be exhausted (the theorem says it
//! will not be, w.h.p.), the deterministic fallback finishes the contraction
//! so the library is unconditionally correct (DESIGN.md §5).

use crate::round::LtzEngine;
use crate::state::Budget;
use parcc_graph::solver::PhaseStat;
use parcc_pram::alloc_track;
use parcc_pram::cost::{ceil_log2, CostTracker};
use parcc_pram::edge::Edge;
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::deterministic_cc_fallback;
use std::time::Instant;

/// Tuning for a Theorem-2 run.
#[derive(Debug, Clone, Copy)]
pub struct LtzParams {
    /// Table budget schedule.
    pub budget: Budget,
    /// Hard round cap before the deterministic fallback engages.
    pub max_rounds: u64,
    /// Master seed.
    pub seed: u64,
}

impl LtzParams {
    /// Defaults for an `n`-vertex graph: cap `8·log2 n + 48` rounds.
    #[must_use]
    pub fn for_n(n: usize) -> Self {
        LtzParams {
            budget: Budget::for_n(n),
            max_rounds: 8 * ceil_log2(n.max(2) as u64) + 48,
            seed: 0xC0FFEE,
        }
    }

    /// Same parameters with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Telemetry from a Theorem-2 run.
#[derive(Debug, Clone, Default)]
pub struct LtzStats {
    /// EXPAND-MAXLINK rounds executed.
    pub rounds: u64,
    /// One `"round"` phase per EXPAND-MAXLINK round, in order, with the
    /// altered original edges live at its start (`per_round.len() ==
    /// rounds`).
    pub per_round: Vec<PhaseStat>,
    /// Did the round cap trip and the deterministic fallback engage?
    pub fallback_engaged: bool,
    /// Hook rounds the fallback needed (its initial flatten+alter may finish
    /// the job in 0 hook rounds).
    pub fallback_rounds: u64,
    /// Highest level any vertex reached.
    pub max_level: u32,
    /// Total hash-table slots allocated.
    pub table_slots: u64,
}

/// Compute connected components of the graph `(forest's vertex set, edges)`,
/// contracting into `forest` (which may already carry contractions from
/// earlier stages — the edge set is altered first).
///
/// On return every component spanned by `edges` is contracted into a single
/// tree of the labeled digraph (not necessarily flat; callers needing labels
/// run `forest.flatten`).
pub fn ltz_connectivity(
    edges: Vec<Edge>,
    forest: &ParentForest,
    params: LtzParams,
    tracker: &CostTracker,
) -> LtzStats {
    let n = forest.len();
    let mut engine = LtzEngine::new(n, edges, forest, params.budget, params.seed, tracker);
    let mut stats = LtzStats::default();
    while !engine.is_done() && stats.rounds < params.max_rounds {
        stats.max_level = stats.max_level.max(engine.max_level());
        let edges = engine.edges.len() as u64;
        let (t0, a0) = (Instant::now(), alloc_track::allocation_count());
        engine.step(forest, tracker);
        stats.per_round.push(PhaseStat {
            name: "round",
            rounds: 1,
            edges,
            wall: t0.elapsed(),
            allocs: alloc_track::allocation_count().saturating_sub(a0),
        });
        stats.rounds += 1;
    }
    stats.max_level = stats.max_level.max(1);
    stats.table_slots = engine.st.slots_allocated();
    if !engine.is_done() {
        // Safety net: contract whatever is left, deterministically.
        stats.fallback_engaged = true;
        let mut remaining = engine.export_current_edges(tracker);
        stats.fallback_rounds = deterministic_cc_fallback(forest, &mut remaining, tracker);
    }
    stats
}

/// Bounded Theorem-2 run *without* the fallback: iterate EXPAND-MAXLINK for
/// at most `max_rounds` rounds and report whether every component spanned by
/// `edges` finished contracting. Used by DENSIFY ("run 104 log log n rounds
/// of the algorithm in Theorem 2", §5.2.1) and by INTERWEAVE's per-phase
/// attempt (§7.1 Step 3), where *not* finishing is an expected outcome that
/// signals a wrong gap guess.
pub fn ltz_bounded(
    edges: Vec<Edge>,
    forest: &ParentForest,
    budget: crate::state::Budget,
    max_rounds: u64,
    seed: u64,
    tracker: &CostTracker,
) -> (bool, u64) {
    let n = forest.len();
    let mut engine = LtzEngine::new(n, edges, forest, budget, seed, tracker);
    let mut rounds = 0;
    while !engine.is_done() && rounds < max_rounds {
        engine.step(forest, tracker);
        rounds += 1;
    }
    (engine.is_done(), rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};
    use parcc_graph::Graph;

    fn check_graph(g: &Graph, seed: u64) -> LtzStats {
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let stats = ltz_connectivity(
            g.edges().to_vec(),
            &forest,
            LtzParams::for_n(g.n()).with_seed(seed),
            &tracker,
        );
        forest.flatten(&tracker);
        let ours = forest.labels(&tracker);
        let truth = components(g);
        assert!(
            same_partition(&ours, &truth),
            "wrong partition on n={} m={}",
            g.n(),
            g.m()
        );
        stats
    }

    #[test]
    fn correct_on_standard_families() {
        for (g, seed) in [
            (gen::path(200), 1u64),
            (gen::cycle(128), 2),
            (gen::complete(40), 3),
            (gen::star(100), 4),
            (gen::binary_tree(255), 5),
            (gen::grid2d(16, 16, false), 6),
            (gen::hypercube(7), 7),
        ] {
            let stats = check_graph(&g, seed);
            assert!(!stats.fallback_engaged, "fallback should not engage");
        }
    }

    #[test]
    fn correct_on_random_graphs() {
        for seed in 0..4u64 {
            check_graph(&gen::gnp(400, 0.02, seed), seed);
            check_graph(&gen::random_regular(300, 4, seed), seed + 10);
        }
    }

    #[test]
    fn correct_on_disconnected_and_messy() {
        check_graph(&gen::expander_union(4, 100, 4, 3), 1);
        check_graph(&gen::mixture(9), 2);
        check_graph(&gen::with_isolated(&gen::cycle(50), 20), 3);
    }

    #[test]
    fn correct_with_loops_and_parallel_edges() {
        let g = Graph::from_pairs(
            6,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 2),
                (3, 4),
                (4, 3),
                (4, 3),
            ],
        );
        check_graph(&g, 11);
    }

    #[test]
    fn empty_and_singleton() {
        check_graph(&Graph::new(0, vec![]), 1);
        check_graph(&Graph::new(5, vec![]), 1);
    }

    #[test]
    fn rounds_scale_with_diameter() {
        // The log d term: round count grows with path length but stays flat
        // on expanders of the same size.
        let sp_small = check_graph(&gen::path(256), 1);
        let sp_large = check_graph(&gen::path(16384), 1);
        assert!(
            sp_large.rounds >= sp_small.rounds + 2,
            "path rounds should grow with diameter: {} vs {}",
            sp_small.rounds,
            sp_large.rounds
        );
        let se = check_graph(&gen::random_regular(16384, 8, 5), 1);
        assert!(
            se.rounds < sp_large.rounds,
            "expander rounds {} should undercut path rounds {}",
            se.rounds,
            sp_large.rounds
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = gen::gnp(300, 0.02, 7);
        let s1 = check_graph(&g, 42);
        let s2 = check_graph(&g, 42);
        assert_eq!(s1.rounds, s2.rounds);
        assert_eq!(s1.table_slots, s2.table_slots);
    }

    #[test]
    fn works_on_precontracted_forest() {
        // Simulate a stage-1 contraction: 0←1, 2←3 already merged.
        let forest = ParentForest::new(6);
        forest.set_parent(1, 0);
        forest.set_parent(3, 2);
        let edges = vec![Edge::new(1, 3), Edge::new(4, 5)];
        let tracker = CostTracker::new();
        ltz_connectivity(edges, &forest, LtzParams::for_n(6), &tracker);
        forest.flatten(&tracker);
        assert_eq!(forest.find_root(0).0, forest.find_root(2).0);
        assert_eq!(forest.find_root(4).0, forest.find_root(5).0);
        assert_ne!(forest.find_root(0).0, forest.find_root(4).0);
    }

    #[test]
    fn forced_fallback_still_correct() {
        let g = gen::path(3000);
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let mut params = LtzParams::for_n(g.n());
        params.max_rounds = 1; // guarantee the cap trips
        let stats = ltz_connectivity(g.edges().to_vec(), &forest, params, &tracker);
        assert!(stats.fallback_engaged, "fallback must have engaged");
        forest.flatten(&tracker);
        assert!(same_partition(&forest.labels(&tracker), &components(&g)));
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use parcc_graph::generators as gen;

    #[test]
    #[ignore]
    fn probe_round_scaling() {
        for k in [8usize, 10, 12, 14, 16] {
            let n = 1 << k;
            let g = gen::path(n);
            let forest = ParentForest::new(n);
            let tracker = CostTracker::new();
            let s = ltz_connectivity(g.edges().to_vec(), &forest, LtzParams::for_n(n), &tracker);
            let ge = gen::random_regular(n, 8, 5);
            let fe = ParentForest::new(n);
            let te = CostTracker::new();
            let se = ltz_connectivity(ge.edges().to_vec(), &fe, LtzParams::for_n(n), &te);
            println!("n=2^{k}: path rounds={} depth={} work/m={:.1} | expander rounds={} depth={} work/m={:.1}",
                s.rounds, tracker.depth(), tracker.work() as f64 / g.m() as f64,
                se.rounds, te.depth(), te.work() as f64 / ge.m() as f64);
        }
    }
}
