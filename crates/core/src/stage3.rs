//! Stage 3 (paper §6): connectivity on the sampled graph, and the known-λ
//! pipeline (Theorem 3).
//!
//! After Stage 2 every surviving root has degree ≥ b. Sampling each edge
//! with probability `1/polylog` then preserves the component-wise spectral
//! gap (Corollary C.3) — so components stay connected and their diameters
//! stay `O(polylog)` — and the sampled graph is small enough that Theorem 2
//! finishes in `O(log log n)` time at `O(m)` work.
//!
//! The `[KKT95]` clean-up that §3.4 introduces for the unknown-λ corner case
//! is applied unconditionally here: after solving the sample, any remaining
//! inter-tree edges (none, w.h.p., when the gap assumption holds) are solved
//! directly. This makes the library's output correct for *every* input, not
//! just w.h.p. on well-conditioned ones.

use crate::params::Params;
use crate::stage1::reduce::{distinct_endpoints, reduce};
use crate::stage1::Stage1Scratch;
use crate::stage2::{build_skeleton, increase, CurrentGraph, Stage2Scratch};
use parcc_ltz::connect::{ltz_connectivity, LtzParams, LtzStats};
use parcc_ltz::state::Budget;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::Vertex;
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::alter_edges;
use parcc_pram::primitives::{sample_edges, simplify_edges};
use parcc_pram::rng::Stream;

/// Telemetry from SAMPLESOLVE.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Edges in the sampled subgraph handed to Theorem 2.
    pub sampled_edges: usize,
    /// Theorem-2 telemetry for the main solve.
    pub ltz: LtzStats,
    /// Inter-tree edges the clean-up pass had to handle (0 when the gap
    /// assumption held — the paper's w.h.p. case).
    pub cleanup_edges: usize,
}

/// SAMPLESOLVE(G) (paper §6) over the current graph. Contracts every
/// remaining component into one tree of `forest` — unconditionally.
pub fn sample_solve(
    cur: &mut CurrentGraph,
    forest: &ParentForest,
    params: &Params,
    seed: u64,
    tracker: &CostTracker,
) -> SolveStats {
    let mut stats = SolveStats::default();
    let ltz_params = LtzParams {
        budget: Budget::for_n(forest.len()),
        ..LtzParams::for_n(forest.len()).with_seed(seed ^ 0x50)
    };
    if cur.active.len() <= params.small_solve_threshold {
        // Step 1: small vertex count — simplify and solve directly.
        let e = simplify_edges(&cur.edges, true, tracker);
        stats.sampled_edges = e.len();
        stats.ltz = ltz_connectivity(e, forest, ltz_params, tracker);
    } else {
        // Steps 2–3: sample w.p. 1/polylog and solve the sample.
        let sampled = sample_edges(
            &cur.edges,
            params.sparsify_prob,
            Stream::new(seed, 0x5a3),
            tracker,
        );
        stats.sampled_edges = sampled.len();
        stats.ltz = ltz_connectivity(sampled, forest, ltz_params, tracker);
    }
    // Step 4 + corner case: flatten, realign, and finish any stragglers
    // (only non-loop edges can witness unfinished components).
    forest.flatten(tracker);
    alter_edges(forest, &mut cur.edges, false, tracker);
    let leftovers = simplify_edges(&cur.edges, true, tracker);
    if !leftovers.is_empty() {
        stats.cleanup_edges = leftovers.len();
        let _ = ltz_connectivity(leftovers, forest, ltz_params, tracker);
        forest.flatten(tracker);
        alter_edges(forest, &mut cur.edges, false, tracker);
    }
    cur.active = Vec::new();
    stats
}

/// §8-style probability boosting: run up to `attempts` independent instances
/// of SAMPLESOLVE (fresh sampling randomness each time), accepting the first
/// that finishes without the `[KKT95]` clean-up having to repair anything.
///
/// The paper runs `Θ(log n)` instances *in parallel* and charges the maximum
/// depth; we run them sequentially (charging the sum — a strictly more
/// conservative accounting) because at bench scale the first instance
/// virtually always succeeds and the extra machinery would never be
/// exercised. Returns the per-instance stats of the accepted attempt plus
/// the attempt count.
pub fn sample_solve_boosted(
    cur: &mut CurrentGraph,
    forest: &ParentForest,
    params: &Params,
    attempts: u32,
    seed: u64,
    tracker: &CostTracker,
) -> (SolveStats, u32) {
    let attempts = attempts.max(1);
    for attempt in 0..attempts {
        let is_last = attempt + 1 == attempts;
        let snapshot = if is_last {
            None
        } else {
            Some(forest.snapshot())
        };
        let mut trial = cur.clone();
        tracker.charge(cur.edges.len() as u64, 1); // the working copy
        let stats = sample_solve(
            &mut trial,
            forest,
            params,
            seed ^ (0xb005u64 << 16) ^ attempt as u64,
            tracker,
        );
        if stats.cleanup_edges == 0 || is_last {
            *cur = trial;
            return (stats, attempt + 1);
        }
        if let Some(snap) = snapshot {
            forest.restore(&snap);
            tracker.charge(forest.len() as u64, 1);
        }
    }
    unreachable!("loop always returns on the last attempt")
}

/// Theorem 3: the three-stage pipeline with a *fixed* degree/gap parameter
/// `b` (the paper's "Connectivity with known λ ≥ 1/log n" outline in §3).
/// Returns component labels and the solve telemetry.
///
/// # Panics
/// On the same size limit as
/// [`connectivity_sharded`](crate::full::connectivity_sharded).
pub fn connectivity_known_gap(
    g: &parcc_graph::Graph,
    b: u64,
    params: &Params,
    tracker: &CostTracker,
) -> (Vec<Vertex>, SolveStats) {
    crate::full::assert_size_limits(g.m());
    let n = g.n();
    let forest = ParentForest::new(n);
    let s1 = Stage1Scratch::new(n);
    let s2 = Stage2Scratch::new(n);
    // Stage 1.
    let out = reduce(g.edges(), params, &forest, &s1, tracker);
    let mut cur = CurrentGraph {
        edges: out.edges,
        active: out.active,
    };
    // Stage 2.
    let sk = build_skeleton(
        &cur.edges,
        &cur.active,
        b,
        params.hi_threshold_factor,
        params.sparsify_prob,
        &s2,
        Stream::new(params.seed, 0xb1),
        tracker,
    );
    let _ = increase(
        &mut cur,
        sk.edges,
        b,
        &forest,
        params,
        &s1,
        &s2,
        params.seed ^ 0x2,
        tracker,
    );
    cur.active = distinct_endpoints(&cur.edges, &s1, tracker);
    // Stage 3.
    let stats = sample_solve(&mut cur, &forest, params, params.seed ^ 0x3, tracker);
    forest.flatten(tracker);
    (forest.labels(tracker), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage1::Stage1Scratch;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};
    use parcc_graph::Graph;

    fn check(g: &Graph, b: u64, seed: u64) -> SolveStats {
        let params = Params::for_n(g.n()).with_seed(seed);
        let tracker = CostTracker::new();
        let (labels, stats) = connectivity_known_gap(g, b, &params, &tracker);
        assert!(
            same_partition(&labels, &components(g)),
            "wrong partition on n={} m={}",
            g.n(),
            g.m()
        );
        stats
    }

    #[test]
    fn correct_on_expanders() {
        let stats = check(&gen::random_regular(3000, 8, 2), 16, 1);
        // Gap assumption holds: the clean-up should see nothing.
        assert_eq!(
            stats.cleanup_edges, 0,
            "expander sampling must not disconnect"
        );
    }

    #[test]
    fn correct_on_expander_union() {
        check(&gen::expander_union(5, 600, 8, 4), 16, 2);
    }

    #[test]
    fn correct_on_low_gap_graphs_via_cleanup() {
        // Cycles have λ ≈ 1/n²: the gap assumption is *wrong* here, yet the
        // corner-case clean-up must still produce correct output.
        check(&gen::cycle(4000), 16, 3);
        check(&gen::path(3000), 16, 4);
    }

    #[test]
    fn correct_on_mixtures_and_small_graphs() {
        check(&gen::mixture(7), 16, 5);
        check(&Graph::new(10, vec![]), 16, 6);
        check(&gen::complete(5), 16, 7);
        check(&Graph::from_pairs(4, &[(0, 0), (1, 2), (2, 1)]), 16, 8);
    }

    #[test]
    fn boosting_accepts_first_clean_instance() {
        // Expanders succeed instantly: exactly one attempt, no clean-up.
        let g = gen::random_regular(2000, 8, 3);
        let params = Params::for_n(g.n());
        let forest = ParentForest::new(g.n());
        let s1 = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let out = crate::stage1::reduce(g.edges(), &params, &forest, &s1, &tracker);
        let mut cur = CurrentGraph {
            edges: out.edges,
            active: out.active,
        };
        let (stats, attempts) = sample_solve_boosted(&mut cur, &forest, &params, 4, 7, &tracker);
        assert_eq!(attempts, 1);
        assert_eq!(stats.cleanup_edges, 0);
        forest.flatten(&tracker);
        assert!(same_partition(&forest.labels(&tracker), &components(&g)));
    }

    #[test]
    fn boosting_never_worse_than_single_and_stays_correct() {
        // A low-degree remnant where sampling can disconnect: boosting must
        // stay correct and never need clean-up more often than one attempt.
        for seed in 0..4u64 {
            let g = gen::cycle(3000);
            let mut params = Params::for_n(g.n()).with_seed(seed);
            params.extract_rounds = 0;
            params.reduce_rounds = 0;
            params.small_solve_threshold = 0; // force the sampling path
            let forest = ParentForest::new(g.n());
            let s1 = Stage1Scratch::new(g.n());
            let tracker = CostTracker::new();
            let out = crate::stage1::reduce(g.edges(), &params, &forest, &s1, &tracker);
            let mut cur = CurrentGraph {
                edges: out.edges,
                active: out.active,
            };
            let (stats, attempts) =
                sample_solve_boosted(&mut cur, &forest, &params, 5, seed, &tracker);
            assert!((1..=5).contains(&attempts));
            let _ = stats;
            forest.flatten(&tracker);
            assert!(same_partition(&forest.labels(&tracker), &components(&g)));
        }
    }

    #[test]
    fn small_threshold_path_solves_directly() {
        // Under the threshold everything goes straight to Theorem 2.
        let g = gen::gnp(200, 0.05, 9);
        let mut params = Params::for_n(g.n()).with_seed(9);
        params.small_solve_threshold = 10_000;
        let tracker = CostTracker::new();
        let (labels, _) = connectivity_known_gap(&g, 16, &params, &tracker);
        assert!(same_partition(&labels, &components(&g)));
    }
}
