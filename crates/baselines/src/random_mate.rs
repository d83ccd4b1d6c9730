//! Reif's random-mate contraction (`[Rei84]`): every round each root flips a
//! coin; tail-roots hook onto adjacent head-roots, then edges are altered.
//! Expected constant-fraction contraction per round ⇒ `O(log n)` rounds
//! w.h.p., `O((m+n) log n)` work. The paper's Stage 1 exists precisely to
//! beat this: same contraction goal at `O(m+n)` total work.

use parcc_graph::repr::Graph;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::Vertex;
use parcc_pram::forest::ParentForest;
use parcc_pram::ops::{alter_edges, deterministic_cc_fallback};
use parcc_pram::rng::Stream;
use rayon::prelude::*;

use crate::BaselineStats;

/// Component labels by random-mate contraction. Deterministic given `seed`,
/// at any thread count.
#[must_use]
pub fn random_mate(g: &Graph, seed: u64, tracker: &CostTracker) -> (Vec<Vertex>, BaselineStats) {
    let n = g.n();
    let forest = ParentForest::new(n);
    let mut edges = g.edges().to_vec();
    alter_edges(&forest, &mut edges, true, tracker);
    let master = Stream::new(seed, 0x6a7e);
    let mut stats = BaselineStats::default();
    let round_cap = 8 * parcc_pram::cost::ceil_log2(n.max(2) as u64) + 32;
    while !edges.is_empty() && stats.rounds < round_cap {
        stats.rounds += 1;
        let coin = master.substream(stats.rounds);
        // Tail roots hook onto adjacent head roots. The smallest head wins,
        // one ARBITRARY resolution that does not depend on the schedule.
        tracker.charge(edges.len() as u64, 1);
        edges.par_iter().for_each(|e| {
            for (x, y) in [(e.u(), e.v()), (e.v(), e.u())] {
                // Both ends are roots here: edges are altered every round.
                let x_head = coin.coin(x as u64, 0.5);
                let y_head = coin.coin(y as u64, 0.5);
                if !x_head && y_head {
                    forest.hook_root_min(x, y);
                }
            }
        });
        alter_edges(&forest, &mut edges, true, tracker);
    }
    if !edges.is_empty() {
        deterministic_cc_fallback(&forest, &mut edges, tracker);
    }
    forest.flatten(tracker);
    (forest.labels(tracker), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn check(g: &Graph, seed: u64) -> BaselineStats {
        let tracker = CostTracker::new();
        let (labels, stats) = random_mate(g, seed, &tracker);
        assert!(same_partition(&labels, &components(g)));
        stats
    }

    #[test]
    fn correct_on_families() {
        for (i, g) in [
            gen::path(300),
            gen::cycle(200),
            gen::complete(25),
            gen::gnp(500, 0.01, 9),
            gen::mixture(7),
        ]
        .into_iter()
        .enumerate()
        {
            check(&g, i as u64);
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let s = check(&gen::path(4096), 5);
        assert!(
            (6..=60).contains(&s.rounds),
            "expected Θ(log n) rounds, got {}",
            s.rounds
        );
    }

    #[test]
    fn hooking_only_merges_components() {
        // Two separate triangles must never merge, any seed.
        for seed in 0..8 {
            let g = Graph::disjoint_union(&[gen::complete(3), gen::complete(3)]);
            let tracker = CostTracker::new();
            let (labels, _) = random_mate(&g, seed, &tracker);
            assert_ne!(labels[0], labels[3]);
        }
    }

    #[test]
    fn deterministic_per_seed_single_threaded() {
        // Coins are seed-deterministic; CRCW winners need pinned threads.
        let g = gen::gnp(200, 0.03, 4);
        let (l1, s1) = parcc_pram::run_single_threaded(|| {
            let t = CostTracker::new();
            random_mate(&g, 9, &t)
        });
        let (l2, s2) = parcc_pram::run_single_threaded(|| {
            let t = CostTracker::new();
            random_mate(&g, 9, &t)
        });
        assert_eq!(l1, l2);
        assert_eq!(s1.rounds, s2.rounds);
    }
}
