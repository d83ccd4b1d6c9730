//! The Liu–Tarjan simple concurrent connectivity framework (`[LT19]`,
//! cited by the paper as the source of SHORTCUT and the labeled-digraph
//! discipline): rounds of CONNECT + SHORTCUT over min-labels.
//!
//! This is the algorithm practical parallel graph libraries actually ship
//! (GBBS and friends), so it completes the E12 comparison between the
//! theory-optimal pipeline and deployed practice. Of the framework's
//! variants only parent-connect with two shortcuts per round (P+SS) is
//! kept: it had equal or fewer rounds, work and depth than P+S, E+S and
//! E+SS on every graph measured. Parent labels only decrease, so the
//! digraph is acyclic for any CRCW resolution and the algorithm is
//! unconditionally correct.

use parcc_graph::repr::Graph;
use parcc_pram::cost::CostTracker;
use parcc_pram::crcw::MinCells;
use parcc_pram::edge::Vertex;
use parcc_pram::forest::ParentForest;
use rayon::prelude::*;

use crate::BaselineStats;

/// Component labels via Liu–Tarjan P+SS (parent-connect, two shortcuts
/// per round), plus round telemetry.
#[must_use]
pub fn liu_tarjan(g: &Graph, tracker: &CostTracker) -> (Vec<Vertex>, BaselineStats) {
    let n = g.n();
    let forest = ParentForest::new(n);
    let edges = g.edges();
    let offers = MinCells::new(n);
    let mut stats = BaselineStats::default();
    loop {
        stats.rounds += 1;
        let snap = forest.snapshot();
        tracker.charge(n as u64, 1);
        (0..n).into_par_iter().for_each(|v| offers.clear(v));

        // CONNECT: gather min neighbouring parent labels (round-start state).
        tracker.charge(edges.len() as u64 * 2, 1);
        edges.par_iter().for_each(|e| {
            for (x, y) in [(e.u(), e.v()), (e.v(), e.u())] {
                offers.offer(snap[x as usize] as usize, snap[y as usize]);
            }
        });
        tracker.charge(n as u64, 1);
        (0..n as u32).into_par_iter().for_each(|x| {
            if let Some(t) = offers.best(x as usize) {
                forest.offer_parent_min(x, t);
            }
        });

        // SHORTCUT twice.
        forest.shortcut_all(tracker);
        forest.shortcut_all(tracker);

        // Fixpoint: parents stopped moving.
        let changed = forest
            .snapshot()
            .par_iter()
            .zip(snap.par_iter())
            .any(|(a, b)| a != b);
        tracker.charge(n as u64, 1);
        if !changed {
            break;
        }
        assert!(
            stats.rounds <= 8 * (64 - (n as u64).leading_zeros() as u64) + 32,
            "Liu-Tarjan exceeded its round envelope"
        );
    }
    forest.flatten(tracker);
    (forest.labels(tracker), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn check(g: &Graph) -> BaselineStats {
        let tracker = CostTracker::new();
        let (labels, stats) = liu_tarjan(g, &tracker);
        assert!(
            same_partition(&labels, &components(g)),
            "wrong on n={} m={}",
            g.n(),
            g.m()
        );
        stats
    }

    #[test]
    fn correct_on_families() {
        for g in [
            gen::path(300),
            gen::cycle(128),
            gen::complete(30),
            gen::gnp(400, 0.02, 3),
            gen::mixture(5),
            Graph::from_pairs(4, &[(0, 0), (1, 2), (2, 1)]),
        ] {
            check(&g);
        }
    }

    #[test]
    fn rounds_are_logarithmic_on_paths() {
        let s = check(&gen::path(1 << 13));
        assert!(s.rounds <= 30, "rounds={}", s.rounds);
        assert!(s.rounds >= 3, "rounds={}", s.rounds);
    }

    #[test]
    fn empty_inputs() {
        check(&Graph::new(0, vec![]));
        check(&Graph::new(5, vec![]));
    }
}
