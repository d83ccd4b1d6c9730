//! HashMin label propagation: the simplest parallel connectivity — every
//! round each vertex takes the minimum label in its closed neighbourhood.
//! Double-buffered so one round moves labels exactly one hop, as the
//! synchronous PRAM prescribes: `Θ(d)` rounds, `Θ(m·d)` work. Great on
//! tiny-diameter graphs, hopeless on paths — the foil for every `o(d)`
//! algorithm in the comparison table (E12).

use parcc_graph::repr::Graph;
use parcc_pram::cost::CostTracker;
use parcc_pram::crcw::offer_min;
use parcc_pram::edge::{Edge, Vertex};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::BaselineStats;

/// Reusable double-buffered HashMin state: one [`sweep`] is one synchronous
/// round, and `label_propagation` drives it to the fixpoint. Both buffers
/// are allocated once at construction, so repeated sweeps perform zero
/// steady-state heap allocations.
///
/// [`sweep`]: HashMinSweep::sweep
pub struct HashMinSweep {
    cur: Vec<u32>,
    next: Vec<AtomicU32>,
}

impl HashMinSweep {
    /// Fresh state over `n` vertices, every vertex its own label.
    #[must_use]
    pub fn new(n: usize) -> Self {
        HashMinSweep {
            cur: (0..n as u32).collect(),
            next: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// One synchronous round: every endpoint takes the minimum label in its
    /// closed neighbourhood. Charges `(m + n, 1)` and returns the frontier
    /// size — the number of vertices whose label changed this round (zero ⇒
    /// fixpoint: labels are per-component minima, hence canonical).
    pub fn sweep(&mut self, edges: &[Edge], tracker: &CostTracker) -> usize {
        let (cur, next) = (&mut self.cur, &self.next);
        tracker.charge(edges.len() as u64 + cur.len() as u64, 1);
        next.par_iter()
            .zip(cur.par_iter())
            .for_each(|(nx, &c)| nx.store(c, Ordering::Relaxed));
        edges.par_iter().for_each(|e| {
            let (u, v) = (e.u() as usize, e.v() as usize);
            offer_min(&next[v], cur[u]);
            offer_min(&next[u], cur[v]);
        });
        let frontier = next
            .par_iter()
            .zip(cur.par_iter())
            .filter(|(nx, &c)| nx.load(Ordering::Relaxed) != c)
            .count();
        cur.par_iter_mut()
            .zip(next.par_iter())
            .for_each(|(c, nx)| *c = nx.load(Ordering::Relaxed));
        frontier
    }

    /// Current labels: `labels[v]` is the minimum vertex id within distance
    /// `t` of `v` after `t` sweeps (canonical only at the fixpoint).
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.cur
    }

    /// Consume the state, yielding the label buffer without a copy.
    #[must_use]
    pub fn into_labels(self) -> Vec<u32> {
        self.cur
    }
}

/// Component labels by synchronous min-label propagation.
#[must_use]
pub fn label_propagation(g: &Graph, tracker: &CostTracker) -> (Vec<Vertex>, BaselineStats) {
    let mut state = HashMinSweep::new(g.n());
    let mut stats = BaselineStats::default();
    loop {
        stats.rounds += 1;
        if state.sweep(g.edges(), tracker) == 0 {
            break;
        }
    }
    (state.into_labels(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn check(g: &Graph) -> BaselineStats {
        let tracker = CostTracker::new();
        let (labels, stats) = label_propagation(g, &tracker);
        assert!(same_partition(&labels, &components(g)));
        stats
    }

    #[test]
    fn correct_on_families() {
        for g in [
            gen::path(100),
            gen::cycle(64),
            gen::complete(30),
            gen::gnp(300, 0.03, 1),
            gen::mixture(2),
        ] {
            check(&g);
        }
    }

    #[test]
    fn rounds_equal_propagation_distance_on_path() {
        // Label 0 must walk the whole path: exactly n-1 rounds of change
        // plus one fixpoint-detection round.
        let s = check(&gen::path(50));
        assert_eq!(s.rounds, 50);
    }

    #[test]
    fn rounds_track_diameter() {
        let s_path = check(&gen::path(512));
        let s_exp = check(&gen::random_regular(512, 8, 3));
        assert!(
            s_path.rounds > 8 * s_exp.rounds,
            "path {} vs expander {}",
            s_path.rounds,
            s_exp.rounds
        );
    }

    #[test]
    fn empty_graphs() {
        check(&Graph::new(0, vec![]));
        check(&Graph::new(3, vec![]));
    }

    #[test]
    fn sweep_frontier_hits_zero_exactly_at_the_fixpoint() {
        let g = gen::path(10);
        let tracker = CostTracker::new();
        let mut s = HashMinSweep::new(g.n());
        let mut rounds = 0;
        loop {
            rounds += 1;
            if s.sweep(g.edges(), &tracker) == 0 {
                break;
            }
        }
        // Same count as the fixpoint driver: n-1 spreading rounds + 1 detect.
        assert_eq!(rounds, 10);
        for &l in s.labels() {
            assert_eq!(s.labels()[l as usize], l, "fixpoint labels canonical");
        }
    }

    #[test]
    fn parallel_sweeps_match_a_sequential_reference() {
        let g = gen::chung_lu(5000, 2.5, 6.0, 7);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .expect("pool");
        let mut s = HashMinSweep::new(g.n());
        let tracker = CostTracker::new();
        loop {
            let mut expect = s.labels().to_vec();
            for e in g.edges() {
                let (u, v) = (e.u() as usize, e.v() as usize);
                expect[v] = expect[v].min(s.labels()[u]);
                expect[u] = expect[u].min(s.labels()[v]);
            }
            let changed = expect
                .iter()
                .zip(s.labels())
                .filter(|(a, b)| a != b)
                .count();
            let frontier = pool.install(|| s.sweep(g.edges(), &tracker));
            assert_eq!(frontier, changed);
            assert_eq!(s.labels(), &expect[..]);
            if frontier == 0 {
                break;
            }
        }
    }

    #[test]
    fn first_sweep_frontier_counts_every_non_minimal_vertex() {
        let g = gen::path(5);
        let mut s = HashMinSweep::new(g.n());
        // Round 1: every vertex except 0 adopts its left neighbour's id.
        assert_eq!(s.sweep(g.edges(), &CostTracker::new()), 4);
    }
}
