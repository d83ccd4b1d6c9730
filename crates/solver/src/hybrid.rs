//! The `hybrid` solver: one concurrent union-find pass, min-root linking
//! in the link/shortcut family that Liu and Tarjan analyse in "Simple
//! Concurrent Labeling Algorithms" (PAPERS.md), and the design Sutton et
//! al. adopted for Afforest.
//!
//! * **link** — one parallel pass over every edge: find both endpoints'
//!   roots with path halving, then CAS the larger root's parent from itself
//!   to the smaller root, re-finding and retrying when the CAS loses
//!   ([`ParentForest::link_min`]).
//! * **compress** — one parallel pass writing each vertex's root.
//!
//! **Why labels are schedule-free.** A root only ever hooks under a
//! smaller root of the same component, so every parent is at most its
//! child and a component's minimum vertex is never hooked. Once every edge
//! is linked each component is one tree, and the only vertex of it that
//! can be its root is that minimum. Labels are therefore the canonical
//! per-component minimum on any schedule and at any thread count, and they
//! do not depend on edge order either: `solve_store` links shard by shard
//! with no concatenated copy.
//!
//! **Why the halving stores are safe.** They only rewrite cells read as
//! non-roots, and a non-root never becomes a root again, so a halving
//! store never races the root CAS. The value stored is an ancestor of the
//! vertex, in its component and smaller than it, so even a stale store
//! that undoes another thread's halving cannot merge components or close
//! a cycle.
//!
//! **Cost.** The tree shapes, and so every hop count, depend on the
//! schedule; charging them would make simulated work and depth
//! irreproducible, so `hybrid` charges nothing and reports no rounds,
//! like sequential `union-find`. The two passes land in
//! [`SolveReport::phases`] as `link` and `compress`, so `parcc stats`
//! still shows where the time went.

use parcc_graph::solver::{ComponentSolver, PhaseStat, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::store::{shard_slices, GraphStore};
use parcc_graph::Graph;
use parcc_pram::alloc_track;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::ParentForest;
use rayon::prelude::*;
use std::time::Instant;

/// Run `f` as the phase `name`, which reads `m` edges.
fn phase<T>(name: &'static str, m: usize, f: impl FnOnce() -> T) -> (T, PhaseStat) {
    let (t0, a0) = (Instant::now(), alloc_track::allocation_count());
    let out = f();
    let stat = PhaseStat {
        name,
        rounds: 1,
        edges: m as u64,
        wall: t0.elapsed(),
        allocs: alloc_track::allocation_count().saturating_sub(a0),
    };
    (out, stat)
}

/// Link every edge of `slices`, then compress: the whole solve.
fn solve_slices(n: usize, slices: &[&[Edge]], ctx: &SolveCtx) -> SolveReport {
    let m = slices.iter().map(|s| s.len()).sum();
    let mut phases = Vec::new();
    let report = SolveReport::measure(ctx, |_| {
        let forest = ParentForest::new(n);
        let ((), link) = phase("link", m, || {
            for edges in slices {
                edges.par_iter().for_each(|e| forest.link_min(e.u(), e.v()));
            }
        });
        let (labels, compress) = phase("compress", 0, || {
            let mut labels = vec![0; n];
            labels
                .par_iter_mut()
                .enumerate()
                .for_each(|(v, label)| *label = forest.find_halving(v as Vertex));
            labels
        });
        phases = vec![link, compress];
        (labels, None)
    });
    report.with_phases(phases)
}

/// The `hybrid` registry entry.
pub struct HybridSolver;

impl ComponentSolver for HybridSolver {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn description(&self) -> &'static str {
        "concurrent union-find: parallel min-root CAS link over every edge, then compress"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            // Every root is its component's minimum on any schedule.
            deterministic: true,
            seeded: false,
            parallel: true,
            // Not bound by diameter, as for `union-find`.
            polylog_rounds: true,
            // Hop counts depend on the schedule, so nothing is charged.
            tracks_cost: false,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        solve_slices(g.n(), &[g.edges()], ctx)
    }

    /// Links straight over the shards: labels do not depend on edge order.
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        solve_slices(store.n(), &shard_slices(store), ctx).note("store_shards", store.shard_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn check(g: &Graph) -> SolveReport {
        let r = HybridSolver.solve(g, &SolveCtx::with_seed(3));
        assert!(same_partition(&r.labels, &components(g)), "wrong partition");
        for (v, &l) in r.labels.iter().enumerate() {
            assert!(l as usize <= v, "label {l} above vertex {v}");
            assert_eq!(r.labels[l as usize], l, "non-canonical label");
        }
        r
    }

    #[test]
    fn degenerate_inputs() {
        assert!(check(&Graph::new(0, vec![])).labels.is_empty());
        assert_eq!(check(&Graph::new(1, vec![])).labels, vec![0]);
        assert_eq!(check(&Graph::new(5, vec![])).component_count(), 5);
        let loops = Graph::new(3, vec![Edge::new(1, 1), Edge::new(2, 0)]);
        assert_eq!(check(&loops).labels, vec![0, 1, 0]);
    }

    #[test]
    fn store_entry_matches_flat() {
        let g = gen::gnp(600, 0.01, 7);
        let sg = parcc_graph::store::ShardedGraph::from_graph(&g, 4);
        let flat = HybridSolver.solve(&g, &SolveCtx::with_seed(2));
        let sharded = HybridSolver.solve_store(&sg, &SolveCtx::with_seed(2));
        assert_eq!(flat.labels, sharded.labels, "labels ignore edge order");
    }

    #[test]
    fn isolated_vertices_keep_their_own_labels() {
        let g = gen::with_isolated(&gen::grid2d(12, 12, false), 300);
        let r = check(&g);
        assert_eq!(r.component_count(), 301);
    }
}
