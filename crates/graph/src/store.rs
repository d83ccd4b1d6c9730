//! The storage engine seam: [`GraphStore`] abstracts *where the edges
//! live* so every driver (solver registry, CLI, bench harness) can run on
//! either backend unchanged.
//!
//! Two backends implement the trait:
//!
//! * [`Graph`] — the original flat representation: one packed edge vector.
//!   Exposed as a single-shard store; `to_flat` borrows, so routing a flat
//!   graph through the store seam costs nothing.
//! * [`ShardedGraph`] — edges partitioned into `k` cache/NUMA-sized
//!   shards, each an independently owned vector with its own degree
//!   histogram. Degrees are folded per shard in parallel and merged
//!   lazily (cached on first use), and the CSR adjacency is assembled by
//!   a parallel per-shard half-edge expansion. This is the seam the
//!   ROADMAP's distributed/NUMA and streaming items build on: a shard is
//!   the unit a loader streams, a generator emits, and a solver's stage-1
//!   consumes, so the flat edge list never has to materialize.
//!
//! The shards *are* the parallel chunks: `shard(i)` hands back a
//! contiguous slice, and [`par_map_shards`] / [`shard_slices`] give
//! drivers chunked parallel iteration without the trait losing object
//! safety (solvers take `&dyn GraphStore`).

use crate::repr::{Csr, Graph};
use parcc_pram::edge::Edge;
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::OnceLock;

/// A graph storage backend: vertex/edge counts, shard-chunked edge access,
/// cached degrees, and CSR construction.
///
/// Object-safe by design — the solver pipeline's shard-aware entry point
/// ([`crate::solver::ComponentSolver::solve_store`]) takes `&dyn
/// GraphStore`, so one compiled driver serves every backend.
pub trait GraphStore: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;

    /// Number of edges across all shards (undirected, loops once).
    fn m(&self) -> usize;

    /// Number of shards. The flat backend reports 1.
    fn shard_count(&self) -> usize;

    /// The `i`-th shard's edges as a contiguous slice. Shards concatenated
    /// in index order are *the* edge list (order is part of the contract:
    /// deterministic consumers rely on it).
    fn shard(&self, i: usize) -> &[Edge];

    /// Degree of every vertex under the paper's convention (loops once,
    /// parallels with multiplicity), cached after the first call.
    fn degrees(&self) -> &[u32];

    /// Build the CSR adjacency view.
    fn csr(&self) -> Csr;

    /// A flat [`Graph`] view of this store: borrowed (free) for the flat
    /// backend, an owned merge for sharded ones. Drivers that need the
    /// whole edge list in one slice go through this; shard-native drivers
    /// never call it.
    fn to_flat(&self) -> Cow<'_, Graph>;
}

impl GraphStore for Graph {
    fn n(&self) -> usize {
        Graph::n(self)
    }
    fn m(&self) -> usize {
        Graph::m(self)
    }
    fn shard_count(&self) -> usize {
        1
    }
    fn shard(&self, i: usize) -> &[Edge] {
        assert_eq!(i, 0, "flat graph has a single shard");
        self.edges()
    }
    fn degrees(&self) -> &[u32] {
        Graph::degrees(self)
    }
    fn csr(&self) -> Csr {
        Csr::build(self)
    }
    fn to_flat(&self) -> Cow<'_, Graph> {
        Cow::Borrowed(self)
    }
}

/// An undirected multigraph stored as `k` edge shards.
///
/// Semantically identical to [`Graph`] on the concatenated edge list (same
/// degree convention, loops and parallel edges allowed); the partition
/// exists so loaders can stream chunks, generators can emit rows directly
/// into their owning shard, and solvers can consume per-shard slices in
/// parallel. Equality compares the shard structure, not just the edge
/// multiset — the on-disk round trip preserves boundaries exactly.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    n: usize,
    m: usize,
    shards: Vec<Vec<Edge>>,
    degrees: OnceLock<Vec<u32>>,
}

impl PartialEq for ShardedGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.shards == other.shards
    }
}

impl Eq for ShardedGraph {}

impl ShardedGraph {
    /// Build from `n` vertices and pre-partitioned shards. Panics if an
    /// endpoint is out of range (same contract as [`Graph::new`]). Empty
    /// shards are legal and preserved.
    #[must_use]
    pub fn new(n: usize, shards: Vec<Vec<Edge>>) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        shards.par_iter().for_each(|shard| {
            for e in shard {
                assert!(
                    (e.u() as usize) < n && (e.v() as usize) < n,
                    "edge {:?} out of range for n={n}",
                    e.ends()
                );
            }
        });
        let m = shards.iter().map(Vec::len).sum();
        Self {
            n,
            m,
            shards,
            degrees: OnceLock::new(),
        }
    }

    /// Crate-internal fast path for shards already known to be in range
    /// (validated sources: an existing [`Graph`], a bounds-checking
    /// parser): skips the `O(m)` endpoint re-validation scan.
    pub(crate) fn new_unchecked(n: usize, shards: Vec<Vec<Edge>>) -> Self {
        debug_assert!(n <= u32::MAX as usize);
        debug_assert!(shards
            .iter()
            .flatten()
            .all(|e| (e.u() as usize) < n && (e.v() as usize) < n));
        let m = shards.iter().map(Vec::len).sum();
        Self {
            n,
            m,
            shards,
            degrees: OnceLock::new(),
        }
    }

    /// `⌈len/k⌉`-sized contiguous chunks, padded with empty shards to
    /// exactly `k` (`k` clamped to at least 1).
    fn split(edges: &[Edge], k: usize) -> Vec<Vec<Edge>> {
        let k = k.max(1);
        let target = edges.len().div_ceil(k).max(1);
        let mut shards: Vec<Vec<Edge>> = edges.chunks(target).map(<[Edge]>::to_vec).collect();
        shards.resize_with(k, Vec::new);
        shards
    }

    /// Partition a flat edge slice into `k` near-equal contiguous shards
    /// (the last may run short; `k` is clamped to at least 1).
    #[must_use]
    pub fn from_slice(n: usize, edges: &[Edge], k: usize) -> Self {
        Self::new(n, Self::split(edges, k))
    }

    /// Shard an existing flat graph (edge order preserved; the graph's
    /// edges are already validated, so no re-scan).
    #[must_use]
    pub fn from_graph(g: &Graph, k: usize) -> Self {
        Self::new_unchecked(g.n(), Self::split(g.edges(), k))
    }

    /// Build shard-by-shard from a per-row edge emitter, never
    /// materializing the flat edge list: rows `0..rows` are split into `k`
    /// contiguous bands, and band `i` is collected — in parallel across
    /// bands — directly into shard `i`. The result is a pure function of
    /// `row_edges` (band boundaries don't affect the concatenated order),
    /// so a sharded emit equals its flat counterpart edge-for-edge.
    #[must_use]
    pub fn from_rows<F, I>(n: usize, k: usize, rows: u64, row_edges: F) -> Self
    where
        F: Fn(u64) -> I + Sync,
        I: IntoIterator<Item = Edge>,
    {
        let k = k.max(1);
        let shards: Vec<Vec<Edge>> = (0..k as u64)
            .into_par_iter()
            .map(|band| {
                let lo = rows * band / k as u64;
                let hi = rows * (band + 1) / k as u64;
                (lo..hi).flat_map(&row_edges).collect()
            })
            .collect();
        Self::new(n, shards)
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges across all shards.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of shards (empty shards included).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The `i`-th shard's edges.
    #[must_use]
    pub fn shard(&self, i: usize) -> &[Edge] {
        &self.shards[i]
    }

    /// Per-shard edge counts, shard order — the CLI's shard telemetry.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(Vec::len).collect()
    }

    /// Merge into a flat [`Graph`], consuming the shards. One exact-size
    /// allocation (the shards are already validated, so no re-scan); each
    /// shard is dropped as soon as it has been copied, so the transient
    /// peak stays near `m + max(shard)` instead of the `2m`+ a
    /// growth-doubling vector would cost.
    #[must_use]
    pub fn into_flat(self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        for shard in self.shards {
            edges.extend_from_slice(&shard);
        }
        Graph::from_edges_unchecked(self.n, edges)
    }

    /// A flat copy without consuming the sharded form (validated edges, no
    /// re-scan).
    #[must_use]
    pub fn flat_clone(&self) -> Graph {
        let mut edges = Vec::with_capacity(self.m);
        for shard in &self.shards {
            edges.extend_from_slice(shard);
        }
        Graph::from_edges_unchecked(self.n, edges)
    }
}

impl GraphStore for ShardedGraph {
    fn n(&self) -> usize {
        ShardedGraph::n(self)
    }
    fn m(&self) -> usize {
        ShardedGraph::m(self)
    }
    fn shard_count(&self) -> usize {
        ShardedGraph::shard_count(self)
    }
    fn shard(&self, i: usize) -> &[Edge] {
        ShardedGraph::shard(self, i)
    }

    /// Per-shard private histograms built in parallel and summed in shard
    /// order — integer sums commute, so the result is identical to the flat
    /// graph's at any thread count. Cached.
    fn degrees(&self) -> &[u32] {
        self.degrees.get_or_init(|| {
            merge_degree_histograms(self.n, par_map_shards(self, shard_histogram(self.n)))
        })
    }

    /// Parallel per-shard CSR build: every shard expands its edges into
    /// directed half-edges (in parallel), the per-shard halves are
    /// concatenated in shard order, and offsets come from the lazily
    /// merged degree vector. Same packing and finish as the flat
    /// backend's parallel path ([`Csr::half_words`] /
    /// [`Csr::from_degrees_and_halves`]), so the layout is a pure
    /// function of the edge multiset.
    fn csr(&self) -> Csr {
        Csr::from_degrees_and_halves(
            GraphStore::degrees(self),
            concat_half_words(par_map_shards(self, shard_half_words)),
        )
    }

    fn to_flat(&self) -> Cow<'_, Graph> {
        Cow::Owned(self.flat_clone())
    }
}

/// All shard slices of a store, index order — the shard-native entry
/// points (`paper`/`ltz` stage 1) consume these directly.
#[must_use]
pub fn shard_slices<S: GraphStore + ?Sized>(store: &S) -> Vec<&[Edge]> {
    (0..store.shard_count()).map(|i| store.shard(i)).collect()
}

/// Concatenate a store's shards into one exact-size edge vector (no
/// intermediate [`Graph`], no growth doubling).
#[must_use]
pub fn concat_edges<S: GraphStore + ?Sized>(store: &S) -> Vec<Edge> {
    let mut out = Vec::with_capacity(store.m());
    for i in 0..store.shard_count() {
        out.extend_from_slice(store.shard(i));
    }
    out
}

/// Map `f` over `(shard_index, shard_edges)` pairs in parallel — the
/// chunked parallel edge iteration the trait promises, with the shards as
/// the chunks. Each shard is its own task (`with_min_len(1)`: the default
/// 64-slot floor would run a handful of shards on one thread). Results come
/// back in shard order.
pub fn par_map_shards<S, T, F>(store: &S, f: F) -> Vec<T>
where
    S: GraphStore + ?Sized,
    T: Send,
    F: Fn(usize, &[Edge]) -> T + Sync + Send,
{
    (0..store.shard_count())
        .into_par_iter()
        .with_min_len(1)
        .map(|i| f(i, store.shard(i)))
        .collect()
}

/// Per-shard degree histogram — the per-shard unit shared by the
/// sharded and mapped backends.
pub(crate) fn shard_histogram(n: usize) -> impl Fn(usize, &[Edge]) -> Vec<u32> {
    move |_, shard| Graph::degree_histogram(n, shard)
}

/// Sum per-shard histograms in shard order (u32 adds commute, so the
/// result equals any reduction order's).
pub(crate) fn merge_degree_histograms(n: usize, parts: Vec<Vec<u32>>) -> Vec<u32> {
    let mut total = vec![0u32; n];
    for part in parts {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    total
}

/// A shard's directed half-edge expansion ([`Csr::half_words`]).
pub(crate) fn shard_half_words(_: usize, shard: &[Edge]) -> Vec<u64> {
    shard.iter().copied().flat_map(Csr::half_words).collect()
}

/// Concatenate per-shard half-word vectors in shard order, exact-size.
pub(crate) fn concat_half_words(parts: Vec<Vec<u64>>) -> Vec<u64> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend_from_slice(&part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators as gen;

    fn sharded_mixture() -> (Graph, ShardedGraph) {
        let g = gen::mixture(7);
        let sg = ShardedGraph::from_graph(&g, 4);
        (g, sg)
    }

    #[test]
    fn from_graph_partitions_without_loss() {
        let (g, sg) = sharded_mixture();
        assert_eq!(sg.n(), g.n());
        assert_eq!(sg.m(), g.m());
        assert_eq!(sg.shard_count(), 4);
        assert_eq!(sg.shard_sizes().iter().sum::<usize>(), g.m());
        assert_eq!(sg.flat_clone(), g);
        assert_eq!(sg.clone().into_flat(), g);
        assert_eq!(concat_edges(&sg), g.edges());
    }

    #[test]
    fn degrees_match_flat_backend() {
        let (g, sg) = sharded_mixture();
        assert_eq!(GraphStore::degrees(&sg), g.degrees());
        // Degenerate shapes: loops once, parallels with multiplicity.
        let s = ShardedGraph::new(
            3,
            vec![
                vec![Edge::new(0, 0), Edge::new(0, 1)],
                vec![],
                vec![Edge::new(1, 0)],
            ],
        );
        assert_eq!(GraphStore::degrees(&s), &[3, 2, 0]);
    }

    #[test]
    fn csr_matches_flat_backend_adjacency() {
        let (g, sg) = sharded_mixture();
        let flat = Csr::build(&g);
        let sharded = GraphStore::csr(&sg);
        assert_eq!(sharded.n(), flat.n());
        assert_eq!(sharded.total_adjacency(), flat.total_adjacency());
        for v in 0..g.n() as u32 {
            let mut a: Vec<u32> = flat.neighbors(v).to_vec();
            let mut b: Vec<u32> = sharded.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbour multiset of {v}");
        }
    }

    #[test]
    fn flat_graph_is_a_single_shard_store() {
        let g = gen::cycle(10);
        let store: &dyn GraphStore = &g;
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.shard(0), g.edges());
        assert_eq!(store.m(), 10);
        assert!(matches!(store.to_flat(), Cow::Borrowed(_)));
    }

    #[test]
    fn empty_and_tiny_shards() {
        let sg = ShardedGraph::new(0, vec![]);
        assert_eq!((sg.n(), sg.m(), sg.shard_count()), (0, 0, 0));
        assert_eq!(sg.flat_clone(), Graph::new(0, vec![]));
        let sg = ShardedGraph::from_slice(5, &[], 3);
        assert_eq!(sg.shard_count(), 3);
        assert_eq!(GraphStore::degrees(&sg), &[0; 5]);
        let sg = ShardedGraph::from_slice(2, &[Edge::new(0, 1)], 4);
        assert_eq!(sg.shard_count(), 4, "short input keeps requested width");
        assert_eq!(sg.shard_sizes(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn from_rows_bands_preserve_row_order() {
        // Row i emits (i, i+1): a path, split across any k.
        for k in [1usize, 3, 8] {
            let sg = ShardedGraph::from_rows(10, k, 9, |i| {
                std::iter::once(Edge::new(i as u32, i as u32 + 1))
            });
            assert_eq!(sg.flat_clone(), gen::path(10), "k={k}");
        }
    }

    #[test]
    fn par_map_shards_visits_every_shard() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (_, sg) = sharded_mixture();
        for threads in [1, 2, 8] {
            let visits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            let got = pool.unwrap().install(|| {
                par_map_shards(&sg, |i, edges| {
                    visits[i].fetch_add(1, Ordering::Relaxed);
                    (i, edges.len())
                })
            });
            let expect: Vec<_> = sg.shard_sizes().into_iter().enumerate().collect();
            assert_eq!(got, expect, "threads={threads}");
            assert!(
                visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
        let slices = shard_slices(&sg);
        assert_eq!(slices.len(), 4);
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), sg.m());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_shard_panics() {
        let _ = ShardedGraph::new(2, vec![vec![Edge::new(0, 2)]]);
    }
}
