//! Input representation: an undirected multigraph as a packed edge list,
//! plus a CSR adjacency view for traversal and spectral work.

use parcc_pram::edge::{Edge, Vertex};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Below this edge count the parallel degree/CSR paths fall back to the
/// simple sequential loops (avoids pool overhead on tiny graphs).
const PAR_EDGE_CUTOFF: usize = 1 << 13;

/// An undirected multigraph. Self-loops and parallel edges are allowed
/// (paper §2.1). Each undirected edge is stored once, in an arbitrary
/// orientation.
///
/// The vertex/edge sets are immutable after construction, so the degree
/// vector is computed once on demand and cached.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    degrees: OnceLock<Vec<u32>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl Graph {
    /// Build from `n` vertices and an edge list. Panics if an endpoint is out
    /// of range.
    #[must_use]
    pub fn new(n: usize, edges: Vec<Edge>) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        for e in &edges {
            assert!(
                (e.u() as usize) < n && (e.v() as usize) < n,
                "edge {:?} out of range for n={n}",
                e.ends()
            );
        }
        Self {
            n,
            edges,
            degrees: OnceLock::new(),
        }
    }

    /// Build from `(u, v)` pairs.
    #[must_use]
    pub fn from_pairs(n: usize, pairs: &[(Vertex, Vertex)]) -> Self {
        Self::new(n, pairs.iter().map(|&(u, v)| Edge::new(u, v)).collect())
    }

    /// Crate-internal fast path for edges already known to be in range
    /// (e.g. sourced from a validated `Graph`/`ShardedGraph` or a parser
    /// that bounds-checked ids against `n`): skips the `O(m)` endpoint
    /// re-validation scan.
    pub(crate) fn from_edges_unchecked(n: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(n <= u32::MAX as usize);
        debug_assert!(edges
            .iter()
            .all(|e| (e.u() as usize) < n && (e.v() as usize) < n));
        Self {
            n,
            edges,
            degrees: OnceLock::new(),
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (each undirected edge counted once; loops count once).
    #[must_use]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge list.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Take ownership of the edge list.
    #[must_use]
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// Degree of every vertex. A self-loop counts **once** towards its
    /// vertex's degree; parallel edges count with multiplicity (paper §2.1).
    ///
    /// Computed on large graphs by folding a private histogram per edge
    /// chunk and summing them — no shared-cell contention however skewed the
    /// degree distribution, and u32 addition is associative/commutative, so
    /// the result is identical at any thread count. Cached: repeated callers
    /// such as [`min_degree`](Self::min_degree) pay nothing.
    pub fn degrees(&self) -> &[u32] {
        self.degrees.get_or_init(|| {
            if self.edges.len() < PAR_EDGE_CUTOFF {
                return Self::degree_histogram(self.n, &self.edges);
            }
            let chunk = self
                .edges
                .len()
                .div_ceil((rayon::current_num_threads() * 4).max(1))
                .max(PAR_EDGE_CUTOFF / 2);
            self.edges
                .par_chunks(chunk)
                .with_min_len(1) // few coarse slots: fan out regardless
                .map(|edges| Self::degree_histogram(self.n, edges))
                .reduce(
                    || vec![0u32; self.n],
                    |mut a, b| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                        a
                    },
                )
        })
    }

    pub(crate) fn degree_histogram(n: usize, edges: &[Edge]) -> Vec<u32> {
        let mut deg = vec![0u32; n];
        for e in edges {
            deg[e.u() as usize] += 1;
            if !e.is_loop() {
                deg[e.v() as usize] += 1;
            }
        }
        deg
    }

    /// Minimum degree over all vertices (`deg(G)` in the paper); 0 for a graph
    /// with an isolated vertex, and 0 for the empty graph.
    ///
    /// A parallel reduction over the cached degree vector — no longer
    /// recomputes (or reallocates) the degrees on every call.
    #[must_use]
    pub fn min_degree(&self) -> u32 {
        self.degrees().par_iter().copied().min().unwrap_or(0)
    }

    /// Disjoint union of graphs, relabelling each block's vertices after the
    /// previous blocks.
    #[must_use]
    pub fn disjoint_union(parts: &[Graph]) -> Graph {
        let n: usize = parts.iter().map(Graph::n).sum();
        let mut edges = Vec::with_capacity(parts.iter().map(Graph::m).sum());
        let mut base = 0u32;
        for g in parts {
            edges.extend(
                g.edges
                    .iter()
                    .map(|e| Edge::new(e.u() + base, e.v() + base)),
            );
            base += g.n as u32;
        }
        Graph::new(n, edges)
    }

    /// Relabel vertices by a random permutation (destroys any id-locality the
    /// generator introduced). Deterministic given `seed`.
    #[must_use]
    pub fn permuted(&self, seed: u64) -> Graph {
        let stream = parcc_pram::rng::Stream::new(seed, 0x7e47);
        let mut perm: Vec<u32> = (0..self.n as u32).collect();
        // Fisher–Yates driven by the stateless stream.
        for i in (1..self.n).rev() {
            let j = stream.below(i as u64, (i + 1) as u64) as usize;
            perm.swap(i, j);
        }
        let edges = self
            .edges
            .par_iter()
            .map(|e| Edge::new(perm[e.u() as usize], perm[e.v() as usize]))
            .collect();
        Graph::new(self.n, edges)
    }

    /// The subgraph keeping each edge independently with probability `p`
    /// (vertex set unchanged). Deterministic given `seed`.
    #[must_use]
    pub fn edge_sampled(&self, p: f64, seed: u64) -> Graph {
        let stream = parcc_pram::rng::Stream::new(seed, 0x5a3c);
        let edges = self
            .edges
            .par_iter()
            .enumerate()
            .filter_map(|(i, &e)| stream.coin(i as u64, p).then_some(e))
            .collect();
        Graph::new(self.n, edges)
    }
}

/// Compressed sparse row adjacency. Every non-loop edge appears in both
/// endpoints' lists; a loop appears once in its vertex's list, so
/// `adjacency(v).len() == deg(v)` under the paper's degree convention.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
}

impl Csr {
    /// Assemble from precomputed offsets and targets (the sharded backend's
    /// per-shard build path). `offsets` must be monotone with
    /// `offsets[n] == targets.len()`.
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<Vertex>) -> Self {
        debug_assert_eq!(*offsets.last().unwrap_or(&0), targets.len());
        Self { offsets, targets }
    }

    /// Row offsets as the prefix sum of a degree vector (the one shared
    /// definition — every build path derives its offsets here).
    pub(crate) fn offsets_from_degrees(deg: &[u32]) -> Vec<usize> {
        let mut offsets = vec![0usize; deg.len() + 1];
        for v in 0..deg.len() {
            offsets[v + 1] = offsets[v] + deg[v] as usize;
        }
        offsets
    }

    /// The one or two packed `(source << 32) | target` half-edge words of
    /// `e` (a loop contributes one; shared by the flat and sharded
    /// parallel builders so the packing can never diverge).
    pub(crate) fn half_words(e: Edge) -> impl Iterator<Item = u64> {
        let (u, v) = e.ends();
        let fwd = (u as u64) << 32 | v as u64;
        let rev = (v as u64) << 32 | u as u64;
        std::iter::once(fwd).chain((u != v).then_some(rev))
    }

    /// Finish a parallel build from the degree vector and the *unsorted*
    /// half-edge words: sort groups by source (neighbours ordered by id),
    /// truncation keeps the target half. Half-edge words are packed
    /// integer keys, so [`parcc_pram::sort::sort_u64`] sorts them directly.
    pub(crate) fn from_degrees_and_halves(deg: &[u32], mut half: Vec<u64>) -> Self {
        let offsets = Self::offsets_from_degrees(deg);
        parcc_pram::sort::sort_u64(&mut half);
        let targets: Vec<Vertex> = half.par_iter().map(|&h| h as Vertex).collect();
        Self::from_parts(offsets, targets)
    }

    /// Build the adjacency structure of `g`.
    ///
    /// Large graphs take a chunk-parallel path: expand every edge into its
    /// one or two directed half-edges packed as `(source << 32) | target`
    /// words, parallel-sort them (grouping by source, neighbours ordered by
    /// id), and take offsets from the cached degree vector. On this path the
    /// layout is a pure function of the edge *multiset* (thread-count
    /// independent); below the cutoff the sequential path keeps each row in
    /// edge-insertion order instead. Neither ordering is part of the API —
    /// [`neighbors`](Self::neighbors) is documented as a multiset.
    #[must_use]
    pub fn build(g: &Graph) -> Self {
        if g.m() < PAR_EDGE_CUTOFF {
            return Self::build_sequential(g);
        }
        let half: Vec<u64> = g
            .edges()
            .par_iter()
            .flat_map_iter(|&e| Self::half_words(e))
            .collect();
        Self::from_degrees_and_halves(g.degrees(), half)
    }

    fn build_sequential(g: &Graph) -> Self {
        let n = g.n();
        let offsets = Self::offsets_from_degrees(g.degrees());
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as Vertex; offsets[n]];
        for e in g.edges() {
            let (u, v) = e.ends();
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            if u != v {
                targets[cursor[v as usize]] = u;
                cursor[v as usize] += 1;
            }
        }
        Self { offsets, targets }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbour multiset of `v` (loops once, parallels with multiplicity).
    #[must_use]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v` under the paper's convention.
    #[must_use]
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Total adjacency length (= 2m − #loops).
    #[must_use]
    pub fn total_adjacency(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_pairs(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn graph_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert_eq!(g.min_degree(), 2);
    }

    #[test]
    fn loop_counts_once() {
        let g = Graph::from_pairs(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.degrees(), vec![2, 1]);
    }

    #[test]
    fn parallel_edges_count_multiply() {
        let g = Graph::from_pairs(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.degrees(), vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Graph::from_pairs(2, &[(0, 2)]);
    }

    #[test]
    fn csr_matches_degrees() {
        let g = Graph::from_pairs(4, &[(0, 1), (1, 2), (2, 2), (1, 2)]);
        let c = Csr::build(&g);
        assert_eq!(c.n(), 4);
        for v in 0..4u32 {
            assert_eq!(c.degree(v) as u32, g.degrees()[v as usize]);
        }
        let mut n1: Vec<u32> = c.neighbors(1).to_vec();
        n1.sort_unstable();
        assert_eq!(n1, vec![0, 2, 2]);
        // loop at 2 appears once
        let mut n2: Vec<u32> = c.neighbors(2).to_vec();
        n2.sort_unstable();
        assert_eq!(n2, vec![1, 1, 2]);
    }

    #[test]
    fn disjoint_union_relabels() {
        let g = Graph::disjoint_union(&[triangle(), Graph::from_pairs(2, &[(0, 1)])]);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert!(g.edges().contains(&Edge::new(3, 4)));
    }

    #[test]
    fn permuted_preserves_shape() {
        let g = triangle().permuted(7);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        // Deterministic
        assert_eq!(g, triangle().permuted(7));
    }

    #[test]
    fn edge_sampled_subset() {
        let g = Graph::from_pairs(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let s = g.edge_sampled(0.5, 3);
        assert_eq!(s.n(), 5);
        assert!(s.m() <= g.m());
        for e in s.edges() {
            assert!(g.edges().contains(e));
        }
        assert_eq!(s, g.edge_sampled(0.5, 3));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0, vec![]);
        assert_eq!(g.min_degree(), 0);
        let c = Csr::build(&g);
        assert_eq!(c.n(), 0);
    }
}
