//! Sequential union–find with path halving and union by rank: the
//! `O(m α(n))` sequential optimum the paper cites (`[Tar72]`), and the
//! workspace's second ground-truth oracle (besides BFS).

use parcc_graph::repr::Graph;
use parcc_pram::edge::{Edge, Vertex};

/// Disjoint-set forest.
#[derive(Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl DisjointSets {
    /// `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `v`'s set (path halving).
    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    /// Number of tracked elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no elements are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Grow to at least `n` elements; new elements are singletons. This is
    /// what makes the forest *incremental*: absorbed batches may mention
    /// ids beyond the current range without restarting the structure.
    pub fn grow(&mut self, n: usize) {
        let old = self.parent.len();
        if n > old {
            self.parent.extend(old as u32..n as u32);
            self.rank.resize(n, 0);
        }
    }

    /// Merge the sets of `a` and `b`; returns false if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// Component labels by sequential union–find.
#[must_use]
pub fn union_find(g: &Graph) -> Vec<Vertex> {
    let mut dsu = DisjointSets::new(g.n());
    for e in g.edges() {
        dsu.union(e.u(), e.v());
    }
    (0..g.n() as u32).map(|v| dsu.find(v)).collect()
}

/// Long-lived union–find state: the serve and out-of-core engine. Each
/// absorbed batch unions its edges into the growing forest (near-constant
/// amortized work per edge, no restart); labels are read out as `find(v)`
/// per vertex, which is canonical by construction.
#[derive(Debug)]
pub struct IncrementalUnionFind {
    dsu: DisjointSets,
}

impl IncrementalUnionFind {
    /// State over `n` initial singleton vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            dsu: DisjointSets::new(n),
        }
    }

    /// Grow the vertex space to at least `n` (no-op when already larger).
    pub fn ensure_n(&mut self, n: usize) {
        self.dsu.grow(n);
    }

    /// Fold one edge batch into the forest, growing the vertex space to
    /// cover every mentioned id. Empty batches are legal no-ops.
    pub fn absorb_batch(&mut self, edges: &[Edge]) {
        let need = edges
            .iter()
            .map(|e| e.u().max(e.v()) as usize + 1)
            .max()
            .unwrap_or(0);
        self.dsu.grow(need);
        for e in edges {
            self.dsu.union(e.u(), e.v());
        }
    }

    /// Fold a sequence of batches in order — the WAL replay entry point.
    pub fn absorb_batches(&mut self, batches: &[Vec<Edge>]) {
        for batch in batches {
            self.absorb_batch(batch);
        }
    }

    /// Canonical labels (`labels[labels[v]] == labels[v]`) for the current
    /// forest.
    pub fn labels(&mut self) -> Vec<Vertex> {
        (0..self.dsu.len() as u32)
            .map(|v| self.dsu.find(v))
            .collect()
    }
}

/// A spanning forest of `g`: the edges whose union first connected their
/// endpoints. Exactly `n − #components` edges, acyclic, spanning every
/// component — the witness structure downstream users usually want next to
/// the labels.
#[must_use]
pub fn spanning_forest(g: &Graph) -> Vec<parcc_pram::edge::Edge> {
    let mut dsu = DisjointSets::new(g.n());
    g.edges()
        .iter()
        .filter(|e| dsu.union(e.u(), e.v()))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    #[test]
    fn matches_bfs_on_families() {
        for g in [
            gen::path(50),
            gen::cycle(30),
            gen::complete(12),
            gen::expander_union(3, 40, 4, 1),
            gen::mixture(3),
        ] {
            assert!(same_partition(&union_find(&g), &components(&g)));
        }
    }

    #[test]
    fn handles_loops_and_parallels() {
        let g = Graph::from_pairs(4, &[(0, 0), (1, 2), (2, 1), (1, 2)]);
        let l = union_find(&g);
        assert_eq!(l[1], l[2]);
        assert_ne!(l[0], l[1]);
        assert_ne!(l[3], l[1]);
    }

    #[test]
    fn spanning_forest_has_right_size_and_spans() {
        for g in [
            gen::cycle(50),
            gen::mixture(4),
            gen::gnp(300, 0.02, 7),
            Graph::from_pairs(3, &[(0, 0), (1, 2), (2, 1)]),
        ] {
            let f = spanning_forest(&g);
            let comps = components(&g);
            let count = comps
                .iter()
                .enumerate()
                .filter(|&(v, &l)| v as u32 == l)
                .count();
            assert_eq!(
                f.len(),
                g.n() - count,
                "forest size must be n - #components"
            );
            // The forest induces the same partition…
            let fg = Graph::new(g.n(), f.clone());
            assert!(same_partition(&components(&fg), &comps));
            // …and is acyclic: every edge merges two distinct sets.
            let mut dsu = DisjointSets::new(g.n());
            for e in &f {
                assert!(dsu.union(e.u(), e.v()), "cycle edge in forest");
            }
        }
    }

    #[test]
    fn grow_adds_singletons_preserving_merges() {
        let mut d = DisjointSets::new(2);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        d.union(0, 1);
        d.grow(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.find(0), d.find(1), "old merges survive growth");
        for v in 2..5 {
            assert_eq!(d.find(v), v, "new elements start as singletons");
        }
        d.grow(3); // shrink request is a no-op
        assert_eq!(d.len(), 5);
        d.union(1, 4);
        assert_eq!(d.find(4), d.find(0));
    }

    #[test]
    fn incremental_union_find_matches_batch_oracle_per_epoch() {
        let g = gen::gnp(150, 0.025, 11);
        let edges = g.edges();
        let mut inc = IncrementalUnionFind::new(10);
        let step = edges.len().div_ceil(4).max(1);
        let mut absorbed = 0;
        for (i, batch) in edges.chunks(step).enumerate() {
            inc.absorb_batch(batch);
            absorbed += batch.len();
            let labels = inc.labels();
            let prefix = Graph::new(labels.len(), edges[..absorbed].to_vec());
            assert!(
                same_partition(&labels, &components(&prefix)),
                "epoch {i}: incremental forest diverges from the batch oracle"
            );
            for &l in &labels {
                assert_eq!(labels[l as usize], l, "labels must be canonical");
            }
        }
    }

    #[test]
    fn incremental_union_find_grows_vertex_space() {
        let mut inc = IncrementalUnionFind::new(2);
        inc.absorb_batch(&[Edge::new(0, 7)]);
        let labels = inc.labels();
        assert_eq!(labels.len(), 8);
        assert_eq!(labels[0], labels[7]);
        assert_ne!(labels[1], labels[0]);
        inc.ensure_n(12);
        inc.absorb_batch(&[]); // empty batches change nothing
        assert_eq!(inc.labels().len(), 12);
        inc.ensure_n(3); // shrink requests are ignored
        assert_eq!(inc.labels().len(), 12);
    }

    #[test]
    fn union_returns_false_on_joined() {
        let mut d = DisjointSets::new(3);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(1, 2));
        assert_eq!(d.find(0), d.find(2));
    }
}
