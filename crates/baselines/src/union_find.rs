//! Sequential union–find with path halving and union by rank: the
//! `O(m α(n))` sequential optimum the paper cites (`[Tar72]`), and the
//! workspace's second ground-truth oracle (besides BFS).
//!
//! [`IncrementalUnionFind`], the long-lived serve state, is weighted
//! quick-find instead: labels are always canonical and each union
//! relabels the smaller side, O(n log n) relabels over a whole run, so a
//! serve epoch can publish exactly the labels that moved.

use parcc_graph::repr::Graph;
use parcc_graph::snapshot::{ChangeLog, LabelSnapshot};
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

/// One vertex's quick-find record, kept together so that a union touches
/// one cache line per vertex.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Canonical label: the id of the component's root.
    label: Vertex,
    /// Component size if this vertex is a root, zero otherwise.
    size: u32,
    /// Next member on the component's circular member list.
    next: Vertex,
}

/// Long-lived connectivity state: the serve engine.
///
/// Weighted quick-find rather than a forest: every vertex stores its
/// canonical label (the id of its component's root), each component
/// threads its members on a circular list, and a union relabels the
/// **smaller** side, walking its list. A vertex is relabeled only when its
/// component at least doubles, so a whole run costs O(n log n) relabels
/// however the edges arrive; a lookup is one load, and the labels are
/// canonical at all times.
///
/// Once the state has published a snapshot, every relabel and every size
/// change is recorded in a [`ChangeLog`], so [`publish`](Self::publish)
/// builds the next [`LabelSnapshot`] from the previous one by rebuilding
/// only the pages that changed — O(changed), not O(n), per serve epoch.
#[derive(Debug)]
pub struct IncrementalUnionFind {
    nodes: Vec<Node>,
    components: usize,
    /// What changed since the last publish; `None` before the first (which
    /// builds every page anyway, so a preload records nothing).
    changes: Option<ChangeLog>,
}

impl IncrementalUnionFind {
    /// State over `n` initial singleton vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut state = Self {
            nodes: Vec::new(),
            components: 0,
            changes: None,
        };
        state.ensure_n(n);
        state
    }

    /// Grow the vertex space to at least `n` (no-op when already larger).
    /// New vertices are singletons.
    ///
    /// # Panics
    /// If `n > u32::MAX`: vertex ids must fit in `u32`.
    pub fn ensure_n(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        let old = self.nodes.len();
        if n > old {
            self.nodes.extend((old as u32..n as u32).map(|v| Node {
                label: v,
                size: 1,
                next: v,
            }));
            self.components += n - old;
        }
    }

    /// Join the components of `a` and `b`: relabel the smaller one (ties
    /// keep `a`'s label) and splice the two member lists.
    fn union(&mut self, a: Vertex, b: Vertex) {
        let (la, lb) = (self.nodes[a as usize].label, self.nodes[b as usize].label);
        if la == lb {
            return;
        }
        let (big, small) = if self.nodes[la as usize].size >= self.nodes[lb as usize].size {
            (la, lb)
        } else {
            (lb, la)
        };
        let mut v = small;
        loop {
            let node = &mut self.nodes[v as usize];
            node.label = big;
            let next = node.next;
            if let Some(log) = &mut self.changes {
                log.relabel(v);
            }
            v = next;
            if v == small {
                break;
            }
        }
        let Node {
            size: small_size,
            next: small_next,
            ..
        } = self.nodes[small as usize];
        let b = &mut self.nodes[big as usize];
        let big_next = std::mem::replace(&mut b.next, small_next);
        b.size += small_size;
        let s = &mut self.nodes[small as usize];
        s.next = big_next;
        s.size = 0;
        if let Some(log) = &mut self.changes {
            log.resize(big);
            log.resize(small);
        }
        self.components -= 1;
    }

    /// Fold one edge batch in, growing the vertex space to cover every
    /// mentioned id. Empty batches are legal no-ops.
    pub fn absorb_batch(&mut self, edges: &[Edge]) {
        let need = edges
            .iter()
            .map(|e| e.u().max(e.v()) as usize + 1)
            .max()
            .unwrap_or(0);
        self.ensure_n(need);
        for e in edges {
            self.union(e.u(), e.v());
        }
    }

    /// Fold a sequence of batches in order — the WAL replay entry point.
    pub fn absorb_batches(&mut self, batches: &[Vec<Edge>]) {
        for batch in batches {
            self.absorb_batch(batch);
        }
    }

    /// A copy of the canonical labels (`labels[labels[v]] == labels[v]`):
    /// O(n), for callers that want the whole labeling at once.
    #[must_use]
    pub fn labels(&self) -> Vec<Vertex> {
        self.nodes.iter().map(|node| node.label).collect()
    }

    /// The snapshot after `prev` — the last snapshot this state published
    /// (or [`LabelSnapshot::empty`] for the first) — stamped `epoch`,
    /// sharing every page nothing changed in since. Returns it with the
    /// number of relabels it covers (every vertex for the first publish,
    /// which builds all pages), and starts a fresh change log.
    pub fn publish(&mut self, prev: &LabelSnapshot, epoch: u64) -> (LabelSnapshot, u64) {
        // Without a log (first publish, or one that panicked midway) every
        // page is built from scratch.
        let empty = LabelSnapshot::empty(epoch);
        let (base, relabeled, mut log) = match self.changes.take() {
            Some(log) => (prev, log.relabeled(), log),
            None => (&empty, self.nodes.len() as u64, ChangeLog::default()),
        };
        let snap = base.advance(
            epoch,
            self.nodes.len(),
            |v| self.nodes[v].label,
            |r| self.nodes[r].size,
            self.components,
            &log,
        );
        log.clear();
        self.changes = Some(log);
        (snap, relabeled)
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
    fn ensure_n_refuses_a_vertex_space_past_u32_before_mutating() {
        let mut inc = IncrementalUnionFind::new(2);
        let past = u32::MAX as usize + 1;
        let grow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inc.ensure_n(past)));
        assert!(grow.is_err(), "n = 2^32 must be refused");
        assert_eq!(inc.labels(), vec![0, 1], "a refused grow changes nothing");
        inc.absorb_batch(&[Edge::new(0, 1)]);
        let (snap, _) = inc.publish(&LabelSnapshot::empty(0), 0);
        assert_eq!(snap.component_count(), 1);
    }

    /// 2^20 vertices with `0..big` already one component, published.
    fn big_component_state(n: usize, big: u32) -> (IncrementalUnionFind, LabelSnapshot) {
        let mut inc = IncrementalUnionFind::new(n);
        let path: Vec<Edge> = (1..big).map(|v| Edge::new(v - 1, v)).collect();
        inc.absorb_batch(&path);
        let (snap, _) = inc.publish(&LabelSnapshot::empty(0), 0);
        (inc, snap)
    }

    #[test]
    fn merging_k_singletons_into_a_big_set_relabels_exactly_k() {
        let (mut inc, s0) = big_component_state(1 << 20, 1 << 19);
        let root = inc.labels()[0];
        let k = 37u32;
        let joins: Vec<Edge> = (0..k)
            .map(|i| Edge::new(i * 11, (1 << 19) + i * 9001))
            .collect();
        inc.absorb_batch(&joins);
        let (s1, relabeled) = inc.publish(&s0, 1);
        assert_eq!(relabeled, u64::from(k), "only the singletons move");
        for e in &joins {
            assert_eq!(s1.label_of(e.v()), root, "the big side keeps its label");
        }
        assert_eq!(s1.component_size(0), (1 << 19) + k as usize);
        assert_eq!(s1.component_count(), (1 << 20) - (1 << 19) + 1 - k as usize);
    }

    #[test]
    fn publish_copies_only_the_pages_a_commit_touched() {
        use parcc_graph::snapshot::PAGE;
        let n = 1 << 20;
        let pages = n / PAGE;
        let (mut inc, s0) = big_component_state(n, 1 << 19);
        // A singleton joins the big component: its label page and the two
        // roots' size pages, nothing else.
        inc.absorb_batch(&[Edge::new(5, (n - 3) as u32)]);
        let (s1, relabeled) = inc.publish(&s0, 1);
        assert_eq!(relabeled, 1);
        let (labels, sizes) = s1.pages_shared_with(&s0);
        assert!(
            labels >= pages - 2 && sizes >= pages - 2,
            "{labels} {sizes} of {pages}"
        );
        // An edge inside one component changes nothing: every page shared.
        inc.absorb_batch(&[Edge::new(3, 1000)]);
        let (s2, relabeled) = inc.publish(&s1, 2);
        assert_eq!(relabeled, 0);
        assert_eq!(s2.pages_shared_with(&s1), (pages, pages));
        assert_eq!(s2.labels(), inc.labels().as_slice());
    }

    #[test]
    fn published_snapshots_equal_a_full_rebuild() {
        let mut inc = IncrementalUnionFind::new(0);
        let (mut prev, _) = inc.publish(&LabelSnapshot::empty(0), 0);
        let g = gen::gnp(3 * parcc_graph::snapshot::PAGE, 0.0004, 5);
        for (epoch, batch) in g.edges().chunks(97).enumerate() {
            inc.absorb_batch(batch);
            let (snap, _) = inc.publish(&prev, epoch as u64 + 1);
            let full = LabelSnapshot::from_labels(snap.epoch(), inc.labels());
            assert_eq!(snap.labels(), full.labels(), "epoch {epoch}");
            assert_eq!(snap.component_count(), full.component_count());
            for v in (0..snap.n() as u32).step_by(61) {
                assert_eq!(snap.component_size(v), full.component_size(v));
            }
            prev = snap;
        }
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
