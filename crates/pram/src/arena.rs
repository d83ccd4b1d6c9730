//! Reusable buffer pools for the solver hot paths.
//!
//! Every phase of the paper's pipeline — and every EXPAND-MAXLINK round of
//! the LTZ engine — used to allocate fresh `Vec`s for edge sets, vertex
//! lists and sort scratch, then drop them at the end of the call. At
//! millions of edges per phase that is pure allocator traffic on the
//! memory-bandwidth-bound contraction loop. A [`SolverArena`] keeps those
//! buffers alive between calls: the `*_into`/`*_with` primitive variants
//! (`padded_sort_with`, `simplify_edges_with`, `simplify_edges_into`)
//! check a buffer out, fill it, and check it back in, so a warm arena
//! makes repeat passes allocation-free. `retain` and
//! `alter_edges` need no arena: they compact in place.
//!
//! ## Topology grouping
//!
//! Pools are split per topology node (`rayon::topology`): a checkout is
//! served from — and returned to — the pool group of the *calling
//! thread's* node, so a buffer last written by node `g`'s workers is
//! rewarmed on node `g` instead of bouncing its cache lines across the
//! interconnect. Checkout/miss counters are tracked per group
//! ([`GroupStats`]); the retained-byte **peak is the high-water of the
//! total across groups** (summing per-group peaks would overstate it —
//! the groups never hold their individual maxima simultaneously). On a
//! single-node box there is exactly one group and behavior is unchanged.
//!
//! The arena is deliberately **not** thread-safe: it is owned by one
//! pipeline (a solver run, an `LtzEngine`) and handed down `&mut`. Scratch
//! needed *inside* parallel loops (per-vertex table drains) uses
//! thread-local buffers instead — see `parcc-ltz`.
//!
//! High-water telemetry ([`ArenaStats`]) feeds the `allocs`/`peak_bytes`
//! reporting in `SolveReport`.

use crate::edge::{Edge, Vertex};

/// Point-in-time usage counters for a [`SolverArena`], merged across pool
/// groups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer checkouts served (hits + misses), all groups.
    pub takes: u64,
    /// Checkouts that found the pool empty and allocated a fresh buffer.
    pub misses: u64,
    /// High-water mark of bytes retained across all pooled buffers — the
    /// peak of the *total*, not a sum of per-group peaks.
    pub peak_bytes: u64,
}

/// Per-node-group usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Topology node this group serves.
    pub node: usize,
    /// Checkouts served from this group.
    pub takes: u64,
    /// Checkouts that allocated fresh (group pool was empty).
    pub misses: u64,
    /// Bytes currently retained in this group's pools.
    pub retained_bytes: u64,
}

/// One node group's typed pools and counters.
#[derive(Debug, Default)]
struct PoolGroup {
    edges: Vec<Vec<Edge>>,
    verts: Vec<Vec<Vertex>>,
    words: Vec<Vec<u64>>,
    takes: u64,
    misses: u64,
    retained_bytes: u64,
}

/// Pools of reusable `Vec` buffers for the solver pipelines.
///
/// Three typed pools cover every hot-path scratch need: packed edges,
/// vertex ids, and raw `u64` words (radix-sort scratch and histograms).
/// `take_*` pops a cleared buffer (or allocates an empty one on a miss);
/// `give_*` returns it for reuse. Buffers keep their capacity across the
/// round trip — steady state performs zero heap allocations. Pools are
/// grouped per topology node (see the module docs).
#[derive(Debug)]
pub struct SolverArena {
    groups: Vec<PoolGroup>,
    /// Bytes retained across all groups (the peak's basis).
    total_retained: u64,
    peak_bytes: u64,
}

impl Default for SolverArena {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! pool_pair {
    ($take:ident, $give:ident, $field:ident, $t:ty, $take_doc:literal, $give_doc:literal) => {
        #[doc = $take_doc]
        #[must_use]
        pub fn $take(&mut self) -> Vec<$t> {
            let grp = self.home_group();
            grp.takes += 1;
            match grp.$field.pop() {
                Some(buf) => {
                    let bytes = (buf.capacity() * std::mem::size_of::<$t>()) as u64;
                    grp.retained_bytes -= bytes;
                    self.total_retained -= bytes;
                    buf
                }
                None => {
                    grp.misses += 1;
                    Vec::new()
                }
            }
        }

        #[doc = $give_doc]
        pub fn $give(&mut self, mut buf: Vec<$t>) {
            buf.clear();
            let bytes = (buf.capacity() * std::mem::size_of::<$t>()) as u64;
            let grp = self.home_group();
            grp.retained_bytes += bytes;
            grp.$field.push(buf);
            self.total_retained += bytes;
            self.peak_bytes = self.peak_bytes.max(self.total_retained);
        }
    };
}

impl SolverArena {
    /// An empty arena with one pool group per detected topology node.
    #[must_use]
    pub fn new() -> Self {
        Self::with_groups(rayon::topology::current().num_nodes())
    }

    /// An empty arena with an explicit group count (≥ 1) — tests and
    /// single-node-pinned pipelines.
    #[must_use]
    pub fn with_groups(n: usize) -> Self {
        Self {
            groups: (0..n.max(1)).map(|_| PoolGroup::default()).collect(),
            total_retained: 0,
            peak_bytes: 0,
        }
    }

    /// The calling thread's pool group (its topology node, clamped).
    fn home_group(&mut self) -> &mut PoolGroup {
        let g = rayon::topology::current_node().min(self.groups.len() - 1);
        &mut self.groups[g]
    }

    pool_pair!(
        take_edges,
        give_edges,
        edges,
        Edge,
        "Check out a cleared edge buffer (pool hit keeps its capacity).",
        "Return an edge buffer to the pool for reuse."
    );
    pool_pair!(
        take_verts,
        give_verts,
        verts,
        Vertex,
        "Check out a cleared vertex-id buffer.",
        "Return a vertex-id buffer to the pool for reuse."
    );
    pool_pair!(
        take_words,
        give_words,
        words,
        u64,
        "Check out a cleared `u64` word buffer (radix scratch, histograms).",
        "Return a word buffer to the pool for reuse."
    );

    /// Number of pool groups (detected topology nodes at construction).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Usage counters merged across groups (checkouts, pool misses,
    /// retained-byte high water of the cross-group total).
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.groups.iter().map(|g| g.takes).sum(),
            misses: self.groups.iter().map(|g| g.misses).sum(),
            peak_bytes: self.peak_bytes,
        }
    }

    /// Per-group counters, node order.
    #[must_use]
    pub fn group_stats(&self) -> Vec<GroupStats> {
        self.groups
            .iter()
            .enumerate()
            .map(|(node, g)| GroupStats {
                node,
                takes: g.takes,
                misses: g.misses,
                retained_bytes: g.retained_bytes,
            })
            .collect()
    }

    /// Compact per-node checkout summary (`n0:t=6,m=2|n1:t=4,m=1`) for
    /// groups that saw traffic — `None` when at most one group did (the
    /// merged [`ArenaStats`] already tells the whole story then).
    #[must_use]
    pub fn group_summary(&self) -> Option<String> {
        let active: Vec<String> = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.takes > 0)
            .map(|(node, g)| format!("n{node}:t={},m={}", g.takes, g.misses))
            .collect();
        (active.len() > 1).then(|| active.join("|"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_keeps_capacity() {
        let mut a = SolverArena::new();
        let mut b = a.take_edges();
        assert!(b.is_empty());
        b.extend((0..100u32).map(|i| Edge::new(i, i + 1)));
        let cap = b.capacity();
        a.give_edges(b);
        let b2 = a.take_edges();
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap, "capacity must survive the round trip");
    }

    #[test]
    fn stats_track_misses_and_peak() {
        let mut a = SolverArena::new();
        let b1 = a.take_words(); // miss
        let mut b2 = a.take_words(); // miss
        b2.resize(1024, 0);
        a.give_words(b2);
        a.give_words(b1);
        let _b3 = a.take_words(); // hit (LIFO pops the empty b1... either way a hit)
        let s = a.stats();
        assert_eq!(s.takes, 3);
        assert_eq!(s.misses, 2);
        assert!(s.peak_bytes >= 1024 * 8, "peak {} too small", s.peak_bytes);
    }

    #[test]
    fn typed_pools_are_independent() {
        let mut a = SolverArena::new();
        a.give_verts(vec![1, 2, 3]);
        assert!(a.take_edges().is_empty());
        let v = a.take_verts();
        assert!(v.is_empty(), "give clears the buffer");
        assert!(v.capacity() >= 3);
    }

    /// Run `f` with the calling thread temporarily homed at `node`.
    fn on_node<T>(node: usize, f: impl FnOnce() -> T) -> T {
        let prev = rayon::topology::current_node();
        rayon::topology::set_current_node(node);
        let out = f();
        rayon::topology::set_current_node(prev);
        out
    }

    #[test]
    fn groups_are_independent_pools_with_split_counters() {
        let mut a = SolverArena::with_groups(2);
        assert_eq!(a.group_count(), 2);
        // Warm group 1 only.
        on_node(1, || {
            let mut b = a.take_words(); // miss on group 1
            b.resize(512, 0);
            a.give_words(b);
        });
        // Group 0 cannot see group 1's buffer: it must miss.
        let b0 = a.take_words();
        assert_eq!(b0.capacity(), 0, "group 0 must not steal group 1's buffer");
        // Group 1 hits its own warm buffer.
        on_node(1, || {
            let b1 = a.take_words();
            assert!(b1.capacity() >= 512, "group 1 must reuse its own buffer");
            a.give_words(b1);
        });
        let gs = a.group_stats();
        assert_eq!((gs[0].takes, gs[0].misses), (1, 1));
        assert_eq!((gs[1].takes, gs[1].misses), (2, 1));
        let merged = a.stats();
        assert_eq!(merged.takes, 3);
        assert_eq!(merged.misses, 2);
        assert!(a.group_summary().unwrap().starts_with("n0:t=1,m=1|n1:"));
    }

    #[test]
    fn peak_is_the_total_high_water_not_a_sum_of_group_peaks() {
        let mut a = SolverArena::with_groups(2);
        // Group 0 retains 1024 words, then drains.
        let mut b = a.take_words();
        b.resize(1024, 0);
        a.give_words(b);
        let held = a.take_words(); // total retained back to ~0
                                   // Group 1 retains 512 words.
        on_node(1, || {
            let mut b = a.take_words();
            b.resize(512, 0);
            a.give_words(b);
        });
        let s = a.stats();
        // True high-water: 1024 words (group 0's moment), NOT 1024+512.
        assert!(s.peak_bytes >= 1024 * 8);
        assert!(
            s.peak_bytes < (1024 + 512) * 8,
            "peak {} merged as a sum of group peaks",
            s.peak_bytes
        );
        drop(held);
    }

    #[test]
    fn out_of_range_node_clamps_to_last_group() {
        let mut a = SolverArena::with_groups(1);
        on_node(7, || {
            let b = a.take_verts();
            a.give_verts(b);
        });
        assert_eq!(a.stats().takes, 1);
        assert!(a.group_summary().is_none(), "one active group: no summary");
    }
}
