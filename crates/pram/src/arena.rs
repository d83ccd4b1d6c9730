//! A reusable edge-buffer pool for the solver hot paths.
//!
//! Every phase of the paper's pipeline used to allocate fresh edge `Vec`s
//! for its canonicalized and simplified edge sets, then drop them at the
//! end of the call. At millions of edges per phase that is pure allocator
//! traffic on the memory-bandwidth-bound contraction loop. A
//! [`SolverArena`] keeps those buffers alive between calls: the
//! `simplify_edges_with`/`simplify_edges_into` primitives check a buffer
//! out, fill it, and check it back in, so a warm arena makes repeat passes
//! allocation-free. `retain` and `alter_edges` need no arena: they compact
//! in place.
//!
//! The arena is deliberately **not** thread-safe: it is owned by one
//! pipeline (a solver run) and handed down `&mut`. Scratch needed *inside*
//! parallel loops (per-vertex table drains) uses thread-local buffers
//! instead — see `parcc-ltz`.
//!
//! High-water telemetry ([`ArenaStats`]) feeds the `peak_bytes` reporting
//! in `SolveReport`.

use crate::edge::Edge;

/// Point-in-time usage counters for a [`SolverArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffer checkouts served (hits + misses).
    pub takes: u64,
    /// Checkouts that found the pool empty and allocated a fresh buffer.
    pub misses: u64,
    /// High-water mark of bytes retained across all pooled buffers.
    pub peak_bytes: u64,
}

/// A pool of reusable edge buffers for the solver pipelines.
///
/// [`take_edges`](Self::take_edges) pops a cleared buffer (or hands out an
/// empty one on a miss); [`give_edges`](Self::give_edges) returns it for
/// reuse. Buffers keep their capacity across the round trip, so steady
/// state performs zero heap allocations.
#[derive(Debug, Default)]
pub struct SolverArena {
    edges: Vec<Vec<Edge>>,
    takes: u64,
    misses: u64,
    retained_bytes: u64,
    peak_bytes: u64,
}

impl SolverArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a cleared edge buffer (pool hit keeps its capacity).
    #[must_use]
    pub fn take_edges(&mut self) -> Vec<Edge> {
        self.takes += 1;
        match self.edges.pop() {
            Some(buf) => {
                self.retained_bytes -= Self::bytes(&buf);
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return an edge buffer to the pool for reuse.
    pub fn give_edges(&mut self, mut buf: Vec<Edge>) {
        buf.clear();
        self.retained_bytes += Self::bytes(&buf);
        self.peak_bytes = self.peak_bytes.max(self.retained_bytes);
        self.edges.push(buf);
    }

    fn bytes(buf: &Vec<Edge>) -> u64 {
        (buf.capacity() * std::mem::size_of::<Edge>()) as u64
    }

    /// Usage counters (checkouts, pool misses, retained-byte high water).
    #[must_use]
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            takes: self.takes,
            misses: self.misses,
            peak_bytes: self.peak_bytes,
        }
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
        let b1 = a.take_edges(); // miss
        let mut b2 = a.take_edges(); // miss
        b2.resize(1024, Edge::new(0, 0));
        a.give_edges(b2);
        a.give_edges(b1);
        let _b3 = a.take_edges(); // hit
        let s = a.stats();
        assert_eq!(s.takes, 3);
        assert_eq!(s.misses, 2);
        assert!(s.peak_bytes >= 1024 * 8, "peak {} too small", s.peak_bytes);
    }
}
