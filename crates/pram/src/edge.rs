//! Compact edge representation.
//!
//! Edges are the unit of work in every stage of the algorithm, so they are
//! packed into a single `u64` (`u << 32 | v`): sortable as raw integers (the
//! padded-sort and dedup primitives exploit this) and half the size of a
//! `(u32, u32)` pair would be after padding inside larger structs.

/// Vertex identifier. Graphs up to `2^32 - 1` vertices are supported; the
/// all-ones value is reserved as a sentinel inside CRCW cells.
pub type Vertex = u32;

/// A directed occurrence of an undirected edge, packed as `u << 32 | v`.
///
/// The input graph is undirected; orientation is chosen per subroutine (e.g.
/// MATCHING orients from the larger to the smaller endpoint). Self-loops and
/// parallel edges are allowed throughout, exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Edge(pub u64);

impl Edge {
    /// Pack the endpoints `(u, v)`.
    #[inline]
    #[must_use]
    pub fn new(u: Vertex, v: Vertex) -> Self {
        Edge((u as u64) << 32 | v as u64)
    }

    /// First endpoint.
    #[inline]
    #[must_use]
    pub fn u(self) -> Vertex {
        (self.0 >> 32) as Vertex
    }

    /// Second endpoint.
    #[inline]
    #[must_use]
    pub fn v(self) -> Vertex {
        self.0 as Vertex
    }

    /// Both endpoints.
    #[inline]
    #[must_use]
    pub fn ends(self) -> (Vertex, Vertex) {
        (self.u(), self.v())
    }

    /// Is this a self-loop `(v, v)`?
    #[inline]
    #[must_use]
    pub fn is_loop(self) -> bool {
        self.u() == self.v()
    }

    /// The reversed edge `(v, u)`.
    #[inline]
    #[must_use]
    pub fn rev(self) -> Self {
        Edge::new(self.v(), self.u())
    }

    /// Canonical form with `u ≤ v`; identifies parallel edges under dedup.
    #[inline]
    #[must_use]
    pub fn canonical(self) -> Self {
        if self.u() <= self.v() {
            self
        } else {
            self.rev()
        }
    }
}

/// View a packed edge slice as its raw `u64` words.
///
/// Sound because `Edge` is `#[repr(transparent)]` over `u64`; useful
/// because the derived `Ord` on `Edge` equals the numeric order of the
/// packed word, so sorting the words sorts the edges.
#[must_use]
pub fn edge_words(edges: &[Edge]) -> &[u64] {
    // SAFETY: Edge is repr(transparent) over u64 — identical layout.
    unsafe { std::slice::from_raw_parts(edges.as_ptr().cast(), edges.len()) }
}

/// Mutable [`edge_words`] view.
#[must_use]
pub fn edge_words_mut(edges: &mut [Edge]) -> &mut [u64] {
    // SAFETY: Edge is repr(transparent) over u64 — identical layout, and
    // every u64 is a valid Edge.
    unsafe { std::slice::from_raw_parts_mut(edges.as_mut_ptr().cast(), edges.len()) }
}

/// The inverse of [`edge_words`]: view a packed `u64` slice as edges.
///
/// Every `u64` bit pattern is a valid `Edge` (the packing is total), so
/// this is sound for arbitrary input words — the basis of the zero-copy
/// binary store, which maps on-disk native-endian words and hands them to
/// the solvers without a parse or copy.
#[must_use]
pub fn edges_from_words(words: &[u64]) -> &[Edge] {
    // SAFETY: Edge is repr(transparent) over u64 — identical size and
    // alignment — and every u64 value is a valid Edge.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len()) }
}

impl From<(Vertex, Vertex)> for Edge {
    fn from((u, v): (Vertex, Vertex)) -> Self {
        Edge::new(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let e = Edge::new(7, 42);
        assert_eq!(e.u(), 7);
        assert_eq!(e.v(), 42);
        assert_eq!(e.ends(), (7, 42));
    }

    #[test]
    fn pack_roundtrip_extremes() {
        let e = Edge::new(u32::MAX, 0);
        assert_eq!(e.u(), u32::MAX);
        assert_eq!(e.v(), 0);
        let e = Edge::new(0, u32::MAX);
        assert_eq!(e.u(), 0);
        assert_eq!(e.v(), u32::MAX);
    }

    #[test]
    fn loops_detected() {
        assert!(Edge::new(3, 3).is_loop());
        assert!(!Edge::new(3, 4).is_loop());
    }

    #[test]
    fn rev_swaps() {
        assert_eq!(Edge::new(1, 2).rev(), Edge::new(2, 1));
    }

    #[test]
    fn canonical_orders() {
        assert_eq!(Edge::new(5, 2).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(2, 5).canonical(), Edge::new(2, 5));
        assert_eq!(Edge::new(4, 4).canonical(), Edge::new(4, 4));
    }

    #[test]
    fn ordering_is_lexicographic_by_u_then_v() {
        assert!(Edge::new(1, 9) < Edge::new(2, 0));
        assert!(Edge::new(2, 1) < Edge::new(2, 3));
    }

    #[test]
    fn word_views_roundtrip() {
        let edges = [Edge::new(1, 2), Edge::new(u32::MAX, 0)];
        let words = edge_words(&edges);
        assert_eq!(words, &[edges[0].0, edges[1].0]);
        assert_eq!(edges_from_words(words), &edges);
        assert_eq!(edges_from_words(&[]), &[] as &[Edge]);
    }

    #[test]
    fn from_tuple() {
        let e: Edge = (3, 4).into();
        assert_eq!(e, Edge::new(3, 4));
    }
}
