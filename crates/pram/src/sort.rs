//! The machine sort behind the padded-sort primitive.
//!
//! Edges are packed as `u << 32 | v` words so that they sort as integers
//! (see [`crate::edge`]). [`sort_u64`] sorts those words with the rayon
//! shim's parallel comparison merge sort. With one effective thread that is
//! a single in-place `sort_unstable`, so a warm pipeline pass allocates
//! nothing; with more threads the merge takes one scratch buffer of the
//! input's length.
//!
//! The callers' *depth charge* does not depend on this sort: `padded_sort`
//! charges the paper's `O(log log m)` padded-sort rate (Lemma 7.9
//! `[HR92]`); see `primitives.rs`.

use rayon::prelude::*;

/// Sort raw `u64` keys ascending.
pub fn sort_u64(keys: &mut [u64]) {
    keys.par_sort_unstable();
}
