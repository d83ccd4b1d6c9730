#![warn(missing_docs)]

//! # parcc-baselines
//!
//! The classical connectivity algorithms the paper positions itself against
//! (§1, §2.3), used as comparison points in experiment E12 and as extra
//! correctness oracles:
//!
//! | algorithm | time | work | notes |
//! |---|---|---|---|
//! | [`union_find`](fn@union_find) | sequential | `O(m α(n))` | the optimal sequential baseline `[Tar72]` |
//! | [`shiloach_vishkin`](fn@shiloach_vishkin) | `O(log n)` | `O(m log n)` | the classic CRCW algorithm `[SV82]` |
//! | [`label_propagation`](fn@label_propagation) | `O(d)` | `O(m·d)` | HashMin / naive frontier-free propagation |
//! | [`random_mate`](fn@random_mate) | `O(log n)` w.h.p. | `O((m+n) log n)` | Reif's coin-flip contraction `[Rei84]` |
//! | [`liu_tarjan`](fn@liu_tarjan) | `O(log² n)` | `O(m log n)` | the simple concurrent framework `[LT19]` shipped by practical libraries (P+SS) |
//!
//! All parallel baselines run on the same [`parcc_pram`] substrate (labeled
//! digraph + cost tracker) as the paper's algorithm, so measured depth/work
//! are directly comparable.

pub mod label_prop;
pub mod liu_tarjan;
pub mod random_mate;
pub mod shiloach_vishkin;
pub mod solver;
pub mod union_find;

pub use label_prop::{label_propagation, HashMinSweep};
pub use liu_tarjan::liu_tarjan;
pub use random_mate::random_mate;
pub use shiloach_vishkin::shiloach_vishkin;
pub use solver::{
    LabelPropSolver, LiuTarjanSolver, RandomMateSolver, ShiloachVishkinSolver, UnionFindSolver,
};
pub use union_find::{spanning_forest, union_find, DisjointSets, IncrementalUnionFind};

/// Telemetry common to the parallel baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineStats {
    /// Synchronous rounds executed.
    pub rounds: u64,
}
