#![warn(missing_docs)]

//! # parcc-graph
//!
//! Graph representations, generators, and traversal utilities for the `parcc`
//! workspace.
//!
//! * [`repr`] — the input [`repr::Graph`] (an undirected multigraph given as a
//!   packed edge list, loops and parallel edges allowed, exactly as the paper
//!   assumes) and its [`repr::Csr`] adjacency form.
//! * [`generators`] — the workload families used throughout the experiment
//!   suite: spectral-gap sweeps (expanders, hypercubes, grids, cycles,
//!   barbells), diameter sweeps (paths of cliques), power-law graphs, unions,
//!   and the Appendix-B construction showing that naive edge sampling destroys
//!   the diameter.
//! * [`traverse`] — BFS, reference connected components, and diameter
//!   (exact and two-sweep estimate).
//! * [`io`] — SNAP-style edge-list reading/writing, flat and sharded, with
//!   chunked streaming loads.
//! * [`store`] — the [`store::GraphStore`] storage seam and its sharded
//!   backend [`store::ShardedGraph`].
//! * [`mmap`] — the PGB binary on-disk format and the zero-copy
//!   memory-mapped backend [`mmap::MappedGraph`], including the
//!   paging-advice hooks behind the out-of-core driver.
//! * [`solver`] — the [`solver::ComponentSolver`] contract every
//!   connectivity algorithm in the workspace implements (the registry
//!   itself lives in `parcc-solver`), including the shard-aware
//!   `solve_store` entry point.
//! * [`snapshot`] — epoch-pinned immutable [`snapshot::LabelSnapshot`]
//!   views, the read side of the serve mode.
//! * [`wal`] — the write-ahead log behind `parcc serve --wal`: CRC-framed
//!   batch records, torn-tail truncation on replay, compaction on save.
//! * [`crc`] — the CRC-32 implementation guarding the WAL and the PGB v2
//!   header and shard checksums.

pub mod crc;
pub mod generators;
pub mod io;
pub mod mmap;
pub mod repr;
pub mod snapshot;
pub mod solver;
pub mod store;
pub mod traverse;
pub mod wal;

pub use mmap::MappedGraph;
pub use repr::{Csr, Graph};
pub use snapshot::LabelSnapshot;
pub use solver::{ComponentSolver, SolveCtx, SolveReport, SolverCaps};
pub use store::{GraphStore, ShardedGraph};
