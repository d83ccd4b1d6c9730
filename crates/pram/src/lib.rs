#![warn(missing_docs)]

//! # parcc-pram
//!
//! The ARBITRARY CRCW PRAM substrate underlying the `parcc` workspace.
//!
//! The paper ("Connected Components in Linear Work and Near-Optimal Time",
//! SPAA 2024) states all bounds in the ARBITRARY CRCW PRAM model: processors run
//! synchronously, any number may read or write the same shared-memory cell in one
//! step, and when several write the same cell an *arbitrary* one succeeds.
//!
//! This crate realizes that model as round-synchronous data-parallel execution on
//! a multicore machine:
//!
//! * [`cost::CostTracker`] charges **work** (total operations) and **depth**
//!   (simulated PRAM steps) at primitive granularity, mirroring the paper's
//!   accounting, so that "measured time" in experiments is comparable to the
//!   paper's time bounds.
//! * [`crcw`] provides the shared-memory cells whose concurrent-write semantics
//!   match ARBITRARY CRCW: racing relaxed atomic stores ([`crcw::TagCells`]) and
//!   load-first priority writes ([`crcw::offer_min`], [`crcw::offer_max`]).
//! * [`forest::ParentForest`] is the *labeled digraph* of the paper (§2.1): the
//!   global parent pointers `v.p` every subroutine manipulates.
//! * [`primitives`] implements the classical PRAM building blocks the paper
//!   invokes — approximate compaction (Lemma 4.2), padded sort (Lemma 7.9),
//!   perfect-hashing edge dedup — with the paper's depth charges.
//! * [`rng`] is a stateless, splittable SplitMix64 generator so that every
//!   per-processor coin flip is a pure function of `(seed, item)`, giving fully
//!   reproducible parallel runs.
//! * [`failpoint`] is the deterministic fault-injection registry the
//!   durability layer's crash tests arm (`PARCC_FAILPOINTS`), zero-cost
//!   when no rules are set.

pub mod alloc_track;
pub mod arena;
pub mod cost;
pub mod crcw;
pub mod edge;
pub mod failpoint;
pub mod forest;
pub mod ops;
pub mod primitives;
pub mod rng;
pub mod sort;

pub use arena::{ArenaStats, SolverArena};
pub use cost::CostTracker;
pub use edge::{Edge, Vertex};
pub use forest::ParentForest;

/// Run `f` with the rayon pool pinned to a single thread.
///
/// Under one thread every parallel pass folds inline on the caller, so every
/// "concurrent" CRCW write resolves in deterministic index order. This lets
/// tests pin down one specific ARBITRARY resolution and compare it against
/// the genuinely racing multi-threaded resolution (algorithm correctness
/// must not depend on the winner).
pub fn run_single_threaded<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("failed to build single-threaded pool")
        .install(f)
}
