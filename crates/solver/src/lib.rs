#![warn(missing_docs)]

//! # parcc-solver
//!
//! The solver registry: every connected-components algorithm in the
//! workspace, enumerable and invokable by name through the
//! [`ComponentSolver`] trait (defined in [`parcc_graph::solver`], adapted
//! in each algorithm crate's `solver` module).
//!
//! Registered solvers:
//!
//! | name | algorithm | work | time |
//! |---|---|---|---|
//! | `paper` | Farhadi–Liu–Shi Theorem 1 | `O(m+n)` | `O(log(1/λ) + loglog n)` |
//! | `known-gap` | FLS Theorem 3, fixed `b ≈ log n` | `O(m+n)` | `O(loglog n)` when `λ ≥ 1/log n` |
//! | `ltz` | Liu–Tarjan–Zhong (Theorem 2) | `O(m·rounds)` | `O(log d + loglog n)` |
//! | `union-find` | sequential DSU `[Tar72]` | `O(m α(n))` | sequential |
//! | `shiloach-vishkin` | `[SV82]` | `O(m log n)` | `O(log n)` |
//! | `label-prop` | HashMin propagation | `O(m·d)` | `O(d)` |
//! | `random-mate` | Reif `[Rei84]` | `O((m+n) log n)` | `O(log n)` w.h.p. |
//! | `liu-tarjan-pss` | `[LT19]` parent-connect, two shortcuts | `O(m log n)` | `O(log² n)` |
//! | `hybrid` | concurrent min-root union-find ([`hybrid::HybridSolver`]) | `O(m log n)` | two parallel passes |
//!
//! Besides the registry this crate carries the cross-solver drivers:
//! the [`compare`] module (run every solver on one graph — flat or any
//! [`GraphStore`] backend — each labeling checked against the union-find
//! oracle; the engine behind `parcc compare` and CI's compare-smoke job,
//! with the `compare --json` writer and the `--baseline` reader) and
//! [`verify_partition`] (the same check for a single labeling, used by
//! the conformance suite).
//!
//! The [`serve`] module hosts the long-lived serving layer behind
//! `parcc serve`: background batch absorption into
//! [`IncrementalUnionFind`] publishing epoch-pinned [`LabelSnapshot`]
//! views, and the line-protocol [`serve::Session`] that drives it. The [`ooc`] module is the out-of-core driver: it streams a
//! memory-mapped binary store ([`MappedGraph`]) shard-at-a-time through
//! a union–find forest, keeping residency near one shard.

use parcc_baselines::{
    LabelPropSolver, LiuTarjanSolver, RandomMateSolver, ShiloachVishkinSolver, UnionFindSolver,
};
use parcc_core::{KnownGapSolver, PaperSolver};
use parcc_graph::traverse::same_partition;
use parcc_graph::Graph;
use parcc_ltz::LtzSolver;
use parcc_pram::edge::Vertex;

pub mod compare;
pub mod hybrid;
pub mod ooc;
pub mod serve;

pub use compare::{compare, compare_store, CompareRow};
pub use hybrid::HybridSolver;
pub use ooc::{solve_out_of_core, OocReport};
pub use parcc_baselines::IncrementalUnionFind;
pub use parcc_graph::mmap::MappedGraph;
pub use parcc_graph::snapshot::LabelSnapshot;
pub use parcc_graph::solver::{ComponentSolver, PhaseStat, SolveCtx, SolveReport, SolverCaps};
pub use parcc_graph::store::{GraphStore, ShardedGraph};
pub use serve::{PublishStats, ServeEngine, ServeState};

/// Every registered solver, in presentation order (the paper's pipelines
/// first, then the substrate, then the classical baselines, then the
/// concurrent union-find).
static REGISTRY: [&dyn ComponentSolver; 9] = [
    &PaperSolver,
    &KnownGapSolver,
    &LtzSolver,
    &UnionFindSolver,
    &ShiloachVishkinSolver,
    &LabelPropSolver,
    &RandomMateSolver,
    &LiuTarjanSolver,
    &HybridSolver,
];

/// All registered solvers.
#[must_use]
pub fn registry() -> &'static [&'static dyn ComponentSolver] {
    &REGISTRY
}

/// Registered solver names, registry order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|s| s.name()).collect()
}

/// Look a solver up by name (case-insensitive).
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn ComponentSolver> {
    REGISTRY
        .iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .copied()
}

/// The registry's default solver: the paper's algorithm.
#[must_use]
pub fn default_solver() -> &'static dyn ComponentSolver {
    REGISTRY[0]
}

/// Begin incremental state over `n` initial singleton vertices for the
/// named solver (case-insensitive): `Some` for `union-find`, the one
/// solver whose forest absorbs batches without re-solving, and `None` for
/// every other name.
#[must_use]
pub fn begin_incremental(name: &str, n: usize) -> Option<IncrementalUnionFind> {
    name.eq_ignore_ascii_case("union-find")
        .then(|| IncrementalUnionFind::new(n))
}

/// Ground-truth labels via the sequential union-find oracle.
#[must_use]
pub fn oracle_labels(g: &Graph) -> Vec<Vertex> {
    parcc_baselines::union_find(g)
}

/// The verification every driver applies: one label per vertex, and the
/// induced partition identical to the precomputed oracle's.
fn partition_ok(n: usize, oracle: &[Vertex], labels: &[Vertex]) -> bool {
    labels.len() == n && same_partition(labels, oracle)
}

/// Check that `labels` induces exactly the oracle's component partition.
///
/// # Errors
/// Describes the mismatch (length or partition) when verification fails.
pub fn verify_partition(g: &Graph, labels: &[Vertex]) -> Result<(), String> {
    if labels.len() != g.n() {
        return Err(format!(
            "label vector has {} entries for {} vertices",
            labels.len(),
            g.n()
        ));
    }
    if partition_ok(g.n(), &oracle_labels(g), labels) {
        Ok(())
    } else {
        Err("partition disagrees with the union-find oracle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;

    #[test]
    fn registry_names_are_unique_and_sufficient() {
        let ns = names();
        assert!(ns.len() >= 7, "at least the seven headline solvers");
        let mut dedup = ns.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ns.len(), "names must be unique");
        for n in &ns {
            assert_eq!(find(n).unwrap().name(), *n);
            assert!(
                find(&n.to_uppercase()).is_some(),
                "lookup is case-insensitive"
            );
        }
        assert!(find("no-such-solver").is_none());
        assert_eq!(default_solver().name(), "paper");
    }

    #[test]
    fn begin_incremental_is_union_find_only() {
        use parcc_pram::edge::Edge;
        let mut inc = begin_incremental("UNION-FIND", 3).expect("union-find");
        inc.absorb_batch(&[Edge::new(0, 2)]);
        let labels = inc.labels();
        assert_eq!(labels[0], labels[2], "batch not absorbed");
        assert_ne!(labels[0], labels[1], "spurious merge");
        for name in names().into_iter().filter(|&n| n != "union-find") {
            assert!(begin_incremental(name, 3).is_none(), "{name}");
        }
        assert!(begin_incremental("no-such", 1).is_none());
    }

    #[test]
    fn verify_partition_rejects_garbage() {
        let g = gen::cycle(8);
        assert!(verify_partition(&g, &oracle_labels(&g)).is_ok());
        assert!(verify_partition(&g, &[0, 0, 0]).is_err());
        let split: Vec<u32> = (0..8).collect();
        assert!(verify_partition(&g, &split).is_err());
    }
}
