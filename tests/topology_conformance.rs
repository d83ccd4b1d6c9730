//! Synthetic-topology conformance: under a forced `PARCC_TOPOLOGY=2x2`
//! layout (two node groups, NUMA-local stealing, sticky shard bands)
//! every registered solver must still produce the oracle partition — on
//! flat, sharded, and memory-mapped backends, at 1
//! and 4 effective threads — and the 1-thread schedule must stay
//! bit-for-bit deterministic. Topology changes WHERE work runs, never
//! WHAT it computes.
//!
//! The topology is detected once per process, so every test routes
//! through [`force_synthetic_topology`] before any pool or topology
//! access; the whole binary runs under the synthetic 2×2 layout.

use parcc::graph::generators as gen;
use parcc::graph::io::save_binary;
use parcc::graph::traverse::same_partition;
use parcc::graph::{Graph, GraphStore, MappedGraph, ShardedGraph};
use parcc::solver::{self, SolveCtx};
use std::sync::Once;

static TOPO: Once = Once::new();

/// Install the synthetic 2-node × 2-core topology before the read-once
/// detection fires, and verify it took.
fn force_synthetic_topology() {
    TOPO.call_once(|| {
        std::env::set_var("PARCC_TOPOLOGY", "2x2");
        let topo = rayon::topology::current();
        assert!(
            topo.is_synthetic(),
            "PARCC_TOPOLOGY must win detection (got {})",
            topo.summary()
        );
        assert_eq!(topo.num_nodes(), 2);
        assert_eq!(topo.total_cores(), 4);
        assert_eq!(rayon::num_node_groups(), 2);
    });
}

/// Run `f` with the effective thread count pinned to `k`.
fn with_threads<T>(k: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(k)
        .build()
        .expect("pool")
        .install(f)
}

/// A self-deleting temp path for the mapped-backend leg.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!("parcc-topology-{}-{tag}.pgb", std::process::id())))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The degenerate-through-structured zoo (same shapes as the shard
/// conformance suite).
fn zoo(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", Graph::new(0, vec![])),
        ("single-vertex", Graph::new(1, vec![])),
        ("isolated-vertices", Graph::new(12, vec![])),
        (
            "self-loops",
            Graph::from_pairs(5, &[(0, 0), (1, 1), (2, 3), (3, 3)]),
        ),
        (
            "multi-edges",
            Graph::from_pairs(6, &[(0, 1), (0, 1), (1, 0), (2, 3), (2, 3), (4, 4)]),
        ),
        ("path", gen::path(700)),
        ("cycle", gen::cycle(512)),
        ("mesh2d", gen::grid2d(26, 26, false)),
        ("expander", gen::random_regular(600, 8, seed)),
        ("gnp", gen::gnp(800, 0.004, seed)),
        ("powerlaw", gen::chung_lu(900, 2.5, 6.0, seed)),
        ("union", gen::expander_union(3, 150, 4, seed)),
        ("mixture", gen::mixture(seed)),
    ]
}

/// The acceptance bar: every registered solver, every zoo graph, on all
/// three storage backends, at 1 and 4 threads under the synthetic 2×2
/// topology — partition-equivalent to the flat union-find oracle.
#[test]
fn all_solvers_conform_on_all_backends_under_synthetic_topology() {
    force_synthetic_topology();
    for (name, g) in zoo(23) {
        let oracle = solver::oracle_labels(&g);
        let sharded = ShardedGraph::from_graph(&g, 3);
        let (_tmp, mapped) = {
            let tmp = TempPath::new(name);
            save_binary(&sharded, &tmp.0).unwrap_or_else(|e| panic!("{name}: write: {e}"));
            let mg = MappedGraph::open(&tmp.0).unwrap_or_else(|e| panic!("{name}: open: {e}"));
            (tmp, mg)
        };
        for s in solver::registry() {
            for threads in [1usize, 4] {
                let backends: [(&str, &dyn GraphStore); 2] =
                    [("sharded", &sharded), ("mapped", &mapped)];
                let flat = with_threads(threads, || s.solve(&g, &SolveCtx::with_seed(23)));
                assert!(
                    same_partition(&flat.labels, &oracle),
                    "{name}/{}/flat @{threads}t: wrong partition",
                    s.name()
                );
                for (kind, store) in backends {
                    let r =
                        with_threads(threads, || s.solve_store(store, &SolveCtx::with_seed(23)));
                    assert!(
                        same_partition(&r.labels, &oracle),
                        "{name}/{}/{kind} @{threads}t: wrong partition",
                        s.name()
                    );
                }
            }
        }
    }
}

/// With one effective thread the sticky/banded scheduling must collapse to
/// the plain sequential schedule: repeated runs are bit-for-bit identical,
/// even under the synthetic multi-node topology.
#[test]
fn one_thread_runs_are_bit_identical_under_synthetic_topology() {
    force_synthetic_topology();
    for (name, g) in [
        ("mixture", gen::mixture(7)),
        ("mesh2d", gen::grid2d(20, 20, false)),
        ("powerlaw", gen::chung_lu(800, 2.5, 6.0, 7)),
    ] {
        let sharded = ShardedGraph::from_graph(&g, 4);
        for s in solver::registry() {
            let a = with_threads(1, || s.solve_store(&sharded, &SolveCtx::with_seed(7)));
            let b = with_threads(1, || s.solve_store(&sharded, &SolveCtx::with_seed(7)));
            assert_eq!(
                a.labels,
                b.labels,
                "{name}/{}: 1-thread labels must be bit-identical",
                s.name()
            );
        }
    }
}
