//! Shard-equivalence conformance: every registered solver must produce
//! the *same component partition* on a [`ShardedGraph`] as on the flat
//! [`Graph`] oracle, across the zoo, at 1 and 4 effective threads — shard
//! boundaries are storage, not semantics. Plus the on-disk shard format
//! round trip and the sharded generator emit paths.

use parcc::graph::generators as gen;
use parcc::graph::io::{
    read_edge_list, read_edge_list_sharded, save_binary, write_edge_list_sharded,
    DEFAULT_LOAD_CHUNK,
};
use parcc::graph::store::{concat_edges, GraphStore};
use parcc::graph::{Graph, MappedGraph, ShardedGraph};
use parcc::solver::{self, SolveCtx};

/// A self-deleting temp path for binary round trips.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        Self(std::env::temp_dir().join(format!(
            "parcc-conformance-{}-{tag}.pgb",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Write `sg` as a PGB binary and map it back.
fn mapped(sg: &ShardedGraph, tag: &str) -> (TempPath, MappedGraph) {
    let tmp = TempPath::new(tag);
    save_binary(sg, &tmp.0).unwrap_or_else(|e| panic!("{tag}: write: {e}"));
    let mg = MappedGraph::open(&tmp.0).unwrap_or_else(|e| panic!("{tag}: open: {e}"));
    (tmp, mg)
}

/// Run `f` with the effective thread count pinned to `k`.
fn with_threads<T>(k: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(k)
        .build()
        .expect("pool")
        .install(f)
}

/// The same degenerate-through-structured zoo as the registry conformance
/// suite.
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

/// The acceptance bar: every registered solver, every zoo graph, sharded
/// at several widths, at 1 and 4 threads — partition equal to the flat
/// union-find oracle.
#[test]
fn every_solver_matches_the_flat_oracle_on_sharded_inputs() {
    for threads in [1usize, 4] {
        with_threads(threads, || {
            for (name, g) in zoo(0x5AAD) {
                let oracle = solver::oracle_labels(&g);
                for k in [1usize, 4] {
                    let sg = ShardedGraph::from_graph(&g, k);
                    for s in solver::registry() {
                        let r = s.solve_store(&sg, &SolveCtx::with_seed(17));
                        assert_eq!(
                            r.labels.len(),
                            g.n(),
                            "{}/{name}@{threads}t k={k}: label count",
                            s.name()
                        );
                        assert!(
                            parcc::graph::traverse::same_partition(&r.labels, &oracle),
                            "{}/{name}@{threads}t k={k}: partition differs from flat oracle",
                            s.name()
                        );
                    }
                }
            }
        });
    }
}

/// Deterministic solvers must produce *identical labels* (not just the
/// same partition) whether the edges arrive flat or sharded.
#[test]
fn deterministic_solvers_ignore_shard_boundaries_exactly() {
    let g = gen::mixture(3);
    let sg = ShardedGraph::from_graph(&g, 5);
    for s in solver::registry().iter().filter(|s| s.caps().deterministic) {
        let flat = s.solve(&g, &SolveCtx::with_seed(1));
        let sharded = s.solve_store(&sg, &SolveCtx::with_seed(1));
        assert_eq!(
            flat.labels,
            sharded.labels,
            "{}: labels must not depend on shard layout",
            s.name()
        );
    }
}

/// The store seam invariants the solvers rely on: concatenated shards are
/// the edge list, degrees and CSR match the flat backend.
#[test]
fn store_views_agree_with_flat_backend() {
    for (name, g) in zoo(0xBEE) {
        for k in [1usize, 3, 8] {
            let sg = ShardedGraph::from_graph(&g, k);
            assert_eq!(concat_edges(&sg), g.edges(), "{name} k={k}: edge order");
            assert_eq!(
                GraphStore::degrees(&sg),
                g.degrees(),
                "{name} k={k}: degrees"
            );
            assert_eq!(sg.flat_clone(), g, "{name} k={k}: flatten");
        }
    }
}

/// Shard structure survives the on-disk round trip, and the same bytes
/// load as the flat graph through the plain reader.
#[test]
fn on_disk_shard_roundtrip_across_the_zoo() {
    for (name, g) in zoo(0xD15C) {
        let sg = ShardedGraph::from_graph(&g, 4);
        let mut buf = Vec::new();
        write_edge_list_sharded(&sg, &mut buf).unwrap();
        let back = read_edge_list_sharded(std::io::Cursor::new(&buf[..]), DEFAULT_LOAD_CHUNK)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, sg, "{name}: shard boundaries must round-trip");
        assert_eq!(
            read_edge_list(std::io::Cursor::new(buf)).unwrap(),
            g,
            "{name}: sharded bytes must stay flat-readable"
        );
    }
}

/// The generators' native sharded emit equals the flat build, and solving
/// the emitted store matches the oracle without ever flattening.
#[test]
fn sharded_emit_solves_equal_to_flat() {
    let flat = gen::gnp(1200, 0.005, 21);
    let sg = gen::gnp_sharded(1200, 0.005, 21, 4);
    assert_eq!(sg.flat_clone(), flat);
    let oracle = solver::oracle_labels(&flat);
    let r = solver::default_solver().solve_store(&sg, &SolveCtx::with_seed(2));
    assert!(parcc::graph::traverse::same_partition(&r.labels, &oracle));
    let r = solver::find("ltz")
        .unwrap()
        .solve_store(&sg, &SolveCtx::with_seed(2));
    assert!(parcc::graph::traverse::same_partition(&r.labels, &oracle));
}

/// The mesh generator's native sharded emit is edge-for-edge the flat
/// build (same per-cell right/down order), and the hybrid solver links the
/// emitted store straight off the shards into the oracle's partition.
#[test]
fn mesh2d_sharded_emit_solves_equal_to_flat() {
    let side = 30;
    let flat = gen::grid2d(side, side, false);
    for k in [1usize, 4, 7] {
        let sg = gen::grid2d_sharded(side, side, false, k);
        assert_eq!(sg.flat_clone(), flat, "k={k}: emit must match flat");
        assert_eq!(concat_edges(&sg), flat.edges(), "k={k}: edge order");
        let oracle = solver::oracle_labels(&flat);
        let r = solver::find("hybrid")
            .unwrap()
            .solve_store(&sg, &SolveCtx::with_seed(2));
        assert!(
            parcc::graph::traverse::same_partition(&r.labels, &oracle),
            "k={k}: hybrid partition differs from oracle"
        );
    }
}

/// The mapped-backend acceptance bar: flat ≡ sharded ≡ mapped. Every
/// registered solver, every zoo graph, written as a PGB binary and
/// memory-mapped back, at 1 and 4 threads — partition equal to the flat
/// union-find oracle, and the store views (edges, degrees, flatten)
/// identical to the sharded store the file was written from.
#[test]
fn every_solver_matches_the_flat_oracle_on_mapped_inputs() {
    for threads in [1usize, 4] {
        with_threads(threads, || {
            for (name, g) in zoo(0x3A9) {
                let oracle = solver::oracle_labels(&g);
                for k in [1usize, 4] {
                    let sg = ShardedGraph::from_graph(&g, k);
                    let (_tmp, mg) = mapped(&sg, &format!("solve-{name}-{threads}t-{k}"));
                    assert_eq!(concat_edges(&mg), g.edges(), "{name} k={k}: edge order");
                    assert_eq!(
                        GraphStore::degrees(&mg),
                        g.degrees(),
                        "{name} k={k}: degrees"
                    );
                    mg.validate()
                        .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
                    for s in solver::registry() {
                        let r = s.solve_store(&mg, &SolveCtx::with_seed(17));
                        assert_eq!(
                            r.labels.len(),
                            g.n(),
                            "{}/{name}@{threads}t k={k}: label count",
                            s.name()
                        );
                        assert!(
                            parcc::graph::traverse::same_partition(&r.labels, &oracle),
                            "{}/{name}@{threads}t k={k}: mapped partition differs from oracle",
                            s.name()
                        );
                    }
                }
            }
        });
    }
}

/// Deterministic solvers must produce *identical labels* off the mapped
/// backend — the storage format is invisible to the algorithms.
#[test]
fn deterministic_solvers_ignore_the_storage_backend_exactly() {
    let g = gen::mixture(3);
    let sg = ShardedGraph::from_graph(&g, 5);
    let (_tmp, mg) = mapped(&sg, "deterministic");
    for s in solver::registry().iter().filter(|s| s.caps().deterministic) {
        let flat = s.solve(&g, &SolveCtx::with_seed(1));
        let via_map = s.solve_store(&mg, &SolveCtx::with_seed(1));
        assert_eq!(
            flat.labels,
            via_map.labels,
            "{}: labels must not depend on the storage backend",
            s.name()
        );
    }
}

/// Malformed binaries must be *rejected at open or validate*, never
/// panicked on or silently mis-read: each corruption of a valid file maps
/// to a precise structural error.
#[test]
fn malformed_binaries_are_rejected_with_precise_errors() {
    let sg = ShardedGraph::from_graph(&gen::cycle(64), 2);
    let tmp = TempPath::new("malformed");
    save_binary(&sg, &tmp.0).unwrap();
    let valid = std::fs::read(&tmp.0).unwrap();

    let open_corrupted = |mutate: &dyn Fn(&mut Vec<u8>)| -> String {
        let mut bytes = valid.clone();
        mutate(&mut bytes);
        std::fs::write(&tmp.0, &bytes).unwrap();
        match MappedGraph::open(&tmp.0) {
            Err(e) => e,
            Ok(mg) => mg.validate().expect_err("corrupted file must not verify"),
        }
    };

    // Structural corruptions are checked *under* the v2 checksums, so the
    // table-poking cases re-seal the header CRC (and, for the endpoint
    // case, the shard CRC) to isolate the structural layer; the checksum
    // cases leave the seals broken on purpose.
    let reseal_header = |b: &mut Vec<u8>| {
        let k = u64::from_le_bytes(b[32..40].try_into().unwrap()) as usize;
        let mut fed = b[..40].to_vec();
        fed.extend_from_slice(&b[48..48 + 24 * k]);
        let crc = parcc::graph::crc::crc32(&fed);
        b[40..44].copy_from_slice(&crc.to_le_bytes());
    };
    let reseal_shard0 = |b: &mut Vec<u8>| {
        let off = u64::from_le_bytes(b[48..56].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(b[56..64].try_into().unwrap()) as usize;
        let crc = parcc::graph::crc::crc32(&b[off..off + 8 * len]);
        b[64..68].copy_from_slice(&crc.to_le_bytes());
    };
    type Corruption<'a> = (&'a str, &'a dyn Fn(&mut Vec<u8>), &'a str);
    let cases: [Corruption; 7] = [
        (
            "bad magic",
            &|b| b[..8].copy_from_slice(b"NOTPARCC"),
            "magic",
        ),
        ("truncated header", &|b| b.truncate(24), "truncated"),
        (
            "misaligned shard offset",
            // First shard-table entry lives at byte 48; +8 breaks 4096-alignment.
            &|b| {
                let off = u64::from_le_bytes(b[48..56].try_into().unwrap()) + 8;
                b[48..56].copy_from_slice(&off.to_le_bytes());
                reseal_header(b);
            },
            "misaligned",
        ),
        (
            "edge count overflow",
            &|b| {
                b[56..64].copy_from_slice(&u64::MAX.to_le_bytes());
                reseal_header(b);
            },
            "overflows",
        ),
        (
            "out-of-range endpoint",
            &|b| {
                let off = u64::from_le_bytes(b[48..56].try_into().unwrap()) as usize;
                b[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                reseal_shard0(b);
                reseal_header(b);
            },
            "out of range",
        ),
        (
            "flipped header byte",
            &|b| b[17] ^= 0x01, // vertex count field, seal left broken
            "header checksum mismatch",
        ),
        (
            "flipped shard data byte",
            &|b| {
                let off = u64::from_le_bytes(b[48..56].try_into().unwrap()) as usize;
                b[off] ^= 0x01; // low endpoint bit: in range, but checksummed
            },
            "data checksum mismatch",
        ),
    ];
    for (what, mutate, needle) in cases {
        let err = open_corrupted(mutate);
        assert!(err.contains(needle), "{what}: error was '{err}'");
    }

    // The untouched file still opens and validates — the harness itself
    // is not what rejected the corruptions above.
    std::fs::write(&tmp.0, &valid).unwrap();
    MappedGraph::open(&tmp.0).unwrap().validate().unwrap();
}

/// `compare_store` off the mapped backend — the engine behind
/// `parcc compare graph.pgb` — verifies the whole registry at both
/// thread counts (the acceptance gate's all_verified claim).
#[test]
fn compare_store_verifies_registry_on_mapped_mixture() {
    let sg = ShardedGraph::from_graph(&gen::mixture(9), 4);
    let (_tmp, mg) = mapped(&sg, "compare");
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let rows = solver::compare_store(&mg, 31);
            assert_eq!(rows.len(), solver::registry().len());
            for row in &rows {
                assert!(
                    row.verified,
                    "{}@{threads}t failed on mapped input",
                    row.name
                );
            }
        });
    }
}

/// `compare_store` — the engine behind `parcc compare` on sharded input —
/// verifies the whole registry at both thread counts.
#[test]
fn compare_store_verifies_registry_on_sharded_mixture() {
    for threads in [1usize, 4] {
        with_threads(threads, || {
            let g = gen::mixture(9);
            let sg = ShardedGraph::from_graph(&g, 4);
            let rows = solver::compare_store(&sg, 31);
            assert_eq!(rows.len(), solver::registry().len());
            for row in &rows {
                assert!(
                    row.verified,
                    "{}@{threads}t failed on sharded input",
                    row.name
                );
            }
        });
    }
}
