//! Property tests for the radix sort backbone: the radix backend must be
//! indistinguishable from the comparison backend (`par_sort_unstable`) on
//! every input shape, at 1 and 4 threads — and the whole solver registry
//! must stay oracle-verified under either `PARCC_SORT` backend, flat and
//! sharded.

use parcc::graph::generators as gen;
use parcc::graph::ShardedGraph;
use parcc::pram::arena::SolverArena;
use parcc::pram::cost::CostTracker;
use parcc::pram::edge::Edge;
use parcc::pram::primitives::simplify_edges;
use parcc::pram::rng::Stream;
use parcc::pram::run_single_threaded;
use parcc::pram::sort::{self, radix_sort_u64, radix_sort_u64_tuned, SortBackend, SortTuning};
use proptest::prelude::*;
use rayon::prelude::*;

/// Run `f` under a pinned pool of `threads` workers.
fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    if threads == 1 {
        run_single_threaded(f)
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(f)
    }
}

fn assert_radix_matches_cmp(keys: &[u64]) {
    let mut expect = keys.to_vec();
    expect.par_sort_unstable();
    for threads in [1usize, 4] {
        let mut got = keys.to_vec();
        with_threads(threads, || {
            let mut arena = SolverArena::new();
            radix_sort_u64(&mut got, &mut arena);
        });
        assert_eq!(
            got,
            expect,
            "radix != cmp at {threads} threads, len {}",
            keys.len()
        );
    }
}

#[test]
fn radix_matches_cmp_on_adversarial_shapes() {
    let s = Stream::new(42, 1);
    // Random, spanning the parallel cutoff.
    for len in [0usize, 1, 100, 2047, 2048, 5000, 120_000] {
        let keys: Vec<u64> = (0..len as u64).map(|i| s.hash(i)).collect();
        assert_radix_matches_cmp(&keys);
    }
    // All-equal.
    assert_radix_matches_cmp(&vec![0xDEAD_BEEF; 50_000]);
    // Reverse-sorted and sorted.
    let desc: Vec<u64> = (0..80_000u64).rev().collect();
    assert_radix_matches_cmp(&desc);
    let asc: Vec<u64> = (0..80_000u64).collect();
    assert_radix_matches_cmp(&asc);
    // Single varying byte at each of the eight positions.
    for d in 0..8u64 {
        let keys: Vec<u64> = (0..30_000)
            .map(|i| (s.hash(i ^ d) & 0xff) << (8 * d))
            .collect();
        assert_radix_matches_cmp(&keys);
    }
    // Sentinel-heavy: the all-ones reserved value and zero dominate.
    let keys: Vec<u64> = (0..60_000)
        .map(|i| match i % 4 {
            0 => u64::MAX,
            1 => 0,
            2 => u64::MAX - 1,
            _ => s.hash(i),
        })
        .collect();
    assert_radix_matches_cmp(&keys);
}

#[test]
fn radix_matches_cmp_on_packed_edges() {
    // Realistic edge-word distributions: vertex ids far below 2^32, so the
    // high bytes are constant and the skip logic must engage.
    for (n, m) in [(1000u32, 30_000u64), (1 << 20, 150_000)] {
        let s = Stream::new(n as u64, 7);
        let keys: Vec<u64> = (0..m)
            .map(|i| {
                Edge::new(
                    s.below(2 * i, n as u64) as u32,
                    s.below(2 * i + 1, n as u64) as u32,
                )
                .0
            })
            .collect();
        assert_radix_matches_cmp(&keys);
    }
}

/// The radix plan must never change the answer: digit-width caps across
/// the whole `8..=16` clamp range, with the write-combining scatter on and
/// off and a small chunk floor that forces multi-chunk plans, sort
/// identically to the comparison backend at 1 and 4 threads.
#[test]
fn every_tuning_matches_cmp_on_adversarial_shapes() {
    let s = Stream::new(99, 2);
    let shapes: Vec<Vec<u64>> = vec![
        (0..120_000u64).map(|i| s.hash(i)).collect(),
        (0..90_000u64).rev().collect(),
        vec![0x0123_4567_89AB_CDEF; 40_000],
        // Packed edges over a small vertex range: constant high bytes.
        (0..80_000u64)
            .map(|i| Edge::new(s.below(2 * i, 9000) as u32, s.below(2 * i + 1, 9000) as u32).0)
            .collect(),
        // Skewed digits: a handful of hot buckets.
        (0..100_000u64).map(|i| s.hash(i % 17)).collect(),
    ];
    for keys in &shapes {
        let mut expect = keys.clone();
        expect.par_sort_unstable();
        for bits in [8u32, 11, 16] {
            for wc in [true, false] {
                for threads in [1usize, 4] {
                    let mut got = keys.clone();
                    with_threads(threads, || {
                        let mut arena = SolverArena::new();
                        let tune = SortTuning {
                            max_digit_bits: bits,
                            min_chunk: 2048,
                            write_combine: wc,
                        };
                        radix_sort_u64_tuned(&mut got, &mut arena, tune);
                    });
                    assert_eq!(
                        got,
                        expect,
                        "bits={bits} wc={wc} threads={threads} len={}",
                        keys.len()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn radix_matches_cmp_on_random_vectors(seed in 0u64..10_000, len in 0usize..6000) {
        let s = Stream::new(seed, 3);
        // Mix full-range and small-range keys so some bytes collapse.
        let keys: Vec<u64> = (0..len as u64)
            .map(|i| if i % 2 == 0 { s.hash(i) } else { s.hash(i) & 0xffff })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut got = keys;
        let mut arena = SolverArena::new();
        radix_sort_u64(&mut got, &mut arena);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn simplify_short_circuit_is_order_invariant(seed in 0u64..1000, n in 2u32..200) {
        // simplify_edges(sorted input) takes the short-circuit; a shuffle of
        // the same multiset takes the generic path — outputs must agree.
        let s = Stream::new(seed, 11);
        let mut edges: Vec<Edge> = (0..400)
            .map(|i| {
                let u = s.below(2 * i, n as u64) as u32;
                let v = s.below(2 * i + 1, n as u64) as u32;
                Edge::new(u.min(v), u.max(v))
            })
            .collect();
        edges.sort_unstable();
        let mut shuffled = edges.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, s.below(1000 + i as u64, (i + 1) as u64) as usize);
        }
        let t = CostTracker::new();
        prop_assert_eq!(
            simplify_edges(&edges, true, &t),
            simplify_edges(&shuffled, true, &t)
        );
    }
}

/// The acceptance gate: every registered solver stays oracle-verified under
/// both sort backends (flat and sharded k = 1, 4 storage), and CSR
/// construction is backend-invariant.
///
/// One `#[test]` on purpose: `set_backend_override` is process-global, and
/// the default harness runs sibling tests concurrently — two tests flipping
/// the override would silently run each other's legs under the wrong
/// backend. (The radix ≡ cmp equivalence tests above are immune: they call
/// `radix_sort_u64` directly, bypassing the override.)
#[test]
fn backend_override_conformance() {
    // Registry oracle conformance under both backends × shard counts.
    let g = gen::mixture(17);
    for backend in [SortBackend::Radix, SortBackend::Cmp] {
        sort::set_backend_override(Some(backend));
        for shards in [0usize, 1, 4] {
            let rows = if shards == 0 {
                parcc::solver::compare(&g, 5)
            } else {
                parcc::solver::compare_store(&ShardedGraph::from_graph(&g, shards), 5)
            };
            assert_eq!(rows.len(), parcc::solver::registry().len());
            for row in rows {
                assert!(
                    row.verified,
                    "{} failed under {backend:?} at {shards} shard(s)",
                    row.name
                );
            }
        }
    }
    // CSR construction (also riding the sort backend) is backend-invariant.
    let g = gen::gnp(20_000, 12.0 / 20_000.0, 3);
    sort::set_backend_override(Some(SortBackend::Radix));
    let a = parcc::graph::Csr::build(&g);
    sort::set_backend_override(Some(SortBackend::Cmp));
    let b = parcc::graph::Csr::build(&g);
    sort::set_backend_override(None);
    assert_eq!(a.n(), b.n());
    for v in 0..g.n() as u32 {
        assert_eq!(a.neighbors(v), b.neighbors(v), "row {v} differs");
    }
}
