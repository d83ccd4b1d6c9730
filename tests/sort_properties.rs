//! Property tests for the sort backbone: `sort_u64`, `padded_sort` and the
//! CSR builder that rides them must agree with std's `sort_unstable` on
//! every input shape, at 1 and 4 threads.

use parcc::graph::generators as gen;
use parcc::pram::cost::CostTracker;
use parcc::pram::edge::Edge;
use parcc::pram::primitives::{padded_sort, simplify_edges};
use parcc::pram::rng::Stream;
use parcc::pram::run_single_threaded;
use parcc::pram::sort::sort_u64;
use proptest::prelude::*;

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

/// `sort_u64`, and `padded_sort` on the same words viewed as edges, equal
/// std's `sort_unstable` at 1 and 4 threads.
fn assert_sorts_match_std(keys: &[u64]) {
    let mut expect = keys.to_vec();
    expect.sort_unstable();
    for threads in [1usize, 4] {
        let mut got = keys.to_vec();
        with_threads(threads, || sort_u64(&mut got));
        assert_eq!(
            got,
            expect,
            "sort_u64 != std at {threads} threads, len {}",
            keys.len()
        );
        let mut edges: Vec<Edge> = keys.iter().map(|&k| Edge(k)).collect();
        with_threads(threads, || padded_sort(&mut edges, &CostTracker::new()));
        assert!(
            edges.iter().map(|e| e.0).eq(expect.iter().copied()),
            "padded_sort != std at {threads} threads, len {}",
            keys.len()
        );
    }
}

/// The shapes that stress a byte-wise radix sort (constant and single
/// varying bytes, sentinels, sorted runs) still check `sort_u64`, which
/// must order them as std's comparison sort does.
#[test]
fn radix_matches_cmp_on_adversarial_shapes() {
    let s = Stream::new(42, 1);
    // Random, spanning the sequential cutoffs.
    for len in [0usize, 1, 100, 2047, 2048, 5000, 120_000] {
        let keys: Vec<u64> = (0..len as u64).map(|i| s.hash(i)).collect();
        assert_sorts_match_std(&keys);
    }
    // All-equal.
    assert_sorts_match_std(&vec![0xDEAD_BEEF; 50_000]);
    // Reverse-sorted and sorted.
    let desc: Vec<u64> = (0..80_000u64).rev().collect();
    assert_sorts_match_std(&desc);
    let asc: Vec<u64> = (0..80_000u64).collect();
    assert_sorts_match_std(&asc);
    // Single varying byte at each of the eight positions.
    for d in 0..8u64 {
        let keys: Vec<u64> = (0..30_000)
            .map(|i| (s.hash(i ^ d) & 0xff) << (8 * d))
            .collect();
        assert_sorts_match_std(&keys);
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
    assert_sorts_match_std(&keys);
}

/// The merge sort's only tuning is its pool width, which sets the leaf
/// size and the sequential-merge floor: at every width from 1 to 8 it
/// orders each shape as std's `sort_unstable` does.
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
        // Few distinct keys: a handful of values repeated many times.
        (0..100_000u64).map(|i| s.hash(i % 17)).collect(),
    ];
    for keys in &shapes {
        let mut expect = keys.clone();
        expect.sort_unstable();
        for threads in [1usize, 2, 3, 8] {
            let mut got = keys.clone();
            with_threads(threads, || sort_u64(&mut got));
            assert_eq!(got, expect, "threads={threads} len={}", keys.len());
        }
    }
}

#[test]
fn sort_u64_matches_std_on_packed_edges() {
    // Realistic edge-word distributions: vertex ids far below 2^32.
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
        assert_sorts_match_std(&keys);
    }
}

/// The parallel CSR build (above its edge cutoff) lists every row's
/// neighbours in the order std's `sort_unstable` gives them.
#[test]
fn csr_build_rows_match_std_sorted_adjacency() {
    let g = gen::gnp(20_000, 12.0 / 20_000.0, 3);
    let mut expect = vec![Vec::new(); g.n()];
    for e in g.edges() {
        let (u, v) = e.ends();
        expect[u as usize].push(v);
        if u != v {
            expect[v as usize].push(u);
        }
    }
    for row in &mut expect {
        row.sort_unstable();
    }
    for threads in [1usize, 4] {
        let csr = with_threads(threads, || parcc::graph::Csr::build(&g));
        assert_eq!(csr.n(), g.n());
        for (v, row) in expect.iter().enumerate() {
            assert_eq!(
                csr.neighbors(v as u32),
                &row[..],
                "row {v} differs at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sort_u64_matches_std_on_random_vectors(seed in 0u64..10_000, len in 0usize..6000) {
        let s = Stream::new(seed, 3);
        // Mix full-range and small-range keys so many keys repeat.
        let keys: Vec<u64> = (0..len as u64)
            .map(|i| if i % 2 == 0 { s.hash(i) } else { s.hash(i) & 0xffff })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut got = keys;
        sort_u64(&mut got);
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
