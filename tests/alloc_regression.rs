//! Allocation-counter regression tests: this binary installs the
//! [`CountingAllocator`] hook and proves the zero-allocation hot-path
//! claims — steady-state LTZ rounds and warm-arena primitive passes
//! perform **zero** heap allocations under the sequential (1-thread)
//! schedule, whole LTZ solves allocate a near-constant count whatever n,
//! a MATCHING call's peak memory follows its arcs rather than its edges,
//! and the parallel paths make bounded scheduler-only allocations.
//!
//! Everything lives in **one** `#[test]` function: the counters are
//! process-global, so concurrently running test functions would pollute
//! each other's deltas.

use parcc::ltz::round::LtzEngine;
use parcc::ltz::{Budget, GrowthSchedule};
use parcc::pram::alloc_track::{self, CountingAllocator};
use parcc::pram::arena::SolverArena;
use parcc::pram::cost::CostTracker;
use parcc::pram::edge::Edge;
use parcc::pram::forest::ParentForest;
use parcc::pram::ops::alter_edges;
use parcc::pram::primitives::{retain, simplify_edges_with};
use parcc::pram::rng::Stream;
use parcc::pram::run_single_threaded;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A budget whose tables are born at their cap: after every live vertex
/// owns a table, `grow_to_level` is a no-op forever — so every later round
/// is a growth-free steady-state round.
fn capped_budget(n: usize) -> Budget {
    Budget {
        t1: 64,
        growth: 1.5,
        schedule: GrowthSchedule::DoublyExponential,
        cap: 64,
        global_slot_cap: 64 * n.max(64) as u64,
        level_up_exponent: 0.35,
        level_up_max: 0.1,
    }
}

fn steady_state_ltz_rounds_are_allocation_free() {
    run_single_threaded(|| {
        let n = 4096;
        let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
        let forest = ParentForest::new(n);
        let tracker = CostTracker::new();
        let mut eng = LtzEngine::new(n, edges, &forest, capped_budget(n), 7, &tracker);
        // Warm-up: populate the engine scratch, the thread-local drain
        // buffers, and every live vertex's table.
        for _ in 0..2 {
            if eng.step(&forest, &tracker) {
                break;
            }
        }
        let mut measured = 0;
        let mut rounds = 0;
        while !eng.is_done() && rounds < 200 {
            rounds += 1;
            let slots_before = eng.st.slots_allocated();
            let allocs_before = alloc_track::allocation_count();
            eng.step(&forest, &tracker);
            let delta = alloc_track::allocation_count() - allocs_before;
            if eng.st.slots_allocated() == slots_before {
                // No table grew: a steady-state round — must be alloc-free.
                assert_eq!(
                    delta, 0,
                    "steady-state LTZ round {rounds} performed {delta} heap allocations"
                );
                measured += 1;
            }
        }
        assert!(
            measured >= 3,
            "expected >= 3 growth-free rounds to measure, got {measured}"
        );
        assert!(eng.is_done(), "path must contract within the round cap");
    });
}

fn warm_arena_primitives_are_allocation_free() {
    run_single_threaded(|| {
        let s = Stream::new(5, 5);
        let n = 5000u64;
        let edges: Vec<Edge> = (0..100_000)
            .map(|i| Edge::new(s.below(2 * i, n) as u32, s.below(2 * i + 1, n) as u32))
            .collect();
        let tracker = CostTracker::new();
        let mut arena = SolverArena::new();
        // Warm: one full simplify (canonicalize + sort + dedup), one
        // alter + retain pass.
        let forest = ParentForest::new(n as usize);
        for _ in 0..2 {
            let out = simplify_edges_with(&edges, true, &mut arena, &tracker);
            arena.give_edges(out);
            let mut work = arena.take_edges();
            work.extend_from_slice(&edges);
            alter_edges(&forest, &mut work, true, &tracker);
            retain(&mut work, |e| e.0 % 3 != 0, &tracker);
            arena.give_edges(work);
        }
        // Measured repeat of the exact same phase-retry shape.
        let allocs_before = alloc_track::allocation_count();
        let out = simplify_edges_with(&edges, true, &mut arena, &tracker);
        arena.give_edges(out);
        let mut work = arena.take_edges();
        work.extend_from_slice(&edges);
        alter_edges(&forest, &mut work, true, &tracker);
        retain(&mut work, |e| e.0 % 3 != 0, &tracker);
        arena.give_edges(work);
        let delta = alloc_track::allocation_count() - allocs_before;
        assert_eq!(
            delta, 0,
            "warm-arena simplify/alter/retain pass performed {delta} heap allocations"
        );
        let stats = arena.stats();
        assert!(stats.takes > stats.misses, "warm passes must hit the pool");
        assert!(stats.peak_bytes > 0);
    });
}

/// Label propagation's HashMin sweep must be allocation-free once its
/// double buffers are warm. `label-prop` runs one sweep per round to the
/// fixpoint, so a per-sweep alloc would scale with the input's diameter.
fn warm_label_prop_sweeps_are_allocation_free() {
    run_single_threaded(|| {
        use parcc::baselines::HashMinSweep;
        // A path contracts at ~1 label per round under HashMin, so there
        // are plenty of non-final sweeps to measure after warming.
        let n = 600;
        let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
        let tracker = CostTracker::new();
        let mut sweep = HashMinSweep::new(n);
        // Warm: two full sweeps populate both label buffers.
        for _ in 0..2 {
            sweep.sweep(&edges, &tracker);
        }
        for round in 0..5 {
            let a0 = alloc_track::allocation_count();
            let frontier = sweep.sweep(&edges, &tracker);
            let delta = alloc_track::allocation_count() - a0;
            assert_eq!(
                delta, 0,
                "warm label-prop sweep {round} performed {delta} heap allocations"
            );
            assert!(frontier > 0, "path must still be contracting");
        }
    });
}

/// A whole Theorem-2 solve, first round included: activating a round's
/// tables extends one pool rather than allocating per vertex, so a graph
/// four times larger costs only a few more allocations (pool doublings,
/// an extra round's bookkeeping), not two more per activated table.
fn ltz_table_activation_does_not_allocate_per_vertex() {
    use parcc::graph::generators::chung_lu;
    use parcc::ltz::{ltz_connectivity, LtzParams};
    run_single_threaded(|| {
        let solve_allocs = |n: usize| -> u64 {
            let g = chung_lu(n, 2.5, 8.0, 3);
            let edges = g.edges().to_vec();
            let forest = ParentForest::new(n);
            let tracker = CostTracker::new();
            let a0 = alloc_track::allocation_count();
            let stats = ltz_connectivity(edges, &forest, LtzParams::for_n(n), &tracker);
            let delta = alloc_track::allocation_count() - a0;
            assert!(!stats.fallback_engaged && stats.table_slots > 0);
            delta
        };
        let small = solve_allocs(1 << 14);
        let large = solve_allocs(1 << 16);
        assert!(
            large <= small + 64,
            "LTZ solve allocations scale with n: {small} at 2^14 vertices vs {large} at 2^16"
        );
    });
}

/// `hybrid`'s compress pass writes every label into one buffer, so at one
/// thread it makes a single allocation whatever n.
fn hybrid_compress_allocates_only_its_labels() {
    use parcc::graph::generators::chung_lu;
    use parcc::solver::SolveCtx;
    run_single_threaded(|| {
        let g = chung_lu(1 << 16, 2.5, 8.0, 3);
        let r = parcc::solver::find("hybrid")
            .expect("registered")
            .solve(&g, &SolveCtx::with_seed(1));
        let compress = r
            .phases
            .iter()
            .find(|p| p.name == "compress")
            .expect("hybrid reports a compress phase");
        assert!(
            compress.allocs <= 1,
            "hybrid compress made {} allocations at 1 thread",
            compress.allocs
        );
    });
}

/// MATCHING keeps D's arcs, at most one per tail, rather than a flag per
/// edge: on 400k edges over 1,000 vertices (2,000 distinct pairs, each
/// repeated 200 times) a warm call peaks only a few KiB above what was
/// live when it started.
fn matching_memory_scales_with_its_arcs_not_its_edges() {
    use parcc::core::stage1::{matching, Stage1Scratch};
    run_single_threaded(|| {
        let n = 1000;
        let s = Stream::new(11, 11);
        let edges: Vec<Edge> = (0..400_000u64)
            .map(|i| {
                let pair = i % 2000;
                Edge::new(
                    s.below(2 * pair, n as u64) as u32,
                    s.below(2 * pair + 1, n as u64) as u32,
                )
            })
            .collect();
        let scratch = Stage1Scratch::new(n);
        let tracker = CostTracker::new();
        let call = |edges: &mut Vec<Edge>, forest: &ParentForest| {
            matching(
                edges,
                forest,
                &scratch,
                Stream::new(3, 3),
                scratch.next_tag(),
                &tracker,
            )
        };
        drop(call(&mut edges.clone(), &ParentForest::new(n)));
        let (mut work, forest) = (edges.clone(), ParentForest::new(n));
        alloc_track::reset_peak();
        let entry = alloc_track::live_bytes();
        let hooked = call(&mut work, &forest);
        let extra = alloc_track::peak_bytes() - entry;
        assert!(!hooked.is_empty(), "the call must hook something");
        assert!(
            extra < 64 << 10,
            "a warm MATCHING call on 400k edges peaked {extra} bytes above its entry"
        );
    });
}

fn parallel_hot_paths_never_allocate_proportionally_to_m() {
    // At the ambient thread count (could be > 1 under PARCC_THREADS=4) the
    // pool's per-batch bookkeeping may allocate, but never O(m) data:
    // doubling the input must not double the allocation count.
    let tracker = CostTracker::new();
    let mut arena = SolverArena::new();
    let count_pass = |m: u64, arena: &mut SolverArena| -> u64 {
        let s = Stream::new(m, 9);
        let edges: Vec<Edge> = (0..m)
            .map(|i| {
                Edge::new(
                    s.below(2 * i, 10_000) as u32,
                    s.below(2 * i + 1, 10_000) as u32,
                )
            })
            .collect();
        // Warm for this size, then measure.
        let mut work = edges.clone();
        retain(&mut work, |e| !e.is_loop(), &tracker);
        arena.give_edges(work);
        let mut work = arena.take_edges();
        work.extend_from_slice(&edges);
        let a0 = alloc_track::allocation_count();
        retain(&mut work, |e| !e.is_loop(), &tracker);
        let delta = alloc_track::allocation_count() - a0;
        arena.give_edges(work);
        delta
    };
    let small = count_pass(100_000, &mut arena);
    let large = count_pass(400_000, &mut arena);
    assert!(
        large <= small + 64,
        "allocations scale with input: {small} at 100k edges vs {large} at 400k"
    );
}

#[test]
fn hot_paths_hold_their_allocation_budget() {
    assert!(
        alloc_track::hook_installed() || {
            // Force one traceable allocation so the hook registers.
            let v: Vec<u8> = Vec::with_capacity(64);
            drop(v);
            alloc_track::hook_installed()
        },
        "counting allocator must be installed in this binary"
    );
    steady_state_ltz_rounds_are_allocation_free();
    warm_arena_primitives_are_allocation_free();
    warm_label_prop_sweeps_are_allocation_free();
    ltz_table_activation_does_not_allocate_per_vertex();
    hybrid_compress_allocates_only_its_labels();
    matching_memory_scales_with_its_arcs_not_its_edges();
    parallel_hot_paths_never_allocate_proportionally_to_m();
}
