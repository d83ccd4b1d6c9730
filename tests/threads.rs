//! Thread-count invariance and concurrency soundness.
//!
//! The workspace's algorithms assume an ARBITRARY CRCW PRAM: any number of
//! concurrent writers may hit a cell and *any* of them may win. Correctness
//! must therefore be independent of the thread count, while 1-thread runs
//! must stay bit-for-bit deterministic (sequential execution is one legal
//! CRCW schedule). The paper pipeline goes further: its elections resolve
//! by priority, so its labels and simulated cost match the 1-thread run at
//! any thread count. These tests pin all three properties, plus hammer the
//! atomic CRCW substrate directly.

use parcc::baselines;
use parcc::core::stage1::{reduce, Stage1Scratch};
use parcc::core::{connectivity, Params};
use parcc::graph::generators as gen;
use parcc::graph::repr::Csr;
use parcc::graph::traverse::{components, same_partition};
use parcc::graph::Graph;
use parcc::ltz::{ltz_connectivity, LtzParams};
use parcc::pram::cost::CostTracker;
use parcc::pram::crcw::{Flags, MaxCells, MinCells, TagCells};
use parcc::pram::forest::ParentForest;
use parcc::solver::{self, SolveCtx};
use rayon::prelude::*;

/// Run `f` with the effective thread count pinned to `k` (clamped to the
/// pool capacity, which is ≥ 8 even on single-core machines).
fn with_threads<T>(k: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(k)
        .build()
        .expect("pool")
        .install(f)
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn zoo(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("path", gen::path(600)),
        ("cycle", gen::cycle(512)),
        ("star", gen::star(400)),
        ("grid", gen::grid2d(20, 20, false)),
        ("gnp", gen::gnp(900, 0.004, seed)),
        ("regular", gen::random_regular(800, 6, seed)),
        ("chung_lu", gen::chung_lu(700, 2.5, 6.0, seed)),
        ("two_cycles", gen::two_cycles(256)),
        ("isolated", gen::with_isolated(&gen::cycle(64), 40)),
        ("mixture", gen::mixture(seed)),
    ]
}

#[test]
fn main_algorithm_is_thread_count_invariant() {
    for (name, g) in zoo(11) {
        let truth = components(&g);
        for k in THREAD_COUNTS {
            let labels = with_threads(k, || {
                let tracker = CostTracker::new();
                let (labels, _) = connectivity(&g, &Params::for_n(g.n()).with_seed(11), &tracker);
                labels
            });
            assert!(
                same_partition(&labels, &truth),
                "connectivity wrong on {name} at {k} threads"
            );
        }
    }
}

#[test]
fn paper_stage1_is_bit_identical_at_any_thread_count() {
    // `paper` and `known-gap` share Stage 1; its elections resolve by
    // priority, so the forest, the current graph and the charged cost are
    // functions of the input and the seed alone.
    for (graph, g) in zoo(19) {
        let run = |k| {
            with_threads(k, || {
                let forest = ParentForest::new(g.n());
                let scratch = Stage1Scratch::new(g.n());
                let tracker = CostTracker::new();
                let params = Params::for_n(g.n()).with_seed(19);
                let mut out = reduce(g.edges(), &params, &forest, &scratch, &tracker);
                out.active.sort_unstable();
                (forest.snapshot(), out.edges, out.active, tracker.snapshot())
            })
        };
        let base = run(1);
        for k in [2, 8] {
            let (parents, edges, active, cost) = run(k);
            assert_eq!(parents, base.0, "Stage-1 forest on {graph} at {k} threads");
            assert_eq!(edges, base.1, "Stage-1 edges on {graph} at {k} threads");
            assert_eq!(active, base.2, "Stage-1 vertices on {graph} at {k} threads");
            assert_eq!(cost, base.3, "Stage-1 cost on {graph} at {k} threads");
        }
    }
}

#[test]
fn paper_pipeline_labels_are_identical_at_any_thread_count() {
    for name in ["paper", "known-gap"] {
        let s = solver::find(name).expect("registered");
        for (graph, g) in zoo(19) {
            let run = |k| with_threads(k, || s.solve(&g, &SolveCtx::with_seed(19)).labels);
            let base = run(1);
            for k in [2, 8] {
                assert_eq!(run(k), base, "{name} labels on {graph} at {k} threads");
            }
        }
    }
}

#[test]
fn ltz_is_thread_count_invariant() {
    for (name, g) in zoo(13) {
        let truth = components(&g);
        for k in THREAD_COUNTS {
            let labels = with_threads(k, || {
                let forest = ParentForest::new(g.n());
                let tracker = CostTracker::new();
                let _ = ltz_connectivity(
                    g.edges().to_vec(),
                    &forest,
                    LtzParams::for_n(g.n()).with_seed(13),
                    &tracker,
                );
                forest.flatten(&tracker);
                forest.labels(&tracker)
            });
            assert!(
                same_partition(&labels, &truth),
                "LTZ wrong on {name} at {k} threads"
            );
        }
    }
}

#[test]
fn baselines_are_thread_count_invariant() {
    for (name, g) in zoo(17) {
        let truth = components(&g);
        for k in THREAD_COUNTS {
            with_threads(k, || {
                let t = CostTracker::new();
                let (sv, _) = baselines::shiloach_vishkin(&g, &t);
                assert!(
                    same_partition(&sv, &truth),
                    "SV wrong on {name} at {k} threads"
                );
                let (rm, _) = baselines::random_mate(&g, 17, &t);
                assert!(
                    same_partition(&rm, &truth),
                    "random-mate wrong on {name} at {k} threads"
                );
                let (lp, _) = baselines::label_propagation(&g, &t);
                assert!(
                    same_partition(&lp, &truth),
                    "label-prop wrong on {name} at {k} threads"
                );
            });
        }
    }
}

#[test]
fn one_thread_runs_are_bitwise_deterministic() {
    let g = gen::random_regular(2000, 6, 3);
    let run = || {
        with_threads(1, || {
            let tracker = CostTracker::new();
            connectivity(&g, &Params::for_n(g.n()).with_seed(3), &tracker)
        })
    };
    let (labels_a, stats_a) = run();
    let (labels_b, stats_b) = run();
    assert_eq!(
        labels_a, labels_b,
        "1-thread labels must be bit-for-bit reproducible"
    );
    assert_eq!(stats_a.total.work, stats_b.total.work);
    assert_eq!(stats_a.total.depth, stats_b.total.depth);
}

#[test]
fn generators_are_pure_functions_of_the_seed_at_any_thread_count() {
    let baseline = with_threads(1, || {
        (
            gen::gnp(3000, 0.003, 5),
            gen::random_regular(2000, 6, 5),
            gen::chung_lu(2000, 2.5, 6.0, 5),
        )
    });
    for k in [2, 8] {
        let (gnp, reg, cl) = with_threads(k, || {
            (
                gen::gnp(3000, 0.003, 5),
                gen::random_regular(2000, 6, 5),
                gen::chung_lu(2000, 2.5, 6.0, 5),
            )
        });
        assert_eq!(gnp, baseline.0, "gnp differs at {k} threads");
        assert_eq!(reg, baseline.1, "random_regular differs at {k} threads");
        assert_eq!(cl, baseline.2, "chung_lu differs at {k} threads");
    }
}

#[test]
fn csr_layout_is_identical_at_any_thread_count() {
    // Big enough to take the parallel sort-based build path.
    let g = gen::random_regular(4000, 8, 9);
    let base = with_threads(1, || Csr::build(&g));
    for k in [2, 8] {
        let csr = with_threads(k, || Csr::build(&g));
        for v in 0..g.n() as u32 {
            assert_eq!(
                csr.neighbors(v),
                base.neighbors(v),
                "CSR differs at {k} threads"
            );
        }
    }
}

#[test]
fn degrees_and_min_degree_match_sequential_at_any_thread_count() {
    let g = gen::chung_lu(6000, 2.5, 7.0, 21);
    let mut expect = vec![0u32; g.n()];
    for e in g.edges() {
        expect[e.u() as usize] += 1;
        if !e.is_loop() {
            expect[e.v() as usize] += 1;
        }
    }
    for k in THREAD_COUNTS {
        // Fresh clone each time so the degree cache cannot leak across runs.
        let g = g.clone();
        with_threads(k, || {
            assert_eq!(g.degrees(), &expect[..], "degrees differ at {k} threads");
            assert_eq!(g.min_degree(), expect.iter().copied().min().unwrap());
        });
    }
}

// ---------------------------------------------------------------------------
// Concurrent hammers on the CRCW substrate
// ---------------------------------------------------------------------------

const HAMMER_OPS: u64 = 200_000;
const HAMMER_CELLS: usize = 64;

#[test]
fn tag_cells_claims_have_exactly_one_winner_per_cell() {
    with_threads(8, || {
        let t = TagCells::new(HAMMER_CELLS);
        let winners: Vec<(usize, u64)> = (0..HAMMER_OPS)
            .into_par_iter()
            .filter_map(|i| {
                let cell = (i % HAMMER_CELLS as u64) as usize;
                t.try_claim(cell, i).then_some((cell, i))
            })
            .collect();
        assert_eq!(winners.len(), HAMMER_CELLS, "one claim winner per cell");
        for (cell, tag) in winners {
            assert_eq!(t.read(cell), tag, "cell {cell} must hold its winner's tag");
        }
    });
}

#[test]
fn tag_cells_arbitrary_writes_resolve_to_some_writer() {
    with_threads(8, || {
        let t = TagCells::new(HAMMER_CELLS);
        (0..HAMMER_OPS).into_par_iter().for_each(|i| {
            t.write((i % HAMMER_CELLS as u64) as usize, i);
        });
        for cell in 0..HAMMER_CELLS {
            let w = t.read(cell);
            assert!(
                w < HAMMER_OPS && (w % HAMMER_CELLS as u64) as usize == cell,
                "cell {cell} holds {w}, which nobody wrote there"
            );
        }
    });
}

#[test]
fn max_cells_select_the_maximum_under_contention() {
    with_threads(8, || {
        let m = MaxCells::new(HAMMER_CELLS);
        (0..HAMMER_OPS).into_par_iter().for_each(|i| {
            let cell = (i % HAMMER_CELLS as u64) as usize;
            m.offer(cell, (i / HAMMER_CELLS as u64) as u32, i as u32);
        });
        let rounds = HAMMER_OPS / HAMMER_CELLS as u64;
        for cell in 0..HAMMER_CELLS {
            let (key, _) = m.best(cell);
            assert_eq!(key as u64, rounds - 1, "cell {cell} lost its maximum");
        }
    });
}

#[test]
fn min_cells_select_the_minimum_under_contention() {
    with_threads(8, || {
        let m = MinCells::new(HAMMER_CELLS);
        (0..HAMMER_OPS).into_par_iter().for_each(|i| {
            let cell = (i % HAMMER_CELLS as u64) as usize;
            m.offer(cell, (i + HAMMER_CELLS as u64) as u32);
        });
        for cell in 0..HAMMER_CELLS {
            assert_eq!(
                m.best(cell),
                Some(cell as u32 + HAMMER_CELLS as u32),
                "cell {cell} lost its minimum"
            );
        }
    });
}

#[test]
fn flags_survive_concurrent_set_and_reset() {
    with_threads(8, || {
        let f = Flags::new(HAMMER_CELLS);
        (0..HAMMER_OPS).into_par_iter().for_each(|i| {
            f.set((i % HAMMER_CELLS as u64) as usize);
        });
        assert!(
            (0..HAMMER_CELLS).all(|i| f.get(i)),
            "every flag was set by someone"
        );
        f.reset_all();
        assert!((0..HAMMER_CELLS).all(|i| !f.get(i)));
    });
}

#[test]
fn forest_priority_hooks_converge_under_contention() {
    with_threads(8, || {
        let n = 10_000u32;
        let forest = ParentForest::new(n as usize);
        // Everyone hooks vertex v under min(v, offered) repeatedly; the
        // priority write must deterministically keep the global minimum.
        (0..HAMMER_OPS).into_par_iter().for_each(|i| {
            let v = (i % n as u64) as u32;
            let u = (i * 7 % n as u64) as u32;
            if u < v {
                forest.offer_parent_min(v, u);
            }
        });
        let tracker = CostTracker::new();
        forest.flatten(&tracker);
        assert!(forest.max_height() <= 1);
    });
}
