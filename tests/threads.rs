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
use parcc::pram::crcw::{offer_min, pack, Flags, MaxCells, MinCells, TagCells};
use parcc::pram::forest::ParentForest;
use parcc::solver::{self, SolveCtx};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Run `f` with the effective thread count pinned to `k` (clamped to the
/// pool capacity, which is ≥ 8 even on single-core machines). The pool
/// spawns workers on first need, so an 8-thread install runs 7 of them
/// beside the caller: real 8-way concurrency on any machine.
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

/// The mesh and a 20k Chung–Lu graph with their ids randomly permuted:
/// the generators' id order decides every id-priority tie, so invariance
/// must also hold without it.
fn relabeled() -> [(&'static str, Graph); 2] {
    [
        ("mesh_relabeled", gen::grid2d(40, 40, false).permuted(7)),
        (
            "chung_lu_20k_relabeled",
            gen::chung_lu(20_000, 2.5, 8.0, 19).permuted(7),
        ),
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
    // functions of the input and the seed alone. Of the zoo only `mixture`
    // crosses the primitives' sequential cutoff, so a hub-heavy graph ten
    // times its size runs every pass in parallel chunks.
    let large = ("chung_lu_20k", gen::chung_lu(20_000, 2.5, 8.0, 19));
    for (graph, g) in zoo(19).into_iter().chain([large]).chain(relabeled()) {
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
        for (graph, g) in zoo(19).into_iter().chain(relabeled()) {
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
    // SV, label-prop and Liu–Tarjan claim `deterministic`: their
    // priority writes pick the same winner in any order, so labels, work
    // and depth must be bit-identical to the 1-thread run.
    type Run = (Vec<u32>, u64, u64);
    let exact = |solve: &dyn Fn(&CostTracker) -> Vec<u32>| -> Run {
        let t = CostTracker::new();
        let labels = solve(&t);
        (labels, t.work(), t.depth())
    };
    for (name, g) in zoo(17) {
        let truth = components(&g);
        let mut base: Option<[Run; 3]> = None;
        for k in THREAD_COUNTS {
            let runs = with_threads(k, || {
                let t = CostTracker::new();
                let (rm, _) = baselines::random_mate(&g, 17, &t);
                assert!(
                    same_partition(&rm, &truth),
                    "random-mate wrong on {name} at {k} threads"
                );
                [
                    exact(&|t| baselines::shiloach_vishkin(&g, t).0),
                    exact(&|t| baselines::label_propagation(&g, t).0),
                    exact(&|t| baselines::liu_tarjan(&g, t).0),
                ]
            });
            for (solver, run) in ["SV", "label-prop", "liu-tarjan-pss"].iter().zip(&runs) {
                assert!(
                    same_partition(&run.0, &truth),
                    "{solver} wrong on {name} at {k} threads"
                );
            }
            match &base {
                None => base = Some(runs),
                Some(base) => {
                    for (solver, (run, one)) in ["SV", "label-prop", "liu-tarjan-pss"]
                        .iter()
                        .zip(runs.iter().zip(base))
                    {
                        assert_eq!(run.0, one.0, "{solver} labels on {name} at {k} threads");
                        assert_eq!(run.1, one.1, "{solver} work on {name} at {k} threads");
                        assert_eq!(run.2, one.2, "{solver} depth on {name} at {k} threads");
                    }
                }
            }
        }
    }
}

#[test]
fn hybrid_is_thread_count_invariant() {
    // `hybrid` claims `deterministic`: a root only ever hooks under a
    // smaller root, so every component ends rooted at its minimum vertex
    // on any schedule. Every label must be that minimum — which is what
    // the BFS oracle reports — at every thread count, and each 8-thread
    // case runs three times to give the schedule room to vary.
    let s = solver::find("hybrid").expect("registered");
    let mut graphs = zoo(23);
    graphs.push(("mesh", gen::grid2d(40, 40, false)));
    graphs.push(("chung_lu_20k", gen::chung_lu(20_000, 2.5, 8.0, 19)));
    graphs.extend(relabeled());
    for (name, g) in graphs {
        let minima = components(&g);
        for k in THREAD_COUNTS {
            for _ in 0..if k == 8 { 3 } else { 1 } {
                let r = with_threads(k, || s.solve(&g, &SolveCtx::new()));
                assert!(
                    r.labels == minima,
                    "hybrid labels on {name} at {k} threads are not the component minima"
                );
            }
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

/// Racing priority writes: `RACE_WORKERS` workers each walk the same
/// `RACE_STEPS` steps at the same time; step `s` offers to cell
/// `s % HAMMER_CELLS`. Offer `i` is step `i % RACE_STEPS` of worker
/// `i / RACE_STEPS`.
const RACE_WORKERS: u64 = 8;
const RACE_STEPS: u64 = 1 << 15;
/// Fresh-cell races per test: whether a lost update survives to the end
/// depends on the schedule, so one race may miss it.
const RACE_ROUNDS: usize = 16;

fn race(offer: impl Fn(u64) + Sync + Send) {
    with_threads(RACE_WORKERS as usize, || {
        (0..RACE_WORKERS)
            .into_par_iter()
            .with_min_len(1)
            .for_each(|w| (0..RACE_STEPS).for_each(|s| offer(w * RACE_STEPS + s)));
    });
}

fn cell_of(i: u64) -> usize {
    (i % RACE_STEPS % HAMMER_CELLS as u64) as usize
}

/// The value of offer `i`. Values fall with the step, plus noise wider than
/// the fall between two visits to a cell. So each cell sees winning offers
/// after losing ones, and the workers' offers that would win race each
/// other to the RMW: a load-first write must still reach it for every one.
fn falling(i: u64) -> u32 {
    let visit = (i % RACE_STEPS / HAMMER_CELLS as u64) as u32;
    let noise = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as u32;
    (RACE_STEPS as u32 - visit) * 4 + noise
}

/// Per cell, the minimum of `value` over all offers, after checking that
/// the offers, replayed step by step across the workers, both win and lose
/// on every cell.
fn expected_min<T: Copy + Ord>(value: impl Fn(u64) -> T) -> Vec<T> {
    let mut best: Vec<Option<T>> = vec![None; HAMMER_CELLS];
    let (mut wins, mut losses) = (vec![0u32; HAMMER_CELLS], vec![0u32; HAMMER_CELLS]);
    for s in 0..RACE_STEPS {
        for w in 0..RACE_WORKERS {
            let i = w * RACE_STEPS + s;
            let (c, v) = (cell_of(i), value(i));
            if best[c].is_none_or(|b| v < b) {
                best[c] = Some(v);
                wins[c] += 1;
            } else {
                losses[c] += 1;
            }
        }
    }
    for c in 0..HAMMER_CELLS {
        assert!(
            wins[c] > 16 && losses[c] > 16,
            "cell {c}: {} wins, {} losses",
            wins[c],
            losses[c]
        );
    }
    best.into_iter().map(Option::unwrap).collect()
}

#[test]
fn tag_cells_claims_have_exactly_one_winner_per_cell() {
    // Claims land on cells in a scrambled order, and the cells are cleared
    // between rounds, so every round each cell gets a winning claim racing
    // losing ones, some of which the load turns away and some the CAS.
    const ROUNDS: u64 = 64;
    let per_round = HAMMER_OPS / ROUNDS;
    with_threads(8, || {
        let t = TagCells::new(HAMMER_CELLS);
        for round in 0..ROUNDS {
            let winners: Vec<(usize, u64)> = (0..per_round)
                .into_par_iter()
                .filter_map(|i| {
                    let cell = (i.wrapping_mul(0x9E37_79B9) >> 7) as usize % HAMMER_CELLS;
                    t.try_claim(cell, i).then_some((cell, i))
                })
                .collect();
            let mut won = vec![0u32; HAMMER_CELLS];
            for &(cell, tag) in &winners {
                won[cell] += 1;
                assert_eq!(
                    t.read(cell),
                    tag,
                    "round {round}: cell {cell} must hold its winner's tag"
                );
            }
            assert!(
                won.iter().all(|&w| w == 1),
                "round {round}: claims per cell {won:?}"
            );
            t.reset_all();
        }
    });
}

#[test]
fn offer_min_on_u32_cells_keeps_the_minimum_under_contention() {
    let expect = expected_min(falling);
    for round in 0..RACE_ROUNDS {
        let cells: Vec<AtomicU32> = (0..HAMMER_CELLS)
            .map(|_| AtomicU32::new(u32::MAX))
            .collect();
        race(|i| offer_min(&cells[cell_of(i)], falling(i)));
        for (c, cell) in cells.iter().enumerate() {
            assert_eq!(
                cell.load(Ordering::Relaxed),
                expect[c],
                "round {round}, cell {c}"
            );
        }
    }
}

#[test]
fn write_min_on_u64_keys_keeps_the_minimum_under_contention() {
    // Packed keys as MATCHING's election writes them: value high, writer low.
    let key = |i: u64| (u64::from(falling(i)) << 32) | i;
    let expect = expected_min(key);
    for round in 0..RACE_ROUNDS {
        let t = TagCells::new(HAMMER_CELLS);
        race(|i| t.write_min(cell_of(i), key(i)));
        for (c, &k) in expect.iter().enumerate() {
            assert_eq!(t.read(c), k, "round {round}, cell {c}");
        }
    }
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
    // Keys rise with noise (the mirror of `falling`); the payload is the
    // offer's index, so ties on a key break by it.
    let word = |i: u64| pack(u32::MAX - falling(i), i as u32);
    let expect = expected_min(|i| std::cmp::Reverse(word(i)));
    for round in 0..RACE_ROUNDS {
        let m = MaxCells::new(HAMMER_CELLS);
        race(|i| m.offer(cell_of(i), u32::MAX - falling(i), i as u32));
        for (c, w) in expect.iter().enumerate() {
            let (key, payload) = m.best(c);
            assert_eq!(
                pack(key, payload),
                w.0,
                "round {round}: cell {c} lost its maximum"
            );
        }
    }
}

#[test]
fn min_cells_select_the_minimum_under_contention() {
    let expect = expected_min(falling);
    for round in 0..RACE_ROUNDS {
        let m = MinCells::new(HAMMER_CELLS);
        race(|i| m.offer(cell_of(i), falling(i)));
        for (c, &v) in expect.iter().enumerate() {
            assert_eq!(
                m.best(c),
                Some(v),
                "round {round}: cell {c} lost its minimum"
            );
        }
    }
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
