//! Registry conformance suite: every registered solver must produce the
//! union-find oracle's partition on the whole graph zoo, at 1 and 4
//! effective threads, and must honour the `ComponentSolver` label contract
//! (canonical labels consumable by `ComponentIndex`).

use parcc::core::ComponentIndex;
use parcc::graph::generators as gen;
use parcc::graph::Graph;
use parcc::solver::{self, SolveCtx};

/// Run `f` with the effective thread count pinned to `k`.
fn with_threads<T>(k: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(k)
        .build()
        .expect("pool")
        .install(f)
}

/// The degenerate-through-structured zoo from the satellite checklist:
/// empty, single vertex, self-loops, multi-edges, path, cycle, expander,
/// gnp, powerlaw, disconnected unions.
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

#[test]
fn registry_has_the_headline_solvers() {
    let names = solver::names();
    assert!(names.len() >= 7, "got {names:?}");
    for expected in [
        "paper",
        "known-gap",
        "ltz",
        "union-find",
        "shiloach-vishkin",
        "label-prop",
        "random-mate",
        "liu-tarjan-pss",
        "hybrid",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} missing from registry"
        );
    }
}

#[test]
fn every_solver_matches_the_oracle_across_the_zoo() {
    for threads in [1usize, 4] {
        with_threads(threads, || {
            for (name, g) in zoo(0xC0DE) {
                for s in solver::registry() {
                    let r = s.solve(&g, &SolveCtx::with_seed(17));
                    if let Err(e) = solver::verify_partition(&g, &r.labels) {
                        panic!("{}/{name}@{threads}t: {e}", s.name());
                    }
                }
            }
        });
    }
}

#[test]
fn labels_are_canonical_and_index_consumable() {
    let g = gen::mixture(0xCAFE);
    for s in solver::registry() {
        let r = s.solve(&g, &SolveCtx::with_seed(23));
        for &l in &r.labels {
            assert_eq!(
                r.labels[l as usize],
                l,
                "{}: labels[{l}] not canonical",
                s.name()
            );
        }
        let index = ComponentIndex::from_labels(r.labels.clone());
        assert_eq!(index.count(), r.component_count());
        assert_eq!(index.sizes().iter().sum::<usize>(), g.n());
    }
}

#[test]
fn seeded_solvers_stay_correct_across_seeds() {
    let g = gen::expander_union(2, 200, 4, 7);
    let oracle = solver::oracle_labels(&g);
    for s in solver::registry().iter().filter(|s| s.caps().seeded) {
        for seed in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF] {
            let r = s.solve(&g, &SolveCtx::with_seed(seed));
            assert!(
                parcc::graph::traverse::same_partition(&r.labels, &oracle),
                "{} wrong at seed {seed:#x}",
                s.name()
            );
        }
    }
}

#[test]
fn deterministic_solvers_reproduce_exact_labels() {
    let g = gen::gnp(500, 0.005, 3);
    for s in solver::registry().iter().filter(|s| s.caps().deterministic) {
        let a = s.solve(&g, &SolveCtx::with_seed(1));
        let b = s.solve(&g, &SolveCtx::with_seed(2));
        assert_eq!(
            a.labels,
            b.labels,
            "{}: deterministic solvers must ignore the seed",
            s.name()
        );
    }
}

/// `hybrid` is one link pass and one compress pass on every regime, a
/// low-diameter expander and a high-diameter mesh alike: its phase
/// telemetry names both, the link pass reads every edge, and it charges no
/// simulated cost and reports no rounds (its hop counts depend on the
/// schedule).
#[test]
fn hybrid_reports_link_and_compress_phases() {
    let hybrid = solver::find("hybrid").expect("hybrid registered");
    for g in [gen::random_regular(600, 8, 3), gen::grid2d(40, 40, false)] {
        let r = hybrid.solve(&g, &SolveCtx::with_seed(7));
        assert!(solver::verify_partition(&g, &r.labels).is_ok());
        let names: Vec<&str> = r.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, ["link", "compress"]);
        assert_eq!(r.phases[0].edges, g.m() as u64, "link reads every edge");
        assert_eq!(r.rounds, None);
        assert_eq!((r.cost.work, r.cost.depth), (0, 0));
    }
}

/// Nightly seed sweep (CI cron job `seed-sweep.yml` runs this with
/// `--ignored`): the seeded solvers stay correct across ≥ 8 master seeds
/// on the whole degenerate-graph zoo. Too slow for every push, which is
/// why the per-push suite pins one seed.
#[test]
#[ignore = "nightly seed-sweep; run via cargo test -- --ignored seed_sweep"]
fn seed_sweep_seeded_solvers_across_the_zoo() {
    let seeded = ["paper", "known-gap", "ltz", "random-mate"];
    for seed in 0..8u64 {
        for (name, g) in zoo(seed ^ 0xA5A5) {
            let oracle = solver::oracle_labels(&g);
            for s in seeded {
                let s = solver::find(s).expect("registered");
                let r = s.solve(&g, &SolveCtx::with_seed(seed));
                assert!(
                    parcc::graph::traverse::same_partition(&r.labels, &oracle),
                    "{}/{name} wrong at seed {seed}",
                    s.name()
                );
            }
        }
    }
}

#[test]
fn compare_driver_verifies_everything_on_a_mixed_graph() {
    let g = gen::mixture(11);
    let rows = solver::compare(&g, 29);
    assert_eq!(rows.len(), solver::registry().len());
    let expected = rows[0].components;
    for row in &rows {
        assert!(row.verified, "{} failed verification", row.name);
        assert_eq!(row.components, expected, "{} component count", row.name);
        if row.caps.tracks_cost {
            assert!(row.cost.work > 0, "{} charged no work", row.name);
        }
    }
}
