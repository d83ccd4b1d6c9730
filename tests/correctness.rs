//! Cross-crate correctness: every connectivity algorithm in the workspace
//! must produce the same partition as the sequential BFS/union-find oracles,
//! across the full generator zoo, multiple seeds, and degenerate inputs.

use parcc::baselines;
use parcc::core::{connectivity, stage3::connectivity_known_gap, Params};
use parcc::graph::generators as gen;
use parcc::graph::traverse::{components, same_partition};
use parcc::graph::Graph;
use parcc::ltz::{ltz_connectivity, LtzParams};
use parcc::pram::cost::CostTracker;
use parcc::pram::forest::ParentForest;

fn zoo(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("path".into(), gen::path(700)),
        ("cycle".into(), gen::cycle(512)),
        ("complete".into(), gen::complete(48)),
        ("star".into(), gen::star(300)),
        ("binary_tree".into(), gen::binary_tree(511)),
        ("grid".into(), gen::grid2d(24, 24, false)),
        ("torus".into(), gen::grid2d(16, 16, true)),
        ("hypercube".into(), gen::hypercube(9)),
        ("gnp_sparse".into(), gen::gnp(1000, 0.002, seed)),
        ("gnp_dense".into(), gen::gnp(400, 0.05, seed)),
        ("regular".into(), gen::random_regular(600, 6, seed)),
        ("chung_lu".into(), gen::chung_lu(800, 2.5, 6.0, seed)),
        ("barbell".into(), gen::barbell(40, 3)),
        ("ring_cliques".into(), gen::ring_of_cliques(12, 6)),
        ("path_cliques".into(), gen::path_of_cliques(20, 5, 2)),
        (
            "expander_union".into(),
            gen::expander_union(4, 150, 4, seed),
        ),
        ("mixture".into(), gen::mixture(seed)),
        ("pitfall".into(), gen::sampling_pitfall(7, 8)),
        ("isolated".into(), gen::with_isolated(&gen::cycle(64), 30)),
        ("two_cycles".into(), gen::two_cycles(256)),
    ]
}

#[test]
fn main_algorithm_matches_oracle_across_zoo_and_seeds() {
    for seed in [1u64, 2, 3] {
        for (name, g) in zoo(seed) {
            let truth = components(&g);
            let tracker = CostTracker::new();
            let (labels, _) = connectivity(&g, &Params::for_n(g.n()).with_seed(seed), &tracker);
            assert!(
                same_partition(&labels, &truth),
                "connectivity wrong on {name} (seed {seed})"
            );
        }
    }
}

#[test]
fn known_gap_pipeline_matches_oracle() {
    for (name, g) in zoo(5) {
        let truth = components(&g);
        let tracker = CostTracker::new();
        let (labels, _) =
            connectivity_known_gap(&g, 16, &Params::for_n(g.n()).with_seed(5), &tracker);
        assert!(
            same_partition(&labels, &truth),
            "known-gap pipeline wrong on {name}"
        );
    }
}

#[test]
fn ltz_matches_oracle() {
    for (name, g) in zoo(7) {
        let truth = components(&g);
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let _ = ltz_connectivity(
            g.edges().to_vec(),
            &forest,
            LtzParams::for_n(g.n()).with_seed(7),
            &tracker,
        );
        forest.flatten(&tracker);
        assert!(
            same_partition(&forest.labels(&tracker), &truth),
            "LTZ wrong on {name}"
        );
    }
}

#[test]
fn baselines_match_oracle() {
    for (name, g) in zoo(9) {
        let truth = components(&g);
        let t1 = CostTracker::new();
        let (sv, _) = baselines::shiloach_vishkin(&g, &t1);
        assert!(same_partition(&sv, &truth), "SV wrong on {name}");
        let t2 = CostTracker::new();
        let (rm, _) = baselines::random_mate(&g, 9, &t2);
        assert!(same_partition(&rm, &truth), "random-mate wrong on {name}");
        assert!(
            same_partition(&baselines::union_find(&g), &truth),
            "union-find wrong on {name}"
        );
    }
}

/// The degenerate corner cases every entry point must survive: empty graph,
/// single vertex, pure self-loops, duplicate/reversed parallel edges, and
/// large all-isolated vertex sets.
fn degenerate_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("n=0", Graph::new(0, vec![])),
        ("n=1", Graph::new(1, vec![])),
        ("n=1 self-loop", Graph::from_pairs(1, &[(0, 0)])),
        (
            "duplicate edges",
            Graph::from_pairs(2, &[(0, 1), (0, 1), (1, 0)]),
        ),
        (
            "all self-loops",
            Graph::from_pairs(3, &[(0, 0), (1, 1), (2, 2)]),
        ),
        ("all isolated", Graph::new(500, vec![])),
        (
            "loops + duplicates + isolated",
            Graph::from_pairs(6, &[(0, 0), (1, 2), (2, 1), (1, 2), (3, 3), (3, 3)]),
        ),
    ]
}

#[test]
fn degenerate_inputs_core() {
    for (name, g) in degenerate_zoo() {
        let truth = components(&g);
        let tracker = CostTracker::new();
        let params = Params::for_n(g.n());
        let (labels, _) = connectivity(&g, &params, &tracker);
        assert!(
            same_partition(&labels, &truth),
            "connectivity wrong on {name}"
        );
        let (kg, _) = connectivity_known_gap(&g, 16, &params, &CostTracker::new());
        assert!(same_partition(&kg, &truth), "known-gap wrong on {name}");
        let wrapper = parcc::core::connected_components(&g, &params);
        assert!(same_partition(&wrapper, &truth), "wrapper wrong on {name}");
    }
}

#[test]
fn degenerate_inputs_baselines() {
    for (name, g) in degenerate_zoo() {
        let truth = components(&g);
        assert!(
            same_partition(&baselines::union_find(&g), &truth),
            "union-find wrong on {name}"
        );
        let (sv, _) = baselines::shiloach_vishkin(&g, &CostTracker::new());
        assert!(same_partition(&sv, &truth), "SV wrong on {name}");
        let (lp, _) = baselines::label_propagation(&g, &CostTracker::new());
        assert!(same_partition(&lp, &truth), "label-prop wrong on {name}");
        let (rm, _) = baselines::random_mate(&g, 11, &CostTracker::new());
        assert!(same_partition(&rm, &truth), "random-mate wrong on {name}");
        let (lt, _) = baselines::liu_tarjan(&g, &CostTracker::new());
        assert!(same_partition(&lt, &truth), "liu-tarjan wrong on {name}");
        let forest = baselines::spanning_forest(&g);
        let distinct: std::collections::HashSet<_> = truth.iter().collect();
        assert_eq!(
            forest.len(),
            g.n() - distinct.len(),
            "spanning forest size wrong on {name}"
        );
    }
}

#[test]
fn degenerate_inputs_ltz() {
    for (name, g) in degenerate_zoo() {
        let truth = components(&g);
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let _ = ltz_connectivity(
            g.edges().to_vec(),
            &forest,
            LtzParams::for_n(g.n()).with_seed(3),
            &tracker,
        );
        forest.flatten(&tracker);
        assert!(
            same_partition(&forest.labels(&tracker), &truth),
            "LTZ wrong on {name}"
        );
    }
}

#[test]
fn all_parallel_edges_multigraph() {
    // 1000 copies of the same edge plus loops: the multigraph stress case.
    let mut pairs = vec![(0u32, 1u32); 1000];
    pairs.extend([(1, 1); 50]);
    pairs.push((2, 3));
    let g = Graph::from_pairs(5, &pairs);
    let truth = components(&g);
    let tracker = CostTracker::new();
    let (labels, _) = connectivity(&g, &Params::for_n(g.n()), &tracker);
    assert!(same_partition(&labels, &truth));
}

#[test]
fn seeds_change_execution_not_answer() {
    let g = gen::mixture(13);
    let truth = components(&g);
    for seed in 0..8u64 {
        let tracker = CostTracker::new();
        let (labels, _) = connectivity(&g, &Params::for_n(g.n()).with_seed(seed), &tracker);
        assert!(same_partition(&labels, &truth), "seed {seed} broke it");
    }
}

#[test]
fn single_threaded_run_matches() {
    // Same answer under pinned CRCW resolution.
    let g = gen::gnp(800, 0.004, 3);
    let truth = components(&g);
    let labels = parcc::pram::run_single_threaded(|| {
        let tracker = CostTracker::new();
        connectivity(&g, &Params::for_n(g.n()), &tracker).0
    });
    assert!(same_partition(&labels, &truth));
}
