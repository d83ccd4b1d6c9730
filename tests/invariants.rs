//! Structural invariants of the pipeline, asserted mid-flight:
//! contraction-safety (the paper's §2.1 discipline), labeled-digraph
//! acyclicity, flatness post-conditions, and stage contracts.

use parcc::core::stage1::{reduce, Stage1Scratch};
use parcc::core::stage2::{build_skeleton, increase, CurrentGraph, Stage2Scratch};
use parcc::core::Params;
use parcc::graph::generators as gen;
use parcc::graph::traverse::components;
use parcc::graph::Graph;
use parcc::pram::cost::CostTracker;
use parcc::pram::forest::ParentForest;
use parcc::pram::rng::Stream;

/// Every vertex's root lies in its true component.
fn assert_contraction_safe(g: &Graph, forest: &ParentForest, context: &str) {
    let truth = components(g);
    for v in 0..g.n() as u32 {
        let r = forest.find_root(v).0;
        assert_eq!(
            truth[r as usize], truth[v as usize],
            "{context}: vertex {v} contracted across components"
        );
    }
}

fn stage1(g: &Graph, seed: u64) -> (ParentForest, CurrentGraph, Stage1Scratch, Params) {
    let forest = ParentForest::new(g.n());
    let s1 = Stage1Scratch::new(g.n());
    let tracker = CostTracker::new();
    let params = Params::for_n(g.n()).with_seed(seed);
    let out = reduce(g.edges(), &params, &forest, &s1, &tracker);
    (
        forest,
        CurrentGraph {
            edges: out.edges,
            active: out.active,
        },
        s1,
        params,
    )
}

#[test]
fn stage1_postconditions_across_zoo() {
    for (i, g) in [
        gen::gnp(2000, 0.003, 1),
        gen::cycle(1024),
        gen::mixture(2),
        gen::chung_lu(1500, 2.5, 5.0, 3),
    ]
    .iter()
    .enumerate()
    {
        let (forest, cur, _, _) = stage1(g, i as u64);
        assert!(forest.max_height() <= 1, "stage 1 must leave flat trees");
        for e in &cur.edges {
            assert!(forest.is_root(e.u()) && forest.is_root(e.v()));
            assert!(!e.is_loop(), "stage 1 output is loop-free");
        }
        assert_contraction_safe(g, &forest, "stage 1");
    }
}

#[test]
fn stage2_postconditions() {
    let g = gen::gnp(3000, 0.004, 7);
    let (forest, mut cur, s1, params) = stage1(&g, 7);
    let s2 = Stage2Scratch::new(g.n());
    let tracker = CostTracker::new();
    let sk = build_skeleton(
        &cur.edges,
        &cur.active,
        16,
        params.hi_threshold_factor,
        params.sparsify_prob,
        &s2,
        Stream::new(7, 1),
        &tracker,
    );
    // Skeleton is a subgraph of the current graph up to dedup.
    let cur_set: std::collections::HashSet<_> = cur.edges.iter().map(|e| e.canonical()).collect();
    for e in &sk.edges {
        assert!(
            cur_set.contains(&e.canonical()),
            "skeleton invented an edge"
        );
    }
    let _ = increase(
        &mut cur, sk.edges, 16, &forest, &params, &s1, &s2, 7, &tracker,
    );
    assert_contraction_safe(&g, &forest, "stage 2");
    for e in &cur.edges {
        assert!(
            forest.is_root(e.u()) && forest.is_root(e.v()),
            "stage 2 edges must sit on roots"
        );
    }
}

#[test]
fn forest_never_cycles_through_full_run() {
    // max_height panics on a non-loop cycle; run it after every stage.
    let g = gen::mixture(5);
    let (forest, mut cur, s1, params) = stage1(&g, 5);
    let _ = forest.max_height();
    let s2 = Stage2Scratch::new(g.n());
    let tracker = CostTracker::new();
    let sk = build_skeleton(
        &cur.edges,
        &cur.active,
        16,
        params.hi_threshold_factor,
        params.sparsify_prob,
        &s2,
        Stream::new(5, 2),
        &tracker,
    );
    let _ = increase(
        &mut cur, sk.edges, 16, &forest, &params, &s1, &s2, 5, &tracker,
    );
    let _ = forest.max_height();
    let _ = parcc::core::stage3::sample_solve(&mut cur, &forest, &params, 5, &tracker);
    let _ = forest.max_height();
}

#[test]
fn labels_are_canonical_and_idempotent() {
    let g = gen::expander_union(3, 200, 4, 11);
    let tracker = CostTracker::new();
    let (labels, _) = parcc::core::connectivity(&g, &Params::for_n(g.n()), &tracker);
    for (v, &l) in labels.iter().enumerate() {
        // The label is itself labelled by itself (a root representative).
        assert_eq!(labels[l as usize], l, "label of {v} is not canonical");
    }
}

#[test]
fn stage1_work_scales_linearly() {
    // Doubling the input should roughly double stage-1 work (linear-work
    // claim, coarse 2.5× envelope per doubling).
    let mut per_item = Vec::new();
    for k in [13usize, 14, 15] {
        let n = 1 << k;
        let g = gen::gnp(n, 8.0 / n as f64, 3);
        let forest = ParentForest::new(g.n());
        let s1 = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let params = Params::for_n(g.n());
        let _ = reduce(g.edges(), &params, &forest, &s1, &tracker);
        per_item.push(tracker.work() as f64 / (g.n() + g.m()) as f64);
    }
    for w in per_item.windows(2) {
        assert!(
            w[1] / w[0] < 2.5,
            "work per item grew superlinearly: {per_item:?}"
        );
    }
}

#[test]
fn isolated_vertices_never_move() {
    let g = gen::with_isolated(&gen::complete(10), 50);
    let tracker = CostTracker::new();
    let (labels, _) = parcc::core::connectivity(&g, &Params::for_n(g.n()), &tracker);
    for v in 10..60u32 {
        assert_eq!(labels[v as usize], v, "isolated vertex {v} moved");
    }
}

#[test]
fn edge_order_and_relabeling_invariance() {
    // ARBITRARY CRCW correctness must be independent of processor order:
    // reversing the edge array and randomly permuting vertex ids must yield
    // the same partition (up to the relabeling).
    use parcc::core::connectivity;
    use parcc::graph::traverse::{components, same_partition};
    use parcc::pram::edge::Edge;

    let g = gen::mixture(17);
    let truth = components(&g);
    // Reversed edge order.
    let mut rev: Vec<Edge> = g.edges().to_vec();
    rev.reverse();
    let g_rev = Graph::new(g.n(), rev);
    let tracker = CostTracker::new();
    let (labels, _) = connectivity(&g_rev, &Params::for_n(g.n()), &tracker);
    assert!(same_partition(&labels, &truth));
    // Random relabeling: run on the permuted graph and compare partition
    // sizes (the partition itself is permuted, so compare multisets).
    let gp = g.permuted(99);
    let tracker = CostTracker::new();
    let (plabels, _) = connectivity(&gp, &Params::for_n(gp.n()), &tracker);
    let sizes = |ls: &[u32]| {
        let mut m = std::collections::HashMap::new();
        for &l in ls {
            *m.entry(l).or_insert(0usize) += 1;
        }
        let mut v: Vec<usize> = m.into_values().collect();
        v.sort_unstable();
        v
    };
    assert_eq!(sizes(&truth), sizes(&plabels));
}

#[test]
fn duplicated_edge_array_changes_nothing() {
    // Multigraph semantics: tripling every edge must not change the result.
    use parcc::core::connectivity;
    use parcc::graph::traverse::{components, same_partition};
    let g = gen::gnp(600, 0.004, 9);
    let mut edges = g.edges().to_vec();
    edges.extend_from_slice(g.edges());
    edges.extend_from_slice(g.edges());
    let g3 = Graph::new(g.n(), edges);
    let tracker = CostTracker::new();
    let (labels, _) = connectivity(&g3, &Params::for_n(g3.n()), &tracker);
    assert!(same_partition(&labels, &components(&g)));
}

#[test]
fn component_index_agrees_with_ground_truth() {
    use parcc::core::ComponentIndex;
    use parcc::graph::traverse::components;
    let g = gen::mixture(23);
    let (ix, _) = ComponentIndex::build(&g, &Params::for_n(g.n()));
    let truth = components(&g);
    for v in 0..g.n() as u32 {
        for w in [0u32, v / 2, v] {
            assert_eq!(
                ix.same_component(v, w),
                truth[v as usize] == truth[w as usize]
            );
        }
    }
    let count_truth = truth
        .iter()
        .enumerate()
        .filter(|&(v, &l)| v as u32 == l)
        .count();
    assert_eq!(ix.count(), count_truth);
}
