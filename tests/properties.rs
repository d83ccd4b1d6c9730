//! Property-based tests (proptest): random multigraphs with loops, parallel
//! edges and isolated vertices — every algorithm must agree with the
//! union-find oracle; primitive contracts must hold for arbitrary inputs.

use parcc::baselines::union_find;
use parcc::core::{connectivity, Params};
use parcc::graph::traverse::{components, same_partition};
use parcc::graph::Graph;
use parcc::ltz::{ltz_connectivity, LtzParams};
use parcc::pram::cost::CostTracker;
use parcc::pram::edge::Edge;
use parcc::pram::forest::ParentForest;
use parcc::pram::primitives::{sample_edges, simplify_edges};
use parcc::pram::rng::Stream;
use proptest::prelude::*;

/// An arbitrary multigraph: up to 60 vertices, up to 150 edges, loops and
/// parallels included by construction.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..60).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..150).prop_map(move |pairs| Graph::from_pairs(n, &pairs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn connectivity_agrees_with_union_find(g in arb_graph(), seed in 0u64..1000) {
        let truth = union_find(&g);
        let tracker = CostTracker::new();
        let (labels, _) = connectivity(&g, &Params::for_n(g.n()).with_seed(seed), &tracker);
        prop_assert!(same_partition(&labels, &truth));
    }

    #[test]
    fn ltz_agrees_with_union_find(g in arb_graph(), seed in 0u64..1000) {
        let truth = union_find(&g);
        let forest = ParentForest::new(g.n());
        let tracker = CostTracker::new();
        let _ = ltz_connectivity(
            g.edges().to_vec(),
            &forest,
            LtzParams::for_n(g.n()).with_seed(seed),
            &tracker,
        );
        forest.flatten(&tracker);
        prop_assert!(same_partition(&forest.labels(&tracker), &truth));
    }

    #[test]
    fn bfs_and_union_find_agree(g in arb_graph()) {
        prop_assert!(same_partition(&components(&g), &union_find(&g)));
    }

    #[test]
    fn simplify_preserves_partition(g in arb_graph()) {
        let simple = simplify_edges(g.edges(), true, &CostTracker::new());
        let h = Graph::new(g.n(), simple.clone());
        prop_assert!(same_partition(&components(&g), &components(&h)));
        // And is actually simple: no loops, no duplicate canonical edges.
        let mut seen = std::collections::HashSet::new();
        for e in &simple {
            prop_assert!(!e.is_loop());
            prop_assert!(seen.insert(e.canonical()));
        }
    }

    #[test]
    fn sampling_yields_subgraph_and_is_deterministic(
        g in arb_graph(),
        p in 0.0f64..1.0,
        seed in 0u64..99,
    ) {
        let tracker = CostTracker::new();
        let s = Stream::new(seed, 1);
        let a = sample_edges(g.edges(), p, s, &tracker);
        let b = sample_edges(g.edges(), p, s, &tracker);
        prop_assert_eq!(&a, &b);
        let set: std::collections::HashSet<_> = g.edges().iter().collect();
        for e in &a {
            prop_assert!(set.contains(e));
        }
    }

    #[test]
    fn sampled_subgraph_never_merges_components(g in arb_graph(), seed in 0u64..99) {
        // Subgraph components refine the original components.
        let s = g.edge_sampled(0.5, seed);
        let orig = components(&g);
        let sub = components(&s);
        for e in s.edges() {
            prop_assert_eq!(orig[e.u() as usize], orig[e.v() as usize]);
        }
        // Refinement: same sub-label ⇒ same original label.
        for v in 0..g.n() {
            for w in 0..g.n() {
                if sub[v] == sub[w] {
                    prop_assert_eq!(orig[v], orig[w]);
                }
            }
        }
    }

    #[test]
    fn forest_flatten_preserves_roots_partition(parents in proptest::collection::vec(0u32..40, 40)) {
        // Build an arbitrary (possibly cyclic) parent proposal; keep only
        // acyclic hooks: v.p = u only if u < v (guaranteed acyclic).
        let forest = ParentForest::new(40);
        for (v, &p) in parents.iter().enumerate() {
            if (p as usize) < v {
                forest.set_parent(v as u32, p);
            }
        }
        let tracker = CostTracker::new();
        let before: Vec<u32> = (0..40).map(|v| forest.find_root(v).0).collect();
        forest.flatten(&tracker);
        let after: Vec<u32> = (0..40).map(|v| forest.find_root(v).0).collect();
        prop_assert_eq!(before, after);
        prop_assert!(forest.max_height() <= 1);
    }

    #[test]
    fn spectral_gap_bounds(g in arb_graph()) {
        let report = parcc::spectral::component_gaps(&g, 3);
        for &(size, gap) in &report.components {
            prop_assert!((0.0..=2.0 + 1e-9).contains(&gap), "gap {} out of range", gap);
            if size > 1 {
                prop_assert!(gap > 1e-12, "connected component must have positive gap");
            }
        }
    }

    #[test]
    fn stage1_reduce_is_contraction_safe(g in arb_graph(), seed in 0u64..500) {
        // The §2.1 discipline on arbitrary multigraphs: every vertex's root
        // stays inside its true component, trees end flat, edges on roots.
        use parcc::core::stage1::{reduce, Stage1Scratch};
        let forest = ParentForest::new(g.n());
        let scratch = Stage1Scratch::new(g.n());
        let tracker = CostTracker::new();
        let params = parcc::core::Params::for_n(g.n()).with_seed(seed);
        let out = reduce(g.edges(), &params, &forest, &scratch, &tracker);
        let truth = union_find(&g);
        for v in 0..g.n() as u32 {
            let r = forest.find_root(v).0;
            prop_assert_eq!(truth[r as usize], truth[v as usize]);
        }
        prop_assert!(forest.max_height() <= 1);
        for e in &out.edges {
            prop_assert!(forest.is_root(e.u()) && forest.is_root(e.v()));
            prop_assert!(!e.is_loop());
        }
    }

    #[test]
    fn known_gap_pipeline_agrees_with_oracle(g in arb_graph(), seed in 0u64..500) {
        let truth = union_find(&g);
        let tracker = CostTracker::new();
        let (labels, _) = parcc::core::stage3::connectivity_known_gap(
            &g,
            16,
            &Params::for_n(g.n()).with_seed(seed),
            &tracker,
        );
        prop_assert!(same_partition(&labels, &truth));
    }

    #[test]
    fn io_roundtrip(g in arb_graph()) {
        use parcc::graph::io::{read_edge_list, write_edge_list};
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn sweep_cut_conductance_recounts_exactly(g in arb_graph(), seed in 0u64..99) {
        // The reported conductance must match an independent recount
        // *within the cut's component* (the documented semantics).
        if let Some(cut) = parcc::spectral::sweep_cut(&g, 120, seed) {
            let labels = components(&g);
            let comp = labels[cut.side[0] as usize];
            let mut in_set = vec![false; g.n()];
            for &v in &cut.side {
                prop_assert_eq!(labels[v as usize], comp, "cut left its component");
                in_set[v as usize] = true;
            }
            let deg = g.degrees();
            let vol_comp: u64 = (0..g.n())
                .filter(|&v| labels[v] == comp)
                .map(|v| deg[v] as u64)
                .sum();
            let vol_s: u64 = cut.side.iter().map(|&v| deg[v as usize] as u64).sum();
            let crossing = g
                .edges()
                .iter()
                .filter(|e| in_set[e.u() as usize] != in_set[e.v() as usize])
                .count() as f64;
            let denom = vol_s.min(vol_comp - vol_s);
            prop_assert!(denom > 0);
            let phi = crossing / denom as f64;
            prop_assert!((phi - cut.conductance).abs() < 1e-9,
                "reported {} vs recount {phi}", cut.conductance);
        }
    }

    #[test]
    fn edge_pack_roundtrip(u in 0u32..u32::MAX, v in 0u32..u32::MAX) {
        let e = Edge::new(u, v);
        prop_assert_eq!(e.ends(), (u, v));
        prop_assert_eq!(e.rev().rev(), e);
        let c = e.canonical();
        prop_assert!(c.u() <= c.v());
    }
}
