//! The `hybrid` adaptive solver: contraction-rate phase switching
//! (ROADMAP "adaptive execution engine", the Sutton-et-al. play).
//!
//! The registry's one adaptive solver: instead of sniffing the input up
//! front, `hybrid` adapts *during* the run. It drives cheap HashMin sweeps
//! ([`HashMinSweep`]) over the full edge set while components are
//! collapsing quickly — each sweep is one `(m + n)`-work round, the
//! cheapest round any solver here can buy — and watches two live signals
//! per round:
//!
//! * the **frontier** (vertices whose label changed): zero means the
//!   fixpoint, labels are per-component minima, done — no kernel;
//! * the **live-component count** ([`count_distinct_labels`], an
//!   arena-pooled bitset scan): its per-round shrink is the contraction
//!   rate.
//!
//! When the shrink falls below `switch_shrink` (or the hard `max_sweeps`
//! cap trips), sweeping has stopped paying — the remainder is
//! the stubborn high-diameter core. The run then **contracts in place**:
//! relabel every edge by its endpoints' sweep labels, drop loops, simplify
//! through a [`SolverArena`] (`simplify_edges_into`, zero steady-state
//! allocations per the PR 5 contract), renumber the surviving labels
//! densely, and solve the kernel graph with Shiloach–Vishkin. Kernel labels
//! map back through the contraction; canonicality survives because sweep
//! labels sit in the same component as the vertices they label.
//!
//! Why SV and not the paper's pipeline: the paper's linear-work guarantee
//! does not make it fast on the contracted remainder, and on a mesh that
//! remainder is nearly the whole graph. Measured with each candidate
//! kernel (`paper`, `ltz`, SV, Liu–Tarjan P+SS), SV gave the fastest
//! `hybrid` on the mesh by a wide margin, and all four were within noise
//! on powerlaw, gnp and expander inputs (the table is in ROADMAP.md). SV
//! is also deterministic, so `hybrid`'s labels and simulated cost depend
//! on neither the seed nor the thread count.
//!
//! Why the rounds stay bounded: continuing to sweep *requires* the live
//! count to shrink geometrically (factor `1 − switch_shrink` per round),
//! so the sweep phase runs `O(log n)` rounds on any input before the rate
//! gate fires — `max_sweeps` is a belt on top of that — and SV takes
//! `O(log n)` rounds on the kernel. On a `side × side` mesh the rate gate
//! fires after a small *side-independent* number of sweeps (live count
//! falls as `n/t²`, so the per-round shrink decays like `1/t`), which is
//! exactly the workload where pure label-prop pays `Θ(side)` rounds. On a
//! low-diameter powerlaw graph the giant component collapses within a few
//! sweeps, the live count then stalls near the component count while the
//! frontier is not yet empty, and the rate gate fires on a tiny kernel: `powerlaw 200000 1 8` switches after 4 sweeps with 4,208
//! kernel nodes and 41 kernel edges. The sweep phase converges with no
//! kernel only when every component settles before the gate can fire, as
//! on an expander.
//!
//! Every phase lands in [`SolveReport::phases`] (rounds, live edges, wall,
//! allocs), so `parcc stats`, `compare --json`, and E19 show *when* the
//! switch happened and what it cost.

use parcc_baselines::{shiloach_vishkin, HashMinSweep};
use parcc_graph::solver::{ComponentSolver, PhaseStat, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::store::{concat_edges, GraphStore};
use parcc_graph::Graph;
use parcc_pram::alloc_track;
use parcc_pram::cost::CostTracker;
use parcc_pram::edge::{Edge, Vertex};
use parcc_pram::primitives::{compact_map_into, count_distinct_labels, simplify_edges_into};
use parcc_pram::SolverArena;
use rayon::prelude::*;
use std::time::Instant;

/// When the sweep phase hands over to the kernel.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    /// Keep sweeping while the live-component count shrinks by at least
    /// this fraction per round; below it, contract and solve the kernel.
    switch_shrink: f64,
    /// Sweeps always granted before the shrink gate applies (the first
    /// round's shrink is huge and uninformative on most inputs).
    min_sweeps: u64,
    /// Hard sweep cap: switch regardless of the observed rate.
    max_sweeps: u64,
}

/// The thresholds every registry solve uses.
const THRESHOLDS: Thresholds = Thresholds {
    switch_shrink: 0.25,
    min_sweeps: 2,
    max_sweeps: 64,
};

/// Why the sweep phase ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Switch {
    /// Frontier hit zero: sweep labels are the answer, no kernel.
    Converged,
    /// Live-component shrink fell below `switch_shrink`.
    Rate,
    /// `max_sweeps` tripped before the rate gate.
    Cap,
}

impl Switch {
    fn as_str(self) -> &'static str {
        match self {
            Switch::Converged => "converged",
            Switch::Rate => "rate",
            Switch::Cap => "cap",
        }
    }
}

/// Telemetry the measured closure hands back alongside the labels.
#[derive(Default)]
struct Trace {
    phases: Vec<PhaseStat>,
    sweeps: u64,
    switch_reason: &'static str,
    last_shrink: f64,
    kernel_n: usize,
    kernel_m: usize,
}

/// Sweep until the contraction rate stalls; report how it ended and the
/// final live-component count.
fn sweep_phase(
    sweep: &mut HashMinSweep,
    edges: &[Edge],
    arena: &mut SolverArena,
    th: &Thresholds,
    tracker: &CostTracker,
    trace: &mut Trace,
) -> Switch {
    let n = sweep.labels().len();
    let (t0, a0) = (Instant::now(), alloc_track::allocation_count());
    let mut live_before = n;
    let outcome = loop {
        trace.sweeps += 1;
        let frontier = sweep.sweep(edges, tracker);
        if frontier == 0 {
            break Switch::Converged;
        }
        let live = count_distinct_labels(sweep.labels(), arena, tracker);
        trace.last_shrink = 1.0 - live as f64 / live_before.max(1) as f64;
        live_before = live;
        if trace.sweeps >= th.max_sweeps {
            break Switch::Cap;
        }
        if trace.sweeps >= th.min_sweeps && trace.last_shrink < th.switch_shrink {
            break Switch::Rate;
        }
    };
    trace.phases.push(PhaseStat {
        name: "sweep",
        rounds: trace.sweeps,
        edges: edges.len() as u64,
        wall: t0.elapsed(),
        allocs: alloc_track::allocation_count().saturating_sub(a0),
    });
    trace.switch_reason = outcome.as_str();
    outcome
}

/// Contract the graph by the sweep labels: kernel edge list (simplified,
/// densely renumbered), the dense id map (`label vertex id → kernel id`,
/// `u32::MAX` elsewhere), and the representative table (`kernel id →
/// original vertex id`).
fn contract_phase(
    labels: &[u32],
    edges: &[Edge],
    arena: &mut SolverArena,
    tracker: &CostTracker,
    trace: &mut Trace,
) -> (Vec<Edge>, Vec<Vertex>, Vec<Vertex>) {
    let n = labels.len();
    let (t0, a0) = (Instant::now(), alloc_track::allocation_count());

    // Relabel endpoints by their sweep label, dropping the (many) edges
    // already internal to one label class.
    let mut relabeled = arena.take_edges();
    compact_map_into(
        edges,
        |e| {
            let (a, b) = (labels[e.u() as usize], labels[e.v() as usize]);
            (a != b).then(|| Edge::new(a, b))
        },
        &mut relabeled,
        tracker,
    );
    let mut kernel = Vec::new();
    simplify_edges_into(&relabeled, true, &mut kernel, arena, tracker);
    arena.give_edges(relabeled);

    // Dense renumbering: mark the label values actually present, then
    // assign kernel ids in increasing label order. Two O(n) passes. The
    // map and reps outlive the arena (the label map-back needs them), so
    // they are plain owned buffers.
    tracker.charge(2 * n as u64, 2);
    let mut map: Vec<Vertex> = vec![u32::MAX; n];
    for &l in labels {
        map[l as usize] = 1;
    }
    let mut reps = Vec::new();
    for (l, slot) in map.iter_mut().enumerate() {
        if *slot != u32::MAX {
            *slot = reps.len() as u32;
            reps.push(l as Vertex);
        }
    }
    tracker.charge(kernel.len() as u64, 1);
    kernel
        .par_iter_mut()
        .for_each(|e| *e = Edge::new(map[e.u() as usize], map[e.v() as usize]));

    trace.kernel_n = reps.len();
    trace.kernel_m = kernel.len();
    trace.phases.push(PhaseStat {
        name: "contract",
        rounds: 1,
        edges: edges.len() as u64,
        wall: t0.elapsed(),
        allocs: alloc_track::allocation_count().saturating_sub(a0),
    });
    (kernel, map, reps)
}

/// Solve the kernel with Shiloach–Vishkin; returns kernel labels and its
/// round count. Charges straight into `hybrid`'s own tracker so the
/// reported cost is the whole run's.
fn kernel_phase(
    k: usize,
    kernel: Vec<Edge>,
    tracker: &CostTracker,
    trace: &mut Trace,
) -> (Vec<Vertex>, u64) {
    let (t0, a0) = (Instant::now(), alloc_track::allocation_count());
    let kernel_m = kernel.len() as u64;
    let (klabels, stats) = shiloach_vishkin(&Graph::new(k, kernel), tracker);
    trace.phases.push(PhaseStat {
        name: "kernel",
        rounds: stats.rounds,
        edges: kernel_m,
        wall: t0.elapsed(),
        allocs: alloc_track::allocation_count().saturating_sub(a0),
    });
    (klabels, stats.rounds)
}

/// The full adaptive run against explicit thresholds: the registry entry
/// passes [`THRESHOLDS`], the switch-boundary tests their own.
fn solve_with(n: usize, edges: &[Edge], ctx: &SolveCtx, th: &Thresholds) -> SolveReport {
    let mut trace = Trace::default();
    let report = SolveReport::measure(ctx, |tracker| {
        if n == 0 {
            trace.switch_reason = "empty";
            return (Vec::new(), Some(0));
        }
        if edges.is_empty() {
            // Edgeless: every vertex its own (canonical) component.
            tracker.charge(n as u64, 1);
            trace.switch_reason = "no-edges";
            return ((0..n as Vertex).collect(), Some(0));
        }
        let mut arena = SolverArena::new();
        let mut sweep = HashMinSweep::new(n);
        let outcome = sweep_phase(&mut sweep, edges, &mut arena, th, tracker, &mut trace);
        if outcome == Switch::Converged {
            // Fixpoint labels are per-component minima: already canonical.
            return (sweep.into_labels(), Some(trace.sweeps));
        }
        let labels = sweep.into_labels();
        let (kernel, map, reps) = contract_phase(&labels, edges, &mut arena, tracker, &mut trace);
        let (klabels, krounds) = kernel_phase(reps.len(), kernel, tracker, &mut trace);
        // Map back: v → its label's kernel component's representative
        // vertex. Canonical because every kernel node lies in the original
        // component of the vertices it absorbed.
        tracker.charge(n as u64, 1);
        let out: Vec<Vertex> = labels
            .par_iter()
            .map(|&l| reps[klabels[map[l as usize] as usize] as usize])
            .collect();
        (out, Some(trace.sweeps + krounds))
    });
    report
        .note("switch", trace.switch_reason)
        .note("sweeps", trace.sweeps)
        .note("last_shrink", format!("{:.3}", trace.last_shrink))
        .note("kernel_n", trace.kernel_n)
        .note("kernel_m", trace.kernel_m)
        .with_phases(trace.phases)
}

/// The `hybrid` registry entry.
pub struct HybridSolver;

impl ComponentSolver for HybridSolver {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn description(&self) -> &'static str {
        "adaptive: HashMin sweeps while contraction is fast, then contract + SV kernel"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            // The sweeps and the SV kernel resolve concurrent writes by
            // priority and the contraction is a sort-and-dedup, so labels
            // and simulated cost depend only on the input.
            deterministic: true,
            seeded: false,
            parallel: true,
            // Continuing to sweep requires geometric live-count decay, so
            // the sweep phase is O(log n) rounds (and max_sweeps-capped
            // regardless); the SV kernel is O(log n) rounds.
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        solve_with(g.n(), g.edges(), ctx, &THRESHOLDS)
    }

    /// Shard-native enough: one exact-size concat (the sweep wants a flat
    /// slice to scan every round), then the same adaptive run.
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        let edges = concat_edges(store);
        solve_with(store.n(), &edges, ctx, &THRESHOLDS).note("store_shards", store.shard_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    fn note<'r>(r: &'r SolveReport, key: &str) -> &'r str {
        r.notes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or("")
    }

    fn assert_canonical(r: &SolveReport) {
        for &l in &r.labels {
            assert_eq!(r.labels[l as usize], l, "non-canonical label");
        }
    }

    fn check(g: &Graph, th: &Thresholds) -> SolveReport {
        let r = solve_with(g.n(), g.edges(), &SolveCtx::with_seed(3), th);
        assert!(same_partition(&r.labels, &components(g)), "wrong partition");
        assert_canonical(&r);
        r
    }

    #[test]
    fn all_fast_contracting_converges_without_a_kernel() {
        // Tiny diameter: the frontier dies before the rate gate can fire.
        let r = check(&gen::complete(64), &THRESHOLDS);
        assert_eq!(note(&r, "switch"), "converged");
        assert_eq!(r.phases.len(), 1, "sweep phase only");
        assert_eq!(r.phases[0].name, "sweep");
    }

    #[test]
    fn never_contracting_switches_at_min_sweeps() {
        // switch_shrink = 0.6: a path shrinks ~1/3 per round once rolling,
        // so the rate gate fires at the first eligible check.
        let th = Thresholds {
            switch_shrink: 0.6,
            ..THRESHOLDS
        };
        let r = check(&gen::path(400), &th);
        assert_eq!(note(&r, "switch"), "rate");
        assert_eq!(note(&r, "sweeps"), th.min_sweeps.to_string());
        let names: Vec<_> = r.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["sweep", "contract", "kernel"]);
    }

    #[test]
    fn cap_bounds_sweeps_when_the_rate_gate_is_disabled() {
        let th = Thresholds {
            switch_shrink: 0.0, // rate gate never fires
            max_sweeps: 3,
            ..THRESHOLDS
        };
        let r = check(&gen::path(400), &th);
        assert_eq!(note(&r, "switch"), "cap");
        assert_eq!(note(&r, "sweeps"), "3");
        assert!(r.rounds.unwrap() > 3, "kernel rounds add on");
    }

    #[test]
    fn rate_gate_bounds_mesh_sweeps_independent_of_side() {
        // The tentpole claim: on a 2-D mesh the live count decays like
        // n/t², so the default gate fires after a side-independent handful
        // of sweeps — while pure label-prop pays Θ(side) rounds.
        let mut sweeps = Vec::new();
        for side in [24usize, 48] {
            let g = gen::grid2d(side, side, false);
            let r = check(&g, &THRESHOLDS);
            assert_eq!(note(&r, "switch"), "rate", "side {side}");
            sweeps.push(note(&r, "sweeps").parse::<u64>().unwrap());
            assert!(
                r.rounds.unwrap() < side as u64,
                "side {side}: total rounds {} must beat label-prop's Θ(side)",
                r.rounds.unwrap()
            );
        }
        assert_eq!(sweeps[0], sweeps[1], "sweep count must not grow with side");
    }

    #[test]
    fn degenerate_inputs() {
        let r = check(&Graph::new(0, vec![]), &THRESHOLDS);
        assert_eq!(note(&r, "switch"), "empty");
        let r = check(&Graph::new(1, vec![]), &THRESHOLDS);
        assert_eq!(note(&r, "switch"), "no-edges");
        assert_eq!(r.labels, vec![0]);
        let r = check(&Graph::new(5, vec![]), &THRESHOLDS);
        assert_eq!(r.component_count(), 5);
    }

    #[test]
    fn registry_entry_solves_the_mixture_with_phases() {
        let g = gen::mixture(4);
        let r = HybridSolver.solve(&g, &SolveCtx::with_seed(9));
        assert!(same_partition(&r.labels, &components(&g)));
        assert_canonical(&r);
        assert!(!r.phases.is_empty(), "phases must be reported");
        assert!(r.cost.work > 0, "must charge the tracker");
    }

    #[test]
    fn store_entry_matches_flat() {
        let g = gen::gnp(600, 0.01, 7);
        let sg = parcc_graph::store::ShardedGraph::from_graph(&g, 4);
        let flat = HybridSolver.solve(&g, &SolveCtx::with_seed(2));
        let sharded = HybridSolver.solve_store(&sg, &SolveCtx::with_seed(2));
        assert_eq!(flat.labels, sharded.labels, "concat preserves edge order");
    }

    #[test]
    fn isolated_vertices_survive_the_contraction_roundtrip() {
        let g = gen::with_isolated(&gen::grid2d(12, 12, false), 300);
        let th = Thresholds {
            switch_shrink: 0.9, // force the contraction path
            ..THRESHOLDS
        };
        let r = check(&g, &th);
        assert!(
            r.phases.iter().any(|p| p.name == "contract"),
            "must take the contraction path"
        );
    }
}
