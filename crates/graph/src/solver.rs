//! The `ComponentSolver` contract: one seam through which every
//! connectivity algorithm in the workspace flows.
//!
//! The paper positions itself against a family of classical algorithms
//! (Shiloach–Vishkin, random-mate, Liu–Tarjan, LTZ); the workspace
//! implements all of them, and every driver — the CLI, the experiment
//! harness, the conformance tests — wants to run "each registered solver"
//! rather than a hand-wired list of entry points. This module defines the
//! common shape:
//!
//! * [`ComponentSolver`] — name, [`SolverCaps`] capability flags, and
//!   `solve(&Graph, &SolveCtx) -> SolveReport`;
//! * [`SolveCtx`] — the per-run inputs every solver may consume (master
//!   seed, shared [`CostTracker`]);
//! * [`SolveReport`] — the per-run outputs every solver must produce
//!   (canonical labels, round telemetry, simulated PRAM cost, wall time).
//!
//! It lives in `parcc-graph` because this is the lowest crate that knows
//! both [`Graph`] and the PRAM cost model; the algorithm crates
//! (`parcc-core`, `parcc-ltz`, `parcc-baselines`) each implement the trait
//! in their own `solver` module, and `parcc-solver` assembles the static
//! registry.
//!
//! **Label contract:** `labels[v]` is a *canonical* representative of `v`'s
//! component — `labels[labels[v]] == labels[v]` — so downstream indexes
//! (`ComponentIndex`, partition checks) can consume any solver's output
//! interchangeably. Different solvers may pick different representatives;
//! only the induced partition is comparable across solvers.

use crate::repr::Graph;
use crate::store::GraphStore;
use parcc_pram::cost::{Cost, CostTracker};
use parcc_pram::edge::Vertex;
use std::time::{Duration, Instant};

/// Capability flags a driver can use to pick, group, or skip solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCaps {
    /// Output (not just the partition — the exact labels) is independent of
    /// the seed; for parallel solvers, independent of the schedule too.
    pub deterministic: bool,
    /// Consumes [`SolveCtx::seed`]: reruns with different seeds take
    /// different random choices.
    pub seeded: bool,
    /// Executes on the rayon pool / simulated PRAM substrate (as opposed to
    /// a purely sequential reference implementation).
    pub parallel: bool,
    /// Time does not grow with graph diameter: drivers use the flag to
    /// decide which solvers to run on huge-diameter workloads, and skip
    /// those without it (label propagation at `Θ(d)` rounds). Round-based
    /// solvers set it for a round count polylogarithmic in `n`;
    /// `union-find` and `hybrid` set it without having rounds.
    pub polylog_rounds: bool,
    /// Charges the [`CostTracker`]: simulated work/depth in the report are
    /// meaningful (sequential reference solvers report zero cost).
    pub tracks_cost: bool,
}

/// Per-run inputs shared by all solvers.
#[derive(Debug)]
pub struct SolveCtx {
    /// Master seed for seeded solvers; every random decision derives from it.
    pub seed: u64,
    /// Simulated PRAM work/depth accumulator. [`SolveReport::measure`]
    /// snapshots it around the solve, so one context may serve many runs.
    pub tracker: CostTracker,
}

impl Default for SolveCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveCtx {
    /// A context with the workspace's default seed.
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(0x5EED)
    }

    /// A context with the given master seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SolveCtx {
            seed,
            tracker: CostTracker::new(),
        }
    }
}

/// One phase of a multi-phase solve: a named slice of the run with its own
/// round count, live-edge footprint, wall time, and heap traffic.
///
/// Multi-pass solvers record one entry per pass (`hybrid` reports its
/// `"link"` and `"compress"` passes), so where the time went is visible in
/// `parcc stats`, `compare --json` and the bench tables. Round-structured
/// solvers may record one entry per round (`ltz` reports each
/// EXPAND-MAXLINK round as a `"round"` phase); the other solvers leave
/// [`SolveReport::phases`] empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (e.g. `"link"`, `"compress"`, `"round"`).
    pub name: &'static str,
    /// Synchronous rounds executed within this phase.
    pub rounds: u64,
    /// Edges live (input to) this phase.
    pub edges: u64,
    /// Wall-clock time of the phase.
    pub wall: Duration,
    /// Heap allocations during the phase (zero when the counting-allocator
    /// hook is absent — see [`SolveReport::allocs`]).
    pub allocs: u64,
}

/// Everything one solver run produces.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Canonical component labels: `labels[labels[v]] == labels[v]`.
    pub labels: Vec<Vertex>,
    /// Synchronous rounds executed, for solvers with a round structure
    /// (`None` for sequential solvers).
    pub rounds: Option<u64>,
    /// Simulated PRAM cost charged during the run (zero when
    /// [`SolverCaps::tracks_cost`] is false).
    pub cost: Cost,
    /// Wall-clock time of the solve.
    pub wall: Duration,
    /// Heap allocations performed during the solve, observed by the
    /// process's [`parcc_pram::alloc_track::CountingAllocator`] hook.
    /// **Zero when no hook is installed in the binary** (library builds) —
    /// check [`parcc_pram::alloc_track::hook_installed`] to distinguish
    /// "allocation-free" from "not measured".
    pub allocs: u64,
    /// High-water live heap bytes during the solve (same hook; zero when
    /// unmeasured). Includes memory live before the solve started — it is
    /// the run's true peak footprint, not a delta.
    pub peak_bytes: u64,
    /// Solver-specific telemetry as `(key, value)` pairs — e.g. the paper
    /// solver's `solved_at_phase`, LTZ's `fallback` flag.
    pub notes: Vec<(&'static str, String)>,
    /// Per-pass breakdown for `hybrid` and per-round one for `ltz`; empty
    /// for the other solvers. See [`PhaseStat`].
    pub phases: Vec<PhaseStat>,
}

impl SolveReport {
    /// Run `f` against `ctx`'s tracker, measuring wall time, the cost
    /// delta, and (when the counting-allocator hook is installed) the heap
    /// traffic. `f` returns the canonical labels and optional round count.
    pub fn measure<F>(ctx: &SolveCtx, f: F) -> Self
    where
        F: FnOnce(&CostTracker) -> (Vec<Vertex>, Option<u64>),
    {
        use parcc_pram::alloc_track;
        let before = ctx.tracker.snapshot();
        let allocs_before = alloc_track::allocation_count();
        alloc_track::reset_peak();
        let t0 = Instant::now();
        let (labels, rounds) = f(&ctx.tracker);
        let wall = t0.elapsed();
        SolveReport {
            labels,
            rounds,
            cost: ctx.tracker.snapshot().since(before),
            wall,
            allocs: alloc_track::allocation_count().saturating_sub(allocs_before),
            peak_bytes: alloc_track::peak_bytes(),
            notes: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Attach a telemetry note (builder style).
    #[must_use]
    pub fn note(mut self, key: &'static str, value: impl ToString) -> Self {
        self.notes.push((key, value.to_string()));
        self
    }

    /// Attach the per-phase breakdown (builder style).
    #[must_use]
    pub fn with_phases(mut self, phases: Vec<PhaseStat>) -> Self {
        self.phases = phases;
        self
    }

    /// Number of distinct components in the labeling.
    #[must_use]
    pub fn component_count(&self) -> usize {
        let mut seen = vec![false; self.labels.len()];
        let mut count = 0;
        for &l in &self.labels {
            if !seen[l as usize] {
                seen[l as usize] = true;
                count += 1;
            }
        }
        count
    }
}

/// A connected-components algorithm, uniformly invokable by name.
///
/// Implementations are zero-sized (or `Copy` configuration holders) so the
/// registry can be a static slice of trait objects.
pub trait ComponentSolver: Sync {
    /// Stable registry name (kebab-case, e.g. `"shiloach-vishkin"`).
    fn name(&self) -> &'static str;

    /// One-line description with the work/time bounds.
    fn description(&self) -> &'static str;

    /// Capability flags.
    fn caps(&self) -> SolverCaps;

    /// Compute canonical component labels plus telemetry.
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport;

    /// Shard-aware entry point: solve a [`GraphStore`] backend directly.
    ///
    /// The default adapter flattens the store and calls [`solve`]
    /// (zero-cost for the flat backend, one merge copy for sharded ones),
    /// so every solver runs on sharded inputs unchanged. Solvers whose
    /// pipelines consume edge chunks natively (`paper`, `ltz`) override
    /// this to read the shard slices without materializing a flat
    /// [`Graph`].
    ///
    /// Contract: the result must induce the same component partition as
    /// `solve` on the flattened graph (shard boundaries are storage, not
    /// semantics).
    ///
    /// [`solve`]: ComponentSolver::solve
    fn solve_store(&self, store: &dyn GraphStore, ctx: &SolveCtx) -> SolveReport {
        let flat = store.to_flat();
        self.solve(&flat, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Trivial;
    impl ComponentSolver for Trivial {
        fn name(&self) -> &'static str {
            "trivial"
        }
        fn description(&self) -> &'static str {
            "every vertex its own component"
        }
        fn caps(&self) -> SolverCaps {
            SolverCaps {
                deterministic: true,
                seeded: false,
                parallel: false,
                polylog_rounds: true,
                tracks_cost: false,
            }
        }
        fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
            SolveReport::measure(ctx, |tracker| {
                tracker.charge(g.n() as u64, 1);
                ((0..g.n() as u32).collect(), Some(1))
            })
            .note("kind", "identity")
        }
    }

    #[test]
    fn measure_fills_cost_and_notes() {
        let g = Graph::from_pairs(4, &[(0, 1)]);
        let ctx = SolveCtx::new();
        let r = Trivial.solve(&g, &ctx);
        assert_eq!(r.labels.len(), 4);
        assert_eq!(r.rounds, Some(1));
        assert_eq!(r.cost.work, 4);
        assert_eq!(r.cost.depth, 1);
        assert_eq!(r.notes, vec![("kind", "identity".to_string())]);
        assert_eq!(r.component_count(), 4);
    }

    #[test]
    fn measure_is_a_delta_not_a_total() {
        let g = Graph::from_pairs(2, &[]);
        let ctx = SolveCtx::new();
        let r1 = Trivial.solve(&g, &ctx);
        let r2 = Trivial.solve(&g, &ctx);
        assert_eq!(r1.cost, r2.cost, "same run must charge the same delta");
    }

    #[test]
    fn default_ctx_matches_new() {
        assert_eq!(SolveCtx::default().seed, SolveCtx::new().seed);
    }

    #[test]
    fn solve_store_default_adapter_matches_solve() {
        let g = Graph::from_pairs(6, &[(0, 1), (2, 3)]);
        let ctx = SolveCtx::new();
        let flat = Trivial.solve(&g, &ctx);
        let via_flat_store = Trivial.solve_store(&g, &ctx);
        let sharded = crate::store::ShardedGraph::from_graph(&g, 3);
        let via_sharded = Trivial.solve_store(&sharded, &ctx);
        assert_eq!(flat.labels, via_flat_store.labels);
        assert_eq!(flat.labels, via_sharded.labels);
        assert_eq!(via_sharded.rounds, Some(1));
    }

    #[test]
    fn component_count_on_empty() {
        let r = SolveReport {
            labels: vec![],
            rounds: None,
            cost: Cost::default(),
            wall: Duration::ZERO,
            allocs: 0,
            peak_bytes: 0,
            notes: vec![],
            phases: vec![],
        };
        assert_eq!(r.component_count(), 0);
    }
}
