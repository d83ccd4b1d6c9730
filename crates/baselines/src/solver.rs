//! [`ComponentSolver`] adapters for the classical baselines, so the CLI,
//! conformance tests, and bench harness can drive them through the
//! registry interchangeably with the paper's algorithm.

use crate::{label_propagation, liu_tarjan, random_mate, shiloach_vishkin, union_find};
use parcc_graph::solver::{ComponentSolver, SolveCtx, SolveReport, SolverCaps};
use parcc_graph::Graph;

/// Sequential union–find (`[Tar72]`): the `O(m α(n))` oracle.
pub struct UnionFindSolver;

impl ComponentSolver for UnionFindSolver {
    fn name(&self) -> &'static str {
        "union-find"
    }
    fn description(&self) -> &'static str {
        "sequential union-find [Tar72]: O(m α(n)) work, the ground-truth oracle"
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
        SolveReport::measure(ctx, |_| (union_find(g), None))
    }
}

/// Shiloach–Vishkin (`[SV82]`): `O(log n)` time, `O(m log n)` work.
pub struct ShiloachVishkinSolver;

impl ComponentSolver for ShiloachVishkinSolver {
    fn name(&self) -> &'static str {
        "shiloach-vishkin"
    }
    fn description(&self) -> &'static str {
        "Shiloach-Vishkin [SV82]: O(log n) time, O(m log n) work, deterministic CRCW"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            deterministic: true,
            seeded: false,
            parallel: true,
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        SolveReport::measure(ctx, |tracker| {
            let (labels, stats) = shiloach_vishkin(g, tracker);
            (labels, Some(stats.rounds))
        })
    }
}

/// HashMin label propagation: `Θ(d)` rounds, `Θ(m·d)` work.
pub struct LabelPropSolver;

impl ComponentSolver for LabelPropSolver {
    fn name(&self) -> &'static str {
        "label-prop"
    }
    fn description(&self) -> &'static str {
        "HashMin label propagation: Θ(d) rounds, Θ(m·d) work — hopeless on large diameters"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            deterministic: true,
            seeded: false,
            parallel: true,
            polylog_rounds: false,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        SolveReport::measure(ctx, |tracker| {
            let (labels, stats) = label_propagation(g, tracker);
            (labels, Some(stats.rounds))
        })
    }
}

/// Reif's random-mate contraction (`[Rei84]`): `O(log n)` rounds w.h.p.
pub struct RandomMateSolver;

impl ComponentSolver for RandomMateSolver {
    fn name(&self) -> &'static str {
        "random-mate"
    }
    fn description(&self) -> &'static str {
        "random-mate contraction [Rei84]: O(log n) time w.h.p., O((m+n) log n) work"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            deterministic: false,
            seeded: true,
            parallel: true,
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        SolveReport::measure(ctx, |tracker| {
            let (labels, stats) = random_mate(g, ctx.seed, tracker);
            (labels, Some(stats.rounds))
        })
    }
}

/// Liu–Tarjan P+SS (`[LT19]`): parent-connect, two shortcuts per round.
pub struct LiuTarjanSolver;

impl ComponentSolver for LiuTarjanSolver {
    fn name(&self) -> &'static str {
        "liu-tarjan-pss"
    }
    fn description(&self) -> &'static str {
        "Liu-Tarjan P+SS [LT19]: O(log² n) rounds, O(m log n) work"
    }
    fn caps(&self) -> SolverCaps {
        SolverCaps {
            // The min-label discipline makes every CRCW resolution converge
            // to the same fixpoint, so labels are schedule-independent.
            deterministic: true,
            seeded: false,
            parallel: true,
            polylog_rounds: true,
            tracks_cost: true,
        }
    }
    fn solve(&self, g: &Graph, ctx: &SolveCtx) -> SolveReport {
        SolveReport::measure(ctx, |tracker| {
            let (labels, stats) = liu_tarjan(g, tracker);
            (labels, Some(stats.rounds))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcc_graph::generators as gen;
    use parcc_graph::traverse::{components, same_partition};

    #[test]
    fn adapters_match_oracle_and_report_rounds() {
        let g = gen::mixture(3);
        let truth = components(&g);
        let solvers: [&dyn ComponentSolver; 5] = [
            &UnionFindSolver,
            &ShiloachVishkinSolver,
            &LabelPropSolver,
            &RandomMateSolver,
            &LiuTarjanSolver,
        ];
        for s in solvers {
            let ctx = SolveCtx::with_seed(7);
            let r = s.solve(&g, &ctx);
            assert!(same_partition(&r.labels, &truth), "{} wrong", s.name());
            assert_eq!(
                r.rounds.is_some(),
                s.caps().parallel,
                "{}: parallel solvers report rounds",
                s.name()
            );
            assert_eq!(
                r.cost.work > 0,
                s.caps().tracks_cost,
                "{}: tracked cost must match the capability flag",
                s.name()
            );
        }
    }

    #[test]
    fn labels_are_canonical() {
        let g = gen::expander_union(2, 80, 4, 9);
        let r = LiuTarjanSolver.solve(&g, &SolveCtx::new());
        for &l in &r.labels {
            assert_eq!(r.labels[l as usize], l, "non-canonical");
        }
    }
}
