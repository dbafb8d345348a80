//! Greedy marginal-cost construction — an extension of the paper's suite.
//!
//! Instead of starting from the H1 (single best recipe) split and moving
//! throughput around, this heuristic *builds* a split from zero: at each step
//! it adds `δ` units of throughput to the recipe whose cost increase is the
//! smallest, until the target is covered. Because the rental cost is a sum of
//! ceilings, the marginal cost of a recipe changes as machines fill up, which
//! is exactly the effect the greedy rule exploits: a recipe whose tasks fit
//! into the idle capacity of already-rented machines gets the next `δ` for
//! free.
//!
//! The construction is deterministic. On the sparse kernel each candidate is
//! costed in `O(|support(j)|)` (the recipe's non-zero row entries) instead of
//! a full `O(Q)` demand-vector clone and rescan, giving
//! `O((ρ/δ) · Σ_j |support(j)|)` total time with no per-step allocation.

use std::time::Instant;

use rental_core::cost::IncrementalEvaluator;
use rental_core::{Cost, Instance, RecipeId, Throughput, ThroughputSplit};

use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// Greedy constructive heuristic: repeatedly give the next `δ` of throughput
/// to the recipe with the smallest marginal cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMarginalSolver {
    /// Throughput added at each step; `None` uses the platform's throughput
    /// granularity.
    pub delta: Option<Throughput>,
}

impl MinCostSolver for GreedyMarginalSolver {
    fn name(&self) -> &str {
        "Greedy"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let num_recipes = instance.num_recipes();
        let delta = self
            .delta
            .unwrap_or_else(|| instance.throughput_granularity())
            .max(1);

        // Capacity `target` extends the kernel's overflow bound proof over
        // the whole construction up front, so every increment below runs on
        // the fast path.
        let mut evaluator = IncrementalEvaluator::with_capacity(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::zeros(num_recipes),
            target,
        )?;
        let mut remaining = target;

        while remaining > 0 {
            let step = delta.min(remaining);
            let mut best: Option<(RecipeId, Cost)> = None;
            for j in 0..num_recipes {
                let recipe = RecipeId(j);
                let cost = evaluator.cost_after_increment(recipe, step)?;
                if best.is_none_or(|(_, best_cost)| cost < best_cost) {
                    best = Some((recipe, cost));
                }
            }
            // `num_recipes >= 1` is guaranteed by Instance validation, so a
            // best candidate always exists.
            let (recipe, _) = best.expect("instance has at least one recipe");
            evaluator.apply_increment(recipe, step)?;
            remaining -= step;
        }

        let solution = instance.solution(target, evaluator.split().clone())?;
        Ok(SolverOutcome::heuristic(solution, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::IlpSolver;
    use rental_core::examples::illustrating_example;

    #[test]
    fn greedy_split_covers_the_target_exactly() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let outcome = GreedyMarginalSolver::default()
                .solve(&instance, rho)
                .unwrap();
            assert_eq!(outcome.solution.split.total(), rho, "rho = {rho}");
        }
    }

    #[test]
    fn greedy_never_beats_the_optimum() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(20) {
            let opt = IlpSolver::new().solve(&instance, rho).unwrap();
            let greedy = GreedyMarginalSolver::default()
                .solve(&instance, rho)
                .unwrap();
            assert!(greedy.cost() >= opt.cost(), "rho = {rho}");
        }
    }

    #[test]
    fn greedy_is_close_to_optimal_on_the_illustrating_example() {
        // The greedy construction is not part of the paper's suite; we only
        // require it to stay within 25 % of the optimum on Table III targets
        // (in practice it is much closer on most rows).
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let opt = IlpSolver::new().solve(&instance, rho).unwrap();
            let greedy = GreedyMarginalSolver::default()
                .solve(&instance, rho)
                .unwrap();
            assert!(
                (greedy.cost() as f64) <= 1.25 * opt.cost() as f64,
                "rho = {rho}: greedy {} vs optimum {}",
                greedy.cost(),
                opt.cost()
            );
        }
    }

    #[test]
    fn zero_target_builds_an_empty_split() {
        let instance = illustrating_example();
        let outcome = GreedyMarginalSolver::default().solve(&instance, 0).unwrap();
        assert_eq!(outcome.cost(), 0);
        assert_eq!(outcome.solution.split.total(), 0);
    }

    #[test]
    fn explicit_delta_controls_the_granularity() {
        let instance = illustrating_example();
        // A step of 7 does not divide 30: the final step must be clamped so
        // the split still totals exactly the target.
        let outcome = GreedyMarginalSolver { delta: Some(7) }
            .solve(&instance, 30)
            .unwrap();
        assert_eq!(outcome.solution.split.total(), 30);
    }

    #[test]
    fn greedy_is_deterministic() {
        let instance = illustrating_example();
        let a = GreedyMarginalSolver::default()
            .solve(&instance, 150)
            .unwrap();
        let b = GreedyMarginalSolver::default()
            .solve(&instance, 150)
            .unwrap();
        assert_eq!(a.solution, b.solution);
    }
}
