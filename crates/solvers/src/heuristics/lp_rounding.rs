//! LP-relaxation rounding — an extension of the paper's suite.
//!
//! The §V-C MILP is small, so its continuous relaxation can be solved exactly
//! with the two-phase simplex of `rental-lp` in microseconds. This heuristic
//! does exactly that and then repairs the fractional split:
//!
//! 1. solve the LP relaxation (integrality of `ρ_j` and `x_q` dropped);
//! 2. round every `ρ_j` *down* to the `δ` grid (never over-committing);
//! 3. greedily hand the uncovered remainder of the target, `δ` at a time, to
//!    the recipe whose cost increase is the smallest;
//! 4. polish with one steepest-descent pass (the H32 neighbourhood).
//!
//! The LP objective is also a valid lower bound on the optimal cost, which
//! the solver reports in [`SolverOutcome::lower_bound`]; the ratio between
//! the returned cost and that bound is an a-posteriori quality certificate
//! even when the exact ILP is too slow to run.

use std::time::Instant;

use rental_core::cost::IncrementalEvaluator;
use rental_core::search::best_transfer;
use rental_core::{Cost, Instance, RecipeId, Throughput, ThroughputSplit};
use rental_lp::simplex;

use crate::exact::IlpSolver;
use crate::heuristics::h1_best_graph::best_graph_split;
use crate::solver::{MinCostSolver, SolveError, SolveResult, SolverOutcome};

/// Heuristic based on rounding the LP relaxation of the §V-C MILP.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpRoundingSolver {
    /// Grid used for the rounding and repair steps; `None` uses the
    /// platform's throughput granularity.
    pub delta: Option<Throughput>,
}

impl MinCostSolver for LpRoundingSolver {
    fn name(&self) -> &str {
        "LPRound"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let num_recipes = instance.num_recipes();
        let delta = self
            .delta
            .unwrap_or_else(|| instance.throughput_granularity())
            .max(1);

        // 1. Solve the LP relaxation of the §V-C MILP.
        let model = IlpSolver::build_model(instance, target);
        let relaxation = simplex::solve(&model).map_err(SolveError::Lp)?;
        if !relaxation.is_optimal() {
            return Err(SolveError::NoSolutionFound {
                solver: self.name().to_string(),
            });
        }
        let lower_bound = relaxation.objective;

        // 2. Round the fractional recipe throughputs down to the δ grid.
        let shares: Vec<Throughput> = relaxation.values[..num_recipes]
            .iter()
            .map(|&v| {
                let v = v.max(0.0).floor() as Throughput;
                (v / delta) * delta
            })
            .collect();

        // 3. Repair: greedily hand the uncovered remainder to the cheapest
        //    recipe, δ at a time, using the kernel's sparse increments
        //    (`O(|support(j)|)` per candidate instead of an O(J·Q) rescan of
        //    a cloned split).
        let covered: Throughput = shares.iter().sum();
        let mut remaining = target.saturating_sub(covered);
        let mut evaluator = IncrementalEvaluator::with_capacity(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(shares),
            covered.max(target),
        )?;
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
            let (recipe, _) = best.expect("instance has at least one recipe");
            evaluator.apply_increment(recipe, step)?;
            remaining -= step;
        }

        // 4. Steepest-descent polish (the H32 neighbourhood, on the
        //    kernel's parallel candidate scan).
        if num_recipes > 1 {
            loop {
                let current = evaluator.cost();
                match best_transfer(&evaluator, delta, &|_, _, cost| cost < current)? {
                    Some((from, to, _)) => {
                        evaluator.apply_transfer(from, to, delta)?;
                    }
                    None => break,
                }
            }
        }

        // The rounded split can lose to the plain H1 split at small targets,
        // where the ceiling effects dominate the fractional LP geometry; keep
        // whichever of the two is cheaper so the heuristic is never worse
        // than H1.
        let rounded_split = evaluator.split().clone();
        let rounded_cost = evaluator.cost();
        let h1_split = best_graph_split(instance, target)?;
        let h1_cost = instance.split_cost(h1_split.shares())?;
        let chosen = if h1_cost < rounded_cost {
            h1_split
        } else {
            rounded_split
        };

        let solution = instance.solution(target, chosen)?;
        Ok(SolverOutcome {
            nodes: None,
            lp_iterations: None,
            solution,
            proven_optimal: false,
            lower_bound: Some(lower_bound),
            elapsed: start.elapsed(),
            exhausted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::IlpSolver;
    use rental_core::examples::illustrating_example;

    #[test]
    fn lp_rounding_covers_the_target() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let outcome = LpRoundingSolver::default().solve(&instance, rho).unwrap();
            assert!(outcome.solution.split.covers(rho), "rho = {rho}");
        }
    }

    #[test]
    fn lp_bound_sandwiches_the_optimum() {
        // LP relaxation ≤ ILP optimum ≤ LP-rounding heuristic.
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(20) {
            let opt = IlpSolver::new().solve(&instance, rho).unwrap();
            let rounded = LpRoundingSolver::default().solve(&instance, rho).unwrap();
            let bound = rounded.lower_bound.unwrap();
            assert!(
                bound <= opt.cost() as f64 + 1e-6,
                "rho = {rho}: LP bound {bound} above optimum {}",
                opt.cost()
            );
            assert!(rounded.cost() >= opt.cost(), "rho = {rho}");
        }
    }

    #[test]
    fn lp_rounding_is_close_to_optimal_on_table3() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let opt = IlpSolver::new().solve(&instance, rho).unwrap();
            let rounded = LpRoundingSolver::default().solve(&instance, rho).unwrap();
            assert!(
                (rounded.cost() as f64) <= 1.25 * opt.cost() as f64,
                "rho = {rho}: LPRound {} vs optimum {}",
                rounded.cost(),
                opt.cost()
            );
        }
    }

    #[test]
    fn lp_rounding_never_does_worse_than_h1() {
        use crate::heuristics::h1_best_graph::BestGraphSolver;
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let h1 = BestGraphSolver.solve(&instance, rho).unwrap();
            let rounded = LpRoundingSolver::default().solve(&instance, rho).unwrap();
            assert!(rounded.cost() <= h1.cost(), "rho = {rho}");
        }
    }

    #[test]
    fn zero_target_costs_nothing() {
        let instance = illustrating_example();
        let outcome = LpRoundingSolver::default().solve(&instance, 0).unwrap();
        assert_eq!(outcome.cost(), 0);
    }

    #[test]
    fn lp_rounding_is_deterministic() {
        let instance = illustrating_example();
        let a = LpRoundingSolver::default().solve(&instance, 170).unwrap();
        let b = LpRoundingSolver::default().solve(&instance, 170).unwrap();
        assert_eq!(a.solution, b.solution);
    }
}
