//! Tabu search over throughput splits — an extension of the paper's
//! local-search family (H2/H31/H32).
//!
//! The search starts from the H1 split and, like H32, examines every
//! `δ`-transfer between ordered pairs of recipes at each iteration. Unlike
//! H32 it always applies the best *admissible* move, even when it degrades
//! the cost, and it forbids immediately undoing a recent move by keeping the
//! reversed pair `(to, from)` in a tabu list for a fixed number of
//! iterations (the *tenure*). A tabu move is still accepted when it improves
//! on the best solution found so far (the classical aspiration criterion).
//!
//! This solver is not part of the paper's suite; it supports the
//! escape-mechanism ablation of `rental_experiments::ablation` (`repro
//! ablation-escape`): tabu memory vs. the random jumps of H32Jump vs. the
//! temperature schedule of simulated annealing.

use std::time::Instant;

use rental_core::cost::IncrementalEvaluator;
use rental_core::search::best_transfer;
use rental_core::{Instance, Throughput, ThroughputSplit};

use crate::heuristics::h1_best_graph::best_graph_split;
use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// Tabu-search solver over `δ`-transfers between recipes.
#[derive(Debug, Clone, Copy)]
pub struct TabuSearchSolver {
    /// Number of iterations (each iteration applies exactly one transfer).
    pub iterations: usize,
    /// Number of iterations a reversed move stays forbidden.
    pub tenure: usize,
    /// Amount of throughput moved by each transfer; `None` uses the
    /// platform's throughput granularity.
    pub delta: Option<Throughput>,
}

impl Default for TabuSearchSolver {
    fn default() -> Self {
        TabuSearchSolver {
            iterations: 500,
            tenure: 7,
            delta: None,
        }
    }
}

impl MinCostSolver for TabuSearchSolver {
    fn name(&self) -> &str {
        "Tabu"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let num_recipes = instance.num_recipes();
        let delta = self
            .delta
            .unwrap_or_else(|| instance.throughput_granularity())
            .max(1);
        let initial = best_graph_split(instance, target)?;
        let mut evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            initial.clone(),
        )?;
        let mut best_split: ThroughputSplit = initial;
        let mut best_cost = evaluator.cost();

        if num_recipes > 1 {
            // tabu_until[from][to] = first iteration at which the move
            // (from -> to) is allowed again. The tenure is capped below the
            // number of directed recipe pairs so that small instances (e.g.
            // the 3-recipe illustrating example) always keep at least one
            // admissible move.
            let directed_pairs = num_recipes * (num_recipes - 1);
            let tenure = self.tenure.min(directed_pairs.saturating_sub(1)).max(1);
            let mut tabu_until = vec![vec![0usize; num_recipes]; num_recipes];
            for iteration in 0..self.iterations {
                // The full ordered-pair scan runs on the search kernel; the
                // admissibility closure encodes the tabu list and the
                // classical aspiration criterion (a tabu move is admissible
                // when it strictly improves on the best solution so far).
                let chosen = best_transfer(&evaluator, delta, &|from, to, cost| {
                    tabu_until[from.index()][to.index()] <= iteration || cost < best_cost
                })?;
                let Some((from, to, _)) = chosen else {
                    break;
                };
                evaluator.apply_transfer(from, to, delta)?;
                // Forbid the immediate reversal of the applied move.
                tabu_until[to.index()][from.index()] = iteration + 1 + tenure;
                if evaluator.cost() < best_cost {
                    best_cost = evaluator.cost();
                    best_split.clone_from(evaluator.split());
                }
            }
        }

        let solution = instance.solution(target, best_split)?;
        debug_assert_eq!(solution.cost(), best_cost);
        Ok(SolverOutcome::heuristic(solution, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::h1_best_graph::BestGraphSolver;
    use crate::heuristics::h32_steepest::SteepestGradientSolver;
    use rental_core::examples::illustrating_example;

    #[test]
    fn tabu_never_does_worse_than_h1() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let h1 = BestGraphSolver.solve(&instance, rho).unwrap();
            let tabu = TabuSearchSolver::default().solve(&instance, rho).unwrap();
            assert!(tabu.cost() <= h1.cost(), "rho = {rho}");
            assert!(tabu.solution.split.covers(rho), "rho = {rho}");
        }
    }

    #[test]
    fn tabu_matches_or_beats_the_plain_steepest_descent() {
        // Tabu search explores past the first local minimum, so on every
        // Table III target it should be at least as good as H32.
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(10) {
            let h32 = SteepestGradientSolver::default()
                .solve(&instance, rho)
                .unwrap();
            let tabu = TabuSearchSolver::default().solve(&instance, rho).unwrap();
            assert!(tabu.cost() <= h32.cost(), "rho = {rho}");
        }
    }

    #[test]
    fn tabu_finds_many_table3_optima() {
        let instance = illustrating_example();
        let optimal: [(u64, u64); 20] = [
            (10, 28),
            (20, 38),
            (30, 58),
            (40, 69),
            (50, 86),
            (60, 107),
            (70, 124),
            (80, 134),
            (90, 155),
            (100, 172),
            (110, 192),
            (120, 199),
            (130, 220),
            (140, 237),
            (150, 257),
            (160, 268),
            (170, 285),
            (180, 306),
            (190, 323),
            (200, 333),
        ];
        let solver = TabuSearchSolver::default();
        let mut hits = 0;
        for &(rho, opt) in &optimal {
            let outcome = solver.solve(&instance, rho).unwrap();
            assert!(outcome.cost() >= opt, "rho = {rho}");
            if outcome.cost() == opt {
                hits += 1;
            }
        }
        // The deterministic single-transfer neighbourhood cannot reach every
        // Table III optimum (several require re-balancing two recipes at
        // once); requiring a clear majority keeps the test meaningful without
        // over-fitting to the current tenure/iteration defaults.
        assert!(hits >= 12, "Tabu matched only {hits}/20 optima");
    }

    #[test]
    fn tabu_is_deterministic() {
        let instance = illustrating_example();
        let a = TabuSearchSolver::default().solve(&instance, 130).unwrap();
        let b = TabuSearchSolver::default().solve(&instance, 130).unwrap();
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn single_recipe_instances_short_circuit() {
        use rental_core::{Platform, Recipe, RecipeId, TypeId};
        let platform = Platform::from_pairs(&[(10, 10), (20, 18)]).unwrap();
        let recipe = Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap();
        let instance = Instance::new(vec![recipe], platform).unwrap();
        let outcome = TabuSearchSolver::default().solve(&instance, 40).unwrap();
        assert_eq!(outcome.solution.split.shares(), &[40]);
    }

    #[test]
    fn zero_iterations_return_the_h1_split() {
        let instance = illustrating_example();
        let h1 = BestGraphSolver.solve(&instance, 70).unwrap();
        let tabu = TabuSearchSolver {
            iterations: 0,
            tenure: 5,
            delta: None,
        }
        .solve(&instance, 70)
        .unwrap();
        assert_eq!(tabu.cost(), h1.cost());
    }
}
