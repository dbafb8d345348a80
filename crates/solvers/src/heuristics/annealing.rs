//! Simulated annealing — an *extension* beyond the paper's heuristic suite.
//!
//! The paper's H2/H31/H32Jump family explores the split space with random
//! walks and (restarted) descents. Simulated annealing generalises them:
//! degrading moves are accepted with a probability that decays with a
//! temperature schedule, which lets the search escape local minima without
//! the explicit "jump" mechanism of H32Jump. It is included to support the
//! escape-mechanism ablation of `rental_experiments::ablation` (`repro
//! ablation-escape`: how much does the escape mechanism matter?) and is not
//! part of the paper's reported suite.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rental_core::cost::IncrementalEvaluator;
use rental_core::{Instance, RecipeId, Throughput};

use crate::heuristics::h1_best_graph::best_graph_split;
use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// Simulated-annealing solver over throughput splits.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealingSolver {
    /// Number of candidate moves examined.
    pub iterations: usize,
    /// Initial temperature, in cost units. A degrading move of `Δ` cost is
    /// accepted with probability `exp(-Δ / T)`.
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied every iteration (0 < α < 1).
    pub cooling: f64,
    /// Amount of throughput moved per step; `None` uses the platform's
    /// throughput granularity.
    pub delta: Option<Throughput>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulatedAnnealingSolver {
    fn default() -> Self {
        SimulatedAnnealingSolver {
            iterations: 2_000,
            initial_temperature: 50.0,
            cooling: 0.998,
            delta: None,
            seed: 0x5A,
        }
    }
}

impl SimulatedAnnealingSolver {
    /// Creates an annealing solver with the given seed and default schedule.
    pub fn with_seed(seed: u64) -> Self {
        SimulatedAnnealingSolver {
            seed,
            ..SimulatedAnnealingSolver::default()
        }
    }
}

impl MinCostSolver for SimulatedAnnealingSolver {
    fn name(&self) -> &str {
        "SA"
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
        let mut best_split = initial;
        let mut best_cost = evaluator.cost();

        if num_recipes > 1 {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut temperature = self.initial_temperature.max(f64::MIN_POSITIVE);
            for _ in 0..self.iterations {
                let from = RecipeId(rng.random_range(0..num_recipes));
                let mut to = RecipeId(rng.random_range(0..num_recipes));
                while to == from {
                    to = RecipeId(rng.random_range(0..num_recipes));
                }
                // Apply the candidate on the sparse kernel and roll it back
                // with the undo token when the Metropolis draw rejects it —
                // the accept/reject cycle allocates nothing.
                let undo = evaluator.apply_transfer_undoable(from, to, delta)?;
                if undo.moved() > 0 {
                    let current = undo.previous_cost();
                    let candidate = evaluator.cost();
                    let accept = if candidate <= current {
                        true
                    } else {
                        let degradation = (candidate - current) as f64;
                        rng.random_bool((-degradation / temperature).exp().clamp(0.0, 1.0))
                    };
                    if !accept {
                        evaluator.undo_transfer(undo)?;
                    } else if evaluator.cost() < best_cost {
                        best_cost = evaluator.cost();
                        best_split.clone_from(evaluator.split());
                    }
                }
                temperature = (temperature * self.cooling).max(1e-6);
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
    use crate::exact::IlpSolver;
    use crate::heuristics::h1_best_graph::BestGraphSolver;
    use rental_core::examples::illustrating_example;

    #[test]
    fn annealing_never_does_worse_than_h1() {
        let instance = illustrating_example();
        for rho in (10u64..=200).step_by(20) {
            let h1 = BestGraphSolver.solve(&instance, rho).unwrap();
            let sa = SimulatedAnnealingSolver::with_seed(3)
                .solve(&instance, rho)
                .unwrap();
            assert!(sa.cost() <= h1.cost(), "rho = {rho}");
            assert!(sa.solution.split.covers(rho));
            assert_eq!(sa.solution.split.total(), rho);
        }
    }

    #[test]
    fn annealing_finds_many_table3_optima() {
        let instance = illustrating_example();
        let mut hits = 0;
        for rho in (10u64..=200).step_by(10) {
            let optimum = IlpSolver::new().solve(&instance, rho).unwrap().cost();
            let sa = SimulatedAnnealingSolver::with_seed(11)
                .solve(&instance, rho)
                .unwrap();
            assert!(sa.cost() >= optimum);
            if sa.cost() == optimum {
                hits += 1;
            }
        }
        assert!(hits >= 12, "SA matched only {hits}/20 optima");
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let instance = illustrating_example();
        let a = SimulatedAnnealingSolver::with_seed(5)
            .solve(&instance, 130)
            .unwrap();
        let b = SimulatedAnnealingSolver::with_seed(5)
            .solve(&instance, 130)
            .unwrap();
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn zero_temperature_behaves_like_descent() {
        let instance = illustrating_example();
        let solver = SimulatedAnnealingSolver {
            initial_temperature: 1e-9,
            ..SimulatedAnnealingSolver::with_seed(4)
        };
        let outcome = solver.solve(&instance, 90).unwrap();
        let h1 = BestGraphSolver.solve(&instance, 90).unwrap();
        assert!(outcome.cost() <= h1.cost());
    }
}
