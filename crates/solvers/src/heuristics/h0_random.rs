//! H0 (*random*): draw a random throughput split with `Σ_j ρ_j = ρ` (§VI-a).
//!
//! The paper uses H0 as a sanity baseline: any reasonable heuristic should
//! beat it. The split is drawn by distributing the target in steps of `δ`
//! (the platform's throughput granularity by default) over uniformly chosen
//! recipes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rental_core::{Instance, Throughput, ThroughputSplit};

use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// The H0 heuristic: a uniformly random feasible split.
#[derive(Debug, Clone, Copy)]
pub struct RandomSplitSolver {
    /// RNG seed, so that experiments are reproducible.
    pub seed: u64,
    /// Step used when distributing throughput. `None` uses the platform's
    /// throughput granularity (GCD of machine throughputs).
    pub step: Option<Throughput>,
}

impl Default for RandomSplitSolver {
    fn default() -> Self {
        RandomSplitSolver {
            seed: 0x5eed_0000,
            step: None,
        }
    }
}

impl RandomSplitSolver {
    /// Creates a random-split solver with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomSplitSolver {
            seed,
            ..RandomSplitSolver::default()
        }
    }

    /// Draws a random split summing exactly to `target`.
    fn random_split(
        &self,
        instance: &Instance,
        target: Throughput,
        rng: &mut StdRng,
    ) -> ThroughputSplit {
        let num_recipes = instance.num_recipes();
        let step = self
            .step
            .unwrap_or_else(|| instance.throughput_granularity())
            .max(1);
        let mut split = ThroughputSplit::zeros(num_recipes);
        let mut remaining = target;
        while remaining > 0 {
            let amount = step.min(remaining);
            let recipe = rng.random_range(0..num_recipes);
            *split.share_mut(rental_core::RecipeId(recipe)) += amount;
            remaining -= amount;
        }
        split
    }
}

impl MinCostSolver for RandomSplitSolver {
    fn name(&self) -> &str {
        "H0"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let split = self.random_split(instance, target, &mut rng);
        let solution = instance.solution(target, split)?;
        Ok(SolverOutcome::heuristic(solution, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;

    #[test]
    fn split_sums_to_target() {
        let instance = illustrating_example();
        for target in [0u64, 10, 35, 200] {
            let outcome = RandomSplitSolver::with_seed(7)
                .solve(&instance, target)
                .unwrap();
            assert_eq!(outcome.solution.split.total(), target);
            assert!(outcome.solution.is_feasible());
        }
    }

    #[test]
    fn same_seed_same_split() {
        let instance = illustrating_example();
        let a = RandomSplitSolver::with_seed(42)
            .solve(&instance, 100)
            .unwrap();
        let b = RandomSplitSolver::with_seed(42)
            .solve(&instance, 100)
            .unwrap();
        assert_eq!(a.solution.split, b.solution.split);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let instance = illustrating_example();
        let splits: Vec<_> = (0..8)
            .map(|seed| {
                RandomSplitSolver::with_seed(seed)
                    .solve(&instance, 150)
                    .unwrap()
                    .solution
                    .split
            })
            .collect();
        let first = &splits[0];
        assert!(splits.iter().any(|s| s != first));
    }

    #[test]
    fn non_divisible_targets_are_fully_distributed() {
        let instance = illustrating_example();
        // Granularity is 10 but the target is 37: the last chunk is 7.
        let outcome = RandomSplitSolver::with_seed(3)
            .solve(&instance, 37)
            .unwrap();
        assert_eq!(outcome.solution.split.total(), 37);
    }

    #[test]
    fn explicit_step_is_respected() {
        let instance = illustrating_example();
        let solver = RandomSplitSolver {
            seed: 11,
            step: Some(1),
        };
        let outcome = solver.solve(&instance, 25).unwrap();
        assert_eq!(outcome.solution.split.total(), 25);
    }
}
