//! H1 (*best graph*): pick the single recipe whose closed-form cost at the
//! full target throughput is minimal (§VI-b).
//!
//! The paper notes that H1 has complexity `O(J·Q)` and serves as the starting
//! point of every local-search heuristic (H2, H31, H32, H32Jump).

use std::time::Instant;

use rental_core::cost::cost_from_type_counts;
use rental_core::{Cost, Instance, RecipeId, Throughput, ThroughputSplit};

use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// The H1 heuristic: use only the cheapest single recipe.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestGraphSolver;

/// Returns the recipe whose single-graph cost at throughput `target` is
/// minimal, together with that cost. Ties are broken in favour of the lowest
/// recipe index, which makes the heuristic deterministic.
///
/// # Errors
///
/// Propagates overflow errors from the cost evaluation.
fn best_single_recipe(instance: &Instance, target: Throughput) -> SolveResult<(RecipeId, Cost)> {
    let platform = instance.platform();
    let demand = instance.application().demand();
    let mut best: Option<(RecipeId, Cost)> = None;
    for j in 0..instance.num_recipes() {
        let recipe = RecipeId(j);
        let cost = cost_from_type_counts(demand.row(recipe), platform, target)?;
        if best.is_none_or(|(_, b)| cost < b) {
            best = Some((recipe, cost));
        }
    }
    Ok(best.expect("applications always have at least one recipe"))
}

/// The throughput split chosen by H1: everything on the best single recipe.
///
/// # Errors
///
/// Propagates overflow errors from the cost evaluation.
pub fn best_graph_split(instance: &Instance, target: Throughput) -> SolveResult<ThroughputSplit> {
    let (recipe, _) = best_single_recipe(instance, target)?;
    Ok(ThroughputSplit::single(
        instance.num_recipes(),
        recipe,
        target,
    ))
}

impl MinCostSolver for BestGraphSolver {
    fn name(&self) -> &str {
        "H1"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let split = best_graph_split(instance, target)?;
        let solution = instance.solution(target, split)?;
        Ok(SolverOutcome::heuristic(solution, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;

    #[test]
    fn h1_matches_table3_column() {
        let instance = illustrating_example();
        // (rho, H1 cost) pairs straight from Table III.
        let expected = [
            (10u64, 28u64),
            (20, 38),
            (30, 58),
            (40, 69),
            (50, 104),
            (60, 114),
            (70, 138),
            (80, 138),
            (100, 189),
            (120, 199),
            (150, 257),
            (160, 276),
            (200, 340),
        ];
        for &(rho, cost) in &expected {
            let outcome = BestGraphSolver.solve(&instance, rho).unwrap();
            assert_eq!(outcome.cost(), cost, "rho = {rho}");
            assert_eq!(
                outcome.solution.split.active_recipes(),
                usize::from(rho > 0)
            );
        }
    }

    #[test]
    fn h1_uses_one_recipe_only() {
        let instance = illustrating_example();
        let outcome = BestGraphSolver.solve(&instance, 90).unwrap();
        assert_eq!(outcome.solution.split.active_recipes(), 1);
        assert_eq!(outcome.solution.split.total(), 90);
        // Table III: H1 picks phi2 alone at rho = 90 for a cost of 174.
        assert_eq!(outcome.cost(), 174);
        assert_eq!(outcome.solution.split.share(RecipeId(1)), 90);
    }

    #[test]
    fn best_single_recipe_breaks_ties_deterministically() {
        let instance = illustrating_example();
        let (first, _) = best_single_recipe(&instance, 40).unwrap();
        let (second, _) = best_single_recipe(&instance, 40).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn h1_is_never_better_than_the_optimum() {
        let instance = illustrating_example();
        let optimal = [
            (10u64, 28u64),
            (50, 86),
            (70, 124),
            (90, 155),
            (130, 220),
            (190, 323),
        ];
        for &(rho, opt) in &optimal {
            let outcome = BestGraphSolver.solve(&instance, rho).unwrap();
            assert!(outcome.cost() >= opt, "rho = {rho}");
        }
    }
}
