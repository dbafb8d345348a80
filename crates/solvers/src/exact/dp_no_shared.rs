//! Pseudo-polynomial dynamic program for applications **without shared task
//! types** (§V-B).
//!
//! The recurrence of the paper is
//!
//! ```text
//! C(ρ, 1) = cost of recipe 1 alone at throughput ρ
//! C(ρ, j) = min_{0 ≤ ρ_j ≤ ρ}  C(ρ - ρ_j, j-1) + cost_j(ρ_j)
//! ```
//!
//! where `cost_j(ρ_j)` is the single-recipe closed form of §IV-A. Because no
//! type is shared, machines are never pooled across recipes and the total
//! cost is separable, which makes the DP exact. The complexity is `O(ρ² J)`
//! once the per-recipe cost tables (`O(ρ J Q)`) are precomputed.
//!
//! On instances **with** shared types the DP is still well defined but only
//! provides an upper bound (pooling can only reduce the cost), so the solver
//! refuses them.

use std::time::Instant;

use rental_core::cost::cost_from_type_counts;
use rental_core::{Instance, RecipeId, Throughput, ThroughputSplit};

use crate::solver::{MinCostSolver, SolveError, SolveResult, SolverOutcome};

/// Exact solver for instances whose recipes do not share any task type (§V-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpNoSharedSolver;

impl DpNoSharedSolver {
    /// Creates the solver: instances with shared task types are rejected
    /// with [`SolveError::UnsupportedInstance`].
    pub fn new() -> Self {
        DpNoSharedSolver
    }
}

impl MinCostSolver for DpNoSharedSolver {
    fn name(&self) -> &str {
        "DpNoShared"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let app = instance.application();
        let platform = instance.platform();
        if app.has_shared_types() {
            return Err(SolveError::UnsupportedInstance {
                solver: self.name().to_string(),
                reason: "recipes share task types; use the ILP solver".to_string(),
            });
        }

        let num_recipes = app.num_recipes();
        let t_max = target as usize;

        // Per-recipe cost tables: cost_j[t] = closed-form cost of recipe j at
        // throughput t.
        let mut per_recipe_cost = Vec::with_capacity(num_recipes);
        for j in 0..num_recipes {
            let counts = app.demand().row(RecipeId(j));
            let mut table = Vec::with_capacity(t_max + 1);
            for t in 0..=t_max {
                table.push(cost_from_type_counts(counts, platform, t as u64)?);
            }
            per_recipe_cost.push(table);
        }

        // dp[t] after processing j recipes = C(t, j); parent[j][t] = rho_j used.
        let mut dp = per_recipe_cost[0].clone();
        let mut parents: Vec<Vec<Throughput>> = Vec::with_capacity(num_recipes);
        parents.push((0..=t_max as u64).collect()); // recipe 0 carries everything.
        for recipe_cost in per_recipe_cost.iter().skip(1) {
            let mut next = vec![u64::MAX; t_max + 1];
            let mut parent = vec![0u64; t_max + 1];
            for t in 0..=t_max {
                for rho_j in 0..=t {
                    let rest = dp[t - rho_j];
                    if rest == u64::MAX {
                        continue;
                    }
                    let cost = rest.saturating_add(recipe_cost[rho_j]);
                    if cost < next[t] {
                        next[t] = cost;
                        parent[t] = rho_j as u64;
                    }
                }
            }
            dp = next;
            parents.push(parent);
        }

        // Reconstruct the split.
        let mut shares = vec![0u64; num_recipes];
        let mut remaining = t_max;
        for j in (1..num_recipes).rev() {
            let rho_j = parents[j][remaining];
            shares[j] = rho_j;
            remaining -= rho_j as usize;
        }
        shares[0] = remaining as u64;

        let solution = instance.solution(target, ThroughputSplit::new(shares))?;
        // Without shared types the evaluated cost must equal the DP value.
        debug_assert_eq!(solution.cost(), dp[t_max]);
        Ok(SolverOutcome::exact(solution, start.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_core::{Platform, Recipe, TypeId};

    /// Two recipes over disjoint type sets:
    /// recipe 0 uses types {0, 1}, recipe 1 uses types {2, 3}.
    fn disjoint_instance() -> Instance {
        let platform = Platform::from_pairs(&[(10, 10), (20, 18), (30, 25), (40, 33)]).unwrap();
        let recipes = vec![
            Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap(),
            Recipe::chain(RecipeId(1), &[TypeId(2), TypeId(3)]).unwrap(),
        ];
        Instance::new(recipes, platform).unwrap()
    }

    #[test]
    fn rejects_shared_types_by_default() {
        let err = DpNoSharedSolver::new()
            .solve(&illustrating_example(), 50)
            .unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedInstance { .. }));
    }

    #[test]
    fn splits_across_disjoint_recipes_when_beneficial() {
        let instance = disjoint_instance();
        // Recipe 0 per-10 block cost: 10 (P1) + 18 (P2, 1 machine covers 20) ...
        // Check a few targets against a brute-force enumeration.
        for target in [10u64, 30, 50, 70, 100] {
            let outcome = DpNoSharedSolver::new().solve(&instance, target).unwrap();
            let mut best = u64::MAX;
            for rho0 in 0..=target {
                let cost = instance.split_cost(&[rho0, target - rho0]).unwrap();
                best = best.min(cost);
            }
            assert_eq!(outcome.cost(), best, "target {target}");
            assert!(outcome.solution.split.covers(target));
            assert!(outcome.proven_optimal);
        }
    }

    #[test]
    fn single_recipe_instance_reduces_to_closed_form() {
        let platform = Platform::from_pairs(&[(10, 10), (20, 18)]).unwrap();
        let recipe = Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap();
        let instance = Instance::new(vec![recipe], platform).unwrap();
        let outcome = DpNoSharedSolver::new().solve(&instance, 25).unwrap();
        // ceil(25/10)*10 + ceil(25/20)*18 = 30 + 36 = 66.
        assert_eq!(outcome.cost(), 66);
    }

    #[test]
    fn zero_target_is_free() {
        let outcome = DpNoSharedSolver::new()
            .solve(&disjoint_instance(), 0)
            .unwrap();
        assert_eq!(outcome.cost(), 0);
    }

    #[test]
    fn three_disjoint_recipes() {
        // Types 0..5, three recipes of two tasks each over disjoint types.
        let platform =
            Platform::from_pairs(&[(10, 10), (20, 18), (30, 25), (40, 33), (15, 9), (25, 14)])
                .unwrap();
        let recipes = vec![
            Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap(),
            Recipe::chain(RecipeId(1), &[TypeId(2), TypeId(3)]).unwrap(),
            Recipe::chain(RecipeId(2), &[TypeId(4), TypeId(5)]).unwrap(),
        ];
        let instance = Instance::new(recipes, platform).unwrap();
        let target = 60u64;
        let outcome = DpNoSharedSolver::new().solve(&instance, target).unwrap();
        // Exhaustive check over all splits.
        let mut best = u64::MAX;
        for a in 0..=target {
            for b in 0..=(target - a) {
                let c = target - a - b;
                best = best.min(instance.split_cost(&[a, b, c]).unwrap());
            }
        }
        assert_eq!(outcome.cost(), best);
    }
}
