//! Multi-cloud deployments: the concrete scenario behind §V-B.
//!
//! The paper motivates the "no shared task types" case with applications
//! whose alternative recipes run on *different clouds*: a recipe deployed on
//! one provider cannot share its rented machines with a recipe deployed on
//! another. This module makes that scenario a first-class API:
//!
//! * a [`CloudRegion`] is one provider/region with its own machine catalogue
//!   and the recipes that would run there (typed in the region's local type
//!   space);
//! * a [`MultiCloudProblem`] combines the regions into one MinCost instance
//!   by giving every region a disjoint slice of the global type space — by
//!   construction no type is shared *across* regions;
//! * [`MultiCloudProblem::solve`] picks the exact algorithm that fits: the
//!   pseudo-polynomial DP of §V-B when no types are shared at all, the §V-C
//!   ILP when recipes inside one region share machines — and reports the
//!   result per region ([`MultiCloudSolution`]), ready to be booked with each
//!   provider separately.

use rental_core::{
    Cost, Instance, MachineType, ModelResult, Platform, Recipe, RecipeId, Task, Throughput, TypeId,
};

use crate::exact::{DpNoSharedSolver, IlpSolver};
use crate::solver::{MinCostSolver, SolveResult, SolverOutcome};

/// One cloud provider/region: its machine catalogue and the recipes that can
/// be deployed on it. Recipe task types are indices into `platform` (the
/// region's *local* type space).
#[derive(Debug, Clone, PartialEq)]
pub struct CloudRegion {
    /// Human-readable name of the region ("aws-eu-west", "azure-us", ...).
    pub name: String,
    /// Machine catalogue of the region.
    pub platform: Platform,
    /// Recipes deployable on this region, typed in the region's type space.
    pub recipes: Vec<Recipe>,
}

impl CloudRegion {
    /// Creates a region and validates that every recipe only uses types the
    /// region's platform offers.
    ///
    /// # Errors
    ///
    /// Propagates [`Recipe::validate_types`] errors.
    pub fn new(
        name: impl Into<String>,
        platform: Platform,
        recipes: Vec<Recipe>,
    ) -> ModelResult<Self> {
        for (j, recipe) in recipes.iter().enumerate() {
            recipe.validate_types(RecipeId(j), platform.num_types())?;
        }
        Ok(CloudRegion {
            name: name.into(),
            platform,
            recipes,
        })
    }
}

/// A MinCost problem spread over several clouds whose machines cannot be
/// shared with each other.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCloudProblem {
    regions: Vec<CloudRegion>,
    /// First global type index of each region (last entry = total type count).
    type_offsets: Vec<usize>,
    /// `(region index, local recipe index)` of every global recipe.
    recipe_origin: Vec<(usize, usize)>,
    combined: Instance,
}

impl MultiCloudProblem {
    /// Combines the regions into one instance with disjoint type namespaces.
    ///
    /// # Errors
    ///
    /// Propagates model validation errors (empty regions, empty recipes, ...).
    pub fn new(regions: Vec<CloudRegion>) -> ModelResult<Self> {
        let mut machines: Vec<MachineType> = Vec::new();
        let mut type_offsets = Vec::with_capacity(regions.len() + 1);
        let mut recipes: Vec<Recipe> = Vec::new();
        let mut recipe_origin = Vec::new();

        for (r, region) in regions.iter().enumerate() {
            type_offsets.push(machines.len());
            let offset = machines.len();
            machines.extend(region.platform.machines().iter().copied());
            for (local_j, recipe) in region.recipes.iter().enumerate() {
                let global_id = RecipeId(recipes.len());
                let tasks: Vec<Task> = recipe
                    .tasks()
                    .iter()
                    .map(|task| Task {
                        type_id: TypeId(task.type_id.index() + offset),
                        label: task.label.clone(),
                    })
                    .collect();
                recipes.push(Recipe::new(global_id, tasks, recipe.edges().to_vec())?);
                recipe_origin.push((r, local_j));
            }
        }
        type_offsets.push(machines.len());

        let combined = Instance::new(recipes, Platform::new(machines)?)?;
        Ok(MultiCloudProblem {
            regions,
            type_offsets,
            recipe_origin,
            combined,
        })
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The combined single-instance view (disjoint type namespaces).
    pub fn combined_instance(&self) -> &Instance {
        &self.combined
    }

    /// Range of global type indices owned by region `r`.
    fn type_range(&self, r: usize) -> std::ops::Range<usize> {
        self.type_offsets[r]..self.type_offsets[r + 1]
    }

    /// Solves the multi-cloud MinCost problem exactly and reports the result
    /// per region.
    ///
    /// When no task type is shared by two recipes anywhere (the literal §V-B
    /// assumption) the pseudo-polynomial DP is used; when recipes *inside*
    /// one region share machines the general §V-C ILP takes over.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn solve(&self, target: Throughput) -> SolveResult<MultiCloudSolution> {
        let outcome = self.solve_combined(target)?;
        Ok(self.split_solution(target, &outcome))
    }

    fn solve_combined(&self, target: Throughput) -> SolveResult<SolverOutcome> {
        if self.combined.application().has_shared_types() {
            IlpSolver::new().solve(&self.combined, target)
        } else {
            DpNoSharedSolver::new().solve(&self.combined, target)
        }
    }

    fn split_solution(&self, target: Throughput, outcome: &SolverOutcome) -> MultiCloudSolution {
        let machine_counts = outcome.solution.allocation.machine_counts();
        let mut per_region = Vec::with_capacity(self.regions.len());
        for (r, region) in self.regions.iter().enumerate() {
            let range = self.type_range(r);
            let counts: Vec<u64> = machine_counts[range.clone()].to_vec();
            let cost: Cost = counts
                .iter()
                .zip(range.clone())
                .map(|(&count, q)| count * self.combined.platform().cost(TypeId(q)))
                .sum();
            let throughput: Throughput = self
                .recipe_origin
                .iter()
                .enumerate()
                .filter(|(_, &(region_index, _))| region_index == r)
                .map(|(global_j, _)| outcome.solution.split.share(RecipeId(global_j)))
                .sum();
            per_region.push(RegionAllocation {
                region: region.name.clone(),
                throughput,
                machine_counts: counts,
                cost,
            });
        }
        MultiCloudSolution {
            target,
            total_cost: outcome.cost(),
            proven_optimal: outcome.proven_optimal,
            per_region,
        }
    }
}

/// The machines to book from one region and the throughput it will carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAllocation {
    /// Region name.
    pub region: String,
    /// Throughput carried by the recipes deployed in this region.
    pub throughput: Throughput,
    /// Machines to rent per *local* type of the region.
    pub machine_counts: Vec<u64>,
    /// Hourly cost of the region's machines.
    pub cost: Cost,
}

/// An exact multi-cloud solution, broken down per region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCloudSolution {
    /// Target throughput the solution supports.
    pub target: Throughput,
    /// Total hourly cost over all regions.
    pub total_cost: Cost,
    /// Whether the underlying solver proved optimality.
    pub proven_optimal: bool,
    /// Per-region allocations, in region order.
    pub per_region: Vec<RegionAllocation>,
}

impl MultiCloudSolution {
    /// The allocation of a region, looked up by name.
    pub fn region(&self, name: &str) -> Option<&RegionAllocation> {
        self.per_region.iter().find(|r| r.region == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::BruteForceSolver;

    /// Two single-recipe regions mirroring the paper's §V-B setting: a CPU
    /// cloud (cheap, slow) and a GPU cloud (expensive, fast).
    fn two_regions() -> MultiCloudProblem {
        let cpu = CloudRegion::new(
            "cpu-cloud",
            Platform::from_pairs(&[(10, 10), (20, 18)]).unwrap(),
            vec![Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap()],
        )
        .unwrap();
        let gpu = CloudRegion::new(
            "gpu-cloud",
            Platform::from_pairs(&[(40, 33)]).unwrap(),
            vec![Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(0)]).unwrap()],
        )
        .unwrap();
        MultiCloudProblem::new(vec![cpu, gpu]).unwrap()
    }

    #[test]
    fn combination_uses_disjoint_type_namespaces() {
        let problem = two_regions();
        let combined = problem.combined_instance();
        assert_eq!(combined.num_types(), 3);
        assert_eq!(combined.num_recipes(), 2);
        assert!(!combined.application().has_shared_types());
        // Region platforms are preserved, just offset.
        assert_eq!(combined.platform().throughput(TypeId(2)), 40);
        assert_eq!(combined.platform().cost(TypeId(2)), 33);
    }

    #[test]
    fn multi_cloud_solution_matches_the_combined_brute_force() {
        let problem = two_regions();
        for target in [10u64, 25, 40, 60] {
            let solution = problem.solve(target).unwrap();
            let oracle = BruteForceSolver::with_step(1)
                .solve(problem.combined_instance(), target)
                .unwrap();
            assert_eq!(solution.total_cost, oracle.cost(), "target {target}");
            assert!(solution.proven_optimal);
            let carried: Throughput = solution.per_region.iter().map(|r| r.throughput).sum();
            assert!(carried >= target);
        }
    }

    #[test]
    fn per_region_costs_sum_to_the_total() {
        let problem = two_regions();
        let solution = problem.solve(50).unwrap();
        let sum: Cost = solution.per_region.iter().map(|r| r.cost).sum();
        assert_eq!(sum, solution.total_cost);
        // Each region only books machines from its own catalogue.
        assert_eq!(
            solution.region("cpu-cloud").unwrap().machine_counts.len(),
            2
        );
        assert_eq!(
            solution.region("gpu-cloud").unwrap().machine_counts.len(),
            1
        );
        assert!(solution.region("unknown").is_none());
    }

    #[test]
    fn unused_regions_cost_nothing() {
        // Make the GPU cloud strictly better at every rate: everything should
        // land there and the CPU region books zero machines.
        let cpu = CloudRegion::new(
            "cpu",
            Platform::from_pairs(&[(5, 100)]).unwrap(),
            vec![Recipe::chain(RecipeId(0), &[TypeId(0)]).unwrap()],
        )
        .unwrap();
        let gpu = CloudRegion::new(
            "gpu",
            Platform::from_pairs(&[(50, 10)]).unwrap(),
            vec![Recipe::chain(RecipeId(0), &[TypeId(0)]).unwrap()],
        )
        .unwrap();
        let problem = MultiCloudProblem::new(vec![cpu, gpu]).unwrap();
        let solution = problem.solve(100).unwrap();
        assert_eq!(solution.region("cpu").unwrap().cost, 0);
        assert_eq!(solution.region("cpu").unwrap().throughput, 0);
        assert_eq!(solution.region("gpu").unwrap().cost, 20); // 2 machines of cost 10
    }

    #[test]
    fn shared_types_within_a_region_fall_back_to_the_ilp() {
        // Two recipes in the same region sharing a type: the combined
        // instance has shared types, so the ILP path is taken and machines
        // are pooled inside the region.
        let region = CloudRegion::new(
            "pooling",
            Platform::from_pairs(&[(10, 10), (20, 18)]).unwrap(),
            vec![
                Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(1)]).unwrap(),
                Recipe::chain(RecipeId(1), &[TypeId(0)]).unwrap(),
            ],
        )
        .unwrap();
        let problem = MultiCloudProblem::new(vec![region]).unwrap();
        assert!(problem.combined_instance().application().has_shared_types());
        let solution = problem.solve(30).unwrap();
        assert!(solution.proven_optimal);
        let oracle = BruteForceSolver::with_step(1)
            .solve(problem.combined_instance(), 30)
            .unwrap();
        assert_eq!(solution.total_cost, oracle.cost());
    }

    #[test]
    fn recipes_outside_their_region_catalogue_are_rejected() {
        let err = CloudRegion::new(
            "broken",
            Platform::from_pairs(&[(10, 10)]).unwrap(),
            vec![Recipe::chain(RecipeId(0), &[TypeId(0), TypeId(5)]).unwrap()],
        )
        .unwrap_err();
        assert!(matches!(err, rental_core::ModelError::UnknownType { .. }));
    }
}
