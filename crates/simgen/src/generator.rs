//! Random instance generator reproducing the procedure of §VIII-A.
//!
//! The paper's simulator first generates an *initial* application graph with
//! random task types, then derives the alternative graphs by re-rolling the
//! type of a percentage of its tasks. This keeps the alternatives structurally
//! close (they share many task types), which is the "difficult and realistic"
//! regime the paper focuses on — fully independent random graphs degenerate
//! into a single dominant graph and make H1 trivially good.
//!
//! Machine throughputs and costs are drawn uniformly from the configured
//! ranges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rental_core::{Edge, Instance, MachineType, Platform, Recipe, RecipeId, Task, TypeId};

use crate::config::GeneratorConfig;

/// Seeded random instance generator.
#[derive(Debug, Clone)]
pub struct InstanceGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl InstanceGenerator {
    /// Creates a generator for the given configuration and seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GeneratorConfig::validate`]).
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        config.validate();
        InstanceGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates a random platform: one machine type per available task type,
    /// with uniformly drawn throughput and cost.
    fn generate_platform(&mut self) -> Platform {
        let machines = (0..self.config.num_types)
            .map(|_| {
                let throughput = self.rng.random_range(self.config.throughput_range.clone());
                let cost = self.rng.random_range(self.config.cost_range.clone());
                MachineType::new(throughput, cost)
            })
            .collect();
        Platform::new(machines).expect("generated platforms are valid by construction")
    }

    /// Generates the type sequence of the initial recipe.
    fn generate_initial_types(&mut self) -> Vec<TypeId> {
        let num_tasks = self.rng.random_range(self.config.tasks_per_recipe.clone());
        (0..num_tasks)
            .map(|_| TypeId(self.rng.random_range(0..self.config.num_types)))
            .collect()
    }

    /// Derives an alternative type sequence by re-rolling `mutation_percent` %
    /// of the tasks of the initial sequence (at least one task when the
    /// percentage is non-zero, so alternatives are never trivially identical).
    fn mutate_types(&mut self, initial: &[TypeId]) -> Vec<TypeId> {
        let mut types = initial.to_vec();
        if self.config.mutation_percent == 0 || self.config.num_types == 1 {
            return types;
        }
        let to_change = ((initial.len() * self.config.mutation_percent as usize) / 100).max(1);
        // Choose `to_change` distinct positions by partial Fisher-Yates.
        let mut positions: Vec<usize> = (0..initial.len()).collect();
        for i in 0..to_change.min(initial.len()) {
            let j = self.rng.random_range(i..positions.len());
            positions.swap(i, j);
        }
        for &pos in positions.iter().take(to_change.min(initial.len())) {
            let current = types[pos].index();
            let mut new_type = self.rng.random_range(0..self.config.num_types);
            if self.config.num_types > 1 {
                while new_type == current {
                    new_type = self.rng.random_range(0..self.config.num_types);
                }
            }
            types[pos] = TypeId(new_type);
        }
        types
    }

    /// Wires a random DAG over `types.len()` tasks: tasks are kept in a
    /// topological order by construction (edges only go from lower to higher
    /// indices), each non-source task receives at least one predecessor so
    /// the graph is connected enough to be a meaningful pipeline.
    fn wire_dag(&mut self, id: RecipeId, types: &[TypeId]) -> Recipe {
        let n = types.len();
        let tasks: Vec<Task> = types.iter().copied().map(Task::new).collect();
        let mut edges = Vec::new();
        for to in 1..n {
            // Guaranteed predecessor keeps the DAG weakly connected.
            let anchor = self.rng.random_range(0..to);
            edges.push(Edge { from: anchor, to });
            for from in 0..to {
                if from != anchor && self.rng.random_bool(self.config.edge_probability) {
                    edges.push(Edge { from, to });
                }
            }
        }
        Recipe::new(id, tasks, edges).expect("forward-only edges always form a DAG")
    }

    /// Generates a full instance: platform + `num_recipes` alternative recipes
    /// derived from a common initial recipe.
    pub fn generate_instance(&mut self) -> Instance {
        let platform = self.generate_platform();
        let initial_types = self.generate_initial_types();
        let mut recipes = Vec::with_capacity(self.config.num_recipes);
        recipes.push(self.wire_dag(RecipeId(0), &initial_types));
        for j in 1..self.config.num_recipes {
            let alt_types = self.mutate_types(&initial_types);
            recipes.push(self.wire_dag(RecipeId(j), &alt_types));
        }
        Instance::new(recipes, platform).expect("generated instances are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instance_matches_config_dimensions() {
        let config = GeneratorConfig::small_graphs();
        let mut generator = InstanceGenerator::new(config.clone(), 1);
        let instance = generator.generate_instance();
        assert_eq!(instance.num_recipes(), config.num_recipes);
        assert_eq!(instance.num_types(), config.num_types);
        for recipe in instance.application().recipes() {
            assert!(config.tasks_per_recipe.contains(&recipe.num_tasks()));
        }
    }

    #[test]
    fn same_seed_same_instance() {
        let config = GeneratorConfig::tiny();
        let a = InstanceGenerator::new(config.clone(), 99).generate_instance();
        let b = InstanceGenerator::new(config, 99).generate_instance();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let config = GeneratorConfig::small_graphs();
        let a = InstanceGenerator::new(config.clone(), 1).generate_instance();
        let b = InstanceGenerator::new(config, 2).generate_instance();
        assert_ne!(a, b);
    }

    #[test]
    fn platform_values_stay_in_configured_ranges() {
        let config = GeneratorConfig::large_graphs();
        let mut generator = InstanceGenerator::new(config.clone(), 7);
        for _ in 0..20 {
            let platform = generator.generate_platform();
            for (_, machine) in platform.iter() {
                assert!(config.throughput_range.contains(&machine.throughput));
                assert!(config.cost_range.contains(&machine.cost));
            }
        }
    }

    #[test]
    fn alternatives_share_types_with_the_initial_recipe() {
        // With 30% mutation the alternatives must keep most of the initial
        // type sequence, hence share machine types with it.
        let config = GeneratorConfig::medium_graphs();
        let mut generator = InstanceGenerator::new(config, 21);
        let instance = generator.generate_instance();
        let demand = instance.application().demand();
        assert!(demand.has_shared_types());
        // At least half of the alternatives must reuse a type of recipe 0.
        let initial_row = demand.row(RecipeId(0)).to_vec();
        let mut sharing = 0;
        for j in 1..instance.num_recipes() {
            let row = demand.row(RecipeId(j));
            if row.iter().zip(&initial_row).any(|(&a, &b)| a > 0 && b > 0) {
                sharing += 1;
            }
        }
        assert!(sharing * 2 >= instance.num_recipes() - 1);
    }

    #[test]
    fn mutation_changes_at_least_one_task_type_sequence() {
        let config = GeneratorConfig {
            mutation_percent: 50,
            ..GeneratorConfig::tiny()
        };
        let mut generator = InstanceGenerator::new(config, 5);
        let instance = generator.generate_instance();
        let demand = instance.application().demand();
        let initial_row = demand.row(RecipeId(0)).to_vec();
        let any_different =
            (1..instance.num_recipes()).any(|j| demand.row(RecipeId(j)) != initial_row.as_slice());
        assert!(any_different);
    }

    #[test]
    fn recipes_are_dags_with_connected_structure() {
        let mut generator = InstanceGenerator::new(GeneratorConfig::medium_graphs(), 3);
        let instance = generator.generate_instance();
        for recipe in instance.application().recipes() {
            // Exactly one source-free prefix is not required, but every
            // non-first task must have a predecessor by construction.
            assert_eq!(recipe.sources().len(), 1);
            assert!(recipe.critical_path_len() >= 2);
        }
    }

    #[test]
    fn batch_generation_yields_distinct_instances() {
        let mut generator = InstanceGenerator::new(GeneratorConfig::tiny(), 11);
        let batch: Vec<Instance> = (0..5).map(|_| generator.generate_instance()).collect();
        assert_eq!(batch.len(), 5);
        assert!(batch.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_mutation_keeps_all_recipes_identical_in_types() {
        let config = GeneratorConfig {
            mutation_percent: 0,
            ..GeneratorConfig::tiny()
        };
        let mut generator = InstanceGenerator::new(config, 13);
        let instance = generator.generate_instance();
        let demand = instance.application().demand();
        let first = demand.row(RecipeId(0)).to_vec();
        for j in 1..instance.num_recipes() {
            assert_eq!(demand.row(RecipeId(j)), first.as_slice());
        }
    }
}
