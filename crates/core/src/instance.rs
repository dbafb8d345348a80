//! A problem instance bundles the global application and the cloud platform.
//!
//! Solvers consume an [`Instance`] plus a target throughput `ρ` and produce a
//! [`Solution`](crate::allocation::Solution).

use crate::allocation::{Solution, ThroughputSplit};
use crate::application::GlobalApplication;
use crate::cost::{shared_split_cost, solution_for_split};
use crate::error::ModelResult;
use crate::platform::Platform;
use crate::recipe::Recipe;
use crate::types::{Cost, Throughput};

/// A MinCost problem instance: the alternative recipes of the global
/// application and the machine catalogue of the cloud.
///
/// Equality and hashing are by value, so clones of one instance (every
/// fleet tenant owns its own) compare and hash equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    application: GlobalApplication,
    platform: Platform,
}

impl Instance {
    /// Builds an instance, validating the application against the platform.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`GlobalApplication::new`].
    pub fn new(recipes: Vec<Recipe>, platform: Platform) -> ModelResult<Self> {
        let application = GlobalApplication::new(recipes, &platform)?;
        Ok(Instance {
            application,
            platform,
        })
    }

    /// Builds an instance from an already-validated application.
    pub fn from_parts(application: GlobalApplication, platform: Platform) -> Self {
        Instance {
            application,
            platform,
        }
    }

    /// The global application (set of alternative recipes).
    #[inline]
    pub fn application(&self) -> &GlobalApplication {
        &self.application
    }

    /// The cloud platform (machine catalogue).
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Number of recipes `J`.
    #[inline]
    pub fn num_recipes(&self) -> usize {
        self.application.num_recipes()
    }

    /// Number of machine / task types `Q`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.platform.num_types()
    }

    /// Exact cost of a given throughput split on this instance.
    ///
    /// # Errors
    ///
    /// Propagates arity and overflow errors.
    pub fn split_cost(&self, split: &[Throughput]) -> ModelResult<Cost> {
        shared_split_cost(self.application.demand(), &self.platform, split)
    }

    /// Builds the full solution (machines rented, total cost) realised by a
    /// throughput split for a given target.
    ///
    /// # Errors
    ///
    /// Propagates arity and overflow errors.
    pub fn solution(&self, target: Throughput, split: ThroughputSplit) -> ModelResult<Solution> {
        solution_for_split(&self.application, &self.platform, target, split)
    }

    /// The natural throughput granularity of the instance: the GCD of machine
    /// throughputs (used as the default `δ` step of the local-search
    /// heuristics).
    pub fn throughput_granularity(&self) -> Throughput {
        let gcd = self.platform.throughput_gcd();
        if gcd == 0 {
            1
        } else {
            gcd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::illustrating_example;
    use crate::types::RecipeId;

    #[test]
    fn instance_exposes_dimensions() {
        let instance = illustrating_example();
        assert_eq!(instance.num_recipes(), 3);
        assert_eq!(instance.num_types(), 4);
        assert_eq!(instance.throughput_granularity(), 10);
    }

    #[test]
    fn split_cost_delegates_to_shared_cost() {
        let instance = illustrating_example();
        assert_eq!(instance.split_cost(&[10, 30, 30]).unwrap(), 124);
        assert_eq!(instance.split_cost(&[0, 0, 10]).unwrap(), 28);
    }

    #[test]
    fn solution_is_built_with_machine_counts() {
        let instance = illustrating_example();
        let solution = instance
            .solution(50, ThroughputSplit::new(vec![10, 30, 10]))
            .unwrap();
        assert_eq!(solution.cost(), 86); // Table III row rho = 50.
        assert!(solution.is_feasible());
        assert_eq!(solution.split.share(RecipeId(1)), 30);
    }

    #[test]
    fn from_parts_round_trips() {
        let instance = illustrating_example();
        let rebuilt =
            Instance::from_parts(instance.application().clone(), instance.platform().clone());
        assert_eq!(rebuilt, instance);
    }

    #[test]
    fn equal_instances_hash_equal_and_a_cost_change_breaks_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |instance: &Instance| {
            let mut hasher = DefaultHasher::new();
            instance.hash(&mut hasher);
            hasher.finish()
        };
        let instance = illustrating_example();
        // Build the pair-diff cache on the original only: derived state must
        // not take part in equality or hashing.
        let _ = instance.application().demand().pair_diffs();
        let rebuilt =
            Instance::from_parts(instance.application().clone(), instance.platform().clone());
        assert_eq!(hash(&instance.clone()), hash(&instance));
        assert_eq!(hash(&rebuilt), hash(&instance));

        let mut machines = instance.platform().machines().to_vec();
        machines[0].cost += 1;
        let repriced = Instance::from_parts(
            instance.application().clone(),
            Platform::new(machines).unwrap(),
        );
        assert_ne!(repriced, instance);
    }
}
