//! A problem instance bundles the global application and the cloud platform.
//!
//! Solvers consume an [`Instance`] plus a target throughput `ρ` and produce a
//! [`Solution`].

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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
/// The recipes, the demand counts and the machines are immutable and
/// shared, so a clone costs a few reference counts, not a copy: the fleet
/// tenants of one scenario hold clones of a few instances. Equality and
/// hashing are by value. Equality recognises shared storage without a scan
/// and compares separate storages value by value, so an instance rebuilt
/// from its parts equals and hashes like a clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instance {
    application: GlobalApplication,
    platform: Platform,
}

/// Numbers instances by value, in first-occurrence order: equal instances
/// get one class, whether they share storage or not.
///
/// Clones that share storage are recognised by the identity of that
/// storage, so numbering many clones of a few instances looks at the value
/// of one instance per distinct storage, not of every clone. An instance
/// met in new storage is found among the earlier ones by a hash of its
/// demand counts and machines — a few dozen words, where the recipes'
/// tasks and edges are hundreds — and told apart from those with the same
/// hash by full equality.
#[derive(Debug, Default)]
pub struct InstanceClasses<'a> {
    by_storage: HashMap<[usize; 3], usize>,
    by_value: HashMap<u64, Vec<(&'a Instance, usize)>>,
    classes: usize,
}

impl<'a> InstanceClasses<'a> {
    /// An empty numbering.
    pub fn new() -> Self {
        InstanceClasses::default()
    }

    /// The class of `instance`: the class of an equal instance seen before,
    /// or the next free number.
    pub fn class_of(&mut self, instance: &'a Instance) -> usize {
        // The storage stays borrowed for `'a`, so an address cannot be
        // freed and reused by another instance while it is a key.
        let storage = instance.storage();
        if let Some(&class) = self.by_storage.get(&storage) {
            return class;
        }
        let peers = self.by_value.entry(instance.cost_hash()).or_default();
        let class = match peers.iter().find(|(peer, _)| *peer == instance) {
            Some(&(_, class)) => class,
            None => {
                peers.push((instance, self.classes));
                self.classes += 1;
                self.classes - 1
            }
        };
        self.by_storage.insert(storage, class);
        class
    }
}

impl Instance {
    /// The addresses of the recipes, counts and machines storage. Instances
    /// with the same three addresses are equal: the storage is immutable.
    fn storage(&self) -> [usize; 3] {
        [
            self.application.recipes().as_ptr() as usize,
            self.application.demand().counts().as_ptr() as usize,
            self.platform.machines().as_ptr() as usize,
        ]
    }

    /// A hash of the demand counts and the machines: equal instances hash
    /// equal.
    fn cost_hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        let demand = self.application.demand();
        (demand.num_recipes(), demand.num_types()).hash(&mut hasher);
        demand.counts().hash(&mut hasher);
        self.platform.machines().hash(&mut hasher);
        hasher.finish()
    }

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
    use crate::recipe::Task;
    use crate::types::{RecipeId, TypeId};

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
        let shared = instance.clone();
        let reassembled =
            Instance::from_parts(instance.application().clone(), instance.platform().clone());
        assert_eq!(hash(&shared), hash(&instance));
        assert_eq!(hash(&reassembled), hash(&instance));

        // Rebuilt from its parts in storage of its own: still equal to a
        // shared clone, and hashed alike.
        let rebuilt = Instance::new(
            instance.application().recipes().to_vec(),
            Platform::new(instance.platform().machines().to_vec()).unwrap(),
        )
        .unwrap();
        assert_ne!(rebuilt.storage(), shared.storage());
        assert_eq!(shared.storage(), instance.storage());
        assert_eq!(rebuilt, shared);
        assert_eq!(shared, rebuilt);
        assert_eq!(hash(&rebuilt), hash(&shared));

        let mut machines = instance.platform().machines().to_vec();
        machines[0].cost += 1;
        let repriced = Instance::from_parts(
            instance.application().clone(),
            Platform::new(machines).unwrap(),
        );
        assert_ne!(repriced, instance);

        // One more task of type 0 in recipe 0: one count of the demand
        // matrix moves by one, and equality breaks with it.
        let mut recipes = instance.application().recipes().to_vec();
        let mut tasks = recipes[0].tasks().to_vec();
        tasks.push(Task::new(TypeId(0)));
        recipes[0] = Recipe::new(RecipeId(0), tasks, recipes[0].edges().to_vec()).unwrap();
        let recounted = Instance::new(recipes, instance.platform().clone()).unwrap();
        let (before, after) = (
            instance.application().demand(),
            recounted.application().demand(),
        );
        assert_eq!(
            after.count(RecipeId(0), TypeId(0)),
            before.count(RecipeId(0), TypeId(0)) + 1
        );
        assert_ne!(after, before);
        assert_ne!(recounted, instance);
        assert_ne!(recounted, rebuilt);
    }

    #[test]
    fn classes_number_equal_instances_alike_in_shared_or_separate_storage() {
        let instance = illustrating_example();
        let shared = instance.clone();
        let rebuilt = Instance::new(
            instance.application().recipes().to_vec(),
            Platform::new(instance.platform().machines().to_vec()).unwrap(),
        )
        .unwrap();
        let mut machines = instance.platform().machines().to_vec();
        machines[1].throughput += 10;
        let other = Instance::from_parts(
            instance.application().clone(),
            Platform::new(machines).unwrap(),
        );
        // The same task types without their chain edges: equal demand
        // counts and machines, different recipes.
        let mut recipes = instance.application().recipes().to_vec();
        let types: Vec<TypeId> = recipes[0].tasks().iter().map(|t| t.type_id).collect();
        recipes[0] = Recipe::independent_tasks(RecipeId(0), &types).unwrap();
        let unchained = Instance::new(recipes, instance.platform().clone()).unwrap();
        assert_eq!(unchained.cost_hash(), instance.cost_hash());
        assert_ne!(unchained, instance);
        let mut classes = InstanceClasses::new();
        let numbered: Vec<usize> = [
            &other, &instance, &shared, &rebuilt, &unchained, &other, &rebuilt, &unchained,
        ]
        .into_iter()
        .map(|i| classes.class_of(i))
        .collect();
        assert_eq!(numbered, vec![0, 1, 1, 1, 2, 0, 1, 2]);
    }
}
