//! The global application `φ`: a set of alternative recipes that all compute
//! the same result, together with the pre-aggregated type demand matrix
//! `n_jq` used by every solver.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::cost::PairDiffTable;
use crate::error::{ModelError, ModelResult};
use crate::platform::Platform;
use crate::recipe::Recipe;
use crate::types::{RecipeId, Throughput, TypeId};

/// Dense `J × Q` matrix whose entry `(j, q)` is `n_jq`, the number of tasks of
/// type `q` in recipe `j`.
///
/// Every cost evaluation of the shared-type case reads this matrix, so it is
/// computed once per instance and stored row-major. The counts are immutable
/// and shared: a clone points at the same storage. The matrix also owns the
/// lazily built, instance-wide [`PairDiffTable`] of the search kernel, so the
/// `O(J²·Q)` table construction is paid once per instance — not once per
/// solve — across restarts, jumps and whole solver portfolios.
#[derive(Debug)]
pub struct TypeDemandMatrix {
    num_recipes: usize,
    num_types: usize,
    counts: Arc<[u64]>,
    diffs: OnceLock<Arc<PairDiffTable>>,
}

impl Clone for TypeDemandMatrix {
    fn clone(&self) -> Self {
        TypeDemandMatrix {
            num_recipes: self.num_recipes,
            num_types: self.num_types,
            counts: Arc::clone(&self.counts),
            // The cached table is shared, not rebuilt: it depends only on the
            // counts, which are immutable.
            diffs: self.diffs.clone(),
        }
    }
}

impl PartialEq for TypeDemandMatrix {
    fn eq(&self, other: &Self) -> bool {
        // The diff cache is derived state; equality is defined by the counts,
        // and counts in one storage are equal without a scan.
        self.num_recipes == other.num_recipes
            && self.num_types == other.num_types
            && same_or_equal(&self.counts, &other.counts)
    }
}

impl Eq for TypeDemandMatrix {}

impl Hash for TypeDemandMatrix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Consistent with `PartialEq`: the counts only, never the cache. A
        // shared slice hashes exactly like the `Vec` it replaced.
        self.num_recipes.hash(state);
        self.num_types.hash(state);
        self.counts.hash(state);
    }
}

impl TypeDemandMatrix {
    /// Builds the matrix from a list of recipes and the number of platform types.
    pub fn from_recipes(recipes: &[Recipe], num_types: usize) -> Self {
        let mut counts = Vec::with_capacity(recipes.len() * num_types);
        for recipe in recipes {
            counts.extend(recipe.type_counts(num_types));
        }
        TypeDemandMatrix {
            num_recipes: recipes.len(),
            num_types,
            counts: counts.into(),
            diffs: OnceLock::new(),
        }
    }

    /// The search kernel's sparse pair-diff table for this matrix, built on
    /// first use and shared by every evaluator afterwards.
    pub fn pair_diffs(&self) -> Arc<PairDiffTable> {
        Arc::clone(
            self.diffs
                .get_or_init(|| Arc::new(PairDiffTable::new(self))),
        )
    }

    /// Number of recipes `J`.
    #[inline]
    pub fn num_recipes(&self) -> usize {
        self.num_recipes
    }

    /// The whole matrix, row-major.
    #[inline]
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of types `Q`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// `n_jq`: number of tasks of type `q` in recipe `j`.
    #[inline]
    pub fn count(&self, recipe: RecipeId, type_id: TypeId) -> u64 {
        self.counts[recipe.index() * self.num_types + type_id.index()]
    }

    /// Row `j` of the matrix: the per-type task counts of recipe `j`.
    #[inline]
    pub fn row(&self, recipe: RecipeId) -> &[u64] {
        let start = recipe.index() * self.num_types;
        &self.counts[start..start + self.num_types]
    }

    /// Total demand per type induced by a throughput split: entry `q` is
    /// `Σ_j n_jq · ρ_j`.
    ///
    /// Returns `None` on overflow (absurdly large instances).
    pub fn demand_per_type(&self, split: &[Throughput]) -> Option<Vec<u64>> {
        debug_assert_eq!(split.len(), self.num_recipes);
        let mut demand = vec![0u64; self.num_types];
        for (j, &rho_j) in split.iter().enumerate() {
            if rho_j == 0 {
                continue;
            }
            let row = &self.counts[j * self.num_types..(j + 1) * self.num_types];
            for (q, &n_jq) in row.iter().enumerate() {
                if n_jq == 0 {
                    continue;
                }
                let add = n_jq.checked_mul(rho_j)?;
                demand[q] = demand[q].checked_add(add)?;
            }
        }
        Some(demand)
    }

    /// Largest entry of the matrix: `max_jq n_jq`. Used by the incremental
    /// evaluator's one-time overflow bound proof (any reachable per-type
    /// demand is at most `max_count · Σ_j ρ_j`).
    pub fn max_count(&self) -> u64 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// True if two distinct recipes use at least one common task type.
    /// When false, the instance falls in the simpler §V-B case (no shared
    /// types) which admits a pseudo-polynomial dynamic program.
    pub fn has_shared_types(&self) -> bool {
        for q in 0..self.num_types {
            let users = (0..self.num_recipes)
                .filter(|&j| self.counts[j * self.num_types + q] > 0)
                .count();
            if users > 1 {
                return true;
            }
        }
        false
    }

    /// True if every recipe consists of exactly one task and no two recipes
    /// share a type: the "black box" case of §V-A, equivalent to an unbounded
    /// covering knapsack.
    pub fn is_black_box(&self) -> bool {
        if self.has_shared_types() {
            return false;
        }
        (0..self.num_recipes).all(|j| {
            self.counts[j * self.num_types..(j + 1) * self.num_types]
                .iter()
                .sum::<u64>()
                == 1
        })
    }
}

/// Whether two shared slices are equal: one storage is equal to itself
/// without a scan, and separate storages compare by value.
pub(crate) fn same_or_equal<T: PartialEq>(a: &Arc<[T]>, b: &Arc<[T]>) -> bool {
    Arc::ptr_eq(a, b) || **a == **b
}

/// The global application `φ`: `J` alternative recipes computing the same
/// result, each able to carry a share `ρ_j` of the target throughput.
///
/// The recipes are immutable and shared: a clone points at the same storage.
/// Equality and hashing are by value.
#[derive(Debug, Clone)]
pub struct GlobalApplication {
    recipes: Arc<[Recipe]>,
    demand: TypeDemandMatrix,
}

impl PartialEq for GlobalApplication {
    fn eq(&self, other: &Self) -> bool {
        same_or_equal(&self.recipes, &other.recipes) && self.demand == other.demand
    }
}

impl Eq for GlobalApplication {}

impl Hash for GlobalApplication {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.recipes.hash(state);
        self.demand.hash(state);
    }
}

impl GlobalApplication {
    /// Builds and validates a global application against a platform.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NoRecipes`] if `recipes` is empty.
    /// * Any error from [`Recipe::validate_types`] if a task references a
    ///   type the platform does not provide.
    pub fn new(recipes: Vec<Recipe>, platform: &Platform) -> ModelResult<Self> {
        if recipes.is_empty() {
            return Err(ModelError::NoRecipes);
        }
        for (j, recipe) in recipes.iter().enumerate() {
            recipe.validate_types(RecipeId(j), platform.num_types())?;
        }
        let demand = TypeDemandMatrix::from_recipes(&recipes, platform.num_types());
        Ok(GlobalApplication {
            recipes: recipes.into(),
            demand,
        })
    }

    /// Number of recipes `J`.
    #[inline]
    pub fn num_recipes(&self) -> usize {
        self.recipes.len()
    }

    /// The recipes of the application.
    #[inline]
    pub fn recipes(&self) -> &[Recipe] {
        &self.recipes
    }

    /// The recipe with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    #[inline]
    pub fn recipe(&self, id: RecipeId) -> &Recipe {
        &self.recipes[id.index()]
    }

    /// The pre-aggregated `n_jq` matrix.
    #[inline]
    pub fn demand(&self) -> &TypeDemandMatrix {
        &self.demand
    }

    /// Identifiers of all recipes, in order.
    pub fn recipe_ids(&self) -> impl Iterator<Item = RecipeId> {
        (0..self.recipes.len()).map(RecipeId)
    }

    /// Total number of tasks over all recipes (`Σ_j I_j`), a size measure used
    /// when reporting experiments.
    pub fn total_tasks(&self) -> usize {
        self.recipes.iter().map(Recipe::num_tasks).sum()
    }

    /// True if at least one task type is shared between two recipes (§V-C).
    pub fn has_shared_types(&self) -> bool {
        self.demand.has_shared_types()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Task;

    fn platform4() -> Platform {
        Platform::from_pairs(&[(10, 10), (20, 18), (30, 25), (40, 33)]).unwrap()
    }

    /// The illustrating example of §VII (Figure 2): three chains of two tasks.
    fn figure2_recipes() -> Vec<Recipe> {
        vec![
            Recipe::chain(RecipeId(0), &[TypeId(1), TypeId(3)]).unwrap(),
            Recipe::chain(RecipeId(1), &[TypeId(2), TypeId(3)]).unwrap(),
            Recipe::chain(RecipeId(2), &[TypeId(0), TypeId(1)]).unwrap(),
        ]
    }

    #[test]
    fn rejects_empty_application() {
        let err = GlobalApplication::new(vec![], &platform4()).unwrap_err();
        assert_eq!(err, ModelError::NoRecipes);
    }

    #[test]
    fn rejects_unknown_types() {
        let recipe = Recipe::new(RecipeId(0), vec![Task::new(TypeId(7))], vec![]).unwrap();
        let err = GlobalApplication::new(vec![recipe], &platform4()).unwrap_err();
        assert!(matches!(err, ModelError::UnknownType { .. }));
    }

    #[test]
    fn demand_matrix_matches_figure2() {
        let app = GlobalApplication::new(figure2_recipes(), &platform4()).unwrap();
        let demand = app.demand();
        assert_eq!(demand.row(RecipeId(0)), &[0, 1, 0, 1]);
        assert_eq!(demand.row(RecipeId(1)), &[0, 0, 1, 1]);
        assert_eq!(demand.row(RecipeId(2)), &[1, 1, 0, 0]);
        assert_eq!(demand.count(RecipeId(2), TypeId(0)), 1);
        assert!(demand.has_shared_types()); // types 2 and 4 are shared
        assert!(!demand.is_black_box());
    }

    #[test]
    fn demand_per_type_matches_hand_computation() {
        // Split of the ILP row rho = 70 in Table III: (10, 30, 30).
        let app = GlobalApplication::new(figure2_recipes(), &platform4()).unwrap();
        let demand = app.demand().demand_per_type(&[10, 30, 30]).unwrap();
        assert_eq!(demand, vec![30, 40, 30, 40]);
    }

    #[test]
    fn black_box_detection() {
        let platform = platform4();
        let recipes = vec![
            Recipe::independent_tasks(RecipeId(0), &[TypeId(0)]).unwrap(),
            Recipe::independent_tasks(RecipeId(1), &[TypeId(1)]).unwrap(),
        ];
        let app = GlobalApplication::new(recipes, &platform).unwrap();
        assert!(app.demand().is_black_box());
        assert!(!app.has_shared_types());
    }

    #[test]
    fn shared_single_task_recipes_are_not_black_box() {
        let platform = platform4();
        let recipes = vec![
            Recipe::independent_tasks(RecipeId(0), &[TypeId(0)]).unwrap(),
            Recipe::independent_tasks(RecipeId(1), &[TypeId(0)]).unwrap(),
        ];
        let app = GlobalApplication::new(recipes, &platform).unwrap();
        assert!(!app.demand().is_black_box());
        assert!(app.has_shared_types());
    }

    #[test]
    fn total_tasks_sums_recipe_sizes() {
        let app = GlobalApplication::new(figure2_recipes(), &platform4()).unwrap();
        assert_eq!(app.total_tasks(), 6);
        assert_eq!(app.num_recipes(), 3);
        assert_eq!(app.recipe_ids().count(), 3);
    }

    #[test]
    fn demand_per_type_detects_overflow() {
        let platform = Platform::from_pairs(&[(1, 1)]).unwrap();
        let recipe =
            Recipe::independent_tasks(RecipeId(0), &[TypeId(0), TypeId(0), TypeId(0)]).unwrap();
        let app = GlobalApplication::new(vec![recipe], &platform).unwrap();
        assert!(app.demand().demand_per_type(&[u64::MAX / 2]).is_none());
    }
}
