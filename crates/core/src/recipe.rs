//! Recipes: the alternative application graphs (`ϕ^j`) of the paper.
//!
//! A recipe is a DAG of typed tasks. The rental cost of a recipe only depends
//! on how many tasks of each type it contains (`n_jq`), but the dependency
//! structure matters for the streaming substrate (`rental-stream`) which
//! executes items through the DAG, and for validating that generated
//! instances really are DAGs.

use crate::error::{ModelError, ModelResult};
use crate::types::{RecipeId, TaskId, TypeId};

/// One task (`ϕ^j_i`) of a recipe. The only attribute that matters to the
/// cost model is its type; the optional label helps debugging and reporting.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    /// Type of the task (`t(i, j)` in the paper).
    pub type_id: TypeId,
    /// Optional human readable label (e.g. "decode", "matmul-gpu").
    pub label: Option<String>,
}

impl Task {
    /// Creates an unlabelled task of the given type.
    pub fn new(type_id: TypeId) -> Self {
        Task {
            type_id,
            label: None,
        }
    }

    /// Creates a labelled task of the given type.
    pub fn labelled(type_id: TypeId, label: impl Into<String>) -> Self {
        Task {
            type_id,
            label: Some(label.into()),
        }
    }
}

/// A dependency edge between two tasks of the same recipe: `from` must
/// complete (for a given data item) before `to` may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Index of the predecessor task.
    pub from: usize,
    /// Index of the successor task.
    pub to: usize,
}

/// An application graph (`ϕ^j`): a DAG of typed tasks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Recipe {
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// Successors adjacency list, indexed by task.
    successors: Vec<Vec<usize>>,
    /// Predecessors adjacency list, indexed by task.
    predecessors: Vec<Vec<usize>>,
    /// A topological order of the tasks (valid because recipes are DAGs).
    topo_order: Vec<usize>,
}

impl Recipe {
    /// Builds a recipe from its tasks and dependency edges and validates that
    /// the dependency graph is a DAG.
    ///
    /// The `id` parameter is only used to produce precise error messages.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyRecipe`] if `tasks` is empty.
    /// * [`ModelError::DanglingEdge`] if an edge references a missing task.
    /// * [`ModelError::CyclicRecipe`] if the dependency graph has a cycle.
    pub fn new(id: RecipeId, tasks: Vec<Task>, edges: Vec<Edge>) -> ModelResult<Self> {
        if tasks.is_empty() {
            return Err(ModelError::EmptyRecipe { recipe: id });
        }
        let n = tasks.len();
        let mut successors = vec![Vec::new(); n];
        let mut predecessors = vec![Vec::new(); n];
        for edge in &edges {
            if edge.from >= n || edge.to >= n {
                return Err(ModelError::DanglingEdge {
                    recipe: id,
                    from: edge.from,
                    to: edge.to,
                    tasks: n,
                });
            }
            successors[edge.from].push(edge.to);
            predecessors[edge.to].push(edge.from);
        }
        let topo_order = topological_order(&successors, &predecessors)
            .ok_or(ModelError::CyclicRecipe { recipe: id })?;
        Ok(Recipe {
            tasks,
            edges,
            successors,
            predecessors,
            topo_order,
        })
    }

    /// Builds a *chain* recipe (a linear pipeline) from a list of task types:
    /// task 0 → task 1 → … → task n-1. Chains are the most common pattern in
    /// the streaming-application literature the paper builds on.
    pub fn chain(id: RecipeId, types: &[TypeId]) -> ModelResult<Self> {
        let tasks = types.iter().copied().map(Task::new).collect();
        let edges = (1..types.len())
            .map(|i| Edge { from: i - 1, to: i })
            .collect();
        Recipe::new(id, tasks, edges)
    }

    /// Builds a recipe whose tasks are all independent (no dependency edge).
    /// Only the type multiset matters for the cost model, so this is a handy
    /// constructor for cost-focused tests and generated instances.
    pub fn independent_tasks(id: RecipeId, types: &[TypeId]) -> ModelResult<Self> {
        let tasks = types.iter().copied().map(Task::new).collect();
        Recipe::new(id, tasks, Vec::new())
    }

    /// Number of tasks `I_j` in the recipe.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The tasks of the recipe, indexed by [`TaskId`].
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task with the given index, if any.
    #[inline]
    pub fn task(&self, task: TaskId) -> Option<&Task> {
        self.tasks.get(task.index())
    }

    /// Type of task `i` (`t(i, j)` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the task index is out of range.
    #[inline]
    pub fn task_type(&self, task: TaskId) -> TypeId {
        self.tasks[task.index()].type_id
    }

    /// The dependency edges of the recipe.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Successors of task `i` in the DAG.
    #[inline]
    pub fn successors(&self, task: TaskId) -> &[usize] {
        &self.successors[task.index()]
    }

    /// Predecessors of task `i` in the DAG.
    #[inline]
    pub fn predecessors(&self, task: TaskId) -> &[usize] {
        &self.predecessors[task.index()]
    }

    /// A topological order of the task indices.
    #[inline]
    pub fn topological_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// Tasks with no predecessor (entry points of the DAG).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.num_tasks())
            .filter(|&i| self.predecessors[i].is_empty())
            .collect()
    }

    /// Tasks with no successor (exit points of the DAG).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.num_tasks())
            .filter(|&i| self.successors[i].is_empty())
            .collect()
    }

    /// Number of tasks of type `q` in this recipe (`n_jq`), computed by
    /// scanning the task list.
    pub fn count_of_type(&self, type_id: TypeId) -> u64 {
        self.tasks
            .iter()
            .filter(|task| task.type_id == type_id)
            .count() as u64
    }

    /// Histogram of task types: entry `q` is `n_jq`. The vector has
    /// `num_types` entries even for types unused by this recipe.
    pub fn type_counts(&self, num_types: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_types];
        for task in &self.tasks {
            if task.type_id.index() < num_types {
                counts[task.type_id.index()] += 1;
            }
        }
        counts
    }

    /// The set of distinct types used by this recipe, sorted by index.
    pub fn used_types(&self) -> Vec<TypeId> {
        let mut indices: Vec<usize> = self.tasks.iter().map(|task| task.type_id.index()).collect();
        indices.sort_unstable();
        indices.dedup();
        indices.into_iter().map(TypeId).collect()
    }

    /// Validates that every task type exists on a platform with `num_types`
    /// machine types.
    pub fn validate_types(&self, id: RecipeId, num_types: usize) -> ModelResult<()> {
        for (i, task) in self.tasks.iter().enumerate() {
            if task.type_id.index() >= num_types {
                return Err(ModelError::UnknownType {
                    recipe: id,
                    task: TaskId(i),
                    type_id: task.type_id,
                    available: num_types,
                });
            }
        }
        Ok(())
    }

    /// Length (in tasks) of the longest path of the DAG, i.e. the critical
    /// path length. A chain of `n` tasks has depth `n`; fully independent
    /// tasks have depth 1.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![1usize; self.num_tasks()];
        for &i in &self.topo_order {
            for &succ in &self.successors[i] {
                depth[succ] = depth[succ].max(depth[i] + 1);
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// Kahn's algorithm. Returns `None` if the graph has a cycle.
fn topological_order(successors: &[Vec<usize>], predecessors: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = successors.len();
    let mut in_degree: Vec<usize> = predecessors.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(node) = ready.pop() {
        order.push(node);
        for &succ in &successors[node] {
            in_degree[succ] -= 1;
            if in_degree[succ] == 0 {
                ready.push(succ);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Recipe {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Recipe::new(
            RecipeId(0),
            vec![
                Task::new(TypeId(0)),
                Task::new(TypeId(1)),
                Task::new(TypeId(1)),
                Task::new(TypeId(2)),
            ],
            vec![
                Edge { from: 0, to: 1 },
                Edge { from: 0, to: 2 },
                Edge { from: 1, to: 3 },
                Edge { from: 2, to: 3 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_recipe_is_rejected() {
        let err = Recipe::new(RecipeId(3), vec![], vec![]).unwrap_err();
        assert_eq!(
            err,
            ModelError::EmptyRecipe {
                recipe: RecipeId(3)
            }
        );
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let err = Recipe::new(
            RecipeId(0),
            vec![Task::new(TypeId(0))],
            vec![Edge { from: 0, to: 5 }],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::DanglingEdge { to: 5, .. }));
    }

    #[test]
    fn cycle_is_rejected() {
        let err = Recipe::new(
            RecipeId(1),
            vec![Task::new(TypeId(0)), Task::new(TypeId(0))],
            vec![Edge { from: 0, to: 1 }, Edge { from: 1, to: 0 }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::CyclicRecipe {
                recipe: RecipeId(1)
            }
        );
    }

    #[test]
    fn self_loop_is_rejected() {
        let err = Recipe::new(
            RecipeId(0),
            vec![Task::new(TypeId(0))],
            vec![Edge { from: 0, to: 0 }],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::CyclicRecipe {
                recipe: RecipeId(0)
            }
        );
    }

    #[test]
    fn chain_builds_linear_pipeline() {
        let recipe = Recipe::chain(RecipeId(0), &[TypeId(1), TypeId(3)]).unwrap();
        assert_eq!(recipe.num_tasks(), 2);
        assert_eq!(recipe.edges(), &[Edge { from: 0, to: 1 }]);
        assert_eq!(recipe.sources(), vec![0]);
        assert_eq!(recipe.sinks(), vec![1]);
        assert_eq!(recipe.critical_path_len(), 2);
    }

    #[test]
    fn diamond_topological_order_is_consistent() {
        let recipe = diamond();
        let order = recipe.topological_order();
        let position: Vec<usize> = {
            let mut pos = vec![0; order.len()];
            for (rank, &node) in order.iter().enumerate() {
                pos[node] = rank;
            }
            pos
        };
        for edge in recipe.edges() {
            assert!(position[edge.from] < position[edge.to]);
        }
        assert_eq!(recipe.critical_path_len(), 3);
    }

    #[test]
    fn type_counts_match_task_multiset() {
        let recipe = diamond();
        assert_eq!(recipe.type_counts(4), vec![1, 2, 1, 0]);
        assert_eq!(recipe.count_of_type(TypeId(1)), 2);
        assert_eq!(recipe.count_of_type(TypeId(3)), 0);
        assert_eq!(recipe.used_types(), vec![TypeId(0), TypeId(1), TypeId(2)]);
    }

    #[test]
    fn validate_types_detects_out_of_range_types() {
        let recipe = diamond();
        assert!(recipe.validate_types(RecipeId(0), 3).is_ok());
        let err = recipe.validate_types(RecipeId(0), 2).unwrap_err();
        assert!(matches!(err, ModelError::UnknownType { .. }));
    }

    #[test]
    fn independent_tasks_have_depth_one() {
        let recipe =
            Recipe::independent_tasks(RecipeId(0), &[TypeId(0), TypeId(1), TypeId(2)]).unwrap();
        assert_eq!(recipe.critical_path_len(), 1);
        assert_eq!(recipe.sources().len(), 3);
        assert_eq!(recipe.sinks().len(), 3);
    }

    #[test]
    fn labelled_tasks_keep_their_label() {
        let task = Task::labelled(TypeId(2), "matmul-gpu");
        assert_eq!(task.label.as_deref(), Some("matmul-gpu"));
        assert_eq!(task.type_id, TypeId(2));
    }
}
