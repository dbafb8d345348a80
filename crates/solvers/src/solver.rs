//! The common interface implemented by every MinCost algorithm, exact or
//! heuristic.

use std::fmt;
use std::time::Duration;

use rental_core::{Instance, ModelError, Solution, Throughput};
use rental_lp::LpError;

/// Errors produced while solving a MinCost instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The instance or a produced split is inconsistent.
    Model(ModelError),
    /// The underlying LP/MILP solver failed (invalid formulation).
    Lp(LpError),
    /// The algorithm is only defined for a restricted class of instances
    /// (e.g. the black-box knapsack DP of §V-A) and this instance is outside
    /// that class.
    UnsupportedInstance {
        /// Name of the algorithm that rejected the instance.
        solver: String,
        /// Why the instance is outside the supported class.
        reason: String,
    },
    /// No feasible solution could be produced (e.g. the caps make the target
    /// infeasible): a **conclusive** failure.
    NoSolutionFound {
        /// Name of the algorithm.
        solver: String,
    },
    /// The solve budget (deadline / node cap / iteration cap) ran out before
    /// a feasible incumbent was found: an **inconclusive** failure. Unlike
    /// [`SolveError::NoSolutionFound`] this proves nothing about the
    /// instance — retrying with a larger budget may well succeed, which is
    /// exactly what the fleet controller's deferred-re-solve backoff does.
    BudgetExhausted {
        /// Name of the algorithm.
        solver: String,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(err) => write!(f, "model error: {err}"),
            SolveError::Lp(err) => write!(f, "lp error: {err}"),
            SolveError::UnsupportedInstance { solver, reason } => {
                write!(f, "{solver} does not support this instance: {reason}")
            }
            SolveError::NoSolutionFound { solver } => {
                write!(f, "{solver} found no feasible solution")
            }
            SolveError::BudgetExhausted { solver } => {
                write!(
                    f,
                    "{solver} exhausted its solve budget before finding an incumbent"
                )
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ModelError> for SolveError {
    fn from(err: ModelError) -> Self {
        SolveError::Model(err)
    }
}

impl From<LpError> for SolveError {
    fn from(err: LpError) -> Self {
        SolveError::Lp(err)
    }
}

/// Result alias for solver operations.
pub type SolveResult<T> = Result<T, SolveError>;

/// Outcome of a solve: the solution plus quality metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOutcome {
    /// The best solution found by the algorithm.
    pub solution: Solution,
    /// True if the algorithm *proved* that the solution is optimal (the exact
    /// algorithms, or the ILP when it closes the gap before its time limit).
    pub proven_optimal: bool,
    /// Lower bound on the optimal cost proven during the solve, if any.
    pub lower_bound: Option<f64>,
    /// Wall-clock time spent inside the algorithm.
    pub elapsed: Duration,
    /// Branch-and-bound nodes explored, for solvers with a search tree
    /// (`None` for the heuristics). Target sweeps use this to quantify how
    /// much warm-started incumbents shrink the tree.
    pub nodes: Option<usize>,
    /// Simplex iterations summed over all node relaxations (`None` for
    /// solvers without an LP substrate). Together with `nodes` this is the
    /// solve's **budget consumption** — the countable currencies a
    /// [`SolveBudget`] caps — wired into the fleet's per-tenant effort
    /// aggregates.
    pub lp_iterations: Option<usize>,
    /// True when the solve hit its budget (deadline / node cap / iteration
    /// cap) and returned the **best incumbent** instead of running the search
    /// to completion — the anytime contract. An exhausted outcome is feasible
    /// but unproven: `proven_optimal` is false and `lower_bound` may be far
    /// below `cost()`.
    pub exhausted: bool,
}

impl SolverOutcome {
    /// Convenience constructor for heuristic outcomes (no optimality proof).
    pub fn heuristic(solution: Solution, elapsed: Duration) -> Self {
        SolverOutcome {
            solution,
            proven_optimal: false,
            lower_bound: None,
            elapsed,
            nodes: None,
            lp_iterations: None,
            exhausted: false,
        }
    }

    /// Convenience constructor for exact outcomes.
    pub fn exact(solution: Solution, elapsed: Duration) -> Self {
        let bound = solution.cost() as f64;
        SolverOutcome {
            solution,
            proven_optimal: true,
            lower_bound: Some(bound),
            elapsed,
            nodes: None,
            lp_iterations: None,
            exhausted: false,
        }
    }

    /// Total rental cost of the returned solution.
    pub fn cost(&self) -> u64 {
        self.solution.cost()
    }
}

/// What one solve of a target sweep hands to the next: the incumbent split
/// (lifted into a warm-start incumbent) and the proven lower bound.
///
/// The bound is the sharp part: MinCost feasible regions are *nested* in the
/// target (`Σ ρ_j ≥ ρ₂` implies `Σ ρ_j ≥ ρ₁` for `ρ₁ ≤ ρ₂`), so a proven
/// lower bound for a smaller target is a valid **objective cut** for every
/// larger one — it lifts the LP bound of every branch-and-bound node, which
/// prunes exactly where covering relaxations are weakest.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPrior {
    /// The target the prior was solved for.
    pub target: Throughput,
    /// The best split found for that target.
    pub split: rental_core::ThroughputSplit,
    /// The proven lower bound on that target's optimal cost, if any.
    pub lower_bound: Option<f64>,
}

impl SweepPrior {
    /// Builds the prior handed to the next target of a sweep.
    pub fn from_outcome(target: Throughput, outcome: &SolverOutcome) -> Self {
        SweepPrior {
            target,
            split: outcome.solution.split.clone(),
            lower_bound: outcome.lower_bound,
        }
    }
}

/// A composable bound on how much work one solve may do: a wall-clock
/// deadline, a branch-and-bound node cap, and a total-simplex-iteration cap,
/// any subset of which may be set. `None` components are unlimited.
///
/// [`split`](Self::split) divides a budget's countable components across
/// `n` concurrent solves, which is how the fleet's batch scheduler shares
/// one per-epoch budget among the pending re-solves.
///
/// The deadline is the real-time guardrail; the node and iteration caps are
/// **deterministic** (identical runs stop at the identical node), so tests
/// and CI floors pin against those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Wall-clock deadline for the solve; `None` is unlimited.
    pub deadline: Option<Duration>,
    /// Branch-and-bound node cap; `None` is unlimited.
    pub node_cap: Option<usize>,
    /// Total simplex-iteration cap (summed over all node relaxations);
    /// `None` is unlimited.
    pub iteration_cap: Option<usize>,
}

impl SolveBudget {
    /// The unlimited budget (every component `None`).
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// A budget with only a node cap.
    pub fn with_node_cap(nodes: usize) -> Self {
        SolveBudget {
            node_cap: Some(nodes),
            ..SolveBudget::default()
        }
    }

    /// A budget with only an iteration cap.
    pub fn with_iteration_cap(iterations: usize) -> Self {
        SolveBudget {
            iteration_cap: Some(iterations),
            ..SolveBudget::default()
        }
    }

    /// Splits the budget across `n` concurrent solves: countable components
    /// are divided by `n` (floored at one unit each, so a huge batch degrades
    /// to minimum-work probes rather than zero-work failures); the deadline
    /// is shared, not divided, because the batch runs concurrently.
    pub fn split(&self, n: usize) -> SolveBudget {
        let n = n.max(1);
        SolveBudget {
            deadline: self.deadline,
            node_cap: self.node_cap.map(|c| (c / n).max(1)),
            iteration_cap: self.iteration_cap.map(|c| (c / n).max(1)),
        }
    }
}

/// A solver that can exploit the outcome of a *related* solve — the previous
/// target in a throughput sweep — to prune its own search from the first
/// node.
pub trait WarmStartSolver: MinCostSolver {
    /// Solves the instance for `target`, optionally seeded with the prior of
    /// a related solve (typically the previous target of the same instance).
    ///
    /// Implementations must return the same *cost* as [`MinCostSolver::solve`]
    /// for exact solvers; the prior may only make the solve cheaper.
    ///
    /// # Errors
    ///
    /// Same contract as [`MinCostSolver::solve`].
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome>;

    /// [`solve_with_prior`](Self::solve_with_prior) under a [`SolveBudget`]:
    /// the **anytime contract**. A budgeted solve that runs out of budget
    /// returns its best incumbent with [`SolverOutcome::exhausted`] set, and
    /// only fails with [`SolveError::BudgetExhausted`] when no incumbent was
    /// found at all.
    ///
    /// The default implementation ignores the budget and delegates — correct
    /// for solvers whose single solve is already cheap (the heuristics);
    /// search-based solvers override it to honour the caps.
    ///
    /// # Errors
    ///
    /// [`SolveError::BudgetExhausted`] when the budget ran out before any
    /// incumbent existed, plus the [`MinCostSolver::solve`] error contract.
    fn solve_with_prior_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        let _ = budget;
        self.solve_with_prior(instance, target, prior)
    }
}

/// The per-type machine cap meaning "no quota": callers pass this (or
/// anything `>= UNLIMITED_CAP`) when a type is not capacity constrained.
pub const UNLIMITED_CAP: u64 = u64::MAX;

/// A solver that can respect **per-type machine caps**: hard upper bounds
/// `x_q ≤ cap_q` on how many machines of each type the solution may rent.
/// This is how a shared capacity pool (cloud quotas, failure-degraded
/// residual capacity) is threaded into a re-solve — the caps become variable
/// bounds of the MILP, so branch & bound spills demand to costlier types
/// exactly when the preferred type's quota is exhausted.
pub trait CapacitySolver: WarmStartSolver {
    /// Solves the instance for `target` under per-type machine caps
    /// (`caps[q]` machines of type `q` at most; [`UNLIMITED_CAP`] disables a
    /// type's cap), optionally warm-started from a related prior.
    ///
    /// The prior's incumbent is only ever used as a *candidate* (checked
    /// against the caps), but its `lower_bound` is trusted as a proven
    /// objective floor: callers must only pass priors whose bound was proven
    /// for a target `≤ target` under caps **no tighter** than `caps`
    /// (tightening caps can only raise the optimum, so such bounds stay
    /// sound; a bound proven under tighter caps is not).
    ///
    /// **Prior-soundness enforcement.** Trust is bounded, not blind:
    /// implementations must never let a *poisoned* floor (one above the true
    /// optimum) silently produce a worse-than-optimal outcome that claims
    /// optimality. The ILP implementation enforces this on both sides of the
    /// search: a floor exceeding the cost of a feasible warm candidate is
    /// discarded before the solve (the candidate's cost refutes it), and an
    /// incumbent landing strictly *below* the floor demotes the outcome to
    /// unproven and drops the poisoned bound so a sweep cannot propagate it.
    /// The one undetectable case — a poisoned floor that the returned
    /// incumbent exactly meets — is bounded by the poison itself: the
    /// returned cost never exceeds the cheapest feasible warm candidate, so a
    /// caller honouring the contract never observes it.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoSolutionFound`] when the caps make the target
    /// infeasible (the quota cannot carry the demand), plus the usual
    /// [`MinCostSolver::solve`] error contract.
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome>;

    /// [`solve_with_caps`](Self::solve_with_caps) under a [`SolveBudget`]
    /// (see [`WarmStartSolver::solve_with_prior_budgeted`] for the anytime
    /// contract). The default ignores the budget; search-based solvers
    /// override it.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoSolutionFound`] when the caps are proven infeasible,
    /// [`SolveError::BudgetExhausted`] when the budget ran out first, plus
    /// the usual [`MinCostSolver::solve`] contract.
    fn solve_with_caps_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        let _ = budget;
        self.solve_with_caps(instance, target, caps, prior)
    }
}

/// An algorithm that solves the MinCost problem: given an instance and a
/// target throughput, produce a feasible throughput split and its allocation.
pub trait MinCostSolver {
    /// Short identifier used in reports ("ILP", "H1", "H32Jump", ...).
    fn name(&self) -> &str;

    /// Solves the instance for the given target throughput.
    ///
    /// # Errors
    ///
    /// Implementations return [`SolveError`] when the instance is outside the
    /// class they support or when no feasible solution can be produced.
    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome>;
}

/// Blanket implementation so `Box<dyn MinCostSolver>` can be used wherever a
/// solver is expected.
impl<S: MinCostSolver + ?Sized> MinCostSolver for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        (**self).solve(instance, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_core::ThroughputSplit;

    struct FixedSolver;

    impl MinCostSolver for FixedSolver {
        fn name(&self) -> &str {
            "fixed"
        }

        fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
            let split = ThroughputSplit::single(instance.num_recipes(), 0.into(), target);
            let solution = instance.solution(target, split)?;
            Ok(SolverOutcome::heuristic(solution, Duration::ZERO))
        }
    }

    #[test]
    fn boxed_solvers_delegate() {
        let solver: Box<dyn MinCostSolver> = Box::new(FixedSolver);
        let instance = illustrating_example();
        let outcome = solver.solve(&instance, 40).unwrap();
        assert_eq!(solver.name(), "fixed");
        assert_eq!(outcome.cost(), 69); // recipe 1 at rho = 40 (Table III H1 row).
        assert!(!outcome.proven_optimal);
    }

    #[test]
    fn exact_outcome_carries_bound() {
        let instance = illustrating_example();
        let solution = instance
            .solution(10, ThroughputSplit::new(vec![0, 0, 10]))
            .unwrap();
        let outcome = SolverOutcome::exact(solution, Duration::from_millis(1));
        assert!(outcome.proven_optimal);
        assert_eq!(outcome.lower_bound, Some(28.0));
    }

    #[test]
    fn errors_convert_from_model_and_lp() {
        let model_err: SolveError = ModelError::NoRecipes.into();
        assert!(matches!(model_err, SolveError::Model(_)));
        let lp_err: SolveError = LpError::EmptyModel.into();
        assert!(matches!(lp_err, SolveError::Lp(_)));
        assert!(model_err.to_string().contains("model error"));
    }

    #[test]
    fn unsupported_instance_error_mentions_solver() {
        let err = SolveError::UnsupportedInstance {
            solver: "KnapsackDP".to_string(),
            reason: "recipes share task types".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("KnapsackDP"));
        assert!(text.contains("share"));
    }
}
