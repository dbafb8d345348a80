//! The integer linear program of §V-C for the general case (shared task
//! types), solved with the `rental-lp` branch-and-bound solver.
//!
//! ```text
//! minimize   Σ_q x_q c_q
//! subject to Σ_j ρ_j ≥ ρ                       (coverage)
//!            x_q r_q ≥ Σ_j n_jq ρ_j   ∀q        (capacity)
//!            ρ_j ∈ ℕ, x_q ∈ ℕ
//! ```
//!
//! In the paper this MILP is handed to Gurobi; here it is handed to
//! [`rental_lp::MipSolver`]. With the default (unlimited) limits the solver
//! proves optimality on the paper's small and medium instances; with a time
//! limit (`IlpSolver::with_time_limit`, 100 s in the paper's Figure-8
//! experiment) it returns its best incumbent, exactly like Gurobi does.

use std::time::Instant;

use rental_core::{Instance, RecipeId, Throughput, ThroughputSplit};
use rental_lp::model::{Model, Relation, VarId};
use rental_lp::{MipSolver, MipStatus, SolveLimits};

use crate::heuristics::SteepestGradientSolver;
use crate::solver::{
    CapacitySolver, MinCostSolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver, UNLIMITED_CAP,
};

/// Exact (or time-limited) solver for the general shared-type case (§V-C).
#[derive(Debug, Clone, Default)]
pub struct IlpSolver {
    limits: SolveLimits,
}

impl IlpSolver {
    /// Creates an ILP solver with no limits: it runs until optimality is
    /// proven.
    pub fn new() -> Self {
        IlpSolver {
            limits: SolveLimits::default(),
        }
    }

    /// Creates an ILP solver with the given limits.
    pub fn with_limits(limits: SolveLimits) -> Self {
        IlpSolver { limits }
    }

    /// Creates an ILP solver with a wall-clock time limit in seconds, as used
    /// for the large instances of §VIII-E (100 s in the paper).
    pub fn with_time_limit(seconds: f64) -> Self {
        IlpSolver {
            limits: SolveLimits::with_time_limit(seconds),
        }
    }

    /// The solver's standing limits intersected with a caller's
    /// [`SolveBudget`]: each component takes the tighter of the two.
    fn limits_under(&self, budget: &SolveBudget) -> SolveLimits {
        let mut limits = self.limits;
        if let Some(deadline) = budget.deadline {
            limits.time_limit = Some(limits.time_limit.map_or(deadline, |t| t.min(deadline)));
        }
        if let Some(nodes) = budget.node_cap {
            limits.node_limit = Some(limits.node_limit.map_or(nodes, |n| n.min(nodes)));
        }
        if let Some(iterations) = budget.iteration_cap {
            limits.lp_iteration_limit = Some(
                limits
                    .lp_iteration_limit
                    .map_or(iterations, |i| i.min(iterations)),
            );
        }
        limits
    }

    /// Builds the §V-C MILP for an instance and a target throughput. The
    /// variables are `[ρ_1..ρ_J, x_1..x_Q]` and carry no names: the model is
    /// built for every solve, and nothing reads them.
    pub fn build_model(instance: &Instance, target: Throughput) -> Model {
        let app = instance.application();
        let platform = instance.platform();
        let num_recipes = app.num_recipes();
        let num_types = platform.num_types();
        let rho_var = VarId;
        let x_var = |q: usize| VarId(num_recipes + q);

        let mut model = Model::minimize();
        // ρ_j variables: no objective cost, bounded by the target (WLOG an
        // optimal solution never gives one recipe more than the whole target).
        for _ in 0..num_recipes {
            model.add_int_var(String::new(), 0.0, 0.0, target as f64);
        }
        // x_q variables carry the rental cost.
        for q in 0..num_types {
            model.add_int_var(
                String::new(),
                platform.cost(rental_core::TypeId(q)) as f64,
                0.0,
                f64::INFINITY,
            );
        }

        // Coverage: Σ_j ρ_j ≥ ρ.
        model.add_constraint(
            (0..num_recipes).map(|j| (rho_var(j), 1.0)).collect(),
            Relation::GreaterEq,
            target as f64,
        );
        // Capacity per type: x_q r_q - Σ_j n_jq ρ_j ≥ 0.
        for q in 0..num_types {
            let mut terms = Vec::with_capacity(1 + num_recipes);
            terms.push((x_var(q), platform.throughput(rental_core::TypeId(q)) as f64));
            for j in 0..num_recipes {
                let n_jq = app.demand().count(RecipeId(j), rental_core::TypeId(q));
                if n_jq > 0 {
                    terms.push((rho_var(j), -(n_jq as f64)));
                }
            }
            model.add_constraint(terms, Relation::GreaterEq, 0.0);
        }
        model
    }

    /// [`Self::build_model`] with per-type machine caps threaded in as
    /// variable bounds: `x_q ≤ caps[q]` ([`UNLIMITED_CAP`] leaves a type
    /// unbounded). Bounds — not extra rows — keep the relaxation exactly as
    /// sparse as the uncapped model.
    ///
    /// # Panics
    ///
    /// Panics when `caps` does not have one entry per machine type.
    pub fn build_model_with_caps(instance: &Instance, target: Throughput, caps: &[u64]) -> Model {
        assert_eq!(
            caps.len(),
            instance.num_types(),
            "one cap per machine type is required"
        );
        let mut model = Self::build_model(instance, target);
        let num_recipes = instance.num_recipes();
        for (q, &cap) in caps.iter().enumerate() {
            if cap < UNLIMITED_CAP {
                model.tighten_upper(VarId(num_recipes + q), cap as f64);
            }
        }
        model
    }
}

/// True when a flattened MILP point `[ρ_1..ρ_J, x_1..x_Q]` respects the
/// per-type machine caps (warm-start candidates from cap-oblivious sources —
/// the steepest-descent heuristic, a lifted prior — must be filtered before
/// they compete on cost, or an infeasible cheaper candidate would shadow a
/// feasible one).
fn respects_caps(num_recipes: usize, values: &[f64], caps: &[u64]) -> bool {
    caps.iter()
        .enumerate()
        .all(|(q, &cap)| cap == UNLIMITED_CAP || values[num_recipes + q] <= cap as f64 + 1e-9)
}

/// Evaluates a split as a warm-start candidate for `target`: the split is
/// completed (machine counts re-derived exactly) and flattened into the MILP's
/// variable order `[ρ_1..ρ_J, x_1..x_Q]`.
fn warm_candidate(
    instance: &Instance,
    target: Throughput,
    split: ThroughputSplit,
) -> Option<(u64, Vec<f64>)> {
    let solution = instance.solution(target, split).ok()?;
    let cost = solution.cost();
    let mut values: Vec<f64> = solution.split.shares().iter().map(|&s| s as f64).collect();
    values.extend(
        solution
            .allocation
            .machine_counts()
            .iter()
            .map(|&x| x as f64),
    );
    Some((cost, values))
}

/// Lifts the incumbent split of a *different* target onto `target`.
///
/// Coverage is an inequality (`Σ ρ_j ≥ ρ`), so a split for a larger target is
/// feasible as-is; a split for a smaller target is completed by assigning the
/// deficit to the single recipe where it is cheapest.
fn lifted_prior(
    instance: &Instance,
    target: Throughput,
    prior: &ThroughputSplit,
) -> Option<(u64, Vec<f64>)> {
    if prior.len() != instance.num_recipes() {
        return None;
    }
    let total: Throughput = prior.shares().iter().sum();
    if total >= target {
        return warm_candidate(instance, target, prior.clone());
    }
    let deficit = target - total;
    let mut best: Option<(u64, Vec<f64>)> = None;
    for j in 0..prior.len() {
        let mut shares = prior.shares().to_vec();
        shares[j] += deficit;
        if let Some(candidate) = warm_candidate(instance, target, ThroughputSplit::new(shares)) {
            if best.as_ref().is_none_or(|(cost, _)| candidate.0 < *cost) {
                best = Some(candidate);
            }
        }
    }
    best
}

impl MinCostSolver for IlpSolver {
    fn name(&self) -> &str {
        "ILP"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.solve_with_prior(instance, target, None)
    }
}

impl WarmStartSolver for IlpSolver {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.solve_capped(instance, target, None, prior, self.limits)
    }

    fn solve_with_prior_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        self.solve_capped(instance, target, None, prior, self.limits_under(budget))
    }
}

impl CapacitySolver for IlpSolver {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.solve_with_caps_budgeted(instance, target, caps, prior, &SolveBudget::unlimited())
    }

    fn solve_with_caps_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        assert_eq!(
            caps.len(),
            instance.num_types(),
            "one cap per machine type is required"
        );
        let limits = self.limits_under(budget);
        // All-unlimited caps take the uncapped path verbatim (same model,
        // same warm starts), so capacity-aware callers can use this entry
        // point unconditionally.
        if caps.iter().all(|&cap| cap == UNLIMITED_CAP) {
            self.solve_capped(instance, target, None, prior, limits)
        } else {
            self.solve_capped(instance, target, Some(caps), prior, limits)
        }
    }
}

impl IlpSolver {
    fn solve_capped(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: Option<&[u64]>,
        prior: Option<&SweepPrior>,
        limits: SolveLimits,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let model = match caps {
            Some(caps) => Self::build_model_with_caps(instance, target, caps),
            None => Self::build_model(instance, target),
        };
        // Objective floor from the sweep: MinCost feasible regions are nested
        // in the target, so a bound proven for a *smaller* target is a valid
        // lower bound here. With integer costs it tightens to the next
        // integer, and branch & bound prunes its whole tree the moment an
        // incumbent reaches it — which happens on every target that shares
        // its optimal cost with the previous one (plateaus are ubiquitous in
        // fine-grained sweeps because machine capacity is quantized). Capping
        // only raises the optimum, so the bound survives under caps as long
        // as the caller respects the `CapacitySolver` contract (the prior's
        // caps were no tighter than these).
        let mut floor = prior
            .filter(|prior| prior.target <= target)
            .and_then(|prior| prior.lower_bound)
            .map(|lower_bound| (lower_bound - 1e-6).ceil());
        // Warm start: a cheap steepest-descent solution gives branch-and-bound
        // a strong incumbent to prune against from the very first node. This
        // mirrors how MILP solvers are primed with heuristic solutions and
        // keeps the search tractable on the paper's larger instances. In a
        // target sweep, the incumbent of the previous target — lifted to
        // cover the new one — competes with it, and the cheaper of the two
        // primes the search. Both sources are cap-oblivious, so under caps a
        // candidate only competes when it respects them.
        let within_caps = |candidate: &(u64, Vec<f64>)| match caps {
            Some(caps) => respects_caps(instance.num_recipes(), &candidate.1, caps),
            None => true,
        };
        let heuristic = SteepestGradientSolver::default()
            .solve(instance, target)
            .ok()
            .and_then(|outcome| warm_candidate(instance, target, outcome.solution.split))
            .filter(within_caps);
        let lifted = prior
            .and_then(|prior| lifted_prior(instance, target, &prior.split))
            .filter(within_caps);
        let warm_start = match (heuristic, lifted) {
            (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
            (a, b) => a.or(b),
        };
        // Prior-soundness guard, entry side: a warm candidate's cost is an
        // *achievable* cost, so a floor above it is provably unsound (the
        // caller violated the prior contract — e.g. a poisoned or stale
        // bound). An unsound floor silently prunes the true optimum; dropping
        // it costs only the pruning speedup, never correctness.
        let mut floor_dropped = false;
        if let (Some(f), Some((candidate_cost, _))) = (floor, warm_start.as_ref()) {
            if f > *candidate_cost as f64 + 1e-6 {
                floor = None;
                floor_dropped = true;
            }
        }
        let warm_start = warm_start.map(|(_, values)| values);
        // Pure copy-out to the ambient telemetry sink; the solve never reads
        // it back. Warm-start hits and prior-floor prunes are decided right
        // here, so this is the one place they are observable.
        rental_obs::with_sink(|sink| {
            sink.counter("solver.solves", 1);
            sink.counter("solver.warm_start_hits", warm_start.is_some() as u64);
            sink.counter("solver.prior_floor_prunes", floor.is_some() as u64);
            sink.counter("solver.prior_floor_dropped", floor_dropped as u64);
        });
        let mip = MipSolver::with_limits(limits).solve_with_hints(
            &model,
            warm_start.as_deref(),
            floor,
        )?;
        rental_obs::with_sink(|sink| {
            sink.counter("solver.nodes", mip.nodes as u64);
            sink.counter("solver.lp_iterations", mip.lp_iterations as u64);
            sink.counter(
                "solver.budget_exhausted",
                (mip.status == MipStatus::LimitReached || mip.status == MipStatus::Feasible) as u64,
            );
        });
        if !mip.has_incumbent() {
            // LimitReached is inconclusive (the budget struck before any
            // incumbent); everything else reaching this point proved the
            // capped target infeasible.
            return Err(if mip.status == MipStatus::LimitReached {
                SolveError::BudgetExhausted {
                    solver: self.name().to_string(),
                }
            } else {
                SolveError::NoSolutionFound {
                    solver: self.name().to_string(),
                }
            });
        }
        // Recover the split from the first `J` variables; machine counts are
        // re-derived exactly from the split so that rounding noise in the MILP
        // cannot corrupt the reported cost.
        let num_recipes = instance.num_recipes();
        let rounded = mip.rounded_values();
        let shares: Vec<Throughput> = rounded[..num_recipes].to_vec();
        let solution = instance.solution(target, ThroughputSplit::new(shares))?;
        let mut proven_optimal = mip.status == MipStatus::Optimal;
        let mut lower_bound = Some(mip.best_bound);
        // Prior-soundness guard, exit side: an incumbent strictly below the
        // floor is a *certificate* that the floor (and any bound folded over
        // it) was unsound. Demote the outcome to unproven and drop the
        // poisoned bound so a sweep cannot propagate it further.
        if let Some(f) = floor {
            if (solution.cost() as f64) < f - 1e-6 {
                proven_optimal = false;
                lower_bound = None;
            }
        }
        Ok(SolverOutcome {
            solution,
            proven_optimal,
            lower_bound,
            elapsed: start.elapsed(),
            nodes: Some(mip.nodes),
            lp_iterations: Some(mip.lp_iterations),
            exhausted: mip.status == MipStatus::Feasible,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;

    #[test]
    fn model_dimensions_match_instance() {
        let instance = illustrating_example();
        let model = IlpSolver::build_model(&instance, 70);
        // 3 rho vars + 4 x vars; 1 coverage + 4 capacity constraints.
        assert_eq!(model.num_vars(), 7);
        assert_eq!(model.num_constraints(), 5);
        assert!(model.has_integer_vars());
    }

    #[test]
    fn matches_selected_optimal_rows_of_table3() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        // (rho, optimal cost) pairs from the ILP column of Table III.
        for &(rho, expected) in &[
            (10u64, 28u64),
            (40, 69),
            (50, 86),
            (70, 124),
            (100, 172),
            (160, 268),
            (200, 333),
        ] {
            let outcome = solver.solve(&instance, rho).unwrap();
            assert_eq!(outcome.cost(), expected, "rho = {rho}");
            assert!(outcome.proven_optimal, "rho = {rho}");
            assert!(outcome.solution.split.covers(rho));
        }
    }

    #[test]
    fn zero_target_costs_nothing() {
        let instance = illustrating_example();
        let outcome = IlpSolver::new().solve(&instance, 0).unwrap();
        assert_eq!(outcome.cost(), 0);
    }

    #[test]
    fn lower_bound_is_consistent() {
        let instance = illustrating_example();
        let outcome = IlpSolver::new().solve(&instance, 130).unwrap();
        assert_eq!(outcome.cost(), 220); // Table III, rho = 130.
        let bound = outcome.lower_bound.unwrap();
        assert!(bound <= outcome.cost() as f64 + 1e-6);
    }

    #[test]
    fn unlimited_caps_match_the_uncapped_solve() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let caps = vec![UNLIMITED_CAP; instance.num_types()];
        for &rho in &[10u64, 70, 130] {
            let capped = solver.solve_with_caps(&instance, rho, &caps, None).unwrap();
            let plain = solver.solve(&instance, rho).unwrap();
            assert_eq!(capped.cost(), plain.cost(), "rho = {rho}");
            assert_eq!(capped.solution, plain.solution, "rho = {rho}");
        }
    }

    #[test]
    fn caps_are_respected_and_spill_to_costlier_types() {
        // At rho = 70 the optimum rents 3 machines of type 0 (Table III). A
        // quota of 1 on type 0 forces the demand onto other, costlier types:
        // the capped solve stays feasible, respects the quota and costs more.
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let mut caps = vec![UNLIMITED_CAP; instance.num_types()];
        caps[0] = 1;
        let capped = solver.solve_with_caps(&instance, 70, &caps, None).unwrap();
        assert!(capped.solution.split.covers(70));
        let counts = capped.solution.allocation.machine_counts();
        assert!(counts[0] <= 1, "quota violated: {counts:?}");
        assert!(capped.cost() >= 124, "capping cannot beat the optimum");
        assert!(capped.proven_optimal);
    }

    #[test]
    fn exhausted_quota_is_reported_as_infeasible() {
        // All-zero caps cannot carry any positive demand.
        let instance = illustrating_example();
        let caps = vec![0u64; instance.num_types()];
        let result = IlpSolver::new().solve_with_caps(&instance, 10, &caps, None);
        assert!(matches!(
            result.unwrap_err(),
            SolveError::NoSolutionFound { .. }
        ));
    }

    #[test]
    fn capped_solves_accept_uncapped_priors() {
        // A prior from an *uncapped* smaller-target solve is sound under any
        // caps: its bound can only under-estimate the capped optimum.
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let prior_outcome = solver.solve(&instance, 50).unwrap();
        let prior = SweepPrior::from_outcome(50, &prior_outcome);
        let mut caps = vec![UNLIMITED_CAP; instance.num_types()];
        caps[0] = 2;
        let warm = solver
            .solve_with_caps(&instance, 70, &caps, Some(&prior))
            .unwrap();
        let cold = solver.solve_with_caps(&instance, 70, &caps, None).unwrap();
        assert_eq!(warm.cost(), cold.cost());
        assert!(warm.solution.allocation.machine_counts()[0] <= 2);
        assert!(warm.proven_optimal);
    }

    #[test]
    fn capped_model_threads_caps_as_bounds() {
        let instance = illustrating_example();
        let caps = vec![3, UNLIMITED_CAP, 0, 7];
        let model = IlpSolver::build_model_with_caps(&instance, 70, &caps);
        // Same shape as the uncapped model: caps are bounds, not rows.
        assert_eq!(model.num_vars(), 7);
        assert_eq!(model.num_constraints(), 5);
        let uppers: Vec<f64> = model.variables()[3..].iter().map(|v| v.upper).collect();
        assert_eq!(uppers, vec![3.0, f64::INFINITY, 0.0, 7.0]);
    }

    #[test]
    fn budget_limited_solver_still_returns_a_feasible_solution() {
        // A one-node budget (deterministic, unlike a wall-clock limit, so
        // this cannot flake under load): the root's rounding heuristic
        // produces an incumbent, so the anytime contract applies — a feasible
        // solution flagged `exhausted`, never a failure.
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let outcome = solver
            .solve_with_prior_budgeted(&instance, 150, None, &SolveBudget::with_node_cap(1))
            .unwrap();
        assert!(outcome.solution.split.covers(150));
        assert!(outcome.cost() >= 257); // can't beat the optimum
        assert!(!outcome.proven_optimal);
        assert!(outcome.exhausted);
        // The same budget gives the same answer on every run.
        let again = solver
            .solve_with_prior_budgeted(&instance, 150, None, &SolveBudget::with_node_cap(1))
            .unwrap();
        assert_eq!(outcome.cost(), again.cost());
    }

    #[test]
    fn unlimited_budget_matches_the_plain_solve() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let plain = solver.solve(&instance, 70).unwrap();
        let budgeted = solver
            .solve_with_prior_budgeted(&instance, 70, None, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(plain.cost(), budgeted.cost());
        assert!(budgeted.proven_optimal);
        assert!(!budgeted.exhausted);
    }

    #[test]
    fn budget_exhaustion_without_an_incumbent_is_inconclusive() {
        // Tight caps leave no cap-respecting warm candidate, and a zero
        // iteration budget stops before branch & bound can find one: the
        // solve must report BudgetExhausted (retryable), not NoSolutionFound
        // (which would claim the caps are infeasible — they are not).
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let mut caps = vec![UNLIMITED_CAP; instance.num_types()];
        caps[0] = 1;
        caps[1] = 1;
        let result = solver.solve_with_caps_budgeted(
            &instance,
            150,
            &caps,
            None,
            &SolveBudget::with_iteration_cap(1),
        );
        match result {
            Ok(outcome) => {
                // If a cap-respecting warm candidate existed after all, the
                // anytime contract still holds.
                assert!(outcome.solution.split.covers(150));
            }
            Err(SolveError::BudgetExhausted { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn poisoned_prior_floor_is_dropped_not_trusted() {
        // A floor far above the true optimum (257 at rho = 150) would prune
        // the whole tree and "prove" the warm incumbent optimal. The entry
        // guard must discard it because the warm candidate's cost already
        // refutes it.
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let honest = solver.solve(&instance, 150).unwrap();
        let poisoned = SweepPrior {
            target: 150,
            split: honest.solution.split.clone(),
            lower_bound: Some(honest.cost() as f64 * 10.0),
        };
        let outcome = solver
            .solve_with_prior(&instance, 150, Some(&poisoned))
            .unwrap();
        assert_eq!(outcome.cost(), honest.cost());
        if let Some(bound) = outcome.lower_bound {
            assert!(bound <= outcome.cost() as f64 + 1e-6);
        }
    }
}
