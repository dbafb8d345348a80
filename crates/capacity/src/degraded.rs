//! Capacity-constrained solving with a degraded-mode fallback.
//!
//! A capped re-solve ([`rental_solvers::CapacitySolver::solve_with_caps`])
//! spills demand onto costlier types when the preferred type's quota is
//! exhausted — but when the caps are simply too small for the target, the
//! MILP is infeasible. The fallback implemented here serves the **largest
//! feasible target** instead: a max-coverage MILP finds how much throughput
//! the caps can carry at all, and the cheapest plan at that degraded target
//! keeps the tenant running (under SLO violation) until quota frees up.

use rental_core::{Instance, RecipeId, Throughput, TypeId};
use rental_lp::model::{Model, Relation};
use rental_lp::{MipSolver, MipStatus};
use rental_solvers::{CapacitySolver, SolveError, SolveResult, SolverOutcome, SweepPrior};

use crate::UNLIMITED_CAP;

/// Upper bound on recipe `j`'s standalone throughput under the caps, or
/// `None` when nothing bounds it (every type it demands is quota-free — or it
/// demands nothing at all).
fn recipe_bound(instance: &Instance, caps: &[u64], j: usize) -> Option<f64> {
    let demand = instance.application().demand();
    let platform = instance.platform();
    let mut bound: Option<f64> = None;
    for (q, &cap) in caps.iter().enumerate() {
        let n_jq = demand.count(RecipeId(j), TypeId(q));
        if n_jq == 0 || cap == UNLIMITED_CAP {
            continue;
        }
        let limit = cap as f64 * platform.throughput(TypeId(q)) as f64 / n_jq as f64;
        bound = Some(bound.map_or(limit, |b: f64| b.min(limit)));
    }
    bound
}

/// Builds the max-coverage model: maximize `Σ_j ρ_j` subject to the usual
/// per-type capacity rows and the caps as `x_q` bounds. Returns `None` when
/// the coverage is unbounded (some recipe is not capped by any quota).
fn build_coverage_model(instance: &Instance, caps: &[u64], integer: bool) -> Option<Model> {
    let platform = instance.platform();
    let demand = instance.application().demand();
    let num_recipes = instance.num_recipes();
    let num_types = instance.num_types();

    let mut bounds = Vec::with_capacity(num_recipes);
    for j in 0..num_recipes {
        bounds.push(recipe_bound(instance, caps, j)?);
    }

    let mut model = Model::maximize();
    let rho_vars: Vec<_> = (0..num_recipes)
        .map(|j| {
            if integer {
                model.add_int_var(String::new(), 1.0, 0.0, bounds[j].floor())
            } else {
                model.add_var(String::new(), 1.0, 0.0, bounds[j])
            }
        })
        .collect();
    let x_vars: Vec<_> = (0..num_types)
        .map(|q| {
            let upper = if caps[q] == UNLIMITED_CAP {
                f64::INFINITY
            } else {
                caps[q] as f64
            };
            if integer {
                model.add_int_var(String::new(), 0.0, 0.0, upper)
            } else {
                model.add_var(String::new(), 0.0, 0.0, upper)
            }
        })
        .collect();
    for (q, &x_var) in x_vars.iter().enumerate() {
        let mut terms = vec![(x_var, platform.throughput(TypeId(q)) as f64)];
        for (j, &rho_var) in rho_vars.iter().enumerate() {
            let n_jq = demand.count(RecipeId(j), TypeId(q));
            if n_jq > 0 {
                terms.push((rho_var, -(n_jq as f64)));
            }
        }
        model.add_constraint(terms, Relation::GreaterEq, 0.0);
    }
    Some(model)
}

/// Fractional upper bound on the throughput the caps can carry: the LP
/// relaxation of the max-coverage problem (`f64::INFINITY` when some recipe
/// is not capped by any quota). A cheap probe run **before** an expensive
/// capped MILP: a bound below the target proves the target infeasible
/// without touching branch & bound.
///
/// # Errors
///
/// Propagates LP failures ([`SolveError::Lp`]); a structurally valid
/// instance cannot fail.
///
/// # Panics
///
/// Panics when `caps` does not have one entry per machine type.
pub fn coverage_bound(instance: &Instance, caps: &[u64]) -> SolveResult<f64> {
    assert_eq!(
        caps.len(),
        instance.num_types(),
        "one cap per machine type is required"
    );
    let Some(model) = build_coverage_model(instance, caps, false) else {
        return Ok(f64::INFINITY);
    };
    let solution = MipSolver::new().solve(&model)?;
    match solution.status {
        MipStatus::Optimal | MipStatus::Feasible => Ok(solution.objective),
        MipStatus::Unbounded => Ok(f64::INFINITY),
        // An all-zero fleet is always feasible, so this cannot happen on a
        // valid model; report zero coverage defensively.
        _ => Ok(0.0),
    }
}

/// The largest integer target the caps can carry: the max-coverage MILP
/// (`UNLIMITED_CAP` when some recipe is not capped by any quota). This is
/// the degraded-mode target — serving it is the best the quota allows.
///
/// # Errors
///
/// Propagates MILP failures ([`SolveError::Lp`]).
///
/// # Panics
///
/// Panics when `caps` does not have one entry per machine type.
pub fn max_feasible_target(instance: &Instance, caps: &[u64]) -> SolveResult<Throughput> {
    assert_eq!(
        caps.len(),
        instance.num_types(),
        "one cap per machine type is required"
    );
    let Some(model) = build_coverage_model(instance, caps, true) else {
        return Ok(UNLIMITED_CAP);
    };
    let solution = MipSolver::new().solve(&model)?;
    match solution.status {
        MipStatus::Optimal | MipStatus::Feasible => Ok(solution.objective.round().max(0.0) as u64),
        MipStatus::Unbounded => Ok(UNLIMITED_CAP),
        _ => Ok(0),
    }
}

/// The outcome of a capacity-constrained solve with degraded fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum CappedOutcome {
    /// The full target fits under the caps; this is its cheapest plan.
    Full(SolverOutcome),
    /// The caps cannot carry the full target; the plan serves the largest
    /// feasible `target` instead (degraded mode).
    Degraded {
        /// The degraded target the plan serves.
        target: Throughput,
        /// The cheapest plan at the degraded target.
        outcome: SolverOutcome,
    },
    /// The caps cannot carry any throughput at all.
    Unserved,
}

impl CappedOutcome {
    /// The plan to run, if any throughput could be served.
    pub fn outcome(&self) -> Option<&SolverOutcome> {
        match self {
            CappedOutcome::Full(outcome) => Some(outcome),
            CappedOutcome::Degraded { outcome, .. } => Some(outcome),
            CappedOutcome::Unserved => None,
        }
    }

    /// True when the full target could not be served.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, CappedOutcome::Full(_))
    }
}

/// The degraded half of [`solve_or_degrade`]: serve the largest
/// quota-feasible target without first attempting the full one. Callers use
/// this directly when they **already know** the full target failed (e.g. a
/// batched capped solve just returned infeasible) — re-running the identical
/// MILP would be pure waste.
///
/// Infeasibility — including a limit-bound solver finding no incumbent — is
/// never an error here: it degrades to [`CappedOutcome::Unserved`].
///
/// # Errors
///
/// Propagates solver errors other than infeasibility.
pub fn degrade_to_feasible<S: CapacitySolver>(
    solver: &S,
    instance: &Instance,
    target: Throughput,
    caps: &[u64],
    prior: Option<&SweepPrior>,
) -> SolveResult<CappedOutcome> {
    degrade_with(instance, target, caps, |degraded| {
        solver.solve_with_caps(instance, degraded, caps, prior)
    })
}

/// [`degrade_to_feasible`] with its one capped solve handed to `solve`,
/// which receives the degraded target — for callers that record or replay
/// their solver calls.
///
/// # Errors
///
/// Propagates solver errors other than infeasibility.
pub fn degrade_with(
    instance: &Instance,
    target: Throughput,
    caps: &[u64],
    solve: impl FnOnce(Throughput) -> SolveResult<SolverOutcome>,
) -> SolveResult<CappedOutcome> {
    // The max-coverage MILP can exceed `target` when the caller fell through
    // a fractional-vs-integer gap; never serve more than was asked for.
    let degraded_target = max_feasible_target(instance, caps)?.min(target);
    if degraded_target == 0 {
        return Ok(CappedOutcome::Unserved);
    }
    match solve(degraded_target) {
        Ok(outcome) if degraded_target == target => Ok(CappedOutcome::Full(outcome)),
        Ok(outcome) => Ok(CappedOutcome::Degraded {
            target: degraded_target,
            outcome,
        }),
        // A node/time-limited solver may exhaust its budget with no
        // incumbent even on a provably feasible target; shedding the load
        // (and letting the caller keep its current fleet) beats crashing.
        Err(SolveError::NoSolutionFound { .. }) => Ok(CappedOutcome::Unserved),
        Err(err) => Err(err),
    }
}

/// Solves `target` under the caps, degrading to the largest feasible target
/// when the quota cannot carry it: the **cheapest feasible spill** — demand
/// moves to costlier types while quota lasts, and throughput is shed only
/// when no type has quota left.
///
/// The `prior` follows the [`CapacitySolver::solve_with_caps`] contract (its
/// lower bound must have been proven under caps no tighter than `caps`); it
/// is forwarded to the degraded solve too, where the solver's own
/// `prior.target ≤ target` guard keeps the floor sound.
///
/// # Errors
///
/// Propagates solver errors other than infeasibility (which is what the
/// fallback exists to absorb).
pub fn solve_or_degrade<S: CapacitySolver>(
    solver: &S,
    instance: &Instance,
    target: Throughput,
    caps: &[u64],
    prior: Option<&SweepPrior>,
) -> SolveResult<CappedOutcome> {
    let feasible = coverage_bound(instance, caps)? >= target as f64 - 1e-9;
    if feasible {
        match solver.solve_with_caps(instance, target, caps, prior) {
            Ok(outcome) => return Ok(CappedOutcome::Full(outcome)),
            // The fractional bound over-estimates what integer machine
            // counts can carry (or a limit-bound solver ran out of budget);
            // fall through to the degraded target.
            Err(SolveError::NoSolutionFound { .. }) => {}
            Err(err) => return Err(err),
        }
    }
    degrade_to_feasible(solver, instance, target, caps, prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_solvers::exact::IlpSolver;

    #[test]
    fn unlimited_caps_have_unbounded_coverage() {
        let instance = illustrating_example();
        let caps = vec![UNLIMITED_CAP; instance.num_types()];
        assert_eq!(coverage_bound(&instance, &caps).unwrap(), f64::INFINITY);
        assert_eq!(
            max_feasible_target(&instance, &caps).unwrap(),
            UNLIMITED_CAP
        );
    }

    #[test]
    fn zero_caps_carry_nothing() {
        let instance = illustrating_example();
        let caps = vec![0; instance.num_types()];
        assert_eq!(coverage_bound(&instance, &caps).unwrap(), 0.0);
        assert_eq!(max_feasible_target(&instance, &caps).unwrap(), 0);
        let outcome = solve_or_degrade(&IlpSolver::new(), &instance, 50, &caps, None).unwrap();
        assert_eq!(outcome, CappedOutcome::Unserved);
    }

    #[test]
    fn coverage_bound_dominates_the_integer_maximum() {
        let instance = illustrating_example();
        let caps = vec![2, 1, 1, 1];
        let fractional = coverage_bound(&instance, &caps).unwrap();
        let integral = max_feasible_target(&instance, &caps).unwrap();
        assert!(fractional >= integral as f64 - 1e-9);
        assert!(integral > 0);
        // The degraded target really is feasible and one more unit is not.
        let solver = IlpSolver::new();
        assert!(solver
            .solve_with_caps(&instance, integral, &caps, None)
            .is_ok());
        assert!(solver
            .solve_with_caps(&instance, integral + 1, &caps, None)
            .is_err());
    }

    #[test]
    fn slack_caps_serve_the_full_target() {
        let instance = illustrating_example();
        let caps = vec![100; instance.num_types()];
        let outcome = solve_or_degrade(&IlpSolver::new(), &instance, 70, &caps, None).unwrap();
        match outcome {
            CappedOutcome::Full(full) => assert_eq!(full.cost(), 124),
            other => panic!("expected a full solve, got {other:?}"),
        }
    }

    #[test]
    fn degrade_to_feasible_skips_the_full_target_attempt() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        // Tight caps: straight to the degraded target.
        let caps = vec![1, 1, 1, 1];
        let expected = max_feasible_target(&instance, &caps).unwrap();
        match degrade_to_feasible(&solver, &instance, 200, &caps, None).unwrap() {
            CappedOutcome::Degraded { target, .. } => assert_eq!(target, expected),
            other => panic!("expected a degraded solve, got {other:?}"),
        }
        // Slack caps: the degraded target clamps to the requested one, so
        // the outcome reports Full.
        let slack = vec![100; instance.num_types()];
        match degrade_to_feasible(&solver, &instance, 70, &slack, None).unwrap() {
            CappedOutcome::Full(outcome) => assert_eq!(outcome.cost(), 124),
            other => panic!("expected a full solve, got {other:?}"),
        }
        // Zero caps: unserved, never an error.
        let zero = vec![0; instance.num_types()];
        assert_eq!(
            degrade_to_feasible(&solver, &instance, 50, &zero, None).unwrap(),
            CappedOutcome::Unserved
        );
    }

    #[test]
    fn tight_caps_degrade_to_the_largest_feasible_target() {
        let instance = illustrating_example();
        let caps = vec![1, 1, 1, 1];
        let expected = max_feasible_target(&instance, &caps).unwrap();
        assert!(expected < 200);
        let outcome = solve_or_degrade(&IlpSolver::new(), &instance, 200, &caps, None).unwrap();
        match &outcome {
            CappedOutcome::Degraded { target, outcome } => {
                assert_eq!(*target, expected);
                assert!(outcome.solution.split.covers(*target));
                for (q, &count) in outcome
                    .solution
                    .allocation
                    .machine_counts()
                    .iter()
                    .enumerate()
                {
                    assert!(count <= caps[q], "type {q} over quota");
                }
            }
            other => panic!("expected a degraded solve, got {other:?}"),
        }
        assert!(outcome.is_degraded());
        assert!(outcome.outcome().is_some());
    }
}
