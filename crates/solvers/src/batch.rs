//! Parallel batch solving: a solver portfolio applied to many `(instance,
//! target)` pairs at once.
//!
//! The paper's evaluation — and the multi-tenant serving scenario the
//! ROADMAP targets — repeatedly solves *batches*: one hundred generated
//! configurations × nineteen targets × the full solver suite. Every such
//! `(instance, target, solver)` triple is independent, so the batch engine
//! flattens them into one work list and fans it out with rayon, pulling units
//! off a shared queue so an expensive ILP solve does not serialise a lane of
//! cheap heuristic solves behind it.
//!
//! Results are returned **in input order** (`results[item][solver]`), and
//! every individual solve is deterministic for a fixed solver seed, so a
//! batch solve is observationally identical to the sequential double loop —
//! a property covered by the `batch_matches_sequential` tests.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rental_core::{Instance, Throughput, ThroughputSplit};

use crate::solver::{
    CapacitySolver, MinCostSolver, SolveBudget, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver,
};

/// One unit of batch work: an instance and the target throughput to solve
/// it for.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The MinCost instance to solve.
    pub instance: &'a Instance,
    /// The target throughput ρ.
    pub target: Throughput,
}

impl<'a> BatchItem<'a> {
    /// Creates a batch item.
    pub fn new(instance: &'a Instance, target: Throughput) -> Self {
        BatchItem { instance, target }
    }
}

/// Solves every item with every solver of the portfolio in parallel, with
/// an optional cap on the number of worker threads (`None`: one per
/// available CPU).
///
/// Returns `results[item][solver]`, aligned with the input orders, each
/// with the wall-clock time of its unit — including *failed* solves (an ILP
/// hitting its time limit without an incumbent spends its whole budget;
/// timing-oriented experiments must not count that as zero).
pub fn solve_batch_timed<S: MinCostSolver + Sync>(
    portfolio: &[S],
    items: &[BatchItem<'_>],
    max_threads: Option<usize>,
) -> Vec<Vec<(SolveResult<SolverOutcome>, Duration)>> {
    if portfolio.is_empty() || items.is_empty() {
        return items.iter().map(|_| Vec::new()).collect();
    }
    let units = items.len() * portfolio.len();
    let flat = rayon::parallel_map_indexed(units, max_threads, |unit| {
        let item = &items[unit / portfolio.len()];
        let solver = &portfolio[unit % portfolio.len()];
        let start = Instant::now();
        let result = solver.solve(item.instance, item.target);
        (result, start.elapsed())
    });
    let mut flat = flat.into_iter();
    items
        .iter()
        .map(|_| flat.by_ref().take(portfolio.len()).collect())
        .collect()
}

/// Solves a **target sweep** on one instance with a warm-startable solver,
/// threading the incumbent split of each target into the next solve.
///
/// This is the batch-aware path for the exact ILP: a Table III sweep walks
/// ρ = 10, 20, …, 200 over the *same* instance, and the optimal split of one
/// target — lifted to cover the next — primes branch & bound with a strong
/// incumbent, so the tree is pruned from node one. Results are returned in
/// target order and carry the same costs as independent cold solves (the
/// warm start is an incumbent, never a constraint).
pub fn solve_sweep<S: WarmStartSolver>(
    solver: &S,
    instance: &Instance,
    targets: &[Throughput],
) -> Vec<SolveResult<SolverOutcome>> {
    solve_sweep_timed(solver, instance, targets)
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

/// [`solve_sweep`], additionally reporting the wall-clock time of every unit
/// (including failed solves, mirroring [`solve_batch_timed`]).
fn solve_sweep_timed<S: WarmStartSolver>(
    solver: &S,
    instance: &Instance,
    targets: &[Throughput],
) -> Vec<(SolveResult<SolverOutcome>, Duration)> {
    let mut prior: Option<SweepPrior> = None;
    targets
        .iter()
        .map(|&target| {
            let start = Instant::now();
            let result = solver.solve_with_prior(instance, target, prior.as_ref());
            let elapsed = start.elapsed();
            if let Ok(outcome) = &result {
                prior = Some(SweepPrior::from_outcome(target, outcome));
            }
            (result, elapsed)
        })
        .collect()
}

/// One unit of **heterogeneous** warm-started batch work: its own instance,
/// its own target, optionally per-type machine caps, and optionally the prior
/// of a related earlier solve.
///
/// Where [`solve_sweep_batch_timed`] sweeps the *same* target grid over every
/// instance, this is the shape of a multi-tenant serving epoch: every due
/// tenant brings its own `(instance, new target)` pair plus the incumbent of
/// its *previous* solve and — in a capacity-coupled fleet — the caps its
/// share of the pool allows, and all due tenants are solved as one flat
/// fan-out on the shared pool.
#[derive(Debug, Clone, Copy)]
pub struct WarmBatchItem<'a> {
    /// The MinCost instance to solve.
    pub instance: &'a Instance,
    /// The target throughput ρ.
    pub target: Throughput,
    /// Per-type machine caps (`crate::solver::UNLIMITED_CAP` disables one);
    /// `None` solves uncapped.
    pub caps: Option<&'a [u64]>,
    /// Prior of a related solve (typically the tenant's previous target; see
    /// [`CapacitySolver::solve_with_caps`] for the soundness contract on its
    /// lower bound under caps).
    pub prior: Option<&'a SweepPrior>,
}

impl<'a> WarmBatchItem<'a> {
    /// Creates an uncapped warm batch item.
    pub fn new(instance: &'a Instance, target: Throughput, prior: Option<&'a SweepPrior>) -> Self {
        WarmBatchItem {
            instance,
            target,
            caps: None,
            prior,
        }
    }
}

/// A [`WarmBatchItem`] by value — the request [`solve_warm_batch`] solves
/// once however often it repeats. Instances compare by value (every fleet
/// tenant owns its own clone) and the prior's lower bound bit for bit.
#[derive(PartialEq, Eq, Hash)]
struct RequestKey<'a> {
    instance: &'a Instance,
    target: Throughput,
    caps: Option<&'a [u64]>,
    prior: Option<(Throughput, &'a ThroughputSplit, Option<u64>)>,
}

impl<'a> RequestKey<'a> {
    fn of(item: &WarmBatchItem<'a>) -> Self {
        RequestKey {
            instance: item.instance,
            target: item.target,
            caps: item.caps,
            prior: item
                .prior
                .map(|p| (p.target, &p.split, p.lower_bound.map(f64::to_bits))),
        }
    }
}

/// Solves heterogeneous warm-started units in parallel on the shared pool,
/// reporting per-unit wall time (including failed solves, mirroring
/// [`solve_batch_timed`]). Capped items go through
/// [`CapacitySolver::solve_with_caps`], the rest through
/// [`WarmStartSolver::solve_with_prior`] — or their `_budgeted` forms when a
/// `budget` is given. Results are returned in input order and match the
/// sequential calls exactly: each unit's prior and caps come with the item,
/// so no cross-unit state is threaded.
///
/// **Repeated requests are solved once.** Items equal in instance (by
/// value), target, caps and prior are one request: only its first
/// occurrence goes to the pool and keeps its measured time; every later
/// occurrence receives a clone of the same result with [`Duration::ZERO`]
/// elapsed, so summing the durations counts only the solver work done. A
/// batch without repeats returns its fan-out as is.
///
/// The budget applies **per unit**. Callers sharing one epoch budget across
/// the batch split it *before* the fan-out ([`SolveBudget::split`]) —
/// per-unit budgets keep the batch deterministic and observationally
/// identical to the sequential loop, which a dynamically rebalanced budget
/// would not be.
pub fn solve_warm_batch<S: CapacitySolver + Sync>(
    solver: &S,
    items: &[WarmBatchItem<'_>],
    budget: Option<&SolveBudget>,
    max_threads: Option<usize>,
) -> Vec<(SolveResult<SolverOutcome>, Duration)> {
    // `firsts[r]`: the item index of request `r`'s first occurrence;
    // `request[i]`: the request item `i` asks for. The instance's one
    // interior-mutable part, its lazy pair-diff cache, takes no part in
    // `Eq`/`Hash`, so keys cannot change while hashed.
    #[allow(clippy::mutable_key_type)]
    let mut seen: HashMap<RequestKey<'_>, usize> = HashMap::with_capacity(items.len());
    let mut firsts = Vec::new();
    let request: Vec<usize> = (items.iter().enumerate())
        .map(|(i, item)| {
            *seen.entry(RequestKey::of(item)).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    let solved = rayon::parallel_map_indexed(firsts.len(), max_threads, |r| {
        let WarmBatchItem {
            instance,
            target,
            caps,
            prior,
        } = items[firsts[r]];
        let start = Instant::now();
        let result = match (caps, budget) {
            (None, None) => solver.solve_with_prior(instance, target, prior),
            (None, Some(budget)) => {
                solver.solve_with_prior_budgeted(instance, target, prior, budget)
            }
            (Some(caps), None) => solver.solve_with_caps(instance, target, caps, prior),
            (Some(caps), Some(budget)) => {
                solver.solve_with_caps_budgeted(instance, target, caps, prior, budget)
            }
        };
        (result, start.elapsed())
    });
    if firsts.len() == items.len() {
        return solved;
    }
    (request.iter().enumerate())
        .map(|(i, &r)| {
            let (result, elapsed) = &solved[r];
            let elapsed = if firsts[r] == i {
                *elapsed
            } else {
                Duration::ZERO
            };
            (result.clone(), elapsed)
        })
        .collect()
}

/// Sweeps every instance over the same targets, in parallel across instances
/// (the shared thread pool) and sequentially within each instance so the
/// incumbent chain is preserved. Returns `results[instance][target]`.
pub fn solve_sweep_batch_timed<S: WarmStartSolver + Sync>(
    solver: &S,
    instances: &[&Instance],
    targets: &[Throughput],
    max_threads: Option<usize>,
) -> Vec<Vec<(SolveResult<SolverOutcome>, Duration)>> {
    rayon::parallel_map_indexed(instances.len(), max_threads, |i| {
        solve_sweep_timed(solver, instances[i], targets)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::IlpSolver;
    use crate::registry::{standard_suite, SuiteConfig};
    use rental_core::examples::illustrating_example;

    #[test]
    fn batch_matches_sequential_solves() {
        let instance = illustrating_example();
        let suite = standard_suite(&SuiteConfig::with_seed(9));
        let items: Vec<BatchItem<'_>> = (10u64..=100)
            .step_by(10)
            .map(|rho| BatchItem::new(&instance, rho))
            .collect();
        let batch = solve_batch_timed(&suite, &items, None);
        assert_eq!(batch.len(), items.len());
        for (item, row) in items.iter().zip(&batch) {
            assert_eq!(row.len(), suite.len());
            for (solver, (outcome, _)) in suite.iter().zip(row) {
                let sequential = solver.solve(item.instance, item.target).unwrap();
                assert_eq!(outcome.as_ref().unwrap().solution, sequential.solution);
            }
        }
    }

    #[test]
    fn thread_cap_does_not_change_results() {
        let instance = illustrating_example();
        let suite = standard_suite(&SuiteConfig::with_seed(4));
        let items: Vec<BatchItem<'_>> = (20u64..=80)
            .step_by(20)
            .map(|rho| BatchItem::new(&instance, rho))
            .collect();
        let wide = solve_batch_timed(&suite, &items, None);
        let narrow = solve_batch_timed(&suite, &items, Some(1));
        for ((a, _), (b, _)) in wide.iter().flatten().zip(narrow.iter().flatten()) {
            assert_eq!(a.as_ref().unwrap().solution, b.as_ref().unwrap().solution);
        }
    }

    #[test]
    fn timed_batches_report_wall_time_for_failed_solves() {
        struct SlowFailure;
        impl MinCostSolver for SlowFailure {
            fn name(&self) -> &str {
                "slow-failure"
            }
            fn solve(
                &self,
                _instance: &rental_core::Instance,
                _target: u64,
            ) -> SolveResult<SolverOutcome> {
                std::thread::sleep(Duration::from_millis(20));
                Err(crate::solver::SolveError::NoSolutionFound {
                    solver: "slow-failure".to_string(),
                })
            }
        }
        let instance = illustrating_example();
        let portfolio = [SlowFailure];
        let timed = solve_batch_timed(&portfolio, &[BatchItem::new(&instance, 70)], None);
        let (result, elapsed) = &timed[0][0];
        assert!(result.is_err());
        // The failure's wall time is observable, not reported as zero.
        assert!(*elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn swept_ilp_costs_match_cold_solves_on_table3() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        let targets: Vec<u64> = (1..=10).map(|k| k * 20).collect();
        let swept = solve_sweep(&solver, &instance, &targets);
        let mut swept_nodes = 0usize;
        let mut cold_nodes = 0usize;
        for (&target, result) in targets.iter().zip(&swept) {
            let warm = result.as_ref().unwrap();
            let cold = solver.solve(&instance, target).unwrap();
            assert_eq!(warm.cost(), cold.cost(), "rho = {target}");
            assert!(warm.proven_optimal);
            swept_nodes += warm.nodes.unwrap();
            cold_nodes += cold.nodes.unwrap();
        }
        // The threaded incumbents can only prune; never inflate the tree.
        assert!(swept_nodes <= cold_nodes);
    }

    #[test]
    fn warm_batches_match_sequential_prior_solves() {
        let instance = illustrating_example();
        let solver = IlpSolver::new();
        // Build per-tenant priors from a first round of solves.
        let first_targets = [40u64, 90, 150];
        let priors: Vec<SweepPrior> = first_targets
            .iter()
            .map(|&t| SweepPrior::from_outcome(t, &solver.solve(&instance, t).unwrap()))
            .collect();
        // Second round: each "tenant" shifts to its own new target, warm
        // started from its own prior (both directions: up and down).
        let second_targets = [70u64, 60, 180];
        let items: Vec<WarmBatchItem<'_>> = second_targets
            .iter()
            .zip(&priors)
            .map(|(&t, prior)| WarmBatchItem::new(&instance, t, Some(prior)))
            .collect();
        let batch = solve_warm_batch(&solver, &items, None, Some(3));
        assert_eq!(batch.len(), items.len());
        for (item, (result, elapsed)) in items.iter().zip(&batch) {
            let outcome = result.as_ref().unwrap();
            let sequential = solver
                .solve_with_prior(item.instance, item.target, item.prior)
                .unwrap();
            assert_eq!(outcome.cost(), sequential.cost(), "rho = {}", item.target);
            assert!(outcome.proven_optimal);
            assert!(outcome.solution.split.covers(item.target));
            assert!(*elapsed > Duration::ZERO);
        }
        // Warm costs equal cold optima (the prior is never a constraint).
        for (&t, (result, _)) in second_targets.iter().zip(&batch) {
            let cold = solver.solve(&instance, t).unwrap();
            assert_eq!(result.as_ref().unwrap().cost(), cold.cost());
        }
    }

    #[test]
    fn empty_warm_batches_are_harmless() {
        let solver = IlpSolver::new();
        assert!(solve_warm_batch(&solver, &[], None, None).is_empty());
    }

    #[test]
    fn sweep_batches_parallelise_per_instance() {
        let instance_a = illustrating_example();
        let instance_b = illustrating_example();
        let solver = IlpSolver::new();
        let targets = [30u64, 60, 90];
        let rows = solve_sweep_batch_timed(&solver, &[&instance_a, &instance_b], &targets, Some(2));
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.len(), targets.len());
            for ((result, elapsed), &target) in row.iter().zip(&targets) {
                let outcome = result.as_ref().unwrap();
                assert!(outcome.solution.split.covers(target));
                assert!(*elapsed >= outcome.elapsed || *elapsed > Duration::ZERO);
            }
        }
    }

    #[test]
    fn empty_batches_are_harmless() {
        let suite = standard_suite(&SuiteConfig::default());
        assert!(solve_batch_timed(&suite, &[], None).is_empty());
        let instance = illustrating_example();
        let no_solvers: Vec<Box<dyn MinCostSolver + Send + Sync>> = Vec::new();
        let rows = solve_batch_timed(&no_solvers, &[BatchItem::new(&instance, 10)], None);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
    }
}
