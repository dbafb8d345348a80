//! The batch-solve engine must be observationally identical to the
//! sequential double loop: same solutions, same costs — whatever the thread
//! budget. Warm batches solve each distinct request once and hand every
//! repeat the same outcome.

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use proptest::TestCaseError;

use rental_core::examples::illustrating_example;
use rental_core::{Instance, Throughput};
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::batch::{solve_batch_timed, solve_warm_batch, BatchItem, WarmBatchItem};
use rental_solvers::exact::IlpSolver;
use rental_solvers::registry::{standard_suite, SuiteConfig};
use rental_solvers::{
    CapacitySolver, MinCostSolver, SolveResult, SolverOutcome, SweepPrior, WarmStartSolver,
    UNLIMITED_CAP,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_results_are_identical_to_sequential_per_instance_solves(
        seed in 0u64..1_000,
        num_instances in 1usize..5,
        threads in 1usize..5,
    ) {
        let config = GeneratorConfig::tiny();
        let instances: Vec<_> = (0..num_instances)
            .map(|i| InstanceGenerator::new(config.clone(), seed + i as u64).generate_instance())
            .collect();
        let suite = standard_suite(&SuiteConfig::with_seed(seed));
        let items: Vec<BatchItem<'_>> = instances
            .iter()
            .flat_map(|instance| [30u64, 80].map(|target| BatchItem::new(instance, target)))
            .collect();

        let batch = solve_batch_timed(&suite, &items, Some(threads));
        prop_assert_eq!(batch.len(), items.len());
        for (item, row) in items.iter().zip(&batch) {
            prop_assert_eq!(row.len(), suite.len());
            for (solver, (outcome, _)) in suite.iter().zip(row) {
                let sequential = solver.solve(item.instance, item.target).unwrap();
                let outcome = outcome.as_ref().unwrap();
                prop_assert_eq!(&outcome.solution, &sequential.solution);
                prop_assert_eq!(outcome.proven_optimal, sequential.proven_optimal);
            }
        }
    }
}

/// A request by value, as the counting solver records it: instance index,
/// target, caps and prior (target, split shares, lower bound as bits).
type Request = (
    usize,
    Throughput,
    Option<Vec<u64>>,
    Option<(Throughput, Vec<Throughput>, Option<u64>)>,
);

/// `IlpSolver` behind the warm and capped entry points, recording every
/// call it receives.
struct CountingSolver<'a> {
    inner: IlpSolver,
    instances: &'a [Instance],
    calls: Mutex<Vec<Request>>,
}

impl<'a> CountingSolver<'a> {
    fn new(instances: &'a [Instance]) -> Self {
        CountingSolver {
            inner: IlpSolver::new(),
            instances,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn record(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: Option<&[u64]>,
        prior: Option<&SweepPrior>,
    ) {
        let request = request(self.instances, instance, target, caps, prior);
        self.calls.lock().unwrap().push(request);
    }
}

fn request(
    instances: &[Instance],
    instance: &Instance,
    target: Throughput,
    caps: Option<&[u64]>,
    prior: Option<&SweepPrior>,
) -> Request {
    let index = instances.iter().position(|i| i == instance).unwrap();
    let prior = prior.map(|p| {
        let shares = p.split.shares().to_vec();
        (p.target, shares, p.lower_bound.map(f64::to_bits))
    });
    (index, target, caps.map(<[u64]>::to_vec), prior)
}

impl MinCostSolver for CountingSolver<'_> {
    fn name(&self) -> &str {
        "counting"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.inner.solve(instance, target)
    }
}

impl WarmStartSolver for CountingSolver<'_> {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.record(instance, target, None, prior);
        self.inner.solve_with_prior(instance, target, prior)
    }
}

impl CapacitySolver for CountingSolver<'_> {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.record(instance, target, Some(caps), prior);
        self.inner.solve_with_caps(instance, target, caps, prior)
    }
}

/// A batch item that owns its instance clone, caps and prior, so equal
/// requests never share an address.
struct OwnedItem {
    instance: Instance,
    target: Throughput,
    caps: Option<Vec<u64>>,
    prior: Option<SweepPrior>,
}

impl OwnedItem {
    fn item(&self) -> WarmBatchItem<'_> {
        WarmBatchItem {
            instance: &self.instance,
            target: self.target,
            caps: self.caps.as_deref(),
            prior: self.prior.as_ref(),
        }
    }
}

/// A result with its wall-clock field zeroed, the only part two solves of
/// one request may differ in.
fn untimed(result: &SolveResult<SolverOutcome>) -> SolveResult<SolverOutcome> {
    result.clone().map(|outcome| SolverOutcome {
        elapsed: Duration::ZERO,
        ..outcome
    })
}

/// Solves `owned` as one warm batch and checks it against the sequential
/// calls: equal outcomes item by item, one solver call per distinct request
/// (and none for a repeat), zero elapsed on every repeat.
fn check_deduplicated_batch(
    instances: &[Instance],
    owned: &[OwnedItem],
    threads: usize,
) -> Result<(), TestCaseError> {
    let solver = CountingSolver::new(instances);
    let items: Vec<WarmBatchItem<'_>> = owned.iter().map(OwnedItem::item).collect();
    let batch = solve_warm_batch(&solver, &items, None, Some(threads));
    prop_assert_eq!(batch.len(), items.len());
    let mut distinct: Vec<Request> = Vec::new();
    for (item, (result, elapsed)) in items.iter().zip(&batch) {
        let ilp = &solver.inner;
        let sequential = match item.caps {
            None => ilp.solve_with_prior(item.instance, item.target, item.prior),
            Some(caps) => ilp.solve_with_caps(item.instance, item.target, caps, item.prior),
        };
        prop_assert_eq!(untimed(result), untimed(&sequential));
        let key = request(instances, item.instance, item.target, item.caps, item.prior);
        if distinct.contains(&key) {
            prop_assert_eq!(*elapsed, Duration::ZERO);
        } else {
            distinct.push(key);
        }
    }
    let mut calls = solver.calls.into_inner().unwrap();
    calls.sort();
    distinct.sort();
    prop_assert_eq!(calls, distinct);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Items drawn from a few instances, each holding its own clone of the
    /// instance, caps and prior: every outcome equals the sequential solve,
    /// and the solver sees each distinct request exactly once.
    #[test]
    fn warm_batches_solve_each_distinct_request_once(
        seed in 0u64..1_000,
        num_instances in 2usize..=3,
        picks in proptest::collection::vec((0usize..3, 0usize..2, 0usize..3, 0usize..3), 1..16),
        threads in 1usize..4,
    ) {
        let instances: Vec<Instance> = (0..num_instances)
            .map(|i| {
                InstanceGenerator::new(GeneratorConfig::tiny(), seed + i as u64).generate_instance()
            })
            .collect();
        let ilp = IlpSolver::new();
        // Per instance: priors from two smaller targets, and caps from the
        // uncapped optimum at the smaller item target (tight enough that
        // the larger one may be infeasible under them).
        let priors: Vec<[SweepPrior; 2]> = instances
            .iter()
            .map(|instance| {
                [20, 30].map(|t| SweepPrior::from_outcome(t, &ilp.solve(instance, t).unwrap()))
            })
            .collect();
        let tight: Vec<Vec<u64>> = instances
            .iter()
            .map(|instance| {
                let optimum = ilp.solve(instance, 40).unwrap();
                optimum.solution.allocation.machine_counts().to_vec()
            })
            .collect();
        let owned: Vec<OwnedItem> = picks
            .iter()
            .map(|&(instance, target, caps, prior)| {
                let k = instance % num_instances;
                OwnedItem {
                    instance: instances[k].clone(),
                    target: [40, 70][target],
                    caps: match caps {
                        0 => None,
                        1 => Some(vec![UNLIMITED_CAP; instances[k].num_types()]),
                        _ => Some(tight[k].clone()),
                    },
                    prior: prior.checked_sub(1).map(|p| priors[k][p].clone()),
                }
            })
            .collect();
        check_deduplicated_batch(&instances, &owned, threads)?;
    }
}

/// Requests differing only in prior (even in its bound alone), caps or
/// target are never merged; an exact repeat is.
#[test]
fn warm_batches_merge_only_equal_requests() {
    let instance = illustrating_example();
    let prior = SweepPrior::from_outcome(30, &IlpSolver::new().solve(&instance, 30).unwrap());
    let base = || OwnedItem {
        instance: instance.clone(),
        target: 70,
        caps: None,
        prior: None,
    };
    let owned = [
        base(),
        OwnedItem {
            prior: Some(prior.clone()),
            ..base()
        },
        OwnedItem {
            prior: Some(SweepPrior {
                lower_bound: None,
                ..prior.clone()
            }),
            ..base()
        },
        OwnedItem {
            caps: Some(vec![UNLIMITED_CAP; instance.num_types()]),
            ..base()
        },
        OwnedItem {
            target: 80,
            ..base()
        },
        base(),
    ];
    check_deduplicated_batch(std::slice::from_ref(&instance), &owned, 2).unwrap();
}
