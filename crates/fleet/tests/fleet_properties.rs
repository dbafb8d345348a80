//! Property tests of the fleet controller's probe / solve / adopt loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use rental_core::examples::illustrating_example;
use rental_core::{Instance, Platform, Throughput};
use rental_fleet::scenario::scaling_instance_config;
use rental_fleet::{
    initial_target, scaling_fleet, AdoptionRecord, FleetController, FleetPolicy, FleetReport,
    TenantSpec,
};
use rental_simgen::InstanceGenerator;
use rental_solvers::exact::IlpSolver;
use rental_solvers::{
    CapacitySolver, MinCostSolver, SolveResult, SolverOutcome, SweepPrior, WarmStartSolver,
};
use rental_stream::{AutoscalePolicy, Autoscaler, TraceSegment, WorkloadTrace};

/// `IlpSolver` recording the `(instance, target)` of every solve without a
/// prior — in `run`, exactly the initial fan-out (every later solve is
/// warm-started from the tenant's previous plan).
#[derive(Default)]
struct InitialCallCounter {
    inner: IlpSolver,
    cold: Mutex<Vec<(Instance, Throughput)>>,
}

impl MinCostSolver for InitialCallCounter {
    fn name(&self) -> &str {
        "initial-call-counter"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.inner.solve(instance, target)
    }
}

impl WarmStartSolver for InitialCallCounter {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        if prior.is_none() {
            let call = (instance.clone(), target);
            self.cold.lock().unwrap().push(call);
        }
        self.inner.solve_with_prior(instance, target, prior)
    }
}

impl CapacitySolver for InitialCallCounter {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.inner.solve_with_caps(instance, target, caps, prior)
    }
}

/// `IlpSolver` counting every warm and capped solve it serves.
#[derive(Default)]
struct CallCounter {
    inner: IlpSolver,
    calls: AtomicUsize,
}

impl MinCostSolver for CallCounter {
    fn name(&self) -> &str {
        "call-counter"
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.solve(instance, target)
    }
}

impl WarmStartSolver for CallCounter {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.solve_with_prior(instance, target, prior)
    }
}

impl CapacitySolver for CallCounter {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.solve_with_caps(instance, target, caps, prior)
    }
}

fn arbitrary_trace() -> impl Strategy<Value = WorkloadTrace> {
    proptest::collection::vec((2.0f64..12.0, 0.0f64..180.0), 1..6).prop_map(|segments| {
        WorkloadTrace::new(
            segments
                .into_iter()
                .map(|(duration, rate)| TraceSegment { duration, rate })
                .collect(),
        )
    })
}

fn arbitrary_policy() -> impl Strategy<Value = FleetPolicy> {
    (0.0f64..40.0, 0.0f64..0.2, 0.0f64..0.3).prop_map(|(switching, epsilon, shift)| FleetPolicy {
        switching_cost: switching,
        probe_epsilon: epsilon,
        shift_threshold: shift,
        ..FleetPolicy::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The controller never adopts a plan whose projected remaining-horizon
    /// cost (plus the switching charge) is not strictly below the projected
    /// cost of keeping the current one — and conversely never *rejects* a
    /// candidate that clears the hysteresis bar.
    #[test]
    fn adoption_never_raises_the_projected_remaining_cost(
        trace in arbitrary_trace(),
        policy in arbitrary_policy(),
    ) {
        let tenants = vec![TenantSpec::new("p", illustrating_example(), trace)];
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        for record in &report.adoptions {
            match record.projected_keep {
                // Forced switches (the current mix carried no demand) bypass
                // the hysteresis but must always adopt.
                None => prop_assert!(record.adopted && record.forced()),
                Some(keep) => {
                    prop_assert!(keep.is_finite());
                    prop_assert_eq!(
                        record.adopted,
                        record.projected_switch + record.switching_cost < keep,
                        "inconsistent adoption at epoch {}", record.epoch
                    );
                    if record.adopted {
                        prop_assert!(record.net_savings().unwrap() > 0.0);
                        prop_assert!(record.projected_switch <= keep);
                    }
                }
            }
        }
        // Accounting identities.
        let tenant = &report.tenants[0];
        let adopted = report.adoptions.iter().filter(|r| r.adopted).count();
        prop_assert_eq!(tenant.adoptions, adopted);
        prop_assert!((tenant.switching_cost
            - adopted as f64 * policy.switching_cost).abs() < 1e-9);
        prop_assert!((tenant.epoch_costs.iter().sum::<f64>() - tenant.rental_cost).abs() < 1e-6);
        prop_assert_eq!(tenant.epoch_costs.len(), report.epochs);
        // Re-solves are a subset of epochs, never more than one per epoch.
        prop_assert!(tenant.resolves <= report.epochs);
    }

    /// With re-solving disabled, a 1-tenant fleet is *exactly* the fixed-mix
    /// autoscaler on the tenant's initial mix — same per-epoch bills, same
    /// total.
    #[test]
    fn frozen_fleet_equals_the_autoscaler(trace in arbitrary_trace()) {
        let instance = illustrating_example();
        let policy = FleetPolicy { resolve: false, ..FleetPolicy::default() };
        let tenants = vec![TenantSpec::new("d", instance.clone(), trace.clone())];
        let solver = IlpSolver::new();
        let report = FleetController::new(policy)
            .run(&solver, &tenants)
            .unwrap();

        // Reconstruct the same initial mix the controller starts from.
        let rho0 = rental_fleet::initial_target(&policy, &instance, &trace);
        let initial = solver.solve(&instance, rho0).unwrap();
        let fractions = Autoscaler::split_fractions(&initial.solution);
        let baseline = Autoscaler::new(AutoscalePolicy::default())
            .run(&instance, &fractions, &trace);

        prop_assert_eq!(report.epochs, baseline.epochs.len());
        for (cost, epoch) in report.tenants[0].epoch_costs.iter().zip(&baseline.epochs) {
            prop_assert!((cost - epoch.cost).abs() < 1e-9);
        }
        prop_assert!((report.tenants[0].rental_cost - baseline.total_cost).abs() < 1e-9);
        prop_assert!((report.tenants[0].fixed_mix_cost - baseline.total_cost).abs() < 1e-9);
        prop_assert!(
            (report.tenants[0].static_peak_cost - baseline.static_peak_cost).abs() < 1e-9
        );
        prop_assert_eq!(report.tenants[0].resolves, 0);
        prop_assert_eq!(report.tenants[0].switching_cost, 0.0);
    }

    /// Independent oracle: in `run` a tenant shares nothing with its
    /// co-tenants, so each tenant of a 48-tenant scaling fleet — re-solving,
    /// since switching is free — must report exactly what it reports run
    /// alone. Tenants sharing an instance and initial target share one
    /// initial solve: the solver sees each such request once.
    #[test]
    fn every_tenant_matches_its_solo_run(seed in any::<u64>()) {
        let scenario = scaling_fleet(48, seed);
        let policy = FleetPolicy { switching_cost: 0.0, ..scenario.policy };
        let controller = FleetController::new(policy);
        let counter = InitialCallCounter::default();
        let fleet = controller.run(&counter, &scenario.tenants).unwrap();
        prop_assert!(fleet.resolved_tenant_epochs() > 0);

        // As many calls as requests, and every request among them: each
        // request was solved exactly once.
        let requests = distinct_requests(&policy, &scenario.tenants);
        let cold = counter.cold.into_inner().unwrap();
        prop_assert_eq!(cold.len(), requests.len());
        prop_assert!(requests.iter().all(|request| cold.contains(request)));
        prop_assert_eq!(first_solo_mismatch(&controller, &scenario.tenants, &fleet), None);
    }

    /// Fleet runs are deterministic: identical inputs give identical reports
    /// (modulo wall-clock timings).
    #[test]
    fn fleet_runs_are_deterministic(
        trace in arbitrary_trace(),
        policy in arbitrary_policy(),
    ) {
        let tenants = vec![TenantSpec::new("r", illustrating_example(), trace)];
        let solver = IlpSolver::new();
        let a = FleetController::new(policy).run(&solver, &tenants).unwrap();
        let b = FleetController::new(policy).run(&solver, &tenants).unwrap();
        prop_assert_eq!(&a.adoptions, &b.adoptions);
        prop_assert_eq!(a.total_cost(), b.total_cost());
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            prop_assert_eq!(&ta.epoch_costs, &tb.epoch_costs);
            prop_assert_eq!(ta.resolves, tb.resolves);
            prop_assert_eq!(ta.adoptions, tb.adoptions);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// How an instance is stored changes no decision: a 256-tenant scaling
    /// fleet whose tenants share 32 instances' storage and the same fleet
    /// with every tenant's instance rebuilt from its parts in storage of
    /// its own report the same, and make the same number of solver calls —
    /// equal requests merge by value, not by storage. Free switching makes
    /// the epoch loop re-solve too.
    #[test]
    fn rebuilt_instances_change_no_decision(seed in any::<u64>()) {
        let scenario = scaling_fleet(256, seed);
        let rebuilt: Vec<TenantSpec> = scenario
            .tenants
            .iter()
            .map(|t| {
                let machines = t.instance.platform().machines().to_vec();
                let recipes = t.instance.application().recipes().to_vec();
                let instance = Instance::new(recipes, Platform::new(machines).unwrap()).unwrap();
                TenantSpec::new(t.name.clone(), instance, t.trace.clone())
            })
            .collect();
        let policy = FleetPolicy { switching_cost: 0.0, ..scenario.policy };
        let controller = FleetController::new(policy);
        let (shared_calls, rebuilt_calls) = (CallCounter::default(), CallCounter::default());
        let shared = controller.run(&shared_calls, &scenario.tenants).unwrap();
        let separate = controller.run(&rebuilt_calls, &rebuilt).unwrap();
        prop_assert!(shared.resolved_tenant_epochs() > 0);
        prop_assert!(separate.matches_modulo_timing(&shared));
        prop_assert_eq!(
            rebuilt_calls.calls.into_inner(),
            shared_calls.calls.into_inner()
        );
    }
}

/// The distinct initial requests — instance and initial target — of
/// `tenants` under `policy`, in order of first appearance.
fn distinct_requests(policy: &FleetPolicy, tenants: &[TenantSpec]) -> Vec<(Instance, Throughput)> {
    let mut requests = Vec::new();
    for t in tenants {
        let request = (
            t.instance.clone(),
            initial_target(policy, &t.instance, &t.trace),
        );
        if !requests.contains(&request) {
            requests.push(request);
        }
    }
    requests
}

/// The first of `tenants` whose report row or adoptions in `fleet`, their
/// run under `controller`, differ from what it reports run alone, if any.
/// A solo run shares nothing with co-tenants — no request, no probe table.
fn first_solo_mismatch(
    controller: &FleetController,
    tenants: &[TenantSpec],
    fleet: &FleetReport,
) -> Option<usize> {
    (0..tenants.len()).find(|&i| {
        let solo = controller
            .run(&IlpSolver::new(), std::slice::from_ref(&tenants[i]))
            .unwrap();
        let own: Vec<_> = (fleet.adoptions.iter())
            .filter(|record| record.tenant == i)
            .map(|record| AdoptionRecord {
                tenant: 0,
                ..record.clone()
            })
            .collect();
        fleet.tenants[i] != solo.tenants[0] || own != solo.adoptions
    })
}

/// A plain fleet of `tenants` tenants on 8 tiny instances whose demand
/// cycles over three plateaus every epoch for 24 epochs: tenant `i` runs
/// instance `i % 8` from base rate `40 + i % 16`, so the fleet asks at most
/// 16 distinct initial requests and most of them have several tenants.
fn shared_request_fleet(tenants: usize) -> Vec<TenantSpec> {
    let instances: Vec<_> = (0..8u64)
        .map(|k| InstanceGenerator::new(scaling_instance_config(), 0x5CA1E ^ k).generate_instance())
        .collect();
    (0..tenants)
        .map(|i| {
            let base = 40.0 + (i % 16) as f64;
            let plateaus = [base, base * 1.5, base * 2.0];
            let segments = (0..24)
                .map(|h| TraceSegment {
                    duration: 1.0,
                    rate: plateaus[h % plateaus.len()],
                })
                .collect();
            TenantSpec::new(
                format!("shared-{i}"),
                instances[i % instances.len()].clone(),
                WorkloadTrace::new(segments),
            )
        })
        .collect()
}

/// Independent oracle for the probe table: tenants of one initial request
/// that keep its plan read one shared table of keep projections, a tenant
/// that switched plans (or whose request it asks alone) memoizes its own,
/// and a solo run shares nothing. So every tenant of a fleet whose requests
/// have several tenants each must report exactly what it reports run alone
/// — at free switching (most tenants switch and memoize), at a moderate
/// charge (some switch) and at a prohibitive one (every tenant keeps its
/// plan and probes through the table every epoch).
#[test]
fn tenants_sharing_requests_match_their_solo_runs() {
    let tenants = shared_request_fleet(96);
    let policy = FleetPolicy {
        epoch: 1.0,
        ..FleetPolicy::default()
    };
    let requests = distinct_requests(&policy, &tenants).len();
    assert!(requests <= 16, "{requests} requests");
    for switching_cost in [0.0, 1000.0, 1e12] {
        let controller = FleetController::new(FleetPolicy {
            switching_cost,
            ..policy
        });
        let fleet = controller.run(&IlpSolver::new(), &tenants).unwrap();
        assert!(fleet.tenants.iter().all(|t| t.probes > 0));
        let switched = fleet.tenants.iter().filter(|t| t.adoptions > 0).count();
        match switching_cost {
            0.0 => assert!(switched > tenants.len() / 2, "{switched} switched"),
            1e12 => assert_eq!(switched, 0),
            _ => assert!(
                0 < switched && switched < tenants.len(),
                "{switched} switched"
            ),
        }
        let mismatch = first_solo_mismatch(&controller, &tenants, &fleet);
        assert_eq!(mismatch, None, "at switching cost {switching_cost}");
    }
}
