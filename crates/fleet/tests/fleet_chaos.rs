//! Chaos-engineering property tests: the fleet controller under
//! deterministic seeded fault injection must never panic, never over-grant
//! the quota, stay deterministic for a fixed seed, and degrade gracefully
//! toward the fixed-mix baseline as the fault rate approaches 1.

use proptest::prelude::*;

use rental_core::examples::illustrating_example;
use rental_fleet::{
    failure_coupled_fleet, CapacityConfig, ChaosConfig, FleetController, FleetPolicy, TenantSpec,
};
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;
use rental_stream::WorkloadTrace;

/// `copies` identical diurnal tenants whose demand shifts force re-solves —
/// the workload the fault injector gets to interfere with.
fn diurnal_copies(copies: usize) -> Vec<TenantSpec> {
    (0..copies)
        .map(|_| {
            TenantSpec::new(
                "chaotic",
                illustrating_example(),
                WorkloadTrace::diurnal(20.0, 160.0, 12.0, 2),
            )
        })
        .collect()
}

/// A single diurnal tenant.
fn diurnal_tenants() -> Vec<TenantSpec> {
    diurnal_copies(1)
}

/// Three diurnal tenants of different amplitudes: their requests differ, so
/// a batch of them fans out over every solver thread.
fn diurnal_mix() -> Vec<TenantSpec> {
    [(20.0, 160.0), (35.0, 120.0), (15.0, 190.0)]
        .into_iter()
        .map(|(low, high)| {
            TenantSpec::new(
                "chaotic",
                illustrating_example(),
                WorkloadTrace::diurnal(low, high, 12.0, 2),
            )
        })
        .collect()
}

/// Single-threaded policy, the reference the multi-threaded runs must match.
fn single_thread_policy() -> FleetPolicy {
    FleetPolicy {
        switching_cost: 4.0,
        threads: Some(1),
        ..FleetPolicy::default()
    }
}

fn arbitrary_chaos() -> impl Strategy<Value = ChaosConfig> {
    (
        any::<u64>(),
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.5,
        0.0f64..0.5,
    )
        .prop_map(
            |(seed, timeout, infeasible, singular, poison, delay)| ChaosConfig {
                seed,
                timeout_rate: timeout,
                infeasible_rate: infeasible,
                singular_rate: singular,
                poison_prior_rate: poison,
                poison_factor: 10.0,
                arbitration_delay_rate: delay,
            },
        )
}

/// Cases per property: 16 by default (fast enough for the regular test
/// run), elevated via `CHAOS_PROPTEST_CASES` in the CI chaos lane.
fn chaos_cases() -> u32 {
    std::env::var("CHAOS_PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(chaos_cases()))]

    /// Whatever the injector throws at it — timeouts, spurious
    /// infeasibilities, singular bases, poisoned priors, delayed
    /// arbitration — a capacity- and failure-coupled run completes without
    /// panicking, keeps every cost finite, and never grants above quota.
    #[test]
    fn chaos_never_panics_and_never_overgrants(chaos in arbitrary_chaos()) {
        let (scenario, config) = failure_coupled_fleet(2, 11, 96.0, 4.0);
        let policy = FleetPolicy {
            threads: Some(1),
            epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
            ..scenario.policy
        };
        let (report, stats) = FleetController::new(policy)
            .run_with_chaos(&IlpSolver::new(), &scenario.tenants, &config, chaos)
            .unwrap();
        for utilization in &report.quota_utilization {
            prop_assert!(*utilization <= 1.0 + 1e-9, "over-granted: {utilization}");
        }
        for tenant in &report.tenants {
            prop_assert!(tenant.rental_cost.is_finite());
            prop_assert!(tenant.switching_cost.is_finite());
            prop_assert!(tenant.epoch_costs.iter().all(|c| c.is_finite()));
            prop_assert!(
                (tenant.epoch_costs.iter().sum::<f64>() - tenant.rental_cost).abs() < 1e-6
            );
            prop_assert!(tenant.epoch_costs.len() <= report.epochs);
        }
        // Sanity on the fault ledger: counters only, never negative (usize)
        // and consistent with an all-enabled config actually firing.
        let _ = stats.total_faults();
    }

    /// As the fault rate reaches 1, every re-solve dies and the controller
    /// rides the bottom rungs of the degradation ladder: each tenant keeps
    /// its (protected) initial plan forever, so the bill *is* the fixed-mix
    /// baseline — the worst-case envelope, never a crash or a runaway cost.
    /// Identical tenants make one request per batch, initial batch
    /// included, so this must hold however many of them share it.
    #[test]
    fn total_timeout_rate_degrades_to_the_fixed_mix_baseline(
        seed in any::<u64>(),
        copies in 1usize..=4,
    ) {
        let chaos = ChaosConfig {
            timeout_rate: 1.0,
            ..ChaosConfig::with_seed(seed)
        };
        let config = CapacityConfig::unconstrained();
        let (report, stats) = FleetController::new(single_thread_policy())
            .run_with_chaos(&IlpSolver::new(), &diurnal_copies(copies), &config, chaos)
            .unwrap();
        prop_assert!(stats.timeouts() > 0);
        for tenant in &report.tenants {
            prop_assert_eq!(tenant.resolves, 0);
            prop_assert_eq!(tenant.adoptions, 0);
            prop_assert!(tenant.deferred_resolves > 0);
            prop_assert!(tenant.budget_exhausted_epochs > 0);
            prop_assert!((tenant.rental_cost - tenant.fixed_mix_cost).abs() < 1e-9);
        }
    }

    /// Chaos is an *experiment*, not noise: the same seed and config replay
    /// the exact same faults and produce the exact same report, down to the
    /// per-epoch bills and the fault ledger — on two solver threads too,
    /// since a fault is keyed by its epoch and request, not by call order.
    #[test]
    fn chaos_runs_are_deterministic_for_a_fixed_seed(chaos in arbitrary_chaos()) {
        let config = CapacityConfig::unconstrained();
        let (first, first_stats) = FleetController::new(single_thread_policy())
            .run_with_chaos(&IlpSolver::new(), &diurnal_mix(), &config, chaos)
            .unwrap();
        let (second, second_stats) = FleetController::new(single_thread_policy())
            .run_with_chaos(&IlpSolver::new(), &diurnal_mix(), &config, chaos)
            .unwrap();
        let two_threads = FleetPolicy {
            threads: Some(2),
            ..single_thread_policy()
        };
        let (third, third_stats) = FleetController::new(two_threads)
            .run_with_chaos(&IlpSolver::new(), &diurnal_mix(), &config, chaos)
            .unwrap();
        prop_assert!(
            third.matches_modulo_timing(&first),
            "the two-thread chaos run diverged from the one-thread run"
        );
        prop_assert_eq!(third_stats.total_faults(), first_stats.total_faults());
        prop_assert_eq!(first.adoptions.len(), second.adoptions.len());
        for (a, b) in first.tenants.iter().zip(&second.tenants) {
            prop_assert_eq!(&a.epoch_costs, &b.epoch_costs);
            prop_assert_eq!(a.rental_cost, b.rental_cost);
            prop_assert_eq!(a.switching_cost, b.switching_cost);
            prop_assert_eq!(a.resolves, b.resolves);
            prop_assert_eq!(a.adoptions, b.adoptions);
            prop_assert_eq!(a.deferred_resolves, b.deferred_resolves);
            prop_assert_eq!(a.budget_exhausted_epochs, b.budget_exhausted_epochs);
            prop_assert_eq!(a.incumbent_adoptions, b.incumbent_adoptions);
            prop_assert_eq!(a.resolve_retries, b.resolve_retries);
        }
        prop_assert_eq!(first_stats.timeouts(), second_stats.timeouts());
        prop_assert_eq!(first_stats.infeasibles(), second_stats.infeasibles());
        prop_assert_eq!(first_stats.singulars(), second_stats.singulars());
        prop_assert_eq!(first_stats.poisoned_priors(), second_stats.poisoned_priors());
        prop_assert_eq!(
            first_stats.delayed_arbitrations(),
            second_stats.delayed_arbitrations()
        );
    }

    /// Whatever fault mix the injector draws, the report's counters stay
    /// mutually consistent: every closed backoff retry was preceded by a
    /// deferral, every incumbent adoption is an adoption, every degraded
    /// re-solve is a failure re-solve, failure re-solves only follow
    /// violated epochs, and the adoption ledger agrees with the per-tenant
    /// adoption counters.
    #[test]
    fn chaos_counters_stay_mutually_consistent(chaos in arbitrary_chaos()) {
        let (scenario, config) = failure_coupled_fleet(2, 11, 96.0, 4.0);
        let policy = FleetPolicy {
            threads: Some(1),
            epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
            ..scenario.policy
        };
        let (report, _) = FleetController::new(policy)
            .run_with_chaos(&IlpSolver::new(), &scenario.tenants, &config, chaos)
            .unwrap();
        for (i, tenant) in report.tenants.iter().enumerate() {
            prop_assert!(
                tenant.resolve_retries <= tenant.deferred_resolves,
                "tenant {i}: {} retries but only {} deferrals",
                tenant.resolve_retries,
                tenant.deferred_resolves
            );
            prop_assert!(tenant.incumbent_adoptions <= tenant.adoptions);
            prop_assert!(tenant.degraded_resolves <= tenant.failure_resolves);
            prop_assert!(tenant.failure_resolves <= tenant.slo_violation_epochs);
            prop_assert!(tenant.slo_violation_epochs <= tenant.epoch_costs.len());
            let adopted_records = report
                .adoptions
                .iter()
                .filter(|record| record.tenant == i && record.adopted)
                .count();
            prop_assert_eq!(
                tenant.adoptions, adopted_records,
                "tenant {}: adoption counter disagrees with the ledger", i
            );
        }
    }

    /// Poisoned warm-start priors are *defused*, not obeyed: the ILP's
    /// prior-soundness guards drop an unsound floor, so every re-solve
    /// still returns the true optimum and the run bills exactly what the
    /// chaos-free run bills.
    #[test]
    fn poisoned_priors_never_corrupt_the_run(seed in any::<u64>()) {
        let chaos = ChaosConfig {
            poison_prior_rate: 1.0,
            poison_factor: 25.0,
            ..ChaosConfig::with_seed(seed)
        };
        let config = CapacityConfig::unconstrained();
        let controller = FleetController::new(single_thread_policy());
        let honest = controller
            .run_with_capacity(&IlpSolver::new(), &diurnal_tenants(), &config)
            .unwrap();
        let (poisoned, stats) = controller
            .run_with_chaos(&IlpSolver::new(), &diurnal_tenants(), &config, chaos)
            .unwrap();
        prop_assert!(stats.poisoned_priors() > 0);
        let (a, b) = (&honest.tenants[0], &poisoned.tenants[0]);
        prop_assert_eq!(&a.epoch_costs, &b.epoch_costs);
        prop_assert_eq!(a.rental_cost, b.rental_cost);
        prop_assert_eq!(a.switching_cost, b.switching_cost);
        prop_assert_eq!(a.adoptions, b.adoptions);
    }
}
