//! Every decision of a handful of small fleets, pinned as one hash.
//!
//! The controller is deterministic: the same tenants under the same policy
//! probe, re-solve and adopt at the same epochs and bill the same costs, bit
//! for bit, at every thread and shard count. A refactor that is meant to
//! change only structure or speed (how probe tables are shared, where
//! billing lives, what a state owns) must leave every one of those numbers
//! alone. `crates/solvers/tests/pinned_outcomes.rs` pins the solver's
//! outcomes; this file pins what the fleet does with them.
//!
//! Four fleets cover the entry points and the paths that read their
//! decisions from different places:
//! - the diurnal/spike acceptance fleet under `run`;
//! - a scaling fleet whose tenants share their requests, so they read the
//!   per-request probe tables, under `run`;
//! - the failure-coupled fleet under `run_with_capacity`, with finite
//!   quotas and outages;
//! - the diurnal fleet under `run_with_chaos` at one chaos seed.
//!
//! For each fleet every tenant's costs (as bits), epoch costs and counters,
//! and every `AdoptionRecord`, are folded into one FNV-1a hash. The timing
//! fields that `FleetReport::matches_modulo_timing` ignores are left out.

use rental_fleet::{
    diurnal_spike_fleet, failure_coupled_fleet, scaling_fleet, AdoptionRecord, CapacityConfig,
    ChaosConfig, FleetController, FleetReport, TenantReport, ACCEPTANCE_SEED,
};
use rental_solvers::exact::IlpSolver;

/// The hash of every report below, as the controller computes them.
const PINNED: u64 = 0xE00A_B2AD_78B5_C4AA;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn cost(&mut self, cost: f64) {
        self.word(cost.to_bits());
    }

    fn tenant(&mut self, tenant: &TenantReport) {
        self.word(tenant.initial_target);
        self.cost(tenant.rental_cost);
        self.cost(tenant.switching_cost);
        self.word(tenant.epoch_costs.len() as u64);
        for &cost in &tenant.epoch_costs {
            self.cost(cost);
        }
        self.cost(tenant.static_peak_cost);
        self.cost(tenant.fixed_mix_cost);
        self.cost(tenant.static_headroom_cost);
        for count in [
            tenant.probes,
            tenant.resolves,
            tenant.adoptions,
            tenant.effort.solves,
            tenant.effort.nodes,
            tenant.effort.lp_iterations,
            tenant.static_headroom_violations,
            tenant.slo_violation_epochs,
            tenant.failure_resolves,
            tenant.degraded_resolves,
            tenant.deferred_resolves,
            tenant.budget_exhausted_epochs,
            tenant.incumbent_adoptions,
            tenant.resolve_retries,
        ] {
            self.word(count as u64);
        }
    }

    fn adoption(&mut self, record: &AdoptionRecord) {
        self.word(record.tenant as u64);
        self.word(record.epoch as u64);
        self.word(record.target);
        self.word(record.projected_keep.map_or(u64::MAX, f64::to_bits));
        self.cost(record.projected_switch);
        self.cost(record.switching_cost);
        self.word(u64::from(record.adopted));
        self.word(u64::from(record.failure_triggered));
    }

    fn report(&mut self, report: &FleetReport) {
        self.word(report.epochs as u64);
        self.cost(report.epoch_hours);
        self.word(report.tenants.len() as u64);
        for tenant in &report.tenants {
            self.tenant(tenant);
        }
        self.word(report.adoptions.len() as u64);
        for record in &report.adoptions {
            self.adoption(record);
        }
        for &utilization in &report.quota_utilization {
            self.cost(utilization);
        }
    }
}

#[test]
fn small_fleets_keep_their_pinned_reports() {
    let solver = IlpSolver::new();
    let mut hash = Fnv(0xCBF2_9CE4_8422_2325);

    let diurnal = diurnal_spike_fleet(16, ACCEPTANCE_SEED);
    let plain = FleetController::new(diurnal.policy)
        .run(&solver, &diurnal.tenants)
        .unwrap();
    hash.report(&plain);

    let scaling = scaling_fleet(96, ACCEPTANCE_SEED);
    let shared = FleetController::new(scaling.policy)
        .run(&solver, &scaling.tenants)
        .unwrap();
    hash.report(&shared);

    let (coupled, config) = failure_coupled_fleet(16, ACCEPTANCE_SEED, 96.0, 4.0);
    let capacity = FleetController::new(coupled.policy)
        .run_with_capacity(&solver, &coupled.tenants, &config)
        .unwrap();
    hash.report(&capacity);

    let chaos = ChaosConfig {
        timeout_rate: 0.05,
        infeasible_rate: 0.05,
        singular_rate: 0.05,
        poison_prior_rate: 0.1,
        arbitration_delay_rate: 0.1,
        ..ChaosConfig::with_seed(0xC4A05)
    };
    let (chaotic, stats) = FleetController::new(diurnal.policy)
        .run_with_chaos(
            &solver,
            &diurnal.tenants,
            &CapacityConfig::unconstrained(),
            chaos,
        )
        .unwrap();
    hash.report(&chaotic);
    hash.word(stats.total_faults() as u64);

    let adoptions: usize = [&plain, &shared, &capacity, &chaotic]
        .iter()
        .map(|report| report.adoptions.len())
        .sum();
    assert!(stats.total_faults() > 0, "the chaos run must inject faults");
    assert!(capacity.slo_violation_epochs() > 0 || capacity.failure_resolves() > 0);
    assert_eq!(
        hash.0,
        PINNED,
        "{} tenant-epochs, {adoptions} adoption records, {} chaos faults hash to {:#018X}",
        plain.tenant_epochs()
            + shared.tenant_epochs()
            + capacity.tenant_epochs()
            + chaotic.tenant_epochs(),
        stats.total_faults(),
        hash.0
    );
}
