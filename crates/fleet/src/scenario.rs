//! Reproducible multi-tenant fleet scenarios.
//!
//! The generators here are shared by the `fleet_scaling` bench, the
//! experiments lane and the regression tests, so the pinned acceptance
//! numbers ("re-solving beats the fixed-mix autoscaler while re-solving only
//! a minority of tenant-epochs") all describe the *same* workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rental_capacity::CapacityConfig;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_stream::{FailureModel, WorkloadTrace};

use crate::controller::FleetPolicy;
use crate::tenant::TenantSpec;

/// The seed of the **acceptance scenario**: the 16-tenant diurnal+spike fleet
/// whose headline numbers the `fleet_scaling` bench records into
/// `BENCH_fleet.json` and the `fleet_regression` test pins. One constant so
/// the bench, the regression test and the experiments lane always describe
/// the same workload.
pub const ACCEPTANCE_SEED: u64 = 0xF1EE7;

/// A named fleet workload: tenant specs plus the policy they are meant to be
/// served under.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Scenario name, used in reports and bench output.
    pub name: String,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// The controller policy the scenario is calibrated for.
    pub policy: FleetPolicy,
}

/// The instance generator configuration used for fleet tenants: small enough
/// that the exact ILP re-solves in milliseconds, diverse enough that optimal
/// recipe mixes genuinely shift with the demand rate.
pub fn fleet_instance_config() -> GeneratorConfig {
    GeneratorConfig {
        num_recipes: 6,
        tasks_per_recipe: 3..=6,
        mutation_percent: 50,
        num_types: 5,
        throughput_range: 10..=100,
        cost_range: 1..=100,
        edge_probability: 0.3,
    }
}

/// The diurnal + spike fleet of the acceptance scenario: `num_tenants`
/// tenants over a 96-hour horizon, alternating diurnal cycles (staggered
/// phases), diurnal-with-spikes, irregular spikes and ramps, with per-tenant
/// rate scales drawn deterministically from `seed`.
pub fn diurnal_spike_fleet(num_tenants: usize, seed: u64) -> FleetScenario {
    let duration = 96.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants = (0..num_tenants)
        .map(|i| {
            let instance = InstanceGenerator::new(fleet_instance_config(), seed ^ (i as u64 + 1))
                .generate_instance();
            let low = rng.random_range(15.0..40.0);
            let high = rng.random_range(100.0..200.0);
            let trace = match i % 4 {
                0 => WorkloadTrace::diurnal(low, high, 12.0, 4),
                1 => {
                    // Diurnal with spikes: the diurnal cycle carries the bulk,
                    // random bursts overshoot the high phase.
                    let diurnal = WorkloadTrace::diurnal(low, high, 12.0, 4);
                    let spikes = WorkloadTrace::spike(
                        0.0,
                        high * 1.25,
                        duration,
                        3,
                        2.0,
                        seed ^ (0x5717 + i as u64),
                    );
                    // Overlay: take the pointwise max on a 1-hour grid.
                    let merged: Vec<_> = (0..duration as usize)
                        .map(|h| {
                            let t = h as f64 + 0.5;
                            rental_stream::TraceSegment {
                                duration: 1.0,
                                rate: diurnal.rate_at(t).max(spikes.rate_at(t)),
                            }
                        })
                        .collect();
                    WorkloadTrace::new(merged)
                }
                2 => WorkloadTrace::spike(low, high, duration, 6, 3.0, seed ^ (0xAB + i as u64)),
                _ => WorkloadTrace::ramp(low, high, duration, 8),
            };
            TenantSpec::new(format!("tenant-{i}"), instance, trace)
        })
        .collect();
    FleetScenario {
        name: format!("diurnal-spike-{num_tenants}"),
        tenants,
        policy: FleetPolicy {
            epoch: 1.0,
            switching_cost: 10.0,
            ..FleetPolicy::default()
        },
    }
}

/// Epoch count of the [`scaling_fleet`] scenario's traces.
pub const SCALING_EPOCHS: usize = 24;

/// The instance generator configuration of the controller-scaling fleet:
/// deliberately tiny applications (the initial ILP solves in well under a
/// millisecond) so fleets of 16k tenants measure the epoch *loop*, not the
/// solver.
pub fn scaling_instance_config() -> GeneratorConfig {
    GeneratorConfig {
        num_recipes: 4,
        tasks_per_recipe: 2..=3,
        mutation_percent: 50,
        num_types: 4,
        throughput_range: 10..=100,
        cost_range: 1..=100,
        edge_probability: 0.3,
    }
}

/// The controller-scaling fleet: `num_tenants` tenants over
/// [`SCALING_EPOCHS`] one-hour epochs whose demand cycles over three
/// well-separated plateaus under a prohibitive switching cost. Every tenant
/// probes every epoch (the cycling always exceeds the shift threshold) but
/// none ever re-solves or adopts, so a run exercises exactly the sharded
/// per-tenant pipelines — trace advancement, shift detection, memoized
/// what-if probes — with the initial solve fan-out as the only solver work.
/// Instances cycle over a small pool of distinct tiny applications so a
/// 16k-tenant fleet stays cheap to build; everything is deterministic per
/// seed.
pub fn scaling_fleet(num_tenants: usize, seed: u64) -> FleetScenario {
    const DISTINCT_INSTANCES: usize = 32;
    let instances: Vec<_> = (0..DISTINCT_INSTANCES.min(num_tenants.max(1)))
        .map(|k| {
            InstanceGenerator::new(scaling_instance_config(), seed ^ (k as u64 + 1))
                .generate_instance()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1E);
    let tenants = (0..num_tenants)
        .map(|i| {
            let base = rng.random_range(40.0..80.0);
            // Three well-separated plateaus, one epoch each, cycled: every
            // epoch shifts the quantized target far beyond the default 5%
            // shift threshold, so every tenant probes every epoch.
            let plateaus = [base, base * 1.5, base * 2.0];
            let segments: Vec<_> = (0..SCALING_EPOCHS)
                .map(|h| rental_stream::TraceSegment {
                    duration: 1.0,
                    rate: plateaus[h % plateaus.len()],
                })
                .collect();
            TenantSpec::new(
                format!("scale-{i}"),
                instances[i % instances.len()].clone(),
                WorkloadTrace::new(segments),
            )
        })
        .collect();
    FleetScenario {
        name: format!("scaling-{num_tenants}"),
        tenants,
        policy: FleetPolicy {
            epoch: 1.0,
            // Prohibitive: the adoption hysteresis always keeps the current
            // plan, so the epoch loop never re-solves and a run measures
            // controller throughput, not solver throughput.
            switching_cost: 1e12,
            ..FleetPolicy::default()
        },
    }
}

/// The failure-coupled acceptance scenario: the diurnal+spike fleet plus a
/// [`CapacityConfig`] with machine failures (`mtbf` / `repair_time` hours)
/// and **finite per-type quotas** sized off the tenants' availability-adjusted
/// worst-case needs — generous enough that the pool binds only under demand
/// coincidence, tight enough that the quota ledger genuinely arbitrates.
///
/// The `fleet_failure` bench sweeps this scenario over MTBFs and compares the
/// coupled controller (fleet-with-repair) against the static-headroom
/// baseline recorded in the same report.
pub fn failure_coupled_fleet(
    num_tenants: usize,
    seed: u64,
    mtbf: f64,
    repair_time: f64,
) -> (FleetScenario, CapacityConfig) {
    let scenario = diurnal_spike_fleet(num_tenants, seed);
    let failures = FailureModel::new(mtbf, repair_time, seed ^ 0xFA11);
    let availability = failures.availability();
    let num_types = scenario
        .tenants
        .first()
        .map(|t| t.instance.num_types())
        .unwrap_or(0);
    // Quota per type: 40% of the summed worst single-recipe needs at the
    // availability-adjusted provisioned peak (plus a replacement margin per
    // tenant), computed through the same worst-case-fleet bound that sizes
    // the controller's outage-trace slot pools. The discount reflects that
    // tenants' optimal mixes spread over several types and their peaks do
    // not all coincide — so the pool genuinely arbitrates (peak utilisation
    // reaches 1.0 at demand coincidences, triggering capped re-solves and
    // degraded fallbacks) without starving steady state.
    let mut worst_sum = vec![0u64; num_types];
    for tenant in &scenario.tenants {
        let rate = crate::controller::worst_case_rate(
            &tenant.instance,
            &tenant.trace,
            scenario.policy.headroom / availability,
        );
        for (q, base) in crate::controller::worst_case_fleet(&tenant.instance, rate)
            .into_iter()
            .enumerate()
        {
            worst_sum[q] += base + 4;
        }
    }
    let quotas: Vec<u64> = worst_sum.iter().map(|&sum| (sum * 2).div_ceil(5)).collect();
    let config = CapacityConfig::unconstrained()
        .with_quotas(quotas)
        .with_failures(failures)
        .with_redundancy(1);
    (scenario, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let a = diurnal_spike_fleet(4, 9);
        let b = diurnal_spike_fleet(4, 9);
        assert_eq!(a.tenants, b.tenants);
        let c = diurnal_spike_fleet(4, 10);
        assert_ne!(a.tenants, c.tenants);
    }

    #[test]
    fn tenants_cover_all_trace_shapes() {
        let scenario = diurnal_spike_fleet(8, 1);
        assert_eq!(scenario.tenants.len(), 8);
        for tenant in &scenario.tenants {
            assert!(tenant.trace.duration() > 0.0);
            assert!(tenant.trace.peak_rate() >= 100.0);
            assert!(tenant.instance.num_recipes() == 6);
        }
        // The spike overlay keeps the diurnal peaks and adds overshoots.
        let spiky = &scenario.tenants[1];
        assert!(spiky.trace.peak_rate() > scenario.tenants[0].trace.peak_rate() * 0.5);
    }

    #[test]
    fn scaling_fleet_is_deterministic_and_cycles_its_plateaus() {
        let a = scaling_fleet(40, 7);
        let b = scaling_fleet(40, 7);
        assert_eq!(a.tenants, b.tenants);
        // Instances cycle over the small distinct pool; every epoch's
        // plateau clears the default shift threshold from its neighbours.
        assert_eq!(a.tenants[0].instance, a.tenants[32].instance);
        assert_ne!(a.tenants[0].instance, a.tenants[1].instance);
        let trace = &a.tenants[0].trace;
        assert!((trace.duration() - SCALING_EPOCHS as f64).abs() < 1e-9);
        for h in 1..SCALING_EPOCHS {
            let prev = trace.rate_at(h as f64 - 0.5);
            let here = trace.rate_at(h as f64 + 0.5);
            assert!((here - prev).abs() > 0.25 * prev.min(here));
        }
    }

    #[test]
    fn failure_scenarios_carry_finite_quotas_and_failures() {
        let (scenario, config) = failure_coupled_fleet(4, 3, 96.0, 4.0);
        assert_eq!(scenario.tenants.len(), 4);
        assert!(!config.is_unconstrained());
        assert!(!config.failures.is_disabled());
        assert_eq!(config.failure_redundancy, 1);
        let quotas = config.quota_vector(scenario.tenants[0].instance.num_types());
        // Finite, and large enough for every tenant's worst-case fleet.
        for &quota in &quotas {
            assert!(quota > 0 && quota < rental_capacity::UNLIMITED_CAP);
        }
        // Deterministic per seed.
        let (again, config_again) = failure_coupled_fleet(4, 3, 96.0, 4.0);
        assert_eq!(scenario.tenants, again.tenants);
        assert_eq!(config, config_again);
    }
}
