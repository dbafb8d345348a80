//! Sharded-vs-sequential equivalence of the fleet epoch loop: for every
//! entry point — `run`, `run_with_capacity`, `run_with_chaos`,
//! `run_resumable` — the report at shard counts {1, 2, 8} must be
//! bit-identical (modulo the wall-clock timing family) to the sequential
//! loop, over seeded scenarios, under injected chaos, and across a
//! kill-and-resume. This is the determinism contract of the sharded
//! pipelines: shards merge at one barrier per epoch in tenant-index order,
//! so parallel execution is observationally identical to sequential.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use rental_fleet::{
    diurnal_spike_fleet, failure_coupled_fleet, scaling_fleet, ChaosConfig, CrashPlan, CrashPoint,
    FleetController, FleetPolicy, FleetReport, PersistOptions, RunOutcome,
};
use rental_obs::{Recorder, Stage};
use rental_persist::Store;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

/// The shard counts every report must be bit-identical across (1 is the
/// sequential reference itself).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn sharding_cases() -> u32 {
    std::env::var("SHARDING_PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(4)
}

/// A unique store directory per call (no tempfile crate offline); cleaned up
/// eagerly so repeated test runs do not accumulate state.
fn scratch_store(tag: &str) -> Store {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "rental-fleet-sharding-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn with_shards(policy: FleetPolicy, shards: usize) -> FleetPolicy {
    FleetPolicy {
        shards: Some(shards),
        ..policy
    }
}

fn assert_all_match(reference: &FleetReport, reports: &[(usize, FleetReport)]) {
    for (shards, report) in reports {
        assert!(
            reference.matches_modulo_timing(report),
            "the {shards}-shard report diverged from the sequential run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(sharding_cases()))]

    /// Plain `run`: the diurnal+spike fleet, every shard count.
    #[test]
    fn run_is_bit_identical_across_shard_counts(seed in 0u64..1000, tenants in 2usize..6) {
        let scenario = diurnal_spike_fleet(tenants, seed);
        let solver = IlpSolver::new();
        let reports: Vec<(usize, FleetReport)> = SHARD_COUNTS
            .iter()
            .map(|&shards| {
                let controller = FleetController::new(with_shards(scenario.policy, shards));
                (shards, controller.run(&solver, &scenario.tenants).unwrap())
            })
            .collect();
        assert_all_match(&reports[0].1, &reports[1..]);
    }

    /// `run_with_capacity`: finite quotas, outages, capped failure
    /// re-solves and pool-aware shift re-solves, every shard count.
    #[test]
    fn run_with_capacity_is_bit_identical_across_shard_counts(
        seed in 0u64..1000,
        tenants in 2usize..5,
    ) {
        let (scenario, config) = failure_coupled_fleet(tenants, seed, 48.0, 4.0);
        let solver = IlpSolver::new();
        let reports: Vec<(usize, FleetReport)> = SHARD_COUNTS
            .iter()
            .map(|&shards| {
                let controller = FleetController::new(with_shards(scenario.policy, shards));
                (
                    shards,
                    controller
                        .run_with_capacity(&solver, &scenario.tenants, &config)
                        .unwrap(),
                )
            })
            .collect();
        assert_all_match(&reports[0].1, &reports[1..]);
    }

    /// `run_with_chaos`: injected solver faults and delayed arbitration
    /// draw from call-order-dependent fault streams, which only stay
    /// aligned because every solver call happens at the sequential barrier
    /// — the fault statistics must match exactly, too.
    #[test]
    fn run_with_chaos_is_bit_identical_across_shard_counts(
        seed in 0u64..1000,
        tenants in 2usize..5,
    ) {
        let (scenario, config) = failure_coupled_fleet(tenants, seed, 48.0, 4.0);
        let chaos = ChaosConfig {
            seed: seed ^ 0xC4A05,
            timeout_rate: 0.05,
            infeasible_rate: 0.05,
            arbitration_delay_rate: 0.1,
            ..ChaosConfig::default()
        };
        let policy = FleetPolicy {
            epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
            ..scenario.policy
        };
        let solver = IlpSolver::new();
        let mut reports = Vec::new();
        let mut faults = Vec::new();
        for &shards in &SHARD_COUNTS {
            let controller = FleetController::new(with_shards(policy, shards));
            let (report, stats) = controller
                .run_with_chaos(&solver, &scenario.tenants, &config, chaos)
                .unwrap();
            reports.push((shards, report));
            faults.push(stats.total_faults());
        }
        assert_all_match(&reports[0].1, &reports[1..]);
        prop_assert!(
            faults.iter().all(|&f| f == faults[0]),
            "the injected fault stream shifted across shard counts: {faults:?}"
        );
    }

    /// Kill-and-resume: a sharded durable run crashed at a mid-run epoch
    /// and resumed from disk must land on the sequential uninterrupted
    /// report, at every shard count.
    #[test]
    fn kill_and_resume_matches_the_sequential_run(seed in 0u64..500) {
        let (scenario, config) = failure_coupled_fleet(2, seed, 48.0, 4.0);
        let policy = FleetPolicy {
            threads: Some(1),
            epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
            ..scenario.policy
        };
        let solver = IlpSolver::new();
        let reference = FleetController::new(with_shards(policy, 1))
            .run_with_capacity(&solver, &scenario.tenants, &config)
            .unwrap();
        for &shards in &SHARD_COUNTS[1..] {
            let controller = FleetController::new(with_shards(policy, shards));
            let store = scratch_store("kill");
            let crash = CrashPlan {
                epoch: 48,
                point: CrashPoint::AfterJournal,
            };
            let outcome = controller
                .run_resumable(
                    &solver,
                    &scenario.tenants,
                    &config,
                    None,
                    &store,
                    &PersistOptions::default(),
                    Some(&crash),
                )
                .unwrap();
            prop_assert!(matches!(outcome, RunOutcome::Crashed { epoch: 48 }));
            let resumed = controller
                .resume_from(
                    &solver,
                    &scenario.tenants,
                    &config,
                    None,
                    &store,
                    &PersistOptions::default(),
                    None,
                )
                .unwrap()
                .completed()
                .expect("resume runs to completion");
            prop_assert!(
                reference.matches_modulo_timing(&resumed),
                "the resumed {shards}-shard run diverged from the sequential run"
            );
        }
    }
}

/// The auto shard policy stays sequential for small fleets and fans out —
/// clamped to the worker count — once shards have enough tenants each.
#[test]
fn auto_shard_policy_scales_with_fleet_and_workers() {
    let auto = FleetPolicy {
        threads: Some(4),
        ..FleetPolicy::default()
    };
    assert_eq!(auto.shard_count(0), 1);
    assert_eq!(auto.shard_count(63), 1);
    assert_eq!(auto.shard_count(128), 2);
    assert_eq!(auto.shard_count(4096), 4, "auto clamps to the worker count");
    let explicit = FleetPolicy {
        shards: Some(8),
        ..FleetPolicy::default()
    };
    assert_eq!(explicit.shard_count(3), 3, "explicit clamps to the fleet");
    assert_eq!(explicit.shard_count(4096), 8);
    assert_eq!(FleetPolicy::default().shards, None);
}

/// The sharded epoch loop actually fans out on the scaling fleet (auto
/// policy, many tenants) and still reproduces the sequential report — the
/// in-process smoke version of the bench's determinism floor.
#[test]
fn scaling_fleet_sharded_matches_sequential() {
    let scenario = scaling_fleet(192, 3);
    let solver = IlpSolver::new();
    let sequential = FleetController::new(with_shards(scenario.policy, 1))
        .run(&solver, &scenario.tenants)
        .unwrap();
    let sharded = FleetController::new(with_shards(scenario.policy, 8))
        .run(&solver, &scenario.tenants)
        .unwrap();
    assert!(sequential.matches_modulo_timing(&sharded));
    // The scenario really exercises the probe pipeline: every tenant
    // probes (the plateaus always shift) yet nobody ever re-solves (the
    // prohibitive switching cost blocks adoption).
    assert!(sharded.tenants.iter().all(|t| t.probes > 0));
    assert!(sharded.tenants.iter().all(|t| t.resolves == 0));
    assert!(sharded.adoptions.is_empty());
}

/// Time has one owner: every `fleet.span.*` sample comes from the epoch's
/// stage row, once per epoch, at every shard count. A durable run of the
/// failure-coupled fleet exercises all five stages. The recorder keeps
/// whole microseconds per sample, so each stage's histogram sums exactly to
/// its column of the rows truncated the same way.
#[test]
fn stage_spans_are_emitted_once_per_epoch_from_the_rows() {
    let (scenario, config) = failure_coupled_fleet(4, 7, 48.0, 4.0);
    let solver = IlpSolver::new();
    for &shards in &SHARD_COUNTS {
        let recorder = Arc::new(Recorder::new());
        let controller = FleetController::new(with_shards(scenario.policy, shards))
            .with_telemetry(recorder.clone());
        let store = scratch_store("spans");
        let report = controller
            .run_resumable(
                &solver,
                &scenario.tenants,
                &config,
                None,
                &store,
                &PersistOptions::default(),
                None,
            )
            .unwrap()
            .completed()
            .expect("no crash planned");
        let _ = std::fs::remove_dir_all(store.dir());
        let snapshot = recorder.snapshot();
        let epochs = report.epoch_timing.len() as u64;
        assert!(epochs > 0 && report.solve_seconds() > 0.0);
        for stage in Stage::ALL {
            let histogram = &snapshot.histograms[stage.span_name()];
            assert!(
                histogram.count() <= epochs,
                "{} has {} samples over {epochs} epochs at {shards} shards",
                stage.span_name(),
                histogram.count()
            );
            let column: u128 = (report.epoch_timing.iter())
                .map(|row| (row.get(stage) * 1e6) as u64 as u128)
                .sum();
            assert_eq!(
                histogram.sum(),
                column,
                "{} at {shards} shards",
                stage.span_name()
            );
        }
        let shard_probes = snapshot.histograms["fleet.span.shard_probe"].count();
        assert!(shard_probes <= shards as u64 * epochs);
    }
}

/// Only the probe fan-out reports a merge-barrier wait: the billing
/// fan-outs' waits are part of the bill pass, timed whole under
/// `arbitrate`, so a run without probing records none.
#[test]
fn billing_fan_outs_record_no_merge_wait() {
    let scenario = diurnal_spike_fleet(8, 11);
    let policy = FleetPolicy {
        resolve: false,
        ..with_shards(scenario.policy, 2)
    };
    let recorder = Arc::new(Recorder::new());
    FleetController::new(policy)
        .with_telemetry(recorder.clone())
        .run(&IlpSolver::new(), &scenario.tenants)
        .unwrap();
    let merge_wait = &recorder.snapshot().histograms["fleet.span.merge_wait"];
    assert!(merge_wait.count() > 0);
    assert_eq!(merge_wait.sum(), 0);
}
