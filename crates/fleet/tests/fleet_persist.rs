//! Crash-safety properties of the checkpoint/WAL persistence layer: a run
//! killed at *any* epoch boundary or journal-write point — including torn
//! mid-record writes and post-crash journal corruption — must resume to a
//! report bit-identical (modulo wall-clock timing) to the uninterrupted run,
//! and must never panic or over-grant the quota while recovering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use rental_capacity::CapacityConfig;
use rental_fleet::{
    diurnal_spike_fleet, failure_coupled_fleet, ChaosConfig, CorruptionFault, CrashPlan,
    CrashPoint, FleetController, FleetPolicy, FleetReport, PersistOptions, RunOutcome,
    ACCEPTANCE_SEED,
};
use rental_obs::Recorder;
use rental_persist::Store;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

/// A unique store directory per call (no tempfile crate offline); cleaned up
/// eagerly so repeated test runs do not accumulate state.
fn scratch_store(tag: &str) -> Store {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "rental-fleet-persist-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

/// The shared small scenario: 2 failure-coupled tenants over 96 epochs, with
/// finite quotas so the pool ledger genuinely matters to the resumed state.
fn scenario() -> (Vec<rental_fleet::TenantSpec>, CapacityConfig, FleetPolicy) {
    let (scenario, config) = failure_coupled_fleet(2, 11, 96.0, 4.0);
    // Deterministic solving: one worker thread and a node cap instead of a
    // wall-clock deadline, so identical runs stop at the identical node.
    let policy = FleetPolicy {
        threads: Some(1),
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..scenario.policy
    };
    (scenario.tenants, config, policy)
}

/// The uninterrupted (non-persistent) reference report — computed once.
fn reference() -> &'static FleetReport {
    static REFERENCE: OnceLock<FleetReport> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let (tenants, config, policy) = scenario();
        FleetController::new(policy)
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap()
    })
}

fn persist_cases() -> u32 {
    std::env::var("PERSIST_PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(6)
}

#[test]
fn uninterrupted_resumable_run_matches_the_plain_run() {
    let (tenants, config, policy) = scenario();
    let store = scratch_store("uninterrupted");
    let outcome = FleetController::new(policy)
        .run_resumable(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap();
    let report = outcome.completed().expect("no crash was planned");
    assert!(
        report.matches_modulo_timing(reference()),
        "persistence interleaving changed the run"
    );
    // The run actually persisted: one journal record per epoch plus
    // periodic snapshots.
    assert!(store.journal_len().unwrap() > 0);
    let snapshots = store.snapshot_epochs().unwrap();
    assert!(snapshots.contains(&0), "initial snapshot missing");
    assert!(
        snapshots.len() > 2,
        "periodic snapshots missing: {snapshots:?}"
    );
    // Resuming the completed store restores every tenant at the end of its
    // trace: no epoch re-executes, and the baselines the loop accumulated
    // are replayed from the traces.
    let resumed = FleetController::new(policy)
        .resume_from(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap()
        .completed()
        .expect("a completed store resumes to its end");
    assert!(resumed.matches_modulo_timing(reference()));
    assert!(resumed.static_headroom_violations() > 0);
}

#[test]
fn resume_after_a_midpoint_crash_is_bit_identical() {
    let (tenants, config, policy) = scenario();
    let store = scratch_store("midpoint");
    let controller = FleetController::new(policy);
    let crash = CrashPlan {
        epoch: 48,
        point: CrashPoint::AfterJournal,
    };
    let outcome = controller
        .run_resumable(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            Some(&crash),
        )
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Crashed { epoch: 48 }));
    let resumed = controller
        .resume_from(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap()
        .completed()
        .expect("resume runs to completion");
    assert!(resumed.matches_modulo_timing(reference()));
}

#[test]
fn resume_of_an_empty_store_cold_starts() {
    let (tenants, config, policy) = scenario();
    let store = scratch_store("empty");
    let resumed = FleetController::new(policy)
        .resume_from(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap()
        .completed()
        .expect("cold restart runs to completion");
    assert!(resumed.matches_modulo_timing(reference()));
}

#[test]
fn resume_of_a_garbage_store_cold_starts() {
    let (tenants, config, policy) = scenario();
    let store = scratch_store("garbage");
    // A snapshot whose frame is valid but whose payload is noise, plus a
    // journal of noise: recovery must reject both and cold-restart.
    store.write_snapshot(3, b"not a checkpoint at all").unwrap();
    store.append_journal(b"not a journal record").unwrap();
    let resumed = FleetController::new(policy)
        .resume_from(
            &IlpSolver::new(),
            &tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap()
        .completed()
        .expect("garbage store still completes");
    assert!(resumed.matches_modulo_timing(reference()));
}

/// Every file of a store, by name, sorted.
fn store_files(store: &Store) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The store holds no wall-clock value: two runs of one failure-coupled
/// seed leave byte-identical journal and snapshot files.
#[test]
fn two_runs_of_one_seed_leave_identical_stores() {
    let (tenants, config, policy) = scenario();
    let run = |tag: &str| {
        let store = scratch_store(tag);
        FleetController::new(policy)
            .run_resumable(
                &IlpSolver::new(),
                &tenants,
                &config,
                None,
                &store,
                &PersistOptions::default(),
                None,
            )
            .unwrap()
            .completed()
            .expect("no crash was planned");
        let files = store_files(&store);
        let _ = std::fs::remove_dir_all(store.dir());
        files
    };
    let (first, second) = (run("twin-a"), run("twin-b"));
    let names: Vec<&str> = first.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        names.contains(&"journal.rpj") && names.len() > 2,
        "{names:?}"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        assert!(a == b, "{name} differs between two runs of one seed");
    }
    assert_eq!(first.len(), second.len());
}

/// Each snapshot is a link that carries the history appended since the
/// link before it. A missing or corrupt link breaks every chain through
/// it: resume falls back to the newest chain that is whole, replays the
/// journal from there and still lands on the uninterrupted report.
#[test]
fn a_broken_link_falls_back_to_an_older_chain() {
    let (tenants, config, policy) = scenario();
    let controller = FleetController::new(policy);
    let crash = CrashPlan {
        epoch: 61,
        point: CrashPoint::AfterJournal,
    };
    let resume = |controller: &FleetController, store: &Store| {
        controller
            .resume_from(
                &IlpSolver::new(),
                &tenants,
                &config,
                None,
                store,
                &PersistOptions::default(),
                None,
            )
            .unwrap()
            .completed()
            .expect("resume completes")
    };
    let damages: [fn(&Store); 2] = [
        |store| std::fs::remove_file(store.dir().join("snap-0000000040.rps")).unwrap(),
        |store| {
            let path = store.dir().join("snap-0000000048.rps");
            let mut bytes = std::fs::read(&path).unwrap();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0x10;
            std::fs::write(&path, bytes).unwrap();
        },
    ];
    for damage in damages {
        let store = scratch_store("broken-link");
        let outcome = controller
            .run_resumable(
                &IlpSolver::new(),
                &tenants,
                &config,
                None,
                &store,
                &PersistOptions::default(),
                Some(&crash),
            )
            .unwrap();
        assert!(matches!(outcome, RunOutcome::Crashed { epoch: 61 }));
        assert!(store.snapshot_epochs().unwrap().contains(&56));
        damage(&store);
        // Not a cold restart: the run resumed past the crashed epoch, from
        // an older chain and the journal after it.
        let recorder = Arc::new(Recorder::new());
        let observed = FleetController::new(policy).with_telemetry(recorder.clone());
        assert!(resume(&observed, &store).matches_modulo_timing(reference()));
        let resumed_at = recorder.snapshot().gauges["fleet.recovery.resumed_epoch"];
        assert_eq!(resumed_at, 62.0);
        // The resumed run extended the chain it restored: resuming its
        // completed store reads the whole chain back.
        assert!(resume(&controller, &store).matches_modulo_timing(reference()));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}

/// A target re-solved under tighter caps is learned again. With periodic
/// snapshots off, a resume replays every journal record from the initial
/// snapshot, so the replacement plan must travel in the journal — otherwise
/// the resumed tenant probes against the stale plan and the run diverges.
#[test]
fn journal_replay_restores_replaced_plans() {
    let (scenario, config) = failure_coupled_fleet(2, 2, 48.0, 4.0);
    let policy = FleetPolicy {
        threads: Some(1),
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..scenario.policy
    };
    let controller = FleetController::new(policy);
    let uninterrupted = controller
        .run_with_capacity(&IlpSolver::new(), &scenario.tenants, &config)
        .unwrap();
    let store = scratch_store("replaced");
    let opts = PersistOptions { snapshot_every: 0 };
    let crash = CrashPlan {
        epoch: 40,
        point: CrashPoint::AfterJournal,
    };
    let outcome = controller
        .run_resumable(
            &IlpSolver::new(),
            &scenario.tenants,
            &config,
            None,
            &store,
            &opts,
            Some(&crash),
        )
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Crashed { epoch: 40 }));
    let resumed = controller
        .resume_from(
            &IlpSolver::new(),
            &scenario.tenants,
            &config,
            None,
            &store,
            &opts,
            None,
        )
        .unwrap()
        .completed()
        .expect("resume runs to completion");
    assert!(resumed.matches_modulo_timing(&uninterrupted));
}

/// The CI kill-and-resume lane: the 16-tenant acceptance fleet, snapshot at
/// the midpoint, a kill right after it, and a restart from disk that must
/// reproduce the uninterrupted report. `#[ignore]`d in the regular run (it
/// is ~6 full fleet solves of work); `cargo test -- --ignored` runs it.
#[test]
#[ignore = "acceptance-scale: run explicitly or in the CI kill-and-resume lane"]
fn kill_and_resume_sixteen_tenant_acceptance() {
    let fleet = diurnal_spike_fleet(16, ACCEPTANCE_SEED);
    let config = CapacityConfig::unconstrained();
    let policy = FleetPolicy {
        threads: Some(1),
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..fleet.policy
    };
    let controller = FleetController::new(policy);
    let uninterrupted = controller
        .run_with_capacity(&IlpSolver::new(), &fleet.tenants, &config)
        .unwrap();
    let store = scratch_store("acceptance");
    let crash = CrashPlan {
        epoch: 48,
        point: CrashPoint::AfterSnapshot,
    };
    let outcome = controller
        .run_resumable(
            &IlpSolver::new(),
            &fleet.tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            Some(&crash),
        )
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Crashed { epoch: 48 }));
    let resumed = controller
        .resume_from(
            &IlpSolver::new(),
            &fleet.tenants,
            &config,
            None,
            &store,
            &PersistOptions::default(),
            None,
        )
        .unwrap()
        .completed()
        .expect("acceptance resume completes");
    assert!(
        resumed.matches_modulo_timing(&uninterrupted),
        "kill-and-resume diverged from the uninterrupted acceptance run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(persist_cases()))]

    /// A crash at *any* seeded epoch and persistence point — before the
    /// journal write, mid-record (torn), after it, or right after a forced
    /// snapshot — resumes to the uninterrupted report, bit-identical modulo
    /// wall-clock timing.
    #[test]
    fn resume_from_any_crash_point_is_bit_identical(seed in any::<u64>()) {
        let (tenants, config, policy) = scenario();
        let store = scratch_store("anycrash");
        let controller = FleetController::new(policy);
        let crash = CrashPlan::draw(seed, 96);
        let outcome = controller
            .run_resumable(
                &IlpSolver::new(), &tenants, &config, None,
                &store, &PersistOptions::default(), Some(&crash),
            )
            .unwrap();
        prop_assert!(matches!(outcome, RunOutcome::Crashed { epoch } if epoch == crash.epoch));
        let resumed = controller
            .resume_from(
                &IlpSolver::new(), &tenants, &config, None,
                &store, &PersistOptions::default(), None,
            )
            .unwrap()
            .completed()
            .expect("resume completes");
        prop_assert!(
            resumed.matches_modulo_timing(reference()),
            "crash {crash:?} diverged after resume"
        );
    }

    /// Post-crash journal corruption — a seeded bit-flip or truncation in
    /// the journal tail — is detected by checksum; recovery falls back to
    /// the last good snapshot, re-executes the lost epochs and still lands
    /// on the identical report. Never a panic, never an over-grant.
    #[test]
    fn journal_corruption_falls_back_to_a_good_snapshot(seed in any::<u64>()) {
        let (tenants, config, policy) = scenario();
        let store = scratch_store("corrupt");
        let controller = FleetController::new(policy);
        let crash = CrashPlan { epoch: (seed % 96) as usize, point: CrashPoint::AfterJournal };
        controller
            .run_resumable(
                &IlpSolver::new(), &tenants, &config, None,
                &store, &PersistOptions::default(), Some(&crash),
            )
            .unwrap();
        let fault = CorruptionFault { seed };
        fault.strike(&store.journal_path()).unwrap();
        let resumed = controller
            .resume_from(
                &IlpSolver::new(), &tenants, &config, None,
                &store, &PersistOptions::default(), None,
            )
            .unwrap()
            .completed()
            .expect("corrupted journal still resumes");
        prop_assert!(
            resumed.matches_modulo_timing(reference()),
            "corruption {fault:?} after crash {crash:?} diverged"
        );
        for utilization in &resumed.quota_utilization {
            prop_assert!(*utilization <= 1.0 + 1e-9, "over-granted after recovery");
        }
    }

    /// Crash + corruption under active chaos: a fault is drawn from its
    /// epoch and request alone, and a journaled epoch replays the outcomes
    /// its faults served, so the resumed run meets exactly the faults the
    /// uninterrupted chaos run met — the combined execution reproduces the
    /// uninterrupted chaos report.
    #[test]
    fn chaos_runs_survive_crash_and_corruption_bit_identically(
        seed in any::<u64>(),
        timeout in 0.0f64..0.3,
        infeasible in 0.0f64..0.3,
        delay in 0.0f64..0.5,
    ) {
        let (tenants, config, policy) = scenario();
        let chaos = ChaosConfig {
            timeout_rate: timeout,
            infeasible_rate: infeasible,
            arbitration_delay_rate: delay,
            ..ChaosConfig::with_seed(seed)
        };
        let controller = FleetController::new(policy);
        let uninterrupted = controller
            .run_with_chaos(&IlpSolver::new(), &tenants, &config, chaos)
            .unwrap()
            .0;
        let store = scratch_store("chaoscrash");
        let crash = CrashPlan::draw(seed ^ 0x00C0_FFEE, 96);
        controller
            .run_resumable(
                &IlpSolver::new(), &tenants, &config, Some(chaos),
                &store, &PersistOptions::default(), Some(&crash),
            )
            .unwrap();
        CorruptionFault { seed: seed ^ 0xBAD }.strike(&store.journal_path()).unwrap();
        let resumed = controller
            .resume_from(
                &IlpSolver::new(), &tenants, &config, Some(chaos),
                &store, &PersistOptions::default(), None,
            )
            .unwrap()
            .completed()
            .expect("chaos resume completes");
        prop_assert!(
            resumed.matches_modulo_timing(&uninterrupted),
            "chaos resume diverged from the uninterrupted chaos run"
        );
        for utilization in &resumed.quota_utilization {
            prop_assert!(*utilization <= 1.0 + 1e-9, "over-granted under chaos recovery");
        }
    }
}
