//! The crash-recovery fleet experiment: the persistence/durability lane.
//!
//! Where [`crate::fleet_failure`] stresses the controller with machine
//! outages, this lane stresses the *process* hosting it: the run is made
//! durable through the `rental-persist` checkpoint/WAL store
//! ([`FleetController::run_resumable`]), killed at a planned epoch, and
//! restarted from disk ([`FleetController::resume_from`]). Each row sweeps
//! one snapshot cadence and reports what durability costs — persistence
//! overhead against the plain in-memory run, bytes of journal and snapshot
//! state on disk — and whether the kill-and-resume run reproduced the
//! uninterrupted report bit-for-bit (modulo wall-clock timing). The cost of
//! one snapshot is measured directly, as the minimum over repeated
//! same-size snapshot writes, because differencing whole runs drowns a
//! millisecond of fsync in scheduler noise.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rental_fleet::{
    failure_coupled_fleet, CrashPlan, CrashPoint, FleetController, FleetPolicy, FleetReport,
    PersistOptions, PersistResult, RunOutcome,
};
use rental_obs::json::JsonRow;
use rental_persist::Store;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

/// Same-size snapshot writes per row; the minimum is the noise-free cost.
const SNAPSHOT_TRIALS: usize = 32;

/// Parameters of the crash-recovery experiment.
#[derive(Debug, Clone)]
pub struct FleetRecoverySpec {
    /// Number of tenants in the failure-coupled scenario.
    pub num_tenants: usize,
    /// Scenario seed (instances, rate scales, spikes, outages).
    pub seed: u64,
    /// Mean time between machine failures, in hours.
    pub mtbf: f64,
    /// Repair time, in hours.
    pub repair_time: f64,
    /// Snapshot cadences to sweep: a snapshot link every this many epochs
    /// (`0` journals everything from the initial snapshot).
    pub snapshot_cadences: Vec<usize>,
    /// Epoch after which the injected kill strikes.
    pub crash_epoch: usize,
    /// Cap on solver worker threads. Resume equivalence is only meaningful
    /// when solving is deterministic, so the default pins one thread.
    pub threads: Option<usize>,
}

impl Default for FleetRecoverySpec {
    fn default() -> Self {
        FleetRecoverySpec {
            num_tenants: 4,
            seed: rental_fleet::ACCEPTANCE_SEED,
            mtbf: 96.0,
            repair_time: 4.0,
            snapshot_cadences: vec![1, 8, 24],
            crash_epoch: 48,
            threads: Some(1),
        }
    }
}

/// One snapshot-cadence row of the sweep.
#[derive(Debug, Clone)]
pub struct FleetRecoveryRow {
    /// Epochs between snapshots (`0`: the root link + journal only).
    pub snapshot_every: usize,
    /// Wall-clock seconds of the durable (checkpoint/WAL) run.
    pub resumable_seconds: f64,
    /// Bytes of write-ahead journal the completed run left on disk.
    pub journal_bytes: u64,
    /// Bytes of snapshot state the completed run left on disk.
    pub snapshot_bytes: u64,
    /// Number of snapshots written (including the initial epoch-0 one).
    pub snapshots: usize,
    /// Seconds to write one snapshot of this run's mean snapshot size:
    /// the minimum over `SNAPSHOT_TRIALS` (32) writes.
    pub snapshot_write_seconds: f64,
    /// The uninterrupted durable run matched the plain in-memory run.
    pub uninterrupted_equivalent: bool,
    /// Wall-clock seconds the post-kill restart spent finishing the run.
    pub resume_seconds: f64,
    /// The kill-and-resume run matched the plain in-memory run.
    pub resume_equivalent: bool,
}

/// The outcome of the sweep.
#[derive(Debug, Clone)]
pub struct FleetRecoveryTable {
    /// Scenario name.
    pub scenario: String,
    /// Epoch the injected kill struck after.
    pub crash_epoch: usize,
    /// Wall-clock seconds of the plain (in-memory) reference run.
    pub plain_seconds: f64,
    /// The plain reference report the durable runs are held against.
    pub reference: FleetReport,
    /// One row per snapshot cadence, in spec order.
    pub rows: Vec<FleetRecoveryRow>,
}

impl FleetRecoveryTable {
    /// Persistence overhead of a row relative to the plain run, as a
    /// fraction (`0.03` = 3% slower than in-memory serving).
    fn overhead(&self, row: &FleetRecoveryRow) -> f64 {
        if self.plain_seconds > 0.0 {
            (row.resumable_seconds - self.plain_seconds) / self.plain_seconds
        } else {
            0.0
        }
    }

    /// Amortized snapshot cost per epoch over the durable run's wall time
    /// per epoch: one snapshot write every `snapshot_every` epochs (cadence
    /// 0: one per run).
    pub fn snapshot_overhead(&self, row: &FleetRecoveryRow) -> f64 {
        let epochs = self.reference.epochs.max(1) as f64;
        let cadence = match row.snapshot_every {
            0 => epochs,
            every => every as f64,
        };
        (row.snapshot_write_seconds / cadence) / (row.resumable_seconds / epochs)
    }
}

/// A unique scratch store per call (no tempfile crate offline); the caller
/// removes the directory once the row is measured.
fn scratch_store(tag: &str) -> PersistResult<Store> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "rental-fleet-recovery-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    Ok(Store::open(dir)?)
}

/// Runs the snapshot-cadence sweep on the failure-coupled scenario.
///
/// # Errors
///
/// Propagates solver failures and store I/O errors.
pub fn run_fleet_recovery_experiment(
    spec: &FleetRecoverySpec,
) -> PersistResult<FleetRecoveryTable> {
    let (scenario, config) =
        failure_coupled_fleet(spec.num_tenants, spec.seed, spec.mtbf, spec.repair_time);
    // Deterministic solving — a node cap instead of a wall-clock deadline —
    // so the resumed run can be held to bit-identical equivalence.
    let policy = FleetPolicy {
        threads: spec.threads,
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..scenario.policy
    };
    let controller = FleetController::new(policy);
    let solver = IlpSolver::new();

    let start = Instant::now();
    let reference = controller.run_with_capacity(&solver, &scenario.tenants, &config)?;
    let plain_seconds = start.elapsed().as_secs_f64();
    let crash_epoch = spec.crash_epoch.min(reference.epochs.saturating_sub(1));

    let mut rows = Vec::with_capacity(spec.snapshot_cadences.len());
    for &snapshot_every in &spec.snapshot_cadences {
        let options = PersistOptions { snapshot_every };

        // Uninterrupted durable run: overhead + on-disk footprint.
        let store = scratch_store("full")?;
        let start = Instant::now();
        let outcome = controller.run_resumable(
            &solver,
            &scenario.tenants,
            &config,
            None,
            &store,
            &options,
            None,
        )?;
        let resumable_seconds = start.elapsed().as_secs_f64();
        let report = match outcome {
            RunOutcome::Completed(report) => report,
            RunOutcome::Crashed { .. } => unreachable!("no crash was planned"),
        };
        let journal_bytes = store.journal_len()?;
        let snapshot_bytes = store.snapshots_len()?;
        let snapshots = store.snapshot_epochs()?.len();
        let uninterrupted_equivalent = report.matches_modulo_timing(&reference);
        let payload = vec![0xA5u8; (snapshot_bytes / snapshots.max(1) as u64) as usize];
        let mut snapshot_write_seconds = f64::INFINITY;
        for trial in 0..SNAPSHOT_TRIALS {
            let start = Instant::now();
            store.write_snapshot(1_000_000 + trial as u64, &payload)?;
            snapshot_write_seconds = snapshot_write_seconds.min(start.elapsed().as_secs_f64());
        }
        let _ = fs::remove_dir_all(store.dir());

        // Kill-and-resume: the same run crashed right after journalling
        // `crash_epoch`, then restarted from disk.
        let store = scratch_store("crash")?;
        let crash = CrashPlan {
            epoch: crash_epoch,
            point: CrashPoint::AfterJournal,
        };
        controller.run_resumable(
            &solver,
            &scenario.tenants,
            &config,
            None,
            &store,
            &options,
            Some(&crash),
        )?;
        let start = Instant::now();
        let resumed = controller
            .resume_from(
                &solver,
                &scenario.tenants,
                &config,
                None,
                &store,
                &options,
                None,
            )?
            .completed()
            .expect("a resume without a crash plan runs to completion");
        let resume_seconds = start.elapsed().as_secs_f64();
        let resume_equivalent = resumed.matches_modulo_timing(&reference);
        let _ = fs::remove_dir_all(store.dir());

        rows.push(FleetRecoveryRow {
            snapshot_every,
            resumable_seconds,
            journal_bytes,
            snapshot_bytes,
            snapshots,
            snapshot_write_seconds,
            uninterrupted_equivalent,
            resume_seconds,
            resume_equivalent,
        });
    }

    Ok(FleetRecoveryTable {
        scenario: scenario.name,
        crash_epoch,
        plain_seconds,
        reference,
        rows,
    })
}

/// The cadence sweep's rows: one `fleet_recovery` row per cadence.
pub fn fleet_recovery_rows(table: &FleetRecoveryTable) -> Vec<JsonRow> {
    let epochs = table.reference.epochs;
    table
        .rows
        .iter()
        .map(|row| {
            JsonRow::new()
                .str("record", "fleet_recovery")
                .str("scenario", &table.scenario)
                .usize("tenants", table.reference.tenants.len())
                .usize("epochs", epochs)
                .usize("snapshot_every", row.snapshot_every)
                .f64("plain_seconds", table.plain_seconds)
                .f64("resumable_seconds", row.resumable_seconds)
                .f64(
                    "epoch_seconds",
                    row.resumable_seconds / epochs.max(1) as f64,
                )
                .f64("overhead_fraction", table.overhead(row))
                .u64("journal_bytes", row.journal_bytes)
                .u64("snapshot_bytes", row.snapshot_bytes)
                .usize("snapshots", row.snapshots)
                .f64("snapshot_write_seconds", row.snapshot_write_seconds)
                .f64("snapshot_overhead_fraction", table.snapshot_overhead(row))
                .usize("crash_epoch", table.crash_epoch)
                .f64("resume_seconds", row.resume_seconds)
                .bool("uninterrupted_equivalent", row.uninterrupted_equivalent)
                .bool("resume_equivalent", row.resume_equivalent)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_markdown};

    #[test]
    fn small_recovery_sweep_resumes_equivalently() {
        let spec = FleetRecoverySpec {
            num_tenants: 2,
            seed: 11,
            snapshot_cadences: vec![0, 8],
            crash_epoch: 20,
            ..FleetRecoverySpec::default()
        };
        let table = run_fleet_recovery_experiment(&spec).unwrap();
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            assert!(
                row.uninterrupted_equivalent,
                "cadence {}",
                row.snapshot_every
            );
            assert!(row.resume_equivalent, "cadence {}", row.snapshot_every);
            assert!(row.journal_bytes > 0);
            assert!(row.snapshots >= 1, "the initial snapshot is always written");
            assert!(row.snapshot_write_seconds > 0.0);
            assert!(table.snapshot_overhead(row) > 0.0);
        }
        // Cadence 0 writes only the initial snapshot; cadence 8 writes more.
        assert_eq!(table.rows[0].snapshots, 1);
        assert!(table.rows[1].snapshots > table.rows[0].snapshots);
        let rows = fleet_recovery_rows(&table);
        let markdown = rows_markdown(&rows);
        assert!(markdown.contains("| resume_equivalent |"));
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn crash_epochs_are_clamped_to_the_horizon() {
        let spec = FleetRecoverySpec {
            num_tenants: 2,
            seed: 5,
            snapshot_cadences: vec![8],
            crash_epoch: 10_000,
            ..FleetRecoverySpec::default()
        };
        let table = run_fleet_recovery_experiment(&spec).unwrap();
        assert!(table.crash_epoch < table.reference.epochs);
        assert!(table.rows[0].resume_equivalent);
    }
}
