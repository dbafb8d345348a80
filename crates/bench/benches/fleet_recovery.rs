#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **crash-safe** serving path: the failure-coupled fleet
//! made durable through the `rental-persist` checkpoint/WAL store.
//!
//! * `fleet_recovery/plain` times the in-memory coupled run;
//!   `fleet_recovery/durable-N` times the same run with a write-ahead
//!   journal record per epoch and a full snapshot every N epochs.
//! * The harness then takes the acceptance run from the `fleet_recovery`
//!   lane (`run_fleet_recovery_experiment`: 8 tenants, one snapshot every
//!   48 epochs, killed after the midpoint epoch) and writes the lane's row
//!   plus one floors row to `BENCH_fleet_recovery.json` (JSON Lines). The
//!   floors asserted here are the ISSUE-7 acceptance criteria:
//!   - **snapshot overhead**: at the operating cadence the amortized
//!     per-epoch cost of writing a snapshot stays under **5%** of the
//!     durable run's per-epoch wall-time. The lane measures the
//!     per-snapshot cost directly — the minimum over repeated same-sized
//!     snapshot writes — because differencing whole runs drowns a
//!     millisecond of fsync in scheduler noise;
//!   - **resume equivalence**: the uninterrupted durable run and a run
//!     killed right after journalling the midpoint epoch and restarted
//!     from disk both reproduce the plain run's report bit-for-bit
//!     (modulo wall-clock timing).
//!
//! One worker thread and a branch-and-bound node cap keep every run
//! deterministic, so the equivalence floors are stable across machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use rental_experiments::{
    fleet_recovery_json, fleet_recovery_markdown, run_fleet_recovery_experiment, FleetRecoverySpec,
};
use rental_fleet::{failure_coupled_fleet, FleetController, FleetPolicy, PersistOptions};
use rental_obs::json::JsonRow;
use rental_persist::Store;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

const NUM_TENANTS: usize = 8;
/// The operating snapshot cadence the overhead floor is asserted at.
const OPERATING_CADENCE: usize = 48;
/// ISSUE-7 floor: amortized snapshot cost per epoch vs epoch wall-time.
const OVERHEAD_FLOOR: f64 = 0.05;

fn scratch_store() -> Store {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "rental-bench-recovery-{}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).expect("scratch store opens")
}

fn bench_fleet_recovery(c: &mut Criterion) {
    let spec = FleetRecoverySpec {
        num_tenants: NUM_TENANTS,
        snapshot_cadences: vec![OPERATING_CADENCE],
        ..FleetRecoverySpec::default()
    };
    let (scenario, config) =
        failure_coupled_fleet(spec.num_tenants, spec.seed, spec.mtbf, spec.repair_time);
    let controller = FleetController::new(FleetPolicy {
        threads: spec.threads,
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..scenario.policy
    });
    let tenants = &scenario.tenants;
    let solver = IlpSolver::new();

    let mut group = c.benchmark_group("fleet_recovery");
    group.sample_size(10);
    group.bench_function("plain", |b| {
        b.iter(|| {
            controller
                .run_with_capacity(&solver, black_box(tenants), &config)
                .unwrap()
                .total_cost()
        })
    });
    for cadence in [8usize, OPERATING_CADENCE] {
        group.bench_with_input(
            BenchmarkId::new("durable", cadence as u64),
            &cadence,
            |b, &snapshot_every| {
                b.iter(|| {
                    let store = scratch_store();
                    let outcome = controller
                        .run_resumable(
                            &solver,
                            black_box(tenants),
                            &config,
                            None,
                            &store,
                            &PersistOptions { snapshot_every },
                            None,
                        )
                        .expect("the durable run completes");
                    let _ = std::fs::remove_dir_all(store.dir());
                    outcome
                        .completed()
                        .expect("no crash was planned")
                        .total_cost()
                })
            },
        );
    }
    group.finish();

    // ------------------------------------------------------------------
    // The acceptance checks, written to BENCH_fleet_recovery.json.
    // ------------------------------------------------------------------
    let table = run_fleet_recovery_experiment(&spec).expect("the recovery run completes");
    print!("{}", fleet_recovery_markdown(&table));
    let row = &table.rows[0];

    // Floor 1 (resume equivalence, part 1): durability alone must not
    // change a single decision.
    assert!(
        row.uninterrupted_equivalent,
        "the uninterrupted durable run diverged from the plain run"
    );

    // Floor 2: at the operating cadence, snapshotting amortizes to under
    // 5% of the durable run's per-epoch wall-time.
    let overhead = table.snapshot_overhead(row);
    println!(
        "fleet_recovery summary: snapshot {:.0} us, amortized {:.2}% of epoch wall-time at \
         cadence {OPERATING_CADENCE}",
        1e6 * row.snapshot_write_seconds,
        100.0 * overhead,
    );
    assert!(
        overhead < OVERHEAD_FLOOR,
        "snapshot overhead {:.2}% exceeds the {:.0}% floor at cadence {OPERATING_CADENCE}",
        100.0 * overhead,
        100.0 * OVERHEAD_FLOOR,
    );

    // Floor 3 (resume equivalence, part 2): the run killed right after it
    // journals the midpoint epoch and restarted from disk bills exactly
    // what the plain run bills.
    assert!(
        row.resume_equivalent,
        "the kill-and-resume run diverged from the plain run"
    );

    let floors = JsonRow::new()
        .str("record", "floors")
        .f64("snapshot_overhead_fraction", OVERHEAD_FLOOR)
        .finish();
    std::fs::write(
        "BENCH_fleet_recovery.json",
        format!("{}{floors}\n", fleet_recovery_json(&table)),
    )
    .expect("BENCH_fleet_recovery.json is writable");
    println!("wrote BENCH_fleet_recovery.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_recovery
}
criterion_main!(benches);
