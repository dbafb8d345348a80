#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Scaling benchmark for the `rental-fleet` streaming re-optimization
//! subsystem.
//!
//! * `fleet_scaling/run/N` times one full run of the **controller-scaling
//!   fleet** (`scaling_fleet`: tiny instances, probe-every-epoch traces, a
//!   prohibitive switching cost — pure epoch-loop work after the init
//!   solves) at 1k, 4k and 16k tenants under the auto shard policy. A tight
//!   sample/warm-up budget keeps the 16k lane inside CI time; the full
//!   acceptance scenario is **not** re-run inside `b.iter`.
//! * The harness then takes **tenant-epochs/sec** — the headline scaling
//!   metric — from the `fleet_scale` lane (`run_fleet_scale_experiment`),
//!   which times the sequential (`shards: Some(1)`) and sharded
//!   (`shards: None`, auto) epoch loops directly at each fleet size,
//!   alternating the two until each side's loops add up to 2 s and
//!   reporting each side's median with its quartiles, so even the 1k lane
//!   gets past the host's noise. It enforces the floors: sharded reports
//!   bit-identical (modulo timing) to sequential at shard counts
//!   {1, 2, 4, 8}, and sharded ≥ 3× sequential tenant-epochs/sec at 4k
//!   tenants when the host has ≥ 4 cores. It writes the lane's rows plus
//!   one floors row to `BENCH_fleet_scaling.json` (JSON Lines).
//! * Finally the harness takes the 16-tenant **acceptance scenario** from
//!   the `fleet` lane (`run_fleet_experiment`, the same seed as the
//!   `fleet_regression` test), asserts that re-solving beats the fixed-mix
//!   autoscale baseline while re-solving only a minority of tenant-epochs,
//!   and writes the lane's rows to `BENCH_fleet.json` (JSON Lines).
//!
//! Set `FLEET_SCALING_SMOKE=1` to restrict the sweep to the 1k-tenant lane
//! (the CI smoke configuration); the determinism floor still runs there.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_experiments::{
    fleet_rows, fleet_scale_rows, rows_jsonl, rows_markdown, run_fleet_experiment,
    run_fleet_scale_experiment, FleetExperimentSpec, FleetScaleSpec,
};
use rental_fleet::{scaling_fleet, FleetController, FleetPolicy};
use rental_obs::json::JsonRow;
use rental_solvers::exact::IlpSolver;

/// Shard counts every fleet report must be bit-identical across.
const DETERMINISM_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Minimum sharded-over-sequential tenant-epochs/sec ratio at 4k tenants,
/// enforced when the host has at least [`MIN_CORES_FOR_FLOOR`] cores.
const SPEEDUP_FLOOR: f64 = 3.0;
const MIN_CORES_FOR_FLOOR: usize = 4;

fn smoke() -> bool {
    std::env::var("FLEET_SCALING_SMOKE").is_ok_and(|v| v == "1")
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let solver = IlpSolver::new();
    let spec = FleetScaleSpec {
        sizes: if smoke() {
            vec![1000]
        } else {
            vec![1000, 4000, 16000]
        },
        ..FleetScaleSpec::default()
    };

    // ------------------------------------------------------------------
    // Criterion lanes: one full scaling-fleet run per fleet size under the
    // auto shard policy. The sample/warm-up budget is deliberately tiny —
    // a 16k run takes seconds, so re-running it tens of times would blow
    // the CI budget for no extra signal.
    // ------------------------------------------------------------------
    let mut group = c.benchmark_group("fleet_scaling");
    group
        .sample_size(2)
        .warm_up_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_secs(2));
    for &tenants in &spec.sizes {
        let scenario = scaling_fleet(tenants, spec.seed);
        let controller = FleetController::new(scenario.policy);
        group.bench_with_input(
            BenchmarkId::new("run", tenants),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    controller
                        .run(&solver, black_box(&scenario.tenants))
                        .unwrap()
                        .total_cost()
                })
            },
        );
    }
    group.finish();

    // ------------------------------------------------------------------
    // Tenant-epochs/sec sweep: sequential vs sharded epoch loops.
    // ------------------------------------------------------------------
    let table = run_fleet_scale_experiment(&spec).expect("the scaling fleet solves");
    let mut rows = fleet_scale_rows(&table);
    print!("{}", rows_markdown(&rows));
    assert!(
        table.all_deterministic(),
        "determinism floor: every sharded report must match the sequential one"
    );
    let speedup_enforced = table.cores >= MIN_CORES_FOR_FLOOR;
    for row in table.rows.iter().filter(|row| row.tenants == 4000) {
        assert!(
            !speedup_enforced || row.speedup() >= SPEEDUP_FLOOR,
            "scaling floor: sharded must reach {SPEEDUP_FLOOR}x sequential tenant-epochs/sec \
             at 4k tenants on >= {MIN_CORES_FOR_FLOOR} cores (got {:.2}x on {} cores)",
            row.speedup(),
            table.cores,
        );
    }

    // Determinism floor, on the smallest lane (cheap, and the property is
    // size-independent): the report must be bit-identical modulo the
    // timing family at every shard count.
    let det_tenants = spec.sizes[0];
    let det = scaling_fleet(det_tenants, spec.seed);
    let run_sharded = |shards: usize| {
        FleetController::new(FleetPolicy {
            shards: Some(shards),
            ..det.policy
        })
        .run(&solver, &det.tenants)
        .expect("the scaling fleet solves")
    };
    let reference = run_sharded(DETERMINISM_SHARDS[0]);
    for &shards in &DETERMINISM_SHARDS[1..] {
        assert!(
            reference.matches_modulo_timing(&run_sharded(shards)),
            "determinism floor: the {shards}-shard report must be bit-identical \
             (modulo timing) to the sequential run at {det_tenants} tenants"
        );
    }
    println!(
        "fleet_scaling determinism: reports bit-identical across shard counts \
         {DETERMINISM_SHARDS:?} at {det_tenants} tenants"
    );

    rows.push(
        JsonRow::new()
            .str("record", "floors")
            .bool("smoke", smoke())
            .f64("speedup_at_4k_min", SPEEDUP_FLOOR)
            .bool("speedup_enforced", speedup_enforced && !smoke())
            .usize("determinism_tenants", det_tenants)
            .raw("determinism_shards", &format!("{DETERMINISM_SHARDS:?}"))
            .bool("bit_identical", true),
    );
    std::fs::write("BENCH_fleet_scaling.json", rows_jsonl(&rows))
        .expect("BENCH_fleet_scaling.json is writable");
    println!("wrote BENCH_fleet_scaling.json");

    // ------------------------------------------------------------------
    // The acceptance scenario, written to BENCH_fleet.json.
    // ------------------------------------------------------------------
    let table = run_fleet_experiment(&FleetExperimentSpec::default())
        .expect("the acceptance scenario solves");
    let rows = fleet_rows(&table);
    print!("{}", rows_markdown(&rows));
    let report = &table.report;
    assert!(
        report.total_cost() < report.fixed_mix_cost(),
        "acceptance: re-solving must beat the fixed-mix baseline"
    );
    assert!(
        report.resolve_fraction() < 0.5,
        "acceptance: only a minority of tenant-epochs may re-solve"
    );
    std::fs::write("BENCH_fleet.json", rows_jsonl(&rows)).expect("BENCH_fleet.json is writable");
    println!("wrote BENCH_fleet.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_scaling
}
criterion_main!(benches);
