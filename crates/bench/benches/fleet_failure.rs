#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **failure-coupled** fleet serving path: the capacity
//! pool, per-tenant outage traces, replacement renting and
//! capacity-constrained re-solve-on-failure.
//!
//! * `fleet_failure/mtbf-H` times a full coupled run of the 8-tenant
//!   diurnal+spike scenario at each MTBF of the sweep.
//! * The harness then takes the same MTBF sweep from the `fleet_failure`
//!   lane (`run_fleet_failure_experiment`) as the acceptance check and
//!   writes the lane's rows to `BENCH_fleet_failure.json` (JSON Lines): per
//!   MTBF, the coupled fleet's cost and SLO-violation epochs against the
//!   **static-headroom** baseline (provisioning every tenant's initial mix
//!   for `peak / availability` over the whole horizon). The conservative
//!   floors asserted here are the ISSUE-5 acceptance criteria:
//!   fleet-with-repair is **cheaper** than static headroom while keeping
//!   SLO-violation epochs **below** the baseline's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_experiments::{
    failure_sweep_solver, fleet_failure_rows, rows_jsonl, rows_markdown,
    run_fleet_failure_experiment, FleetFailureSpec,
};
use rental_fleet::{failure_coupled_fleet, FleetController};

fn bench_fleet_failure(c: &mut Criterion) {
    let spec = FleetFailureSpec::default();
    // Node-limited (deterministic) so one pathological branch-and-bound tree
    // cannot stall the sweep — the same solver the experiments lane uses.
    let solver = failure_sweep_solver();

    let mut group = c.benchmark_group("fleet_failure");
    group.sample_size(10);
    for &mtbf in &spec.mtbfs {
        let (scenario, config) =
            failure_coupled_fleet(spec.num_tenants, spec.seed, mtbf, spec.repair_time);
        let controller = FleetController::new(scenario.policy);
        group.bench_with_input(
            BenchmarkId::new("mtbf", mtbf as u64),
            &scenario,
            |b, scenario| {
                b.iter(|| {
                    controller
                        .run_with_capacity(&solver, black_box(&scenario.tenants), &config)
                        .unwrap()
                        .total_cost()
                })
            },
        );
    }
    group.finish();

    // ------------------------------------------------------------------
    // The MTBF-sweep acceptance check, written to BENCH_fleet_failure.json.
    // ------------------------------------------------------------------
    let table = run_fleet_failure_experiment(&spec).expect("the failure scenario solves");
    let rows = fleet_failure_rows(&table);
    print!("{}", rows_markdown(&rows));
    for row in &table.rows {
        let report = &row.report;
        let mtbf = row.mtbf;
        // Conservative acceptance floors: cheaper than the availability-
        // adjusted static baseline, with strictly fewer SLO-violation epochs.
        assert!(
            report.total_cost() < report.static_headroom_cost(),
            "mtbf {mtbf}: fleet-with-repair must beat the static-headroom baseline"
        );
        assert!(
            report.slo_violation_epochs() < report.static_headroom_violations(),
            "mtbf {mtbf}: coupled serving must violate fewer epochs than the static baseline"
        );
    }

    std::fs::write("BENCH_fleet_failure.json", rows_jsonl(&rows))
        .expect("BENCH_fleet_failure.json is writable");
    println!("wrote BENCH_fleet_failure.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_failure
}
criterion_main!(benches);
