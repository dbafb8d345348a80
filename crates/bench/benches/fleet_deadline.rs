#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the **epoch-deadline** serving path: anytime solving under
//! a per-epoch branch-and-bound node budget, split across each epoch's
//! batched re-solves.
//!
//! * `fleet_deadline/nodes-N` times a full run of the 8-tenant
//!   diurnal+spike scenario at each budget tier (plus the unlimited tier).
//! * The harness then takes the same sweep from the `fleet_deadline` lane
//!   (`run_fleet_deadline_experiment`) as the acceptance check and writes
//!   the lane's rows to `BENCH_fleet_deadline.json` (JSON Lines). The floors
//!   asserted here are the ISSUE-6 acceptance criteria:
//!   - the **unlimited** tier is bit-identical to the budget-free
//!     controller of the `fleet` lane (same bill, same adoption trail);
//!   - every budgeted tier stays within **5%** of the proven-optimal
//!     bill, the mid tier within **3%** — graceful degradation, not
//!     collapse;
//!   - the tight tier actually exercises the anytime ladder (exhausted
//!     epochs and incumbent adoptions are non-zero).
//!
//! Node budgets — unlike wall-clock deadlines — make every row
//! deterministic, so these floors are stable across machines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_experiments::{
    fleet_deadline_rows, rows_jsonl, rows_markdown, run_fleet_deadline_experiment,
    run_fleet_experiment, FleetDeadlineSpec, FleetExperimentSpec,
};
use rental_fleet::{diurnal_spike_fleet, FleetController};
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

/// The mid tier pinned to the tighter 3% floor.
const MID_TIER: usize = 64;
/// The tight tier that must visibly exercise the anytime ladder.
const TIGHT_TIER: usize = 8;

fn bench_fleet_deadline(c: &mut Criterion) {
    let spec = FleetDeadlineSpec::default();
    let solver = IlpSolver::new();

    let mut group = c.benchmark_group("fleet_deadline");
    group.sample_size(10);
    for &node_budget in &spec.node_budgets {
        let scenario = diurnal_spike_fleet(spec.num_tenants, spec.seed);
        let mut policy = scenario.policy;
        policy.epoch_budget = node_budget.map(SolveBudget::with_node_cap);
        let controller = FleetController::new(policy);
        group.bench_with_input(
            BenchmarkId::new("nodes", node_budget.map_or(0, |n| n as u64)),
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
    // The budget-sweep acceptance check, written to
    // BENCH_fleet_deadline.json.
    // ------------------------------------------------------------------
    let table = run_fleet_deadline_experiment(&spec).expect("the deadline sweep solves");
    let rows = fleet_deadline_rows(&table);
    print!("{}", rows_markdown(&rows));
    let unlimited = table
        .rows
        .iter()
        .find(|row| row.node_budget.is_none())
        .expect("the sweep includes the unlimited tier");

    // Floor 1: the unlimited tier is bit-identical to the budget-free run.
    let plain = run_fleet_experiment(&FleetExperimentSpec {
        num_tenants: spec.num_tenants,
        seed: spec.seed,
        threads: spec.threads,
    })
    .expect("the plain scenario solves")
    .report;
    assert!(
        plain.matches_modulo_timing(&unlimited.report),
        "an unlimited epoch budget must not change the bill or the adoption trail"
    );

    for row in &table.rows {
        let report = &row.report;
        let ratio = table.cost_ratio(row);
        // Floor 2: graceful degradation — no tier collapses the bill.
        assert!(
            ratio <= 1.05,
            "nodes {}: an epoch budget may cost at most 5% over proven-optimal, got {ratio:.4}",
            row.label()
        );
        if row.node_budget == Some(MID_TIER) {
            assert!(
                ratio <= 1.03,
                "nodes {MID_TIER}: the mid tier must stay within 3% of proven-optimal, got \
                 {ratio:.4}"
            );
        }
        // Floor 3: the tight tier visibly rides the anytime ladder.
        if row.node_budget == Some(TIGHT_TIER) {
            assert!(
                report.budget_exhausted_epochs() > 0,
                "nodes {TIGHT_TIER}: the tight tier must exhaust some solves"
            );
            assert!(
                report.incumbent_adoptions() > 0,
                "nodes {TIGHT_TIER}: the tight tier must adopt anytime incumbents"
            );
        }
    }

    std::fs::write("BENCH_fleet_deadline.json", rows_jsonl(&rows))
        .expect("BENCH_fleet_deadline.json is writable");
    println!("wrote BENCH_fleet_deadline.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_deadline
}
criterion_main!(benches);
