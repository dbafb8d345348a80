#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Large-instance LP benchmark: sparse Markowitz LU vs the retained dense LU
//! on wide-platform MinCost relaxations with m ≥ 512 rows (the regime the
//! ISSUE-4 tentpole targets; see `experiments::lp_large` for the shared
//! measurement harness).
//!
//! Two quantities are compared on identical instances and identical optimal
//! bases: one basis **refactorization** (dense O(m³) vs sparse
//! O(nnz + fill)), and the **end-to-end** cold revised-simplex solve
//! (differing only in `SimplexOptions::dense_lu`). Both engines are asserted
//! to agree on status and objective before timing.
//!
//! Besides the criterion output, the harness writes the lane's rows plus one
//! floors row to `BENCH_lp_large.json` (JSON Lines) and **fails** when the
//! sparse path drops below a conservative speedup floor versus the dense-LU
//! baseline recorded in the same run — CI runs this bench, so a fill-in or
//! hyper-sparsity regression turns the build red instead of silently eating
//! the speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_experiments::{lp_large_rows, rows_jsonl, rows_markdown, run_lp_large, LpLargeSpec};
use rental_lp::revised::RevisedLp;
use rental_lp::simplex::SimplexOptions;
use rental_obs::json::JsonRow;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::exact::IlpSolver;

/// Conservative CI floor on the refactorization speedup at m ≥ 512. The
/// measured value is expected ≥ 5x; the floor only guards against the sparse
/// path degenerating to dense-like behaviour on a noisy runner.
const REFACTOR_SPEEDUP_FLOOR: f64 = 2.0;
/// Conservative CI floor on the end-to-end solve speedup at m ≥ 512
/// (expected ≥ 2x).
const SOLVE_SPEEDUP_FLOOR: f64 = 1.2;

fn bench_lp_large(c: &mut Criterion) {
    // m = 512 with full rounds, m = 1024 with fewer (its dense baseline is
    // the expensive part this bench exists to retire).
    let mut rows = run_lp_large(&LpLargeSpec {
        sizes: vec![(511, 48)],
        target: 500,
        seed: 0xD1CE,
        rounds: 5,
    });
    rows.extend(run_lp_large(&LpLargeSpec {
        sizes: vec![(1023, 64)],
        target: 500,
        seed: 0xD1CE,
        rounds: 2,
    }));

    let mut json_rows = lp_large_rows(&rows);
    json_rows.push(
        JsonRow::new()
            .str("record", "floors")
            .f64("refactor_speedup", REFACTOR_SPEEDUP_FLOOR)
            .f64("solve_speedup", SOLVE_SPEEDUP_FLOOR),
    );
    print!("{}", rows_markdown(&json_rows));
    std::fs::write("BENCH_lp_large.json", rows_jsonl(&json_rows))
        .expect("BENCH_lp_large.json is writable");
    println!("wrote BENCH_lp_large.json");

    // The speedup floors: every m ≥ 512 row must clear them.
    for row in &rows {
        if row.rows < 512 {
            continue;
        }
        assert!(
            row.refactor_speedup >= REFACTOR_SPEEDUP_FLOOR,
            "sparse refactorization fell below the {REFACTOR_SPEEDUP_FLOOR}x floor at m = {}: {:.2}x",
            row.rows,
            row.refactor_speedup,
        );
        assert!(
            row.solve_speedup >= SOLVE_SPEEDUP_FLOOR,
            "sparse end-to-end solve fell below the {SOLVE_SPEEDUP_FLOOR}x floor at m = {}: {:.2}x",
            row.rows,
            row.solve_speedup,
        );
    }

    // Criterion lane for trend tracking: the sparse solve at m = 512 (the
    // dense baseline is already timed above; re-running it under criterion
    // would dominate the bench budget).
    let config = GeneratorConfig::wide_platform(511, 48);
    let instance = InstanceGenerator::new(config, 0xD1CE).generate_instance();
    let model = IlpSolver::build_model(&instance, 500);
    let lp = RevisedLp::new(&model).expect("generated relaxation is valid");
    let options = SimplexOptions::default();
    let mut group = c.benchmark_group("lp_large");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("solve-sparse", 512), &lp, |b, lp| {
        b.iter(|| black_box(lp).solve(&options).iterations)
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_lp_large
}
criterion_main!(benches);
