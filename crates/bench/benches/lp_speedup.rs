#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Speed-up benchmarks for the LP/MILP substrate rewrite.
//!
//! * `lp_speedup/relaxation-*` times the **revised simplex** (sparse columns,
//!   LU + eta-file basis, native bounds) against the retained dense tableau
//!   on MinCost relaxations with `m ≥ 60` rows — the regime the ROADMAP
//!   called out. Both engines are first asserted to agree on status and
//!   objective. The acceptance target is a ≥ 3× speedup.
//! * `lp_speedup/sweep-*` times warm-started target sweeps (incumbent + bound
//!   threading via `solve_sweep`) against cold per-target ILP solves on a
//!   fine-grained Table III sweep.
//!
//! Besides the criterion output, the harness writes a `BENCH_lp.json`
//! summary in JSON Lines (pivots/sec for both engines and the speedup ratio
//! per relaxation, then cold vs warm node counts of the sweep) for CI logs
//! and regression tracking.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::fixture;
use rental_core::examples::illustrating_example;
use rental_lp::model::Model;
use rental_lp::simplex::{self, dense, SimplexOptions};
use rental_obs::json::JsonRow;
use rental_simgen::GeneratorConfig;
use rental_solvers::batch::solve_sweep;
use rental_solvers::exact::IlpSolver;
use rental_solvers::MinCostSolver;

/// A MinCost LP relaxation with `1 + num_types` constraint rows.
fn relaxation(num_types: usize, num_recipes: usize, target: u64) -> Model {
    let config = GeneratorConfig::wide_platform(num_types, num_recipes);
    let instance = fixture(config, 0xD1CE);
    IlpSolver::build_model(&instance, target)
}

fn median_secs_per_solve(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `solve` repeatedly and returns (median seconds/solve, iterations of
/// one solve).
fn measure(mut solve: impl FnMut() -> usize, rounds: usize) -> (f64, usize) {
    let mut iterations = 0;
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        iterations = solve();
        samples.push(start.elapsed().as_secs_f64());
    }
    (median_secs_per_solve(&mut samples), iterations)
}

fn bench_relaxation_engines(c: &mut Criterion) {
    let options = SimplexOptions::default();
    let mut json = String::new();

    let mut group = c.benchmark_group("lp_speedup");
    group.sample_size(10);
    for &(num_types, num_recipes) in &[(63usize, 24usize), (95, 32)] {
        let model = relaxation(num_types, num_recipes, 500);
        let m = 1 + num_types;

        // Both engines must agree before their speeds are compared.
        let revised = simplex::solve_with(&model, &options).unwrap();
        let dense_solution = dense::solve_with(&model, &options).unwrap();
        assert_eq!(revised.status, dense_solution.status, "m = {m}");
        assert!(
            (revised.objective - dense_solution.objective).abs()
                <= 1e-6 * (1.0 + dense_solution.objective.abs()),
            "objective divergence at m = {m}"
        );

        group.bench_with_input(
            BenchmarkId::new("relaxation-revised", m),
            &model,
            |b, model| {
                b.iter(|| {
                    simplex::solve_with(black_box(model), &options)
                        .unwrap()
                        .objective
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("relaxation-dense", m),
            &model,
            |b, model| {
                b.iter(|| {
                    dense::solve_with(black_box(model), &options)
                        .unwrap()
                        .objective
                })
            },
        );

        // Manual medians for the JSON summary (criterion's shim prints only).
        let (revised_secs, revised_pivots) = measure(
            || simplex::solve_with(&model, &options).unwrap().iterations,
            15,
        );
        let (dense_secs, dense_pivots) = measure(
            || dense::solve_with(&model, &options).unwrap().iterations,
            15,
        );
        let speedup = dense_secs / revised_secs;
        println!(
            "lp_speedup summary m={m}: revised {:.3}ms ({} pivots), dense {:.3}ms ({} pivots), speedup {speedup:.1}x",
            revised_secs * 1e3,
            revised_pivots,
            dense_secs * 1e3,
            dense_pivots,
        );
        json.push_str(
            &JsonRow::new()
                .str("record", "relaxation")
                .usize("rows", m)
                .f64("revised_secs", revised_secs)
                .f64(
                    "revised_pivots_per_sec",
                    revised_pivots as f64 / revised_secs,
                )
                .f64("dense_secs", dense_secs)
                .f64("dense_pivots_per_sec", dense_pivots as f64 / dense_secs)
                .f64("speedup", speedup)
                .finish(),
        );
        json.push('\n');
    }
    group.finish();

    // ------------------------------------------------------------------
    // Warm-started sweep vs cold per-target solves.
    // ------------------------------------------------------------------
    let instance = illustrating_example();
    let targets: Vec<u64> = (5..=100).map(|k| k * 2).collect();
    let solver = IlpSolver::new();

    let cold_start = Instant::now();
    let mut cold_nodes = 0usize;
    for &target in &targets {
        cold_nodes += solver
            .solve(&instance, target)
            .unwrap()
            .nodes
            .expect("ILP reports nodes");
    }
    let cold_secs = cold_start.elapsed().as_secs_f64();

    let warm_start = Instant::now();
    let warm_nodes: usize = solve_sweep(&solver, &instance, &targets)
        .into_iter()
        .map(|result| result.unwrap().nodes.expect("ILP reports nodes"))
        .sum();
    let warm_secs = warm_start.elapsed().as_secs_f64();
    println!(
        "lp_speedup sweep (illustrating, {} targets): cold {cold_nodes} nodes in {:.1}ms, warm {warm_nodes} nodes in {:.1}ms",
        targets.len(),
        cold_secs * 1e3,
        warm_secs * 1e3,
    );

    let mut group = c.benchmark_group("lp_speedup");
    group.sample_size(10);
    group.bench_function("sweep-cold", |b| {
        b.iter(|| {
            targets
                .iter()
                .map(|&t| solver.solve(black_box(&instance), t).unwrap().cost())
                .sum::<u64>()
        })
    });
    group.bench_function("sweep-warm", |b| {
        b.iter(|| {
            solve_sweep(&solver, black_box(&instance), &targets)
                .into_iter()
                .map(|r| r.unwrap().cost())
                .sum::<u64>()
        })
    });
    group.finish();

    json.push_str(
        &JsonRow::new()
            .str("record", "sweep")
            .usize("targets", targets.len())
            .usize("cold_nodes", cold_nodes)
            .usize("warm_nodes", warm_nodes)
            .f64("cold_secs", cold_secs)
            .f64("warm_secs", warm_secs)
            .finish(),
    );
    json.push('\n');
    std::fs::write("BENCH_lp.json", &json).expect("BENCH_lp.json is writable");
    println!("wrote BENCH_lp.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_relaxation_engines
}
criterion_main!(benches);
