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
//! * The `bb-nodes` record times single-threaded branch and bound on
//!   fleet-shaped §V-C MILPs (`fleet_instance_config()` instances, three
//!   targets each, node-capped like fleet re-solves): the node engine that
//!   dominates the fleet's re-solve workloads. Its node and LP-iteration
//!   counts must repeat exactly across trials.
//!
//! Besides the criterion output, the harness writes a `BENCH_lp.json`
//! summary in JSON Lines (pivots/sec for both engines and the speedup ratio
//! per relaxation, cold vs warm node counts of the sweep, then nodes/sec of
//! branch and bound with the median and quartiles of its trials) for CI
//! logs and regression tracking.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rental_bench::fixture;
use rental_core::examples::illustrating_example;
use rental_experiments::{rows_jsonl, rows_markdown};
use rental_fleet::scenario::fleet_instance_config;
use rental_lp::mip::{MipSolver, SolveLimits};
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

/// Fleet-shaped instances of the `bb-nodes` record (seeds `0..BB_INSTANCES`).
const BB_INSTANCES: u64 = 128;
/// Targets solved on every `bb-nodes` instance.
const BB_TARGETS: [u64; 3] = [40, 110, 190];
/// Node limit per `bb-nodes` solve, as node-capped fleet re-solves run.
const BB_NODE_LIMIT: usize = 5_000;
/// Timed trials of the whole `bb-nodes` set.
const BB_TRIALS: usize = 9;

/// Single-threaded branch and bound over fleet-shaped §V-C MILPs: the
/// `bb-nodes` record, with the median and quartiles of its trials' seconds.
fn bb_nodes_record() -> JsonRow {
    let models: Vec<Model> = (0..BB_INSTANCES)
        .flat_map(|seed| {
            let instance = fixture(fleet_instance_config(), seed);
            BB_TARGETS
                .iter()
                .map(move |&target| IlpSolver::build_model(&instance, target))
        })
        .collect();
    let solver = MipSolver::with_limits(SolveLimits {
        node_limit: Some(BB_NODE_LIMIT),
        ..SolveLimits::default()
    });
    let mut counts = None;
    let mut secs = Vec::with_capacity(BB_TRIALS);
    for _ in 0..BB_TRIALS {
        let (mut nodes, mut lp_iterations) = (0, 0);
        let start = Instant::now();
        for model in &models {
            let solution = solver.solve(black_box(model)).unwrap();
            nodes += solution.nodes;
            lp_iterations += solution.lp_iterations;
        }
        secs.push(start.elapsed().as_secs_f64());
        let first = *counts.get_or_insert((nodes, lp_iterations));
        assert_eq!(
            first,
            (nodes, lp_iterations),
            "branch and bound must repeat its node and LP-iteration counts"
        );
    }
    let (nodes, lp_iterations) = counts.expect("at least one trial ran");
    secs.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        secs[BB_TRIALS / 4],
        secs[BB_TRIALS / 2],
        secs[3 * BB_TRIALS / 4],
    );
    JsonRow::new()
        .str("record", "bb-nodes")
        .usize("solves", models.len())
        .usize("node_limit", BB_NODE_LIMIT)
        .usize("nodes", nodes)
        .usize("lp_iterations", lp_iterations)
        .usize("trials", BB_TRIALS)
        .f64("median_secs", median)
        .f64("q1_secs", q1)
        .f64("q3_secs", q3)
        .f64("nodes_per_sec", nodes as f64 / median)
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
    let mut rows = Vec::new();

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
        rows.push(
            JsonRow::new()
                .str("record", "relaxation")
                .usize("rows", m)
                .f64("revised_secs", revised_secs)
                .f64(
                    "revised_pivots_per_sec",
                    revised_pivots as f64 / revised_secs,
                )
                .f64("dense_secs", dense_secs)
                .f64("dense_pivots_per_sec", dense_pivots as f64 / dense_secs)
                .f64("speedup", dense_secs / revised_secs),
        );
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

    rows.push(
        JsonRow::new()
            .str("record", "sweep")
            .usize("targets", targets.len())
            .usize("cold_nodes", cold_nodes)
            .usize("warm_nodes", warm_nodes)
            .f64("cold_secs", cold_secs)
            .f64("warm_secs", warm_secs),
    );
    rows.push(bb_nodes_record());
    print!("{}", rows_markdown(&rows));
    std::fs::write("BENCH_lp.json", rows_jsonl(&rows)).expect("BENCH_lp.json is writable");
    println!("wrote BENCH_lp.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_relaxation_engines
}
criterion_main!(benches);
