#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Ablation benchmarks for design choices the paper leaves open (the
//! studies of `crates/experiments/src/ablation.rs`):
//!
//! * the `δ` step of the local-search heuristics (the paper leaves it
//!   unspecified; we default to the GCD of machine throughputs) — finer steps
//!   explore more splits but cost proportionally more time;
//! * the jump budget of H32Jump (number of jumps × jump length) — more jumps
//!   escape more local minima at a linear cost in time;
//! * the random-walk budget of H2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rental_bench::small_instance;
use rental_solvers::heuristics::{
    RandomWalkSolver, SteepestGradientJumpSolver, SteepestGradientSolver,
};
use rental_solvers::MinCostSolver;

fn bench_delta_step(c: &mut Criterion) {
    let instance = small_instance();
    let mut group = c.benchmark_group("ablation_delta_step");
    for &delta in &[1u64, 5, 10] {
        let solver = SteepestGradientSolver {
            delta: Some(delta),
            max_steps: 10_000,
        };
        group.bench_with_input(BenchmarkId::new("H32_delta", delta), &delta, |b, _| {
            b.iter(|| {
                solver
                    .solve(std::hint::black_box(&instance), std::hint::black_box(150))
                    .expect("small instances are solvable")
                    .cost()
            })
        });
    }
    group.finish();
}

fn bench_jump_budget(c: &mut Criterion) {
    let instance = small_instance();
    let mut group = c.benchmark_group("ablation_jump_budget");
    for &jumps in &[0usize, 5, 20] {
        let solver = SteepestGradientJumpSolver {
            jumps,
            jump_length: 3,
            seed: 9,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("H32Jump_jumps", jumps), &jumps, |b, _| {
            b.iter(|| {
                solver
                    .solve(std::hint::black_box(&instance), std::hint::black_box(150))
                    .expect("small instances are solvable")
                    .cost()
            })
        });
    }
    group.finish();
}

fn bench_walk_budget(c: &mut Criterion) {
    let instance = small_instance();
    let mut group = c.benchmark_group("ablation_walk_budget");
    for &iterations in &[100usize, 1_000, 5_000] {
        let solver = RandomWalkSolver {
            iterations,
            delta: None,
            seed: 9,
        };
        group.bench_with_input(
            BenchmarkId::new("H2_iterations", iterations),
            &iterations,
            |b, _| {
                b.iter(|| {
                    solver
                        .solve(std::hint::black_box(&instance), std::hint::black_box(150))
                        .expect("small instances are solvable")
                        .cost()
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_delta_step, bench_jump_budget, bench_walk_budget
}
criterion_main!(benches);
