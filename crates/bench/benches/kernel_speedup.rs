#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Speedup benchmarks for the sparse delta-evaluation search kernel and the
//! parallel batch-solve engine.
//!
//! * `kernel/H32/...` and `kernel/H32Jump/...` time the production solvers
//!   (sparse pair-diff kernel) against in-bench reimplementations of the
//!   pre-kernel algorithms driven by the dense `O(Q)` evaluation
//!   (`IncrementalEvaluator::cost_after_transfer_dense`). Both descend the
//!   identical trajectory — the assertions check the final costs agree — so
//!   the ratio isolates the evaluator, not the search. The acceptance target
//!   is a ≥ 3× speedup on large instances (J ≥ 32, Q ≥ 16).
//! * `batch/...` times the many-tenants serving path: one heuristic
//!   portfolio over a fleet of instances, sequentially vs through
//!   `solve_batch_timed`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rental_bench::{fixture, many_tenants_instance};
use rental_core::cost::IncrementalEvaluator;
use rental_core::{Cost, Instance, RecipeId, Throughput, ThroughputSplit};
use rental_simgen::GeneratorConfig;
use rental_solvers::batch::{solve_batch_timed, BatchItem};
use rental_solvers::heuristics::{
    best_graph_split, RandomWalkSolver, SteepestGradientJumpSolver, SteepestGradientSolver,
    StochasticDescentSolver,
};
use rental_solvers::MinCostSolver;

/// The pre-kernel H32 inner loop: a steepest descent whose candidates are all
/// costed with the dense `O(Q)` checked rescan.
fn dense_steepest_descent(
    evaluator: &mut IncrementalEvaluator<'_>,
    delta: Throughput,
    max_steps: usize,
) -> Cost {
    let num_recipes = evaluator.split().len();
    for _ in 0..max_steps {
        let current = evaluator.cost();
        let mut best_move: Option<(RecipeId, RecipeId, Cost)> = None;
        for from in 0..num_recipes {
            let from = RecipeId(from);
            if evaluator.split().share(from) == 0 {
                continue;
            }
            for to in 0..num_recipes {
                let to = RecipeId(to);
                if to == from {
                    continue;
                }
                let (moved, cost) = evaluator
                    .cost_after_transfer_dense(from, to, delta)
                    .expect("bench instances stay in range");
                if moved == 0 || cost >= current {
                    continue;
                }
                if best_move.is_none_or(|(_, _, best)| cost < best) {
                    best_move = Some((from, to, cost));
                }
            }
        }
        match best_move {
            Some((from, to, _)) => {
                evaluator
                    .apply_transfer(from, to, delta)
                    .expect("bench instances stay in range");
            }
            None => break,
        }
    }
    evaluator.cost()
}

/// The pre-kernel H32 solver on the dense evaluation.
fn dense_h32(instance: &Instance, target: Throughput) -> Cost {
    let delta = instance.throughput_granularity().max(1);
    let initial = best_graph_split(instance, target).expect("H1 split exists");
    let mut evaluator = IncrementalEvaluator::new(
        instance.application().demand(),
        instance.platform(),
        initial,
    )
    .expect("bench instances stay in range");
    dense_steepest_descent(&mut evaluator, delta, 10_000);
    evaluator.cost()
}

/// The pre-kernel H32Jump solver on the dense evaluation (same jump schedule
/// and RNG stream as `SteepestGradientJumpSolver` for a given seed).
fn dense_h32_jump(instance: &Instance, target: Throughput, seed: u64) -> Cost {
    let num_recipes = instance.num_recipes();
    let delta = instance.throughput_granularity().max(1);
    let initial = best_graph_split(instance, target).expect("H1 split exists");
    let mut evaluator = IncrementalEvaluator::new(
        instance.application().demand(),
        instance.platform(),
        initial,
    )
    .expect("bench instances stay in range");
    let mut best_cost = dense_steepest_descent(&mut evaluator, delta, 10_000);
    let mut best_split: ThroughputSplit = evaluator.split().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..15 {
        evaluator.reset(best_split.clone()).expect("arity is fixed");
        for _ in 0..3 {
            let active: Vec<usize> = (0..num_recipes)
                .filter(|&j| evaluator.split().share(RecipeId(j)) > 0)
                .collect();
            if active.is_empty() {
                break;
            }
            let from = RecipeId(active[rng.random_range(0..active.len())]);
            let mut to = RecipeId(rng.random_range(0..num_recipes));
            while to == from {
                to = RecipeId(rng.random_range(0..num_recipes));
            }
            evaluator
                .apply_transfer(from, to, delta)
                .expect("bench instances stay in range");
        }
        let cost = dense_steepest_descent(&mut evaluator, delta, 10_000);
        if cost < best_cost {
            best_cost = cost;
            best_split.clone_from(evaluator.split());
        }
    }
    best_cost
}

fn bench_kernel_vs_dense(c: &mut Criterion) {
    let instance = many_tenants_instance();
    let table = rental_core::cost::PairDiffTable::new(instance.application().demand());
    println!(
        "many_tenants: J = {}, Q = {}, mean |diff| per pair = {:.1}",
        instance.num_recipes(),
        instance.num_types(),
        table.mean_pair_diff_len()
    );

    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    for &target in &[200u64, 1_000] {
        // Identical final costs: the sparse kernel changes the arithmetic
        // path, not the search trajectory.
        let sparse_solver = SteepestGradientSolver::default();
        assert_eq!(
            sparse_solver.solve(&instance, target).unwrap().cost(),
            dense_h32(&instance, target),
            "H32 sparse/dense divergence at rho = {target}"
        );
        let jump_solver = SteepestGradientJumpSolver::with_seed(8);
        assert_eq!(
            jump_solver.solve(&instance, target).unwrap().cost(),
            dense_h32_jump(&instance, target, 8),
            "H32Jump sparse/dense divergence at rho = {target}"
        );

        group.bench_with_input(
            BenchmarkId::new("H32-sparse", target),
            &target,
            |b, &rho| {
                b.iter(|| {
                    sparse_solver
                        .solve(black_box(&instance), rho)
                        .unwrap()
                        .cost()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("H32-dense", target), &target, |b, &rho| {
            b.iter(|| dense_h32(black_box(&instance), rho))
        });
        group.bench_with_input(
            BenchmarkId::new("H32Jump-sparse", target),
            &target,
            |b, &rho| b.iter(|| jump_solver.solve(black_box(&instance), rho).unwrap().cost()),
        );
        group.bench_with_input(
            BenchmarkId::new("H32Jump-dense", target),
            &target,
            |b, &rho| b.iter(|| dense_h32_jump(black_box(&instance), rho, 8)),
        );
    }
    group.finish();
}

fn bench_batch_solving(c: &mut Criterion) {
    // A fleet of tenants: one small instance per tenant, solved by the
    // heuristic portfolio at one target each.
    let fleet: Vec<Instance> = (0..32)
        .map(|tenant| fixture(GeneratorConfig::small_graphs(), 0xF00D + tenant))
        .collect();
    let portfolio: Vec<Box<dyn MinCostSolver + Send + Sync>> = vec![
        Box::new(RandomWalkSolver::with_seed(1)),
        Box::new(StochasticDescentSolver::with_seed(1)),
        Box::new(SteepestGradientSolver::default()),
        Box::new(SteepestGradientJumpSolver::with_seed(1)),
    ];
    let items: Vec<BatchItem<'_>> = fleet
        .iter()
        .map(|instance| BatchItem::new(instance, 120))
        .collect();

    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut total: u64 = 0;
            for item in &items {
                for solver in &portfolio {
                    total += solver
                        .solve(black_box(item.instance), item.target)
                        .unwrap()
                        .cost();
                }
            }
            total
        })
    });
    group.bench_function("solve_batch", |b| {
        b.iter(|| {
            solve_batch_timed(&portfolio, black_box(&items), None)
                .into_iter()
                .flatten()
                .map(|(outcome, _)| outcome.unwrap().cost())
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel_vs_dense, bench_batch_solving);
criterion_main!(benches);
