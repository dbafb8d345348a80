//! Allocation budget of branch and bound on the paper's MILP.
//!
//! A node LP of the §V-C model has a handful of rows, so what a node costs
//! is mostly set-up. Each thread keeps its branch-and-bound scratch (the
//! standard form, the node workspace with its pooled eta entries, the bound
//! and snapshot arenas) from tree to tree, so a node allocates nothing once
//! the first trees have grown those buffers, and a solve allocates only the
//! values it returns. A counting global allocator holds `MipSolver` to
//! that: at most [`BUDGET`] allocations per explored node, the growth of
//! the scratch on this thread's first solves and every solve's own set-up
//! included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rental_lp::mip::MipSolver;
use rental_lp::model::{Model, Relation};
use rental_lp::MipStatus;

/// The system allocator, counting the allocations each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations allowed per explored node, solve set-up included.
const BUDGET: f64 = 0.5;

/// One platform and application: per-type throughput `r_q` and cost `c_q`,
/// and the tasks `n_jq` each of the six recipes runs on each of the five
/// types (three to six tasks per recipe, as fleet tenants have).
struct Instance {
    throughput: [f64; 5],
    cost: [f64; 5],
    tasks: [[u32; 5]; 6],
    targets: [f64; 3],
}

const INSTANCES: [Instance; 3] = [
    Instance {
        throughput: [37.0, 64.0, 18.0, 91.0, 45.0],
        cost: [23.0, 71.0, 9.0, 88.0, 40.0],
        tasks: [
            [1, 0, 2, 0, 1],
            [0, 2, 0, 1, 0],
            [2, 1, 0, 0, 1],
            [0, 0, 3, 1, 1],
            [1, 1, 1, 1, 1],
            [0, 3, 0, 0, 2],
        ],
        targets: [60.0, 150.0, 240.0],
    },
    Instance {
        throughput: [72.0, 15.0, 50.0, 33.0, 96.0],
        cost: [64.0, 12.0, 55.0, 30.0, 97.0],
        tasks: [
            [2, 1, 0, 0, 1],
            [0, 0, 1, 2, 0],
            [1, 0, 0, 1, 2],
            [0, 2, 2, 0, 0],
            [3, 0, 1, 0, 1],
            [0, 1, 0, 3, 1],
        ],
        targets: [45.0, 130.0, 275.0],
    },
    Instance {
        throughput: [28.0, 81.0, 60.0, 12.0, 47.0],
        cost: [17.0, 93.0, 48.0, 6.0, 35.0],
        tasks: [
            [0, 1, 1, 1, 0],
            [2, 0, 0, 2, 1],
            [1, 1, 0, 0, 3],
            [0, 0, 2, 1, 2],
            [1, 2, 1, 0, 0],
            [2, 0, 1, 1, 1],
        ],
        targets: [80.0, 190.0, 310.0],
    },
];

/// The §V-C MILP for one target: recipe shares `ρ_j ∈ [0, target]`,
/// machine counts `x_q ≥ 0` at cost `c_q`, `Σ ρ_j ≥ target` and
/// `r_q x_q − Σ_j n_jq ρ_j ≥ 0` per type.
fn min_cost_model(instance: &Instance, target: f64) -> Model {
    let mut model = Model::minimize();
    let rho: Vec<_> = (0..6)
        .map(|j| model.add_int_var(format!("rho{j}"), 0.0, 0.0, target))
        .collect();
    let x: Vec<_> = (0..5)
        .map(|q| model.add_nonneg_int_var(format!("x{q}"), instance.cost[q]))
        .collect();
    model.add_constraint(
        rho.iter().map(|&v| (v, 1.0)).collect(),
        Relation::GreaterEq,
        target,
    );
    for (q, &x_q) in x.iter().enumerate() {
        let mut terms = vec![(x_q, instance.throughput[q])];
        for (j, &rho_j) in rho.iter().enumerate() {
            if instance.tasks[j][q] > 0 {
                terms.push((rho_j, -f64::from(instance.tasks[j][q])));
            }
        }
        model.add_constraint(terms, Relation::GreaterEq, 0.0);
    }
    model
}

#[test]
fn a_branch_and_bound_node_stays_within_its_allocation_budget() {
    let models: Vec<Model> = INSTANCES
        .iter()
        .flat_map(|instance| {
            instance
                .targets
                .iter()
                .map(move |&target| min_cost_model(instance, target))
        })
        .collect();
    let solver = MipSolver::new();
    let mut nodes = 0;
    let mut allocations = 0;
    for model in &models {
        let before = ALLOCATIONS.with(Cell::get);
        let solution = solver.solve(model).unwrap();
        allocations += ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(solution.status, MipStatus::Optimal);
        nodes += solution.nodes;
    }
    let per_node = allocations as f64 / nodes as f64;
    assert!(
        per_node <= BUDGET,
        "{allocations} allocations over {nodes} nodes: {per_node:.2} per node, budget {BUDGET}"
    );
}
