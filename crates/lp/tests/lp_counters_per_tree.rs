//! A branch-and-bound tree reports its node relaxations' `lp.*` counters to
//! the ambient sink once per solve, summed. The ambient sink is process-wide,
//! so this check has a test binary of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rental_lp::mip::MipSolver;
use rental_lp::model::{Model, Relation};
use rental_obs::{install_scoped, TelemetrySink};

/// Counts the `lp.iterations` emissions and sums their deltas.
#[derive(Default)]
struct IterationCounter {
    emissions: AtomicU64,
    total: AtomicU64,
}

impl TelemetrySink for IterationCounter {
    fn counter(&self, name: &'static str, delta: u64) {
        if name == "lp.iterations" {
            self.emissions.fetch_add(1, Ordering::Relaxed);
            self.total.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// maximize 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binary: the
/// relaxation is fractional, so the tree branches.
fn knapsack() -> Model {
    let mut model = Model::maximize();
    let vars: Vec<_> = [8.0, 11.0, 6.0, 4.0]
        .iter()
        .enumerate()
        .map(|(i, &p)| model.add_int_var(format!("x{i}"), p, 0.0, 1.0))
        .collect();
    let weights = [5.0, 7.0, 4.0, 3.0];
    model.add_constraint(
        vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
        Relation::LessEq,
        14.0,
    );
    model
}

#[test]
fn a_tree_emits_its_lp_counters_once_per_solve() {
    let sink = Arc::new(IterationCounter::default());
    let _guard = install_scoped(sink.clone());
    let model = knapsack();
    let solutions: Vec<_> = (0..3)
        .map(|_| MipSolver::new().solve(&model).unwrap())
        .collect();
    assert!(solutions[0].nodes > 1, "the tree must branch");
    assert_eq!(sink.emissions.load(Ordering::Relaxed), 3);
    let iterations: usize = solutions.iter().map(|s| s.lp_iterations).sum();
    assert_eq!(sink.total.load(Ordering::Relaxed), iterations as u64);
}
