//! Reproduction of the paper's illustrating example (§VII): Table II is the
//! machine catalogue, Table III compares the ILP and every heuristic on the
//! three-recipe application of Figure 2 for ρ = 10..200.

use rental_core::examples::illustrating_example;
use rental_core::{Throughput, ThroughputSplit};
use rental_solvers::batch::solve_sweep;
use rental_solvers::registry::{ilp_solver, standard_suite, SuiteConfig};

/// One cell of Table III: the split chosen by a solver and its cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Cell {
    /// Name of the solver ("ILP", "H1", ...).
    pub solver: String,
    /// The throughput split chosen for the row's target.
    pub split: ThroughputSplit,
    /// The resulting platform cost.
    pub cost: u64,
}

/// One row of Table III: a target throughput and the cells of every solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// Target throughput ρ of the row.
    pub target: Throughput,
    /// One cell per solver, in suite order.
    pub cells: Vec<Table3Cell>,
}

/// The reference ILP costs of Table III of the paper, as `(ρ, cost)` pairs.
/// Integration tests compare our ILP column against these values.
pub const PAPER_TABLE3_OPTIMAL: [(u64, u64); 20] = [
    (10, 28),
    (20, 38),
    (30, 58),
    (40, 69),
    (50, 86),
    (60, 107),
    (70, 124),
    (80, 134),
    (90, 155),
    (100, 172),
    (110, 192),
    (120, 199),
    (130, 220),
    (140, 237),
    (150, 257),
    (160, 268),
    (170, 285),
    (180, 306),
    (190, 323),
    (200, 333),
];

/// The H1 (best graph) costs of Table III of the paper, as `(ρ, cost)` pairs.
pub const PAPER_TABLE3_H1: [(u64, u64); 20] = [
    (10, 28),
    (20, 38),
    (30, 58),
    (40, 69),
    (50, 104),
    (60, 114),
    (70, 138),
    (80, 138),
    (90, 174),
    (100, 189),
    (110, 199),
    (120, 199),
    (130, 256),
    (140, 257),
    (150, 257),
    (160, 276),
    (170, 315),
    (180, 315),
    (190, 340),
    (200, 340),
];

/// Runs the full Table III experiment: every solver of the standard suite on
/// the illustrating example, for the given targets.
///
/// The ILP column is computed as one **warm-started sweep**
/// ([`solve_sweep`]): the optimal split of each target primes branch & bound
/// for the next one, so the whole column costs far fewer nodes than twenty
/// cold solves while producing identical (proven optimal) costs.
pub fn run_table3(targets: &[Throughput], suite_config: &SuiteConfig) -> Vec<Table3Row> {
    let instance = illustrating_example();
    // The ILP lane is swept separately (as in `runner`); the suite loop below
    // only runs the heuristics, and the sweep cells are spliced in front.
    let ilp_cells: Option<Vec<Table3Cell>> = suite_config.include_ilp.then(|| {
        let ilp = ilp_solver(suite_config);
        solve_sweep(&ilp, &instance, targets)
            .into_iter()
            .map(|result| {
                let outcome = result.expect("the illustrating example is solvable by the ILP");
                Table3Cell {
                    solver: "ILP".to_string(),
                    split: outcome.solution.split.clone(),
                    cost: outcome.cost(),
                }
            })
            .collect()
    });
    let heuristic_suite = standard_suite(&SuiteConfig {
        include_ilp: false,
        ..*suite_config
    });
    targets
        .iter()
        .enumerate()
        .map(|(t, &target)| {
            let mut cells = Vec::with_capacity(heuristic_suite.len() + 1);
            if let Some(ilp_cells) = &ilp_cells {
                cells.push(ilp_cells[t].clone());
            }
            cells.extend(heuristic_suite.iter().map(|solver| {
                let outcome = solver
                    .solve(&instance, target)
                    .expect("the illustrating example is solvable by every solver");
                Table3Cell {
                    solver: solver.name().to_string(),
                    split: outcome.solution.split.clone(),
                    cost: outcome.cost(),
                }
            }));
            Table3Row { target, cells }
        })
        .collect()
}

/// The default targets of Table III: ρ = 10, 20, …, 200.
pub fn table3_targets() -> Vec<Throughput> {
    (1..=20).map(|k| k * 10).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_span_10_to_200() {
        let targets = table3_targets();
        assert_eq!(targets.len(), 20);
        assert_eq!(targets[0], 10);
        assert_eq!(targets[19], 200);
    }

    #[test]
    fn ilp_column_matches_the_paper_exactly() {
        let rows = run_table3(&table3_targets(), &SuiteConfig::default());
        for (row, &(rho, expected)) in rows.iter().zip(&PAPER_TABLE3_OPTIMAL) {
            assert_eq!(row.target, rho);
            let ilp = &row.cells[0];
            assert_eq!(ilp.solver, "ILP");
            assert_eq!(ilp.cost, expected, "rho = {rho}");
        }
    }

    #[test]
    fn h1_column_matches_the_paper_exactly() {
        let rows = run_table3(&table3_targets(), &SuiteConfig::default());
        for (row, &(rho, expected)) in rows.iter().zip(&PAPER_TABLE3_H1) {
            let h1 = row
                .cells
                .iter()
                .find(|c| c.solver == "H1")
                .expect("H1 is in the suite");
            assert_eq!(h1.cost, expected, "rho = {rho}");
        }
    }

    #[test]
    fn no_heuristic_beats_the_ilp() {
        let rows = run_table3(&table3_targets(), &SuiteConfig::default());
        for row in &rows {
            let ilp_cost = row.cells[0].cost;
            for cell in &row.cells {
                assert!(
                    cell.cost >= ilp_cost,
                    "{} at rho {}",
                    cell.solver,
                    row.target
                );
            }
        }
    }

    #[test]
    fn every_cell_split_covers_the_target() {
        let rows = run_table3(&[30, 90, 160], &SuiteConfig::default());
        for row in &rows {
            for cell in &row.cells {
                assert!(cell.split.covers(row.target));
            }
        }
    }
}
