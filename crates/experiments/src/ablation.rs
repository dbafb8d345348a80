//! Ablation studies on the design choices called out in DESIGN.md.
//!
//! Three questions the paper leaves open are answered empirically here:
//!
//! 1. **δ step** ([`delta_sweep`]) — the paper's local-search heuristics move
//!    a fraction `δ` of throughput per exchange but never fix `δ`. Our
//!    implementation defaults to the GCD of the machine throughputs; the
//!    sweep measures how solution quality and run time react to coarser and
//!    finer grids.
//! 2. **Escape mechanism** ([`escape_mechanisms`]) — H32Jump escapes local
//!    minima with random jumps. The ablation compares no escape (H32), random
//!    jumps (H32Jump), a temperature schedule (simulated annealing) and tabu
//!    memory on the same instances.
//! 3. **Recipe similarity** ([`mutation_sweep`]) — §VIII-A generates the
//!    alternative recipes by mutating a fraction of the initial recipe's task
//!    types. The sweep varies that fraction and measures how much a
//!    multi-recipe split gains over the single best recipe (H1), i.e. when
//!    the paper's problem is actually interesting.
//!
//! Every study returns an [`AblationResults`] table; [`ablation_rows`] turns
//! it into rows for the renderers of [`crate::report`].

use std::time::Instant;

use rental_core::{Instance, Throughput};
use rental_obs::json::JsonRow;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::heuristics::{
    RandomWalkSolver, SimulatedAnnealingSolver, SteepestGradientJumpSolver, SteepestGradientSolver,
    TabuSearchSolver,
};
use rental_solvers::MinCostSolver;

use crate::stats::{mean, normalised_cost};

/// Parameters shared by the ablation studies.
#[derive(Debug, Clone)]
pub struct AblationSpec {
    /// Workload generator parameters (the sweeps override individual fields).
    pub generator: GeneratorConfig,
    /// Number of random `(application, cloud)` configurations per setting.
    pub num_configs: usize,
    /// Target throughputs ρ to evaluate.
    pub targets: Vec<Throughput>,
    /// Base RNG seed; configuration `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for AblationSpec {
    fn default() -> Self {
        AblationSpec {
            generator: GeneratorConfig::small_graphs(),
            num_configs: 10,
            targets: vec![50, 100, 150, 200],
            seed: 0xAB1,
        }
    }
}

impl AblationSpec {
    /// A spec small enough for unit tests and CI runs.
    pub fn tiny() -> Self {
        AblationSpec {
            generator: GeneratorConfig::tiny(),
            num_configs: 3,
            targets: vec![40, 80],
            seed: 11,
        }
    }

    fn generate_instances(&self, generator: &GeneratorConfig) -> Vec<Instance> {
        (0..self.num_configs)
            .map(|i| {
                InstanceGenerator::new(generator.clone(), self.seed.wrapping_add(i as u64))
                    .generate_instance()
            })
            .collect()
    }
}

/// One row of an ablation table: one solver under one parameter setting.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The swept parameter value ("delta=10", "mutation=30%", ...).
    pub parameter: String,
    /// Solver name.
    pub solver: String,
    /// Mean normalised cost (best observed cost / solver cost, ≤ 1).
    pub mean_normalised: f64,
    /// Mean wall-clock seconds per solve.
    pub mean_seconds: f64,
}

/// The full table produced by one ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResults {
    /// Name of the study ("delta-sweep", ...).
    pub name: String,
    /// All rows, grouped by parameter value then solver.
    pub rows: Vec<AblationRow>,
}

impl AblationResults {
    /// The rows for one parameter value, in solver order.
    pub fn rows_for(&self, parameter: &str) -> Vec<&AblationRow> {
        self.rows
            .iter()
            .filter(|row| row.parameter == parameter)
            .collect()
    }

    /// The distinct parameter values, in first-appearance order.
    pub fn parameters(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for row in &self.rows {
            if !seen.contains(&row.parameter) {
                seen.push(row.parameter.clone());
            }
        }
        seen
    }

    /// The row with the best (highest) mean normalised cost.
    pub fn best_row(&self) -> Option<&AblationRow> {
        self.rows.iter().max_by(|a, b| {
            a.mean_normalised
                .partial_cmp(&b.mean_normalised)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// An ablation study's rows: one `ablation` row per (parameter, solver).
pub fn ablation_rows(results: &AblationResults) -> Vec<JsonRow> {
    results
        .rows
        .iter()
        .map(|row| {
            JsonRow::new()
                .str("record", "ablation")
                .str("study", &results.name)
                .str("parameter", &row.parameter)
                .str("solver", &row.solver)
                .f64("mean_normalised", row.mean_normalised)
                .f64("mean_seconds", row.mean_seconds)
        })
        .collect()
}

/// Raw per-(instance, target) cost/time observations for a labelled solver.
struct SweepObservation {
    parameter: String,
    solver: String,
    costs: Vec<f64>,
    seconds: Vec<f64>,
}

/// Runs every labelled solver on every (instance, target) pair and builds the
/// normalised table, using the best cost observed on each pair (across all
/// parameters and solvers) as the reference.
fn run_sweep(
    name: &str,
    instances_per_parameter: &[(String, Vec<Instance>)],
    solvers_for: impl Fn(&str) -> Vec<(String, Box<dyn MinCostSolver>)>,
    targets: &[Throughput],
) -> AblationResults {
    let mut observations: Vec<SweepObservation> = Vec::new();
    // best[parameter-set index][instance][target]
    let mut best: Vec<Vec<Vec<f64>>> = instances_per_parameter
        .iter()
        .map(|(_, instances)| vec![vec![f64::INFINITY; targets.len()]; instances.len()])
        .collect();

    for (p, (parameter, instances)) in instances_per_parameter.iter().enumerate() {
        for (solver_label, solver) in solvers_for(parameter) {
            let mut costs = Vec::with_capacity(instances.len() * targets.len());
            let mut seconds = Vec::with_capacity(instances.len() * targets.len());
            // Costs are pushed in (instance, target) row-major order for every
            // solver, so the normalisation below can recover the indices.
            for (i, instance) in instances.iter().enumerate() {
                for (t, &target) in targets.iter().enumerate() {
                    let start = Instant::now();
                    let cost = solver
                        .solve(instance, target)
                        .map(|outcome| outcome.cost() as f64)
                        .unwrap_or(f64::INFINITY);
                    seconds.push(start.elapsed().as_secs_f64());
                    costs.push(cost);
                    if cost < best[p][i][t] {
                        best[p][i][t] = cost;
                    }
                }
            }
            observations.push(SweepObservation {
                parameter: parameter.clone(),
                solver: solver_label,
                costs,
                seconds,
            });
        }
    }

    let mut rows = Vec::with_capacity(observations.len());
    for obs in observations {
        let p = instances_per_parameter
            .iter()
            .position(|(parameter, _)| *parameter == obs.parameter)
            .expect("observation parameter exists");
        let num_targets = targets.len();
        let normalised: Vec<f64> = obs
            .costs
            .iter()
            .enumerate()
            .map(|(k, &cost)| {
                let i = k / num_targets;
                let t = k % num_targets;
                normalised_cost(best[p][i][t], cost)
            })
            .collect();
        rows.push(AblationRow {
            parameter: obs.parameter,
            solver: obs.solver,
            mean_normalised: mean(&normalised),
            mean_seconds: mean(&obs.seconds),
        });
    }

    AblationResults {
        name: name.to_string(),
        rows,
    }
}

/// δ-step ablation: H2, H32 and H32Jump with explicit δ values (plus the
/// GCD default, labelled "gcd").
pub fn delta_sweep(spec: &AblationSpec, deltas: &[u64]) -> AblationResults {
    let instances = spec.generate_instances(&spec.generator);
    let mut parameter_sets: Vec<(String, Vec<Instance>)> =
        vec![("gcd".to_string(), instances.clone())];
    for &delta in deltas {
        parameter_sets.push((format!("delta={delta}"), instances.clone()));
    }

    let seed = spec.seed;
    run_sweep(
        "delta-sweep",
        &parameter_sets,
        |parameter| {
            let delta = parameter
                .strip_prefix("delta=")
                .and_then(|v| v.parse::<u64>().ok());
            vec![
                (
                    "H2".to_string(),
                    Box::new(RandomWalkSolver {
                        delta,
                        ..RandomWalkSolver::with_seed(seed ^ 0x2)
                    }) as Box<dyn MinCostSolver>,
                ),
                (
                    "H32".to_string(),
                    Box::new(SteepestGradientSolver {
                        delta,
                        ..SteepestGradientSolver::default()
                    }),
                ),
                (
                    "H32Jump".to_string(),
                    Box::new(SteepestGradientJumpSolver {
                        descent: SteepestGradientSolver {
                            delta,
                            ..SteepestGradientSolver::default()
                        },
                        ..SteepestGradientJumpSolver::with_seed(seed ^ 0x32)
                    }),
                ),
            ]
        },
        &spec.targets,
    )
}

/// Escape-mechanism ablation: plain steepest descent (no escape), random
/// jumps (H32Jump), simulated annealing and tabu search on the same
/// instances.
pub fn escape_mechanisms(spec: &AblationSpec) -> AblationResults {
    let instances = spec.generate_instances(&spec.generator);
    let parameter_sets = vec![("escape".to_string(), instances)];
    let seed = spec.seed;
    run_sweep(
        "escape-mechanisms",
        &parameter_sets,
        |_| {
            vec![
                (
                    "none (H32)".to_string(),
                    Box::new(SteepestGradientSolver::default()) as Box<dyn MinCostSolver>,
                ),
                (
                    "random jumps (H32Jump)".to_string(),
                    Box::new(SteepestGradientJumpSolver::with_seed(seed ^ 0x32)),
                ),
                (
                    "annealing (SA)".to_string(),
                    Box::new(SimulatedAnnealingSolver::with_seed(seed ^ 0x5A)),
                ),
                (
                    "tabu memory".to_string(),
                    Box::new(TabuSearchSolver::default()),
                ),
            ]
        },
        &spec.targets,
    )
}

/// Recipe-similarity ablation: vary the percentage of mutated task types
/// between the initial recipe and its alternatives and compare the single
/// best recipe (H1 — here the `delta = None` steepest descent restricted to
/// zero steps is not needed, H1 is represented by `SteepestGradientSolver`
/// with `max_steps = 0`) against the best local-search heuristic (H32Jump).
pub fn mutation_sweep(spec: &AblationSpec, percents: &[u8]) -> AblationResults {
    let mut parameter_sets = Vec::with_capacity(percents.len());
    for &percent in percents {
        let mut generator = spec.generator.clone();
        generator.mutation_percent = percent;
        parameter_sets.push((
            format!("mutation={percent}%"),
            spec.generate_instances(&generator),
        ));
    }
    let seed = spec.seed;
    run_sweep(
        "mutation-sweep",
        &parameter_sets,
        |_| {
            vec![
                (
                    "H1".to_string(),
                    // A steepest descent allowed zero steps returns exactly the
                    // H1 starting split.
                    Box::new(SteepestGradientSolver {
                        max_steps: 0,
                        ..SteepestGradientSolver::default()
                    }) as Box<dyn MinCostSolver>,
                ),
                (
                    "H32Jump".to_string(),
                    Box::new(SteepestGradientJumpSolver::with_seed(seed ^ 0x32)),
                ),
            ]
        },
        &spec.targets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_markdown};

    #[test]
    fn delta_sweep_produces_one_row_per_solver_and_parameter() {
        let results = delta_sweep(&AblationSpec::tiny(), &[1, 5]);
        // 3 parameter values (gcd, 1, 5) × 3 solvers.
        assert_eq!(results.rows.len(), 9);
        assert_eq!(results.parameters().len(), 3);
        for row in &results.rows {
            assert!(row.mean_normalised > 0.0 && row.mean_normalised <= 1.0 + 1e-12);
            assert!(row.mean_seconds >= 0.0);
        }
    }

    #[test]
    fn escape_mechanism_study_includes_all_four_mechanisms() {
        let results = escape_mechanisms(&AblationSpec::tiny());
        assert_eq!(results.rows.len(), 4);
        let solvers: Vec<&str> = results.rows.iter().map(|r| r.solver.as_str()).collect();
        assert!(solvers.contains(&"none (H32)"));
        assert!(solvers.contains(&"random jumps (H32Jump)"));
        assert!(solvers.contains(&"annealing (SA)"));
        assert!(solvers.contains(&"tabu memory"));
        // Every escape mechanism is at least as good as no escape on average
        // within this sweep's shared reference.
        let none = results
            .rows
            .iter()
            .find(|r| r.solver == "none (H32)")
            .unwrap()
            .mean_normalised;
        for row in &results.rows {
            if row.solver != "none (H32)" {
                assert!(row.mean_normalised >= none - 0.05, "{}", row.solver);
            }
        }
    }

    #[test]
    fn mutation_sweep_shows_h32jump_at_least_matching_h1() {
        let results = mutation_sweep(&AblationSpec::tiny(), &[10, 50]);
        assert_eq!(results.rows.len(), 4);
        for percent in ["mutation=10%", "mutation=50%"] {
            let rows = results.rows_for(percent);
            let h1 = rows.iter().find(|r| r.solver == "H1").unwrap();
            let jump = rows.iter().find(|r| r.solver == "H32Jump").unwrap();
            assert!(
                jump.mean_normalised >= h1.mean_normalised - 1e-9,
                "{percent}"
            );
        }
    }

    #[test]
    fn renderings_contain_every_row() {
        let results = escape_mechanisms(&AblationSpec::tiny());
        let rows = ablation_rows(&results);
        let markdown = rows_markdown(&rows);
        let csv = rows_csv(&rows);
        for row in &results.rows {
            assert!(markdown.contains(&row.solver));
            assert!(csv.contains(&row.solver));
        }
        assert!(markdown.starts_with("| record | study | parameter | solver |"));
        assert!(csv.starts_with("record,study,parameter,solver,"));
    }

    #[test]
    fn best_row_has_the_highest_normalisation() {
        let results = delta_sweep(&AblationSpec::tiny(), &[1]);
        let best = results.best_row().unwrap();
        for row in &results.rows {
            assert!(best.mean_normalised >= row.mean_normalised);
        }
    }

    #[test]
    fn ablation_results_are_reproducible() {
        let a = escape_mechanisms(&AblationSpec::tiny());
        let b = escape_mechanisms(&AblationSpec::tiny());
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.parameter, rb.parameter);
            assert_eq!(ra.solver, rb.solver);
            assert!((ra.mean_normalised - rb.mean_normalised).abs() < 1e-12);
        }
    }
}
