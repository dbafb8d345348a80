//! The randomized-experiment runner behind Figures 3–8.
//!
//! For a given generator configuration the runner produces `num_configs`
//! random `(application, cloud)` instances (the paper uses one hundred),
//! runs every solver of the suite on every instance for every target
//! throughput, and aggregates three families of metrics:
//!
//! * **normalised cost** (Figures 3, 6, 7): reference cost / solver cost;
//! * **win counts** (Figure 4): how many instances each solver solved best;
//! * **computation time** (Figures 5, 8): mean wall-clock time per solve.
//!
//! The experiments are embarrassingly parallel across `(configuration,
//! target, solver)` triples, so the runner delegates the whole grid to the
//! batch-solve engine ([`rental_solvers::solve_batch_timed`]), which fans the
//! flattened work list out over a dynamic thread pool.

use rental_core::{Instance, Throughput};
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::batch::{solve_batch_timed, solve_sweep_batch_timed, BatchItem};
use rental_solvers::registry::{ilp_solver, standard_suite, standard_suite_names, SuiteConfig};

use crate::stats::{normalised_cost, Aggregate};

/// Full description of one randomized experiment (one figure of the paper).
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Human-readable name ("fig3-small", ...), used in reports.
    pub name: String,
    /// Workload generator parameters.
    pub generator: GeneratorConfig,
    /// Number of random `(application, cloud)` configurations.
    pub num_configs: usize,
    /// Target throughputs ρ to evaluate.
    pub targets: Vec<Throughput>,
    /// Base RNG seed; configuration `i` uses `seed + i`.
    pub seed: u64,
    /// Which solvers to run.
    pub suite: SuiteConfig,
    /// Cap on the number of batch-solve worker threads (`None`: one per
    /// available CPU).
    pub threads: Option<usize>,
}

impl ExperimentSpec {
    /// The target throughputs used throughout §VIII: ρ = 20, 30, …, 200.
    fn paper_targets() -> Vec<Throughput> {
        (2..=20).map(|k| k * 10).collect()
    }

    /// Builds a spec with the paper's targets and a default seed.
    fn new(name: impl Into<String>, generator: GeneratorConfig, num_configs: usize) -> Self {
        ExperimentSpec {
            name: name.into(),
            generator,
            num_configs,
            targets: Self::paper_targets(),
            seed: 0xF16,
            suite: SuiteConfig::default(),
            threads: None,
        }
    }
}

/// Raw measurements of one solver on one instance at one target.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Observation {
    /// Cost of the solution found (u64 cost as f64 for aggregation).
    pub cost: f64,
    /// Wall-clock seconds spent in the solver.
    pub seconds: f64,
    /// Whether the solver proved optimality.
    pub proven_optimal: bool,
}

/// Aggregated results for one (solver, target) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Aggregate of the raw costs.
    pub cost: Aggregate,
    /// Aggregate of the normalised costs (reference / solver).
    pub normalised: Aggregate,
    /// Aggregate of the wall-clock times (seconds).
    pub seconds: Aggregate,
    /// Number of configurations on which this solver achieved the lowest cost
    /// among all solvers (ties count for every solver involved).
    pub wins: usize,
    /// Number of configurations on which the solver proved optimality.
    pub proven_optimal: usize,
}

/// Results of a full experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResults {
    /// Name of the experiment.
    pub name: String,
    /// Solver names, in suite order.
    pub solvers: Vec<String>,
    /// Target throughputs, in evaluation order.
    pub targets: Vec<Throughput>,
    /// `cells[s][t]` is the aggregate of solver `s` at target index `t`.
    pub cells: Vec<Vec<CellResult>>,
    /// Number of configurations actually evaluated.
    pub num_configs: usize,
}

impl ExperimentResults {
    /// The aggregate of a given solver at a given target.
    pub fn cell(&self, solver: &str, target: Throughput) -> Option<&CellResult> {
        let s = self.solvers.iter().position(|name| name == solver)?;
        let t = self.targets.iter().position(|&rho| rho == target)?;
        Some(&self.cells[s][t])
    }

    /// Mean normalised cost of a solver over all targets (a scalar summary of
    /// a Figure 3/6/7 curve).
    pub fn mean_normalised(&self, solver: &str) -> Option<f64> {
        let s = self.solvers.iter().position(|name| name == solver)?;
        let values: Vec<f64> = self.cells[s].iter().map(|c| c.normalised.mean).collect();
        Some(crate::stats::mean(&values))
    }
}

/// Runs an experiment: generates the instances, solves them with every suite
/// member at every target and aggregates the results.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResults {
    let solver_names = standard_suite_names(&spec.suite);
    let num_solvers = solver_names.len();
    let num_targets = spec.targets.len();

    // Instance generation is cheap relative to solving and must consume the
    // per-configuration seeds in a fixed order, so it stays sequential.
    let instances: Vec<Instance> = (0..spec.num_configs)
        .map(|config_index| {
            InstanceGenerator::new(
                spec.generator.clone(),
                spec.seed.wrapping_add(config_index as u64),
            )
            .generate_instance()
        })
        .collect();

    // The heuristics flatten the (configuration × target) grid into one
    // batch; the batch engine parallelises over (item × solver) units. The
    // ILP instead runs one warm-started **sweep per instance** (parallel
    // across instances, sequential over targets within an instance), so the
    // incumbent of each target primes branch & bound for the next one.
    let heuristic_config = SuiteConfig {
        include_ilp: false,
        ..spec.suite
    };
    let heuristic_suite = standard_suite(&heuristic_config);
    let items: Vec<BatchItem<'_>> = instances
        .iter()
        .flat_map(|instance| {
            spec.targets
                .iter()
                .map(move |&target| BatchItem::new(instance, target))
        })
        .collect();
    let batch = solve_batch_timed(&heuristic_suite, &items, spec.threads);
    let ilp_rows = spec.suite.include_ilp.then(|| {
        let ilp = ilp_solver(&spec.suite);
        let instance_refs: Vec<&Instance> = instances.iter().collect();
        solve_sweep_batch_timed(&ilp, &instance_refs, &spec.targets, spec.threads)
    });
    let solver_offset = usize::from(spec.suite.include_ilp);

    // Regroup into the observations[config][solver][target] layout the
    // aggregation expects (suite order: ILP first when included). Failed
    // solves keep their measured wall time (an ILP that burns its whole
    // budget without an incumbent must not count as instantaneous in the
    // Figure 5/8 timing curves).
    let observe = |result: &(
        Result<rental_solvers::SolverOutcome, rental_solvers::SolveError>,
        std::time::Duration,
    )| match result {
        (Ok(outcome), _) => Observation {
            cost: outcome.cost() as f64,
            seconds: outcome.elapsed.as_secs_f64(),
            proven_optimal: outcome.proven_optimal,
        },
        (Err(_), elapsed) => Observation {
            cost: f64::INFINITY,
            seconds: elapsed.as_secs_f64(),
            proven_optimal: false,
        },
    };
    let observations: Vec<Option<Vec<Vec<Observation>>>> = (0..spec.num_configs)
        .map(|config_index| {
            Some(
                (0..num_solvers)
                    .map(|s| {
                        (0..num_targets)
                            .map(|t| {
                                if s < solver_offset {
                                    let rows = ilp_rows.as_ref().expect("ILP lane is enabled");
                                    observe(&rows[config_index][t])
                                } else {
                                    let row = &batch[config_index * num_targets + t];
                                    observe(&row[s - solver_offset])
                                }
                            })
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect();

    aggregate(
        &spec.name,
        solver_names,
        &spec.targets,
        num_solvers,
        num_targets,
        observations,
    )
}

fn aggregate(
    name: &str,
    solvers: Vec<String>,
    targets: &[Throughput],
    num_solvers: usize,
    num_targets: usize,
    observations: Vec<Option<Vec<Vec<Observation>>>>,
) -> ExperimentResults {
    let completed: Vec<Vec<Vec<Observation>>> = observations.into_iter().flatten().collect();
    let num_configs = completed.len();

    let mut cells = Vec::with_capacity(num_solvers);
    for s in 0..num_solvers {
        let mut row = Vec::with_capacity(num_targets);
        for t in 0..num_targets {
            let mut costs = Vec::with_capacity(num_configs);
            let mut normalised = Vec::with_capacity(num_configs);
            let mut seconds = Vec::with_capacity(num_configs);
            let mut wins = 0usize;
            let mut proven = 0usize;
            for config in &completed {
                let obs = config[s][t];
                // The reference for normalisation and wins is the best cost
                // achieved by any solver on this configuration/target.
                let best = (0..num_solvers)
                    .map(|other| config[other][t].cost)
                    .fold(f64::INFINITY, f64::min);
                costs.push(obs.cost);
                normalised.push(normalised_cost(best, obs.cost));
                seconds.push(obs.seconds);
                if obs.cost.is_finite() && obs.cost <= best + 1e-9 {
                    wins += 1;
                }
                if obs.proven_optimal {
                    proven += 1;
                }
            }
            row.push(CellResult {
                cost: Aggregate::from_values(&costs),
                normalised: Aggregate::from_values(&normalised),
                seconds: Aggregate::from_values(&seconds),
                wins,
                proven_optimal: proven,
            });
        }
        cells.push(row);
    }

    ExperimentResults {
        name: name.to_string(),
        solvers,
        targets: targets.to_vec(),
        cells,
        num_configs,
    }
}

/// The experiment specifications matching the paper's figures.
pub mod presets {
    use super::*;

    /// Figures 3, 4 and 5: small application graphs (§VIII-C). The ILP gets a
    /// generous safety time limit per solve; on these instances it normally
    /// proves optimality well within it (as Gurobi does in the paper).
    pub fn small_graphs(num_configs: usize, seed: u64) -> ExperimentSpec {
        let mut spec =
            ExperimentSpec::new("small-graphs", GeneratorConfig::small_graphs(), num_configs);
        spec.seed = seed;
        spec.suite.ilp_time_limit = Some(30.0);
        spec
    }

    /// Figure 6: medium application graphs (§VIII-D).
    pub fn medium_graphs(num_configs: usize, seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "medium-graphs",
            GeneratorConfig::medium_graphs(),
            num_configs,
        );
        spec.seed = seed;
        spec.suite.ilp_time_limit = Some(30.0);
        spec
    }

    /// Figure 7: large application graphs (§VIII-E).
    pub fn large_graphs(num_configs: usize, seed: u64) -> ExperimentSpec {
        let mut spec =
            ExperimentSpec::new("large-graphs", GeneratorConfig::large_graphs(), num_configs);
        spec.seed = seed;
        spec.suite.ilp_time_limit = Some(60.0);
        spec
    }

    /// Figure 8: very large graphs with an ILP time limit (§VIII-E). The
    /// paper uses a 100 s limit; the default here is configurable because the
    /// full-scale setting is expensive.
    pub fn huge_graphs(num_configs: usize, seed: u64, ilp_time_limit: f64) -> ExperimentSpec {
        let mut spec =
            ExperimentSpec::new("huge-graphs", GeneratorConfig::huge_graphs(), num_configs);
        spec.seed = seed;
        spec.suite.ilp_time_limit = Some(ilp_time_limit);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny".to_string(),
            generator: GeneratorConfig::tiny(),
            num_configs: 4,
            targets: vec![20, 50],
            seed: 7,
            suite: SuiteConfig::with_seed(3),
            threads: Some(2),
        }
    }

    #[test]
    fn tiny_experiment_produces_full_matrices() {
        let results = run_experiment(&tiny_spec());
        assert_eq!(results.num_configs, 4);
        assert_eq!(results.solvers.len(), 6);
        assert_eq!(results.targets, vec![20, 50]);
        assert_eq!(results.cells.len(), 6);
        assert_eq!(results.cells[0].len(), 2);
        for row in &results.cells {
            for cell in row {
                assert_eq!(cell.cost.count, 4);
                assert!(cell.normalised.mean > 0.0);
                assert!(cell.normalised.mean <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn ilp_wins_every_configuration_and_is_normalised_to_one() {
        let results = run_experiment(&tiny_spec());
        let ilp_index = results.solvers.iter().position(|s| s == "ILP").unwrap();
        for cell in &results.cells[ilp_index] {
            assert_eq!(cell.wins, results.num_configs);
            assert!((cell.normalised.mean - 1.0).abs() < 1e-12);
            assert_eq!(cell.proven_optimal, results.num_configs);
        }
    }

    #[test]
    fn heuristics_are_close_to_but_not_better_than_the_ilp() {
        let results = run_experiment(&tiny_spec());
        for (s, solver) in results.solvers.iter().enumerate() {
            if solver == "ILP" {
                continue;
            }
            for cell in &results.cells[s] {
                assert!(cell.normalised.mean <= 1.0 + 1e-12, "{solver}");
                assert!(cell.normalised.mean >= 0.5, "{solver} suspiciously bad");
            }
        }
    }

    #[test]
    fn results_are_reproducible_for_a_fixed_seed() {
        let a = run_experiment(&tiny_spec());
        let b = run_experiment(&tiny_spec());
        // Timing jitters, but costs / wins must be identical.
        for s in 0..a.solvers.len() {
            for t in 0..a.targets.len() {
                assert_eq!(a.cells[s][t].cost, b.cells[s][t].cost);
                assert_eq!(a.cells[s][t].wins, b.cells[s][t].wins);
            }
        }
    }

    #[test]
    fn cell_lookup_by_name_and_target() {
        let results = run_experiment(&tiny_spec());
        assert!(results.cell("H1", 20).is_some());
        assert!(results.cell("H1", 999).is_none());
        assert!(results.cell("NotASolver", 20).is_none());
        assert!(results.mean_normalised("H32Jump").unwrap() > 0.0);
    }

    #[test]
    fn paper_targets_run_from_20_to_200() {
        let targets = ExperimentSpec::paper_targets();
        assert_eq!(targets.first(), Some(&20));
        assert_eq!(targets.last(), Some(&200));
        assert_eq!(targets.len(), 19);
    }

    #[test]
    fn presets_carry_the_right_generator_configs() {
        let small = presets::small_graphs(10, 1);
        assert_eq!(small.generator, GeneratorConfig::small_graphs());
        let medium = presets::medium_graphs(10, 1);
        assert_eq!(medium.generator, GeneratorConfig::medium_graphs());
        let large = presets::large_graphs(10, 1);
        assert_eq!(large.generator, GeneratorConfig::large_graphs());
        let huge = presets::huge_graphs(5, 1, 10.0);
        assert_eq!(huge.generator, GeneratorConfig::huge_graphs());
        assert_eq!(huge.suite.ilp_time_limit, Some(10.0));
    }
}
