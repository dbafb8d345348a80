//! Heuristic ablation (extension): compare the paper's suite against the
//! extension heuristics (simulated annealing, tabu search, greedy
//! construction, LP rounding) on randomly generated instances, and print the
//! δ-step and escape-mechanism ablation tables of
//! `crates/experiments/src/ablation.rs`.
//!
//! ```text
//! cargo run --release --example heuristic_ablation
//! ```

use multi_recipe_cloud::prelude::*;
use rental_experiments::{
    ablation_rows, delta_sweep, escape_mechanisms, rows_markdown, AblationSpec,
};
use rental_solvers::registry::extended_suite;

fn main() {
    // 1. Extended suite on one generated small-graph instance.
    let mut generator = InstanceGenerator::new(GeneratorConfig::small_graphs(), 2016);
    let instance = generator.generate_instance();
    println!(
        "Generated instance: {} recipes, {} machine types",
        instance.num_recipes(),
        instance.num_types()
    );

    let suite = extended_suite(&SuiteConfig::with_seed(2016));
    println!(
        "\n{:>10} | {:>8} | {:>10} | split",
        "solver", "cost", "time"
    );
    println!("{}", "-".repeat(64));
    for target in [60u64, 120, 180] {
        println!("rho = {target}");
        for solver in &suite {
            match solver.solve(&instance, target) {
                Ok(outcome) => println!(
                    "{:>10} | {:>8} | {:>8.2}ms | {}",
                    solver.name(),
                    outcome.cost(),
                    outcome.elapsed.as_secs_f64() * 1e3,
                    outcome.solution.split
                ),
                Err(err) => println!("{:>10} | failed: {err}", solver.name()),
            }
        }
        println!("{}", "-".repeat(64));
    }

    // 2. The δ-step ablation: how sensitive are H2/H32/H32Jump to the step?
    let spec = AblationSpec {
        num_configs: 5,
        targets: vec![50, 100, 150, 200],
        seed: 2016,
        ..AblationSpec::default()
    };
    let delta = delta_sweep(&spec, &[1, 5, 10, 20]);
    println!("\n{}", rows_markdown(&ablation_rows(&delta)));

    // 3. The escape-mechanism ablation: random jumps vs annealing vs tabu.
    let escape = escape_mechanisms(&spec);
    println!("{}", rows_markdown(&ablation_rows(&escape)));
    if let Some(best) = escape.best_row() {
        println!(
            "Best escape mechanism on this sweep: {} (mean normalised cost {:.4})",
            best.solver, best.mean_normalised
        );
    }
}
