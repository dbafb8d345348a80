//! `repro` — regenerate the paper's tables and figures from the command line.
//!
//! ```text
//! repro table3                         # Table III (illustrating example)
//! repro fig3 [--configs N] [--seed S]  # normalised cost, small graphs
//! repro fig4                           # win counts, small graphs
//! repro fig5                           # computation time, small graphs
//! repro fig6                           # normalised cost, medium graphs
//! repro fig7                           # normalised cost, large graphs
//! repro fig8 [--ilp-time-limit SECS]   # computation time, huge graphs
//! repro all                            # everything above
//! ```
//!
//! ```text
//! repro summary [--configs N]          # headline comparison (paper §VIII-F)
//! repro fleet [--tenants N]            # multi-tenant streaming re-optimization lane
//! repro fleet-failure [--tenants N]    # capacity/outage lane: MTBF sweep vs static headroom
//! repro fleet-deadline [--tenants N]   # anytime lane: per-epoch node-budget sweep vs unlimited
//! repro fleet-recovery [--tenants N]   # crash-safety lane: checkpoint/WAL overhead + kill-and-resume
//! repro fleet-obs [--tenants N]        # observability lane: telemetry-on chaotic run, stage/effort/events
//! repro fleet-scale [--tenants N]      # scaling lane: sharded-vs-sequential tenant-epochs/sec sweep
//! repro lp-large                       # dense-LU vs sparse-LU scaling table (LP substrate)
//! repro ablation-delta                 # δ-step sweep (extension, DESIGN.md)
//! repro ablation-escape                # escape-mechanism comparison (extension)
//! repro ablation-mutation              # recipe-similarity sweep (extension)
//! ```
//!
//! Options:
//! * `--configs N`         number of random configurations (default 10; the paper uses 100)
//! * `--seed S`            base RNG seed (default 2016)
//! * `--ilp-time-limit S`  ILP wall-clock limit in seconds for fig8 (default 5, paper uses 100)
//! * `--csv`               emit CSV instead of Markdown
//! * `--json`              emit JSON lines instead of Markdown (wins over --csv)
//! * `--output-dir DIR`    also write every emitted table/series into DIR
//! * `--threads N`         worker threads (default: all cores)
//! * `--serve [ADDR]`      (fleet-obs) bind the live scrape exporter on ADDR
//!   (default `127.0.0.1:9464`) before the run: `/metrics`, `/health` and
//!   `/events` are curl-able while the chaotic fleet serves, and the process
//!   keeps serving the final state after the run until interrupted

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use rental_experiments::{
    delta_sweep, escape_mechanisms, figure_csv, figure_json, figure_markdown, fleet_csv,
    fleet_deadline_csv, fleet_deadline_json, fleet_deadline_markdown, fleet_failure_csv,
    fleet_failure_json, fleet_failure_markdown, fleet_json, fleet_markdown, fleet_obs_json,
    fleet_obs_markdown, fleet_recovery_csv, fleet_recovery_json, fleet_recovery_markdown,
    fleet_scale_csv, fleet_scale_json, fleet_scale_markdown, lp_large_markdown, lp_large_rows_json,
    mutation_sweep, presets, run_experiment, run_fleet_deadline_experiment, run_fleet_experiment,
    run_fleet_failure_experiment, run_fleet_obs_experiment, run_fleet_obs_experiment_with,
    run_fleet_recovery_experiment, run_fleet_scale_experiment, run_lp_large, run_table3,
    summary_json, table3_csv, table3_json, table3_markdown, table3_targets, write_artifact,
    AblationResults, AblationSpec, ExperimentResults, FleetDeadlineSpec, FleetExperimentSpec,
    FleetFailureSpec, FleetObsSpec, FleetRecoverySpec, FleetScaleSpec, LpLargeSpec, Metric,
};
use rental_solvers::SuiteConfig;

#[derive(Debug, Clone)]
struct Options {
    command: String,
    configs: usize,
    seed: u64,
    ilp_time_limit: f64,
    csv: bool,
    json: bool,
    threads: Option<usize>,
    output_dir: Option<PathBuf>,
    tenants: usize,
    serve: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: "all".to_string(),
            configs: 10,
            seed: 2016,
            ilp_time_limit: 5.0,
            csv: false,
            json: false,
            threads: None,
            output_dir: None,
            tenants: 16,
            serve: None,
        }
    }
}

/// Default exporter address of `--serve` without an explicit one.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:9464";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter().peekable();
    let mut command_seen = false;
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--configs" => {
                let value = iter.next().ok_or("--configs needs a value")?;
                options.configs = value.parse().map_err(|_| "invalid --configs value")?;
            }
            "--seed" => {
                let value = iter.next().ok_or("--seed needs a value")?;
                options.seed = value.parse().map_err(|_| "invalid --seed value")?;
            }
            "--ilp-time-limit" => {
                let value = iter.next().ok_or("--ilp-time-limit needs a value")?;
                options.ilp_time_limit = value
                    .parse()
                    .map_err(|_| "invalid --ilp-time-limit value")?;
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads needs a value")?;
                options.threads = Some(value.parse().map_err(|_| "invalid --threads value")?);
            }
            "--tenants" => {
                let value = iter.next().ok_or("--tenants needs a value")?;
                options.tenants = value.parse().map_err(|_| "invalid --tenants value")?;
            }
            "--output-dir" => {
                let value = iter.next().ok_or("--output-dir needs a value")?;
                options.output_dir = Some(PathBuf::from(value));
            }
            "--serve" => {
                // The address operand is optional; a bare `--serve` binds
                // the default. A `host:port` shape disambiguates the
                // operand from a following command or flag.
                let addr = match iter.peek() {
                    Some(next) if next.contains(':') && !next.starts_with("--") => {
                        iter.next().unwrap().clone()
                    }
                    _ => DEFAULT_SERVE_ADDR.to_string(),
                };
                options.serve = Some(addr);
            }
            "--csv" => options.csv = true,
            "--json" => options.json = true,
            "--help" | "-h" => {
                options.command = "help".to_string();
                command_seen = true;
            }
            other if !other.starts_with("--") && !command_seen => {
                options.command = other.to_string();
                command_seen = true;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

fn print_usage() {
    println!(
        "usage: repro <table3|fig3|fig4|fig5|fig6|fig7|fig8|summary|fleet|fleet-failure|\
         fleet-deadline|fleet-recovery|fleet-obs|fleet-scale|lp-large|all|\
         ablation-delta|ablation-escape|ablation-mutation> \
         [--configs N] [--seed S] [--ilp-time-limit SECS] [--csv] [--json] [--output-dir DIR] \
         [--threads N] [--tenants N] [--serve [ADDR]]"
    );
}

fn persist(options: &Options, file_name: &str, content: &str) {
    if let Some(dir) = &options.output_dir {
        match write_artifact(dir, file_name, content) {
            Ok(path) => eprintln!("[repro] wrote {}", path.display()),
            Err(err) => eprintln!("[repro] could not write {file_name}: {err}"),
        }
    }
}

fn emit_table3(options: &Options) {
    let rows = run_table3(&table3_targets(), &SuiteConfig::with_seed(options.seed));
    let csv = table3_csv(&rows);
    let markdown = table3_markdown(&rows);
    let json = table3_json(&rows);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!("## Table III — illustrating example (ILP vs heuristics)");
        print!("{markdown}");
    }
    persist(options, "table3.csv", &csv);
    persist(options, "table3.md", &markdown);
    persist(options, "table3.jsonl", &json);
}

fn run_preset(options: &Options, which: &str) -> ExperimentResults {
    let mut spec = match which {
        "small" => presets::small_graphs(options.configs, options.seed),
        "medium" => presets::medium_graphs(options.configs, options.seed),
        "large" => presets::large_graphs(options.configs, options.seed),
        "huge" => presets::huge_graphs(options.configs, options.seed, options.ilp_time_limit),
        other => unreachable!("unknown preset {other}"),
    };
    spec.threads = options.threads;
    eprintln!(
        "[repro] running {} with {} configurations (seed {}) ...",
        spec.name, spec.num_configs, spec.seed
    );
    run_experiment(&spec)
}

fn emit_figure(options: &Options, results: &ExperimentResults, metric: Metric, title: &str) {
    let csv = figure_csv(results, metric);
    let markdown = figure_markdown(results, metric);
    let json = figure_json(results, metric);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!("## {title}");
        print!("{markdown}");
    }
    // "Figure 3 — normalised cost, small graphs" -> "figure_3"
    let stem: String = title
        .split('—')
        .next()
        .unwrap_or(title)
        .trim()
        .to_lowercase()
        .replace(' ', "_");
    persist(options, &format!("{stem}_{}.csv", metric.label()), &csv);
    persist(options, &format!("{stem}_{}.md", metric.label()), &markdown);
    persist(options, &format!("{stem}_{}.jsonl", metric.label()), &json);
}

fn emit_summary(options: &Options, results: &ExperimentResults) {
    // The qualitative claims of §VIII-F, computed from the measured data.
    let mut lines = String::new();
    for solver in &results.solvers {
        let normalised = results.mean_normalised(solver).unwrap_or(0.0);
        lines.push_str(&format!(
            "  {:<8} mean normalised cost {:.4}  (within {:.1}% of the best known)\n",
            solver,
            normalised,
            100.0 * (1.0 - normalised)
        ));
    }
    let json = summary_json(results);
    persist(options, "summary.txt", &lines);
    persist(options, "summary.jsonl", &json);
    if options.json {
        print!("{json}");
        return;
    }
    println!(
        "## Summary (paper §VIII-F) — {} configurations",
        results.num_configs
    );
    print!("{lines}");
    let h1 = results.mean_normalised("H1").unwrap_or(0.0);
    let best_heuristic = results
        .solvers
        .iter()
        .filter(|s| *s != "ILP")
        .filter_map(|s| results.mean_normalised(s))
        .fold(0.0f64, f64::max);
    println!(
        "  improved heuristics gain {:.1}% over the naive H1 baseline on average",
        100.0 * (best_heuristic - h1)
    );
}

fn emit_fleet(options: &Options) -> Result<(), String> {
    let spec = FleetExperimentSpec {
        num_tenants: options.tenants,
        seed: options.seed,
        threads: options.threads,
    };
    eprintln!(
        "[repro] running the {}-tenant fleet scenario (seed {}) ...",
        spec.num_tenants, spec.seed
    );
    let table = run_fleet_experiment(&spec).map_err(|err| err.to_string())?;
    let csv = fleet_csv(&table);
    let markdown = fleet_markdown(&table);
    let json = fleet_json(&table);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!(
            "## Fleet — multi-tenant streaming re-optimization ({})",
            table.scenario
        );
        print!("{markdown}");
    }
    persist(options, "fleet.csv", &csv);
    persist(options, "fleet.md", &markdown);
    persist(options, "fleet.jsonl", &json);
    Ok(())
}

fn emit_fleet_failure(options: &Options) -> Result<(), String> {
    let spec = FleetFailureSpec {
        num_tenants: options.tenants.min(8),
        seed: options.seed,
        threads: options.threads,
        ..FleetFailureSpec::default()
    };
    eprintln!(
        "[repro] running the {}-tenant failure-coupled fleet sweep over {:?} h MTBF (seed {}) ...",
        spec.num_tenants, spec.mtbfs, spec.seed
    );
    let table = run_fleet_failure_experiment(&spec).map_err(|err| err.to_string())?;
    let csv = fleet_failure_csv(&table);
    let markdown = fleet_failure_markdown(&table);
    let json = fleet_failure_json(&table);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!(
            "## Fleet failure — capacity pool + outage coupling ({})",
            table.scenario
        );
        print!("{markdown}");
    }
    persist(options, "fleet_failure.csv", &csv);
    persist(options, "fleet_failure.md", &markdown);
    persist(options, "fleet_failure.jsonl", &json);
    Ok(())
}

fn emit_fleet_deadline(options: &Options) -> Result<(), String> {
    let spec = FleetDeadlineSpec {
        num_tenants: options.tenants.min(8),
        seed: options.seed,
        threads: options.threads,
        ..FleetDeadlineSpec::default()
    };
    eprintln!(
        "[repro] running the {}-tenant epoch-budget sweep over {:?} nodes (seed {}) ...",
        spec.num_tenants, spec.node_budgets, spec.seed
    );
    let table = run_fleet_deadline_experiment(&spec).map_err(|err| err.to_string())?;
    let csv = fleet_deadline_csv(&table);
    let markdown = fleet_deadline_markdown(&table);
    let json = fleet_deadline_json(&table);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!(
            "## Fleet deadline — anytime solving under per-epoch budgets ({})",
            table.scenario
        );
        print!("{markdown}");
    }
    persist(options, "fleet_deadline.csv", &csv);
    persist(options, "fleet_deadline.md", &markdown);
    persist(options, "fleet_deadline.jsonl", &json);
    Ok(())
}

fn emit_fleet_recovery(options: &Options) -> Result<(), String> {
    let spec = FleetRecoverySpec {
        num_tenants: options.tenants.min(8),
        seed: options.seed,
        threads: options.threads.or(Some(1)),
        ..FleetRecoverySpec::default()
    };
    eprintln!(
        "[repro] running the {}-tenant crash-recovery sweep over {:?}-epoch snapshot cadences \
         (seed {}, kill after epoch {}) ...",
        spec.num_tenants, spec.snapshot_cadences, spec.seed, spec.crash_epoch
    );
    let table = run_fleet_recovery_experiment(&spec).map_err(|err| err.to_string())?;
    let csv = fleet_recovery_csv(&table);
    let markdown = fleet_recovery_markdown(&table);
    let json = fleet_recovery_json(&table);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!(
            "## Fleet recovery — checkpoint/WAL kill-and-resume ({})",
            table.scenario
        );
        print!("{markdown}");
    }
    persist(options, "fleet_recovery.csv", &csv);
    persist(options, "fleet_recovery.md", &markdown);
    persist(options, "fleet_recovery.jsonl", &json);
    Ok(())
}

fn emit_lp_large(options: &Options) {
    let spec = LpLargeSpec {
        seed: options.seed,
        ..LpLargeSpec::default()
    };
    eprintln!(
        "[repro] running the lp-large scaling study ({} sizes, seed {}) ...",
        spec.sizes.len(),
        spec.seed
    );
    let rows = run_lp_large(&spec);
    let markdown = lp_large_markdown(&rows);
    let json = lp_large_rows_json(&rows);
    if options.json {
        print!("{json}");
    } else {
        println!("## LP substrate — dense LU vs sparse Markowitz LU");
        print!("{markdown}");
    }
    persist(options, "lp_large.md", &markdown);
    persist(options, "lp_large.jsonl", &json);
}

fn emit_fleet_obs(options: &Options) -> Result<(), String> {
    let spec = FleetObsSpec {
        num_tenants: options.tenants.min(8),
        seed: options.seed,
        threads: options.threads.or(Some(1)),
        ..FleetObsSpec::default()
    };
    eprintln!(
        "[repro] running the {}-tenant observed chaotic fleet (seed {}, threads {:?}) ...",
        spec.num_tenants, spec.seed, spec.threads
    );
    // With --serve, the exporter binds *before* the run on the same
    // recorder the controller writes into, so `/metrics`, `/health` and
    // `/events` are scrapeable live while epochs execute. Scrapes are
    // read-only snapshots: the report stays bit-identical either way.
    let exporter = match &options.serve {
        Some(addr) => {
            let recorder = Arc::new(rental_obs::Recorder::new());
            let exporter = rental_obs::Exporter::bind(recorder.clone(), addr.as_str())
                .map_err(|err| format!("could not bind exporter on {addr}: {err}"))?;
            eprintln!(
                "[repro] exporter live on http://{} (/metrics /health /events)",
                exporter.local_addr()
            );
            Some((exporter, recorder))
        }
        None => None,
    };
    let table = match &exporter {
        Some((_, recorder)) => run_fleet_obs_experiment_with(&spec, recorder.clone()),
        None => run_fleet_obs_experiment(&spec),
    }
    .map_err(|err| err.to_string())?;
    let markdown = fleet_obs_markdown(&table);
    let json = fleet_obs_json(&table);
    if options.json {
        print!("{json}");
    } else {
        println!(
            "## Fleet observability — telemetry-on chaotic run ({})",
            table.scenario
        );
        print!("{markdown}");
    }
    persist(options, "fleet_obs.md", &markdown);
    persist(options, "fleet_obs.jsonl", &json);
    if let Some((exporter, _)) = exporter {
        eprintln!(
            "[repro] run complete; still serving final state on http://{} — Ctrl-C to exit",
            exporter.local_addr()
        );
        loop {
            std::thread::park();
        }
    }
    Ok(())
}

fn emit_fleet_scale(options: &Options) -> Result<(), String> {
    // `--tenants` (when raised past the 16-tenant default) sets the largest
    // fleet of the sweep; the default sweep is 1k/4k.
    let largest = if options.tenants > 16 {
        options.tenants
    } else {
        4_000
    };
    let spec = FleetScaleSpec {
        sizes: vec![(largest / 4).max(1), largest],
        seed: options.seed,
        ..FleetScaleSpec::default()
    };
    eprintln!(
        "[repro] running the sharded-vs-sequential scaling sweep over {:?} tenants (seed {}) ...",
        spec.sizes, spec.seed
    );
    let table = run_fleet_scale_experiment(&spec).map_err(|err| err.to_string())?;
    let csv = fleet_scale_csv(&table);
    let markdown = fleet_scale_markdown(&table);
    let json = fleet_scale_json(&table);
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        let scenarios: Vec<&str> = table.rows.iter().map(|row| row.scenario.as_str()).collect();
        println!(
            "## Fleet scaling — sharded epoch pipelines vs the sequential loop ({})",
            scenarios.join(", ")
        );
        print!("{markdown}");
    }
    if !table.all_deterministic() {
        return Err("a sharded run diverged from the sequential report".to_string());
    }
    persist(options, "fleet_scale.csv", &csv);
    persist(options, "fleet_scale.md", &markdown);
    persist(options, "fleet_scale.jsonl", &json);
    Ok(())
}

fn ablation_spec(options: &Options) -> AblationSpec {
    AblationSpec {
        num_configs: options.configs,
        seed: options.seed,
        ..AblationSpec::default()
    }
}

fn emit_ablation(options: &Options, results: &AblationResults, title: &str) {
    let csv = results.csv();
    let markdown = results.markdown();
    let json = results.json();
    if options.json {
        print!("{json}");
    } else if options.csv {
        print!("{csv}");
    } else {
        println!("## {title}");
        print!("{markdown}");
    }
    let stem = results.name.replace('-', "_");
    persist(options, &format!("{stem}.csv"), &csv);
    persist(options, &format!("{stem}.md"), &markdown);
    persist(options, &format!("{stem}.jsonl"), &json);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    match options.command.as_str() {
        "help" => print_usage(),
        "table3" => emit_table3(&options),
        "fig3" => {
            let results = run_preset(&options, "small");
            emit_figure(
                &options,
                &results,
                Metric::NormalisedCost,
                "Figure 3 — normalised cost, small graphs",
            );
        }
        "fig4" => {
            let results = run_preset(&options, "small");
            emit_figure(
                &options,
                &results,
                Metric::WinCount,
                "Figure 4 — win counts, small graphs",
            );
        }
        "fig5" => {
            let results = run_preset(&options, "small");
            emit_figure(
                &options,
                &results,
                Metric::TimeSeconds,
                "Figure 5 — computation time, small graphs",
            );
        }
        "fig6" => {
            let results = run_preset(&options, "medium");
            emit_figure(
                &options,
                &results,
                Metric::NormalisedCost,
                "Figure 6 — normalised cost, medium graphs",
            );
        }
        "fig7" => {
            let results = run_preset(&options, "large");
            emit_figure(
                &options,
                &results,
                Metric::NormalisedCost,
                "Figure 7 — normalised cost, large graphs",
            );
        }
        "fig8" => {
            let results = run_preset(&options, "huge");
            emit_figure(
                &options,
                &results,
                Metric::TimeSeconds,
                "Figure 8 — computation time, huge graphs",
            );
        }
        "summary" => {
            let results = run_preset(&options, "small");
            emit_summary(&options, &results);
        }
        "fleet" => {
            if let Err(message) = emit_fleet(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "fleet-failure" => {
            if let Err(message) = emit_fleet_failure(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "fleet-deadline" => {
            if let Err(message) = emit_fleet_deadline(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "fleet-recovery" => {
            if let Err(message) = emit_fleet_recovery(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "fleet-obs" => {
            if let Err(message) = emit_fleet_obs(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "fleet-scale" => {
            if let Err(message) = emit_fleet_scale(&options) {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
        "lp-large" => emit_lp_large(&options),
        "ablation-delta" => {
            let results = delta_sweep(&ablation_spec(&options), &[1, 5, 10, 20]);
            emit_ablation(
                &options,
                &results,
                "Ablation — δ step of the local-search heuristics",
            );
        }
        "ablation-escape" => {
            let results = escape_mechanisms(&ablation_spec(&options));
            emit_ablation(
                &options,
                &results,
                "Ablation — escape mechanisms beyond H32",
            );
        }
        "ablation-mutation" => {
            let results = mutation_sweep(&ablation_spec(&options), &[10, 30, 50, 70]);
            emit_ablation(
                &options,
                &results,
                "Ablation — recipe similarity (mutation percentage)",
            );
        }
        "all" => {
            emit_table3(&options);
            let small = run_preset(&options, "small");
            emit_figure(
                &options,
                &small,
                Metric::NormalisedCost,
                "Figure 3 — normalised cost, small graphs",
            );
            emit_figure(
                &options,
                &small,
                Metric::WinCount,
                "Figure 4 — win counts, small graphs",
            );
            emit_figure(
                &options,
                &small,
                Metric::TimeSeconds,
                "Figure 5 — computation time, small graphs",
            );
            let medium = run_preset(&options, "medium");
            emit_figure(
                &options,
                &medium,
                Metric::NormalisedCost,
                "Figure 6 — normalised cost, medium graphs",
            );
            let large = run_preset(&options, "large");
            emit_figure(
                &options,
                &large,
                Metric::NormalisedCost,
                "Figure 7 — normalised cost, large graphs",
            );
            let huge = run_preset(&options, "huge");
            emit_figure(
                &options,
                &huge,
                Metric::TimeSeconds,
                "Figure 8 — computation time, huge graphs",
            );
            emit_summary(&options, &small);
        }
        other => {
            eprintln!("error: unknown command {other}");
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_without_arguments() {
        let options = parse_args(&[]).unwrap();
        assert_eq!(options.command, "all");
        assert_eq!(options.configs, 10);
        assert!(!options.csv);
    }

    #[test]
    fn command_and_flags_are_parsed() {
        let options = parse_args(&args(&[
            "fig3",
            "--configs",
            "25",
            "--seed",
            "9",
            "--csv",
            "--ilp-time-limit",
            "2.5",
            "--threads",
            "4",
            "--output-dir",
            "/tmp/repro-out",
        ]))
        .unwrap();
        assert_eq!(options.command, "fig3");
        assert_eq!(options.configs, 25);
        assert_eq!(options.seed, 9);
        assert!(options.csv);
        assert_eq!(options.ilp_time_limit, 2.5);
        assert_eq!(options.threads, Some(4));
        assert_eq!(
            options.output_dir.as_deref(),
            Some(std::path::Path::new("/tmp/repro-out"))
        );
    }

    #[test]
    fn fleet_command_and_tenants_flag_are_parsed() {
        let options = parse_args(&args(&["fleet", "--tenants", "8"])).unwrap();
        assert_eq!(options.command, "fleet");
        assert_eq!(options.tenants, 8);
        let defaults = parse_args(&args(&["fleet"])).unwrap();
        assert_eq!(defaults.tenants, 16);
    }

    #[test]
    fn json_flag_and_fleet_obs_command_are_parsed() {
        let options = parse_args(&args(&["fleet-obs", "--json"])).unwrap();
        assert_eq!(options.command, "fleet-obs");
        assert!(options.json);
        assert!(!parse_args(&args(&["fleet-obs"])).unwrap().json);
    }

    #[test]
    fn serve_flag_takes_an_optional_address() {
        let defaulted = parse_args(&args(&["fleet-obs", "--serve"])).unwrap();
        assert_eq!(defaulted.serve.as_deref(), Some(DEFAULT_SERVE_ADDR));
        let explicit = parse_args(&args(&["fleet-obs", "--serve", "127.0.0.1:9999"])).unwrap();
        assert_eq!(explicit.serve.as_deref(), Some("127.0.0.1:9999"));
        // A following flag is not mistaken for an address operand.
        let followed = parse_args(&args(&["fleet-obs", "--serve", "--json"])).unwrap();
        assert_eq!(followed.serve.as_deref(), Some(DEFAULT_SERVE_ADDR));
        assert!(followed.json);
        assert!(parse_args(&args(&["fleet-obs"])).unwrap().serve.is_none());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--configs"])).is_err());
        assert!(parse_args(&args(&["--configs", "x"])).is_err());
    }
}
