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
//! repro ablation-delta                 # δ-step sweep (extension)
//! repro ablation-escape                # escape-mechanism comparison (extension)
//! repro ablation-mutation              # recipe-similarity sweep (extension)
//! ```
//!
//! Every lane produces JSON Lines rows. The CSV is those rows as one table
//! (the union of their keys as the header), and the Markdown page is one
//! table per record kind, except for the three pages that keep a layout of
//! their own: Table III, the figure pivots and the fleet-obs report.
//!
//! Options:
//! * `--configs N`         number of random configurations (default 10; the paper uses 100)
//! * `--seed S`            base RNG seed (default 2016)
//! * `--ilp-time-limit S`  ILP wall-clock limit in seconds for fig8 (default 5, paper uses 100)
//! * `--csv`               print the rows as CSV instead of the Markdown page
//!   (lanes with a CSV: all but summary, fleet-obs and lp-large)
//! * `--json`              print the rows as JSON lines (wins over --csv)
//! * `--output-dir DIR`    also write every rendering into DIR (`<lane>.jsonl`,
//!   `<lane>.md` and, where the lane has one, `<lane>.csv`)
//! * `--threads N`         worker threads (default: all cores)
//! * `--serve [ADDR]`      (fleet-obs) bind the live scrape exporter on ADDR
//!   (default `127.0.0.1:9464`) before the run: `/metrics`, `/health` and
//!   `/events` are curl-able while the chaotic fleet serves, and the process
//!   keeps serving the final state after the run until interrupted

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use rental_experiments::{
    ablation_rows, delta_sweep, escape_mechanisms, figure_markdown, figure_rows,
    fleet_deadline_rows, fleet_failure_rows, fleet_obs_markdown, fleet_obs_rows,
    fleet_recovery_rows, fleet_rows, fleet_scale_rows, lp_large_rows, mutation_sweep, presets,
    rows_csv, rows_jsonl, rows_markdown, run_experiment, run_fleet_deadline_experiment,
    run_fleet_experiment, run_fleet_failure_experiment, run_fleet_obs_experiment,
    run_fleet_obs_experiment_with, run_fleet_recovery_experiment, run_fleet_scale_experiment,
    run_lp_large, run_table3, summary_rows, table3_markdown, table3_rows, table3_targets,
    write_artifact, AblationResults, AblationSpec, ExperimentResults, FleetDeadlineSpec,
    FleetExperimentSpec, FleetFailureSpec, FleetObsSpec, FleetRecoverySpec, FleetScaleSpec,
    LpLargeSpec, Metric,
};
use rental_obs::json::JsonRow;
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
         [--threads N] [--tenants N] [--serve [ADDR]]\n\
         every lane prints its rows as JSON lines (--json), as one CSV table (--csv; not \
         summary, fleet-obs or lp-large) or as a Markdown page (default)"
    );
}

/// What one lane hands to [`print_and_persist`]: its rows, and the page
/// printed without `--json` (or `--csv`, where the lane has a CSV).
struct Lane {
    /// Heading printed above the page.
    title: String,
    /// Artifact stem: `<stem>.jsonl`, `<stem>.csv`.
    stem: String,
    rows: Vec<JsonRow>,
    /// The page and the artifact it is saved as (`<stem>.md`).
    page: String,
    page_file: String,
    /// Whether `--csv` and `--output-dir` render the rows as CSV.
    csv: bool,
}

impl Lane {
    /// A lane whose page is the Markdown derived from its rows.
    fn derived(stem: &str, title: String, rows: Vec<JsonRow>) -> Lane {
        Lane::with_page(stem, title, rows_markdown(&rows), rows)
    }

    /// A lane whose page keeps a layout of its own.
    fn with_page(stem: &str, title: String, page: String, rows: Vec<JsonRow>) -> Lane {
        Lane {
            title,
            stem: stem.to_string(),
            rows,
            page,
            page_file: format!("{stem}.md"),
            csv: true,
        }
    }
}

/// Prints one lane and, with `--output-dir`, persists its renderings.
fn print_and_persist(options: &Options, lane: Lane) {
    let json = rows_jsonl(&lane.rows);
    let csv = lane.csv.then(|| rows_csv(&lane.rows));
    match &csv {
        _ if options.json => print!("{json}"),
        Some(csv) if options.csv => print!("{csv}"),
        _ => {
            println!("## {}", lane.title);
            print!("{}", lane.page);
        }
    }
    if let Some(csv) = &csv {
        persist(options, &format!("{}.csv", lane.stem), csv);
    }
    persist(options, &lane.page_file, &lane.page);
    persist(options, &format!("{}.jsonl", lane.stem), &json);
}

fn persist(options: &Options, file_name: &str, content: &str) {
    if let Some(dir) = &options.output_dir {
        match write_artifact(dir, file_name, content) {
            Ok(path) => eprintln!("[repro] wrote {}", path.display()),
            Err(err) => eprintln!("[repro] could not write {file_name}: {err}"),
        }
    }
}

fn table3(options: &Options) -> Lane {
    let rows = run_table3(&table3_targets(), &SuiteConfig::with_seed(options.seed));
    Lane::with_page(
        "table3",
        "Table III — illustrating example (ILP vs heuristics)".to_string(),
        table3_markdown(&rows),
        table3_rows(&rows),
    )
}

/// The figures: command, preset, metric and title.
const FIGURES: [(&str, &str, Metric, &str); 6] = [
    (
        "fig3",
        "small",
        Metric::NormalisedCost,
        "Figure 3 — normalised cost, small graphs",
    ),
    (
        "fig4",
        "small",
        Metric::WinCount,
        "Figure 4 — win counts, small graphs",
    ),
    (
        "fig5",
        "small",
        Metric::TimeSeconds,
        "Figure 5 — computation time, small graphs",
    ),
    (
        "fig6",
        "medium",
        Metric::NormalisedCost,
        "Figure 6 — normalised cost, medium graphs",
    ),
    (
        "fig7",
        "large",
        Metric::NormalisedCost,
        "Figure 7 — normalised cost, large graphs",
    ),
    (
        "fig8",
        "huge",
        Metric::TimeSeconds,
        "Figure 8 — computation time, huge graphs",
    ),
];

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

fn figure(results: &ExperimentResults, metric: Metric, title: &str) -> Lane {
    // "Figure 3 — normalised cost, small graphs" -> "figure_3"
    let stem: String = title
        .split('—')
        .next()
        .unwrap_or(title)
        .trim()
        .to_lowercase()
        .replace(' ', "_");
    Lane::with_page(
        &format!("{stem}_{}", metric.label()),
        title.to_string(),
        figure_markdown(results, metric),
        figure_rows(results, metric),
    )
}

fn summary(results: &ExperimentResults) -> Lane {
    // The qualitative claims of §VIII-F, computed from the measured data.
    let mut page = String::new();
    for solver in &results.solvers {
        let normalised = results.mean_normalised(solver).unwrap_or(0.0);
        page.push_str(&format!(
            "  {:<8} mean normalised cost {:.4}  (within {:.1}% of the best known)\n",
            solver,
            normalised,
            100.0 * (1.0 - normalised)
        ));
    }
    let h1 = results.mean_normalised("H1").unwrap_or(0.0);
    let best_heuristic = results
        .solvers
        .iter()
        .filter(|s| *s != "ILP")
        .filter_map(|s| results.mean_normalised(s))
        .fold(0.0f64, f64::max);
    page.push_str(&format!(
        "  improved heuristics gain {:.1}% over the naive H1 baseline on average\n",
        100.0 * (best_heuristic - h1)
    ));
    let title = format!(
        "Summary (paper §VIII-F) — {} configurations",
        results.num_configs
    );
    Lane {
        page_file: "summary.txt".to_string(),
        csv: false,
        ..Lane::with_page("summary", title, page, summary_rows(results))
    }
}

fn fleet(options: &Options) -> Result<Lane, String> {
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
    let title = format!(
        "Fleet — multi-tenant streaming re-optimization ({})",
        table.scenario
    );
    Ok(Lane::derived("fleet", title, fleet_rows(&table)))
}

fn fleet_failure(options: &Options) -> Result<Lane, String> {
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
    let title = format!(
        "Fleet failure — capacity pool + outage coupling ({})",
        table.scenario
    );
    Ok(Lane::derived(
        "fleet_failure",
        title,
        fleet_failure_rows(&table),
    ))
}

fn fleet_deadline(options: &Options) -> Result<Lane, String> {
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
    let title = format!(
        "Fleet deadline — anytime solving under per-epoch budgets ({})",
        table.scenario
    );
    Ok(Lane::derived(
        "fleet_deadline",
        title,
        fleet_deadline_rows(&table),
    ))
}

fn fleet_recovery(options: &Options) -> Result<Lane, String> {
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
    let title = format!(
        "Fleet recovery — checkpoint/WAL kill-and-resume ({})",
        table.scenario
    );
    Ok(Lane::derived(
        "fleet_recovery",
        title,
        fleet_recovery_rows(&table),
    ))
}

fn lp_large(options: &Options) -> Lane {
    let spec = LpLargeSpec {
        seed: options.seed,
        ..LpLargeSpec::default()
    };
    eprintln!(
        "[repro] running the lp-large scaling study ({} sizes, seed {}) ...",
        spec.sizes.len(),
        spec.seed
    );
    let rows = lp_large_rows(&run_lp_large(&spec));
    let title = "LP substrate — dense LU vs sparse Markowitz LU".to_string();
    Lane {
        csv: false,
        ..Lane::derived("lp_large", title, rows)
    }
}

/// The observability lane, plus the exporter `--serve` bound before the
/// run: `/metrics`, `/health` and `/events` are scrapeable live while
/// epochs execute, on the same recorder the controller writes into.
/// Scrapes are read-only snapshots: the report stays bit-identical either
/// way.
fn fleet_obs(options: &Options) -> Result<(Lane, Option<rental_obs::Exporter>), String> {
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
    let (table, exporter) = match &options.serve {
        Some(addr) => {
            let recorder = Arc::new(rental_obs::Recorder::new());
            let exporter = rental_obs::Exporter::bind(recorder.clone(), addr.as_str())
                .map_err(|err| format!("could not bind exporter on {addr}: {err}"))?;
            eprintln!(
                "[repro] exporter live on http://{} (/metrics /health /events)",
                exporter.local_addr()
            );
            (
                run_fleet_obs_experiment_with(&spec, recorder),
                Some(exporter),
            )
        }
        None => (run_fleet_obs_experiment(&spec), None),
    };
    let table = table.map_err(|err| err.to_string())?;
    let title = format!(
        "Fleet observability — telemetry-on chaotic run ({})",
        table.scenario
    );
    let lane = Lane {
        csv: false,
        ..Lane::with_page(
            "fleet_obs",
            title,
            fleet_obs_markdown(&table),
            fleet_obs_rows(&table),
        )
    };
    Ok((lane, exporter))
}

/// The scaling lane, and whether every sharded run reproduced the
/// sequential report.
fn fleet_scale(options: &Options) -> Result<(Lane, bool), String> {
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
    let scenarios: Vec<&str> = table.rows.iter().map(|row| row.scenario.as_str()).collect();
    let title = format!(
        "Fleet scaling — sharded epoch pipelines vs the sequential loop ({})",
        scenarios.join(", ")
    );
    let lane = Lane::derived("fleet_scale", title, fleet_scale_rows(&table));
    Ok((lane, table.all_deterministic()))
}

fn ablation(results: &AblationResults, title: &str) -> Lane {
    let stem = results.name.replace('-', "_");
    Lane::derived(&stem, title.to_string(), ablation_rows(results))
}

/// Runs the command and emits its lanes as they finish.
fn run(options: &Options) -> Result<(), String> {
    let emit = |lane: Lane| print_and_persist(options, lane);
    let ablation_spec = AblationSpec {
        num_configs: options.configs,
        seed: options.seed,
        ..AblationSpec::default()
    };
    match options.command.as_str() {
        "help" => print_usage(),
        "table3" => emit(table3(options)),
        "summary" => emit(summary(&run_preset(options, "small"))),
        "fleet" => emit(fleet(options)?),
        "fleet-failure" => emit(fleet_failure(options)?),
        "fleet-deadline" => emit(fleet_deadline(options)?),
        "fleet-recovery" => emit(fleet_recovery(options)?),
        "fleet-obs" => {
            let (lane, exporter) = fleet_obs(options)?;
            emit(lane);
            if let Some(exporter) = exporter {
                eprintln!(
                    "[repro] run complete; still serving final state on http://{} — Ctrl-C to exit",
                    exporter.local_addr()
                );
                loop {
                    std::thread::park();
                }
            }
        }
        "fleet-scale" => {
            let (lane, deterministic) = fleet_scale(options)?;
            emit(lane);
            if !deterministic {
                return Err("a sharded run diverged from the sequential report".to_string());
            }
        }
        "lp-large" => emit(lp_large(options)),
        "ablation-delta" => emit(ablation(
            &delta_sweep(&ablation_spec, &[1, 5, 10, 20]),
            "Ablation — δ step of the local-search heuristics",
        )),
        "ablation-escape" => emit(ablation(
            &escape_mechanisms(&ablation_spec),
            "Ablation — escape mechanisms beyond H32",
        )),
        "ablation-mutation" => emit(ablation(
            &mutation_sweep(&ablation_spec, &[10, 30, 50, 70]),
            "Ablation — recipe similarity (mutation percentage)",
        )),
        "all" => {
            emit(table3(options));
            // Consecutive figures share a preset's run; the summary reads
            // the small graphs'.
            let mut runs: Vec<(&str, ExperimentResults)> = Vec::new();
            for (_, preset, metric, title) in FIGURES {
                if runs.last().is_none_or(|(last, _)| *last != preset) {
                    runs.push((preset, run_preset(options, preset)));
                }
                emit(figure(&runs[runs.len() - 1].1, metric, title));
            }
            emit(summary(&runs[0].1));
        }
        command => {
            let Some(&(_, preset, metric, title)) =
                FIGURES.iter().find(|(name, ..)| *name == command)
            else {
                print_usage();
                return Err(format!("unknown command {command}"));
            };
            emit(figure(&run_preset(options, preset), metric, title));
        }
    }
    Ok(())
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
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
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
