//! Benchmark of whole multi-tenant fleet controller runs.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload <scale-16k|resolve-1k|durable-1k|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is generated from `--seed` (default: the workload's own
//! seed) and driven closed-loop, one whole run after another, through the
//! public `FleetController` entry points. With `--trace 0` the runs are
//! plain (`NoopSink`, `IlpSolver`) and the end-to-end metrics are reported;
//! with `--trace 1` a separate traced run times each layer from outside the
//! program (see `probe.rs` and `layers.rs`). Every run's report is checked;
//! the last line of standard output is one JSON object with the verdict and
//! the metrics, and the exit code is non-zero when any check failed.

mod expected;
mod heap;
mod layers;
mod probe;
mod stats;
mod workload;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use rental_fleet::FleetReport;
use rental_obs::{install_scoped, TelemetrySink};

use crate::layers::TracedRun;
use crate::probe::{StampSink, TimedSolver};
use crate::stats::{median, percentile};
use crate::workload::{check_first, setup, Outcome, Prepared, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str = "usage: fleetbench --workload <scale-16k|resolve-1k|durable-1k|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Solver and shard worker cap, whatever the host's core count.
const MAX_THREADS: usize = 2;
/// Set-ups timed per invocation; `setup_s` is their median.
const SETUPS: usize = 11;
/// Timed runs per invocation at the least, however long they take.
const MIN_RUNS: usize = 5;

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                let seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = Some(seed.map_err(|_| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The verdict and measurements of one workload.
struct Verdict {
    attempted: usize,
    failures: Vec<String>,
    failed_runs: usize,
    metrics: Vec<Metric>,
}

impl Verdict {
    fn new() -> Verdict {
        Verdict {
            attempted: 0,
            failures: Vec::new(),
            failed_runs: 0,
            metrics: Vec::new(),
        }
    }

    fn fail(&mut self, failure: String) {
        self.failed_runs += 1;
        self.failures.push(failure);
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed_runs == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    rental_obs::json::number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_runs.max(usize::from(!self.correct())),
            metrics.join(",")
        )
    }
}

/// Runs `f` and turns a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("the run panicked".to_string()))
}

/// One plain run on a fresh store: wall seconds and report.
fn plain_run(prepared: &Prepared, label: &str) -> Result<(f64, FleetReport), String> {
    guarded(|| {
        let store = prepared.open_store(label).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let report = prepared.run(&prepared.solver, None, store.as_ref());
        let wall = start.elapsed().as_secs_f64();
        prepared.close_store(store).map_err(|e| e.to_string())?;
        Ok((wall, report?))
    })
}

/// One run through the timing solver wrapper and the stamping sink, with
/// the sink also installed for the LP and solver layers.
fn traced_run(prepared: &Prepared, label: &str) -> Result<TracedRun, String> {
    guarded(|| {
        let sink = Arc::new(StampSink::default());
        let solver = TimedSolver::new(&prepared.solver);
        let store = prepared.open_store(label).map_err(|e| e.to_string())?;
        let guard = install_scoped(sink.clone());
        let t0 = Instant::now();
        let report = prepared.run(
            &solver,
            Some(sink.clone() as Arc<dyn TelemetrySink>),
            store.as_ref(),
        );
        let t1 = Instant::now();
        drop(guard);
        let usage = prepared.close_store(store).map_err(|e| e.to_string())?;
        Ok(TracedRun {
            t0,
            t1,
            stamps: sink.stamps(),
            calls: solver.into_calls(),
            report: report?,
            usage,
        })
    })
}

/// Where durable runs keep their stores: inside the build directory.
fn store_root(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("fleetbench/target"));
    target.join(format!(
        "fleetbench-store-{}-{}",
        workload.name(),
        std::process::id()
    ))
}

/// Checks one plain run: the first report of each fleet must pass the
/// workload checks, and every later one must equal it. Returns the wall of
/// an accepted run.
fn accept(
    prepared: &Prepared,
    reference: &mut Option<FleetReport>,
    result: Result<(f64, FleetReport), String>,
    verdict: &mut Verdict,
) -> Option<f64> {
    verdict.attempted += 1;
    let seed = prepared.seed;
    let (wall, report) = match result {
        Ok(run) => run,
        Err(err) => {
            verdict.fail(format!("run of seed {seed}: {err}"));
            return None;
        }
    };
    match reference {
        Some(first) if !report.matches_modulo_timing(first) => {
            verdict.fail(format!(
                "a run of seed {seed} differs from its first report"
            ));
            return None;
        }
        Some(_) => {}
        None => {
            let outcome = Outcome::of(&report);
            println!(
                "outcome {} seed={seed} cost_vs_fixed_mix={:?} cost_vs_static_headroom={:?} slo_violation_rate={:?}",
                prepared.workload.name(),
                outcome.cost_vs_fixed_mix,
                outcome.cost_vs_static_headroom,
                outcome.slo_violation_rate
            );
            for failure in check_first(prepared, &report) {
                verdict.fail(format!("seed {seed}: {failure}"));
            }
            *reference = Some(report);
        }
    }
    Some(wall)
}

fn bench(workload: Workload, seed: u64, args: &Args, threads: usize) -> Verdict {
    let root = store_root(workload);
    let mut verdict = Verdict::new();
    measure(workload, seed, args, threads, &root, &mut verdict);
    if let Err(err) = fs::remove_dir_all(&root) {
        if err.kind() != std::io::ErrorKind::NotFound {
            verdict.fail(format!("removing {}: {err}", root.display()));
        }
    }
    verdict
}

fn measure(
    workload: Workload,
    seed: u64,
    args: &Args,
    threads: usize,
    root: &std::path::Path,
    verdict: &mut Verdict,
) {
    // A traced invocation times the first fleet of the panel only.
    let seeds = if args.trace {
        vec![seed]
    } else {
        workload.panel(seed)
    };

    // Set-up of the whole panel, timed several times; the last one serves.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut panel: Vec<Prepared> = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut panel));
        let start = Instant::now();
        panel = seeds
            .iter()
            .map(|&s| setup(workload, s, threads, root))
            .collect();
        setup_s.push(start.elapsed().as_secs_f64());
    }

    // One untimed warm-up run of the first fleet, which becomes its
    // reference report; every other fleet's first timed run is its own. It
    // also measures the peak heap growth of one run (the timed runs do not
    // count bytes).
    let mut refs: Vec<Option<FleetReport>> = vec![None; panel.len()];
    let (warm_up, peak_heap_mb) = heap::peak_during(|| plain_run(&panel[0], "warm-up"));
    if accept(&panel[0], &mut refs[0], warm_up, verdict).is_none() {
        return;
    }

    // Closed loop over the panel: plain runs for the whole budget (half of
    // it when traced).
    let plain_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_runs = MIN_RUNS.max(panel.len());
    let mut walls = Vec::new();
    let clock = Instant::now();
    let mut i = 0;
    while verdict.correct() && (i < min_runs || clock.elapsed().as_secs_f64() < plain_budget) {
        let k = i % panel.len();
        let result = plain_run(&panel[k], &format!("run-{i}"));
        walls.extend(accept(&panel[k], &mut refs[k], result, verdict));
        i += 1;
    }
    if !verdict.correct() {
        return;
    }
    let run_s = median(&walls);
    let reports: Vec<&FleetReport> = refs.iter().flatten().collect();

    if args.trace {
        let (prepared, first) = (&panel[0], reports[0]);
        let mut traced: Vec<TracedRun> = Vec::new();
        let clock = Instant::now();
        while traced.is_empty() || clock.elapsed().as_secs_f64() < args.seconds - plain_budget {
            verdict.attempted += 1;
            match traced_run(prepared, &format!("traced-{}", traced.len())) {
                Ok(run) if run.report.matches_modulo_timing(first) => traced.push(run),
                Ok(_) => {
                    verdict
                        .fail("the traced run's report differs from the plain run's".to_string());
                    return;
                }
                Err(err) => {
                    verdict.fail(format!("traced run: {err}"));
                    return;
                }
            }
        }
        traced.sort_by(|a, b| a.wall().total_cmp(&b.wall()));
        let middle = &traced[traced.len() / 2];
        println!(
            "traced runs: {} (layers from the median, {:.4} s); untraced median {run_s:.4} s",
            traced.len(),
            middle.wall()
        );
        verdict.metrics = layers::metrics(prepared, middle, run_s, &mut verdict.failures);
        verdict
            .metrics
            .push(Metric::new("fleet.peak_heap_mb", peak_heap_mb, "MB"));
    } else {
        let outcome = Outcome::pooled(&reports);
        let tenant_epochs =
            reports.iter().map(|r| r.tenant_epochs()).sum::<usize>() as f64 / reports.len() as f64;
        println!(
            "runs: {} timed over {} fleets, run_s p25 {:.4} p75 {:.4}; setup_s p25 {:.4} p75 {:.4}; walls {:.3?}",
            walls.len(),
            panel.len(),
            percentile(&walls, 0.25),
            percentile(&walls, 0.75),
            percentile(&setup_s, 0.25),
            percentile(&setup_s, 0.75),
            walls,
        );
        verdict.metrics = vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("tenant_epochs_per_s", tenant_epochs / run_s, "1/s"),
            Metric::new("cost_vs_fixed_mix", outcome.cost_vs_fixed_mix, "ratio"),
            Metric::new(
                "cost_vs_static_headroom",
                outcome.cost_vs_static_headroom,
                "ratio",
            ),
            Metric::new("slo_attainment", 1.0 - outcome.slo_violation_rate, "ratio"),
        ];
    }
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    println!(
        "provenance nproc={nproc} rayon_workers={} solver_threads={threads} rustc={:?} commit={} seeds={}",
        rayon::current_num_threads(),
        env!("FLEETBENCH_RUSTC"),
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        args.workloads
            .iter()
            .map(|w| format!("{}:{}", w.name(), args.seed.unwrap_or(w.default_seed())))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut all_correct = true;
    let mut last = String::new();
    for &workload in &args.workloads {
        let seed = args.seed.unwrap_or(workload.default_seed());
        let verdict = bench(workload, seed, &args, threads);
        for failure in &verdict.failures {
            eprintln!("FAILED {}: {failure}", workload.name());
        }
        println!(
            "workload {} seed={seed} trace={} error_rate={} ({} failed / {} attempted)",
            workload.name(),
            u8::from(args.trace),
            verdict.failed_runs as f64 / verdict.attempted.max(1) as f64,
            verdict.failed_runs,
            verdict.attempted
        );
        for m in &verdict.metrics {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        all_correct &= verdict.correct();
        last = verdict.json();
        if args.workloads.len() > 1 {
            println!("{last}");
        }
    }
    if args.workloads.len() == 1 {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
