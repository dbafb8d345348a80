//! The observability lane: the failure-coupled fleet served with telemetry
//! **on**, exercising the full `rental-obs` substrate end to end.
//!
//! A [`rental_obs::Recorder`] is installed both as the ambient global sink
//! (so the LP simplex and branch-and-bound emit their counters) and as the
//! controller's explicit sink (so spans and flight-recorder events are
//! captured deterministically). The run draws seeded chaos faults, so the
//! flight recorder has something operational to show:
//! injected faults, SLO violations, degraded solves and the adoptions that
//! repair them, in their exact serving order. `repro fleet-obs` renders the
//! per-stage epoch breakdown and the per-epoch critical paths, both read off
//! the report's trace trees, the run's phases outside its epochs (its
//! `init` and `finish` trees), the top-k tenants by solver effort, the
//! headline LP/solver counters, and the event tail; `--json` dumps the same
//! data as rows of the `rental_obs::json` encoder.
//!
//! The lane pins one worker thread by default: metrics merge commutatively
//! across threads, but holding the *event sequence* bit-for-bit across runs
//! requires a deterministic serving order end to end.

use std::sync::Arc;

use rental_fleet::{failure_coupled_fleet, ChaosConfig, FleetController, FleetReport};
use rental_obs::json::JsonRow;
use rental_obs::trace::ROOT;
use rental_obs::{
    install_scoped, AlertPolicy, AlertRule, Event, MetricsSnapshot, Recorder, Stage, StepTotal,
    TraceSummary, TraceTree,
};
use rental_solvers::SolveResult;

use crate::fleet_failure::failure_sweep_solver;

/// Parameters of the observability lane.
#[derive(Debug, Clone)]
pub struct FleetObsSpec {
    /// Number of tenants in the failure-coupled scenario.
    pub num_tenants: usize,
    /// Scenario and chaos seed (instances, spikes, outages, faults).
    pub seed: u64,
    /// Mean time between machine failures, in hours.
    pub mtbf: f64,
    /// Repair time, in hours.
    pub repair_time: f64,
    /// How many tenants the solver-effort leaderboard shows.
    pub top_k: usize,
    /// Cap on solver worker threads. The default pins one thread so the
    /// flight-recorder event sequence is reproducible bit for bit.
    pub threads: Option<usize>,
}

impl Default for FleetObsSpec {
    fn default() -> Self {
        FleetObsSpec {
            num_tenants: 8,
            seed: rental_fleet::ACCEPTANCE_SEED,
            mtbf: 96.0,
            repair_time: 4.0,
            top_k: 5,
            threads: Some(1),
        }
    }
}

/// Counts of the faults the chaos layer actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Injected solve timeouts.
    pub timeouts: usize,
    /// Injected spurious infeasibilities.
    pub infeasibles: usize,
    /// Injected singular refactorizations.
    pub singulars: usize,
    /// Poisoned warm-start priors.
    pub poisoned_priors: usize,
    /// Delayed capacity arbitrations.
    pub delayed_arbitrations: usize,
}

/// The outcome of the observability lane: the report plus everything the
/// recorder captured while producing it.
#[derive(Debug, Clone)]
pub struct FleetObsTable {
    /// Scenario name.
    pub scenario: String,
    /// The controller's report (one trace tree per epoch and solver effort
    /// included).
    pub report: FleetReport,
    /// What the chaos layer injected.
    pub chaos: ChaosSummary,
    /// Merged snapshot of every metric the run emitted.
    pub snapshot: MetricsSnapshot,
    /// The flight recorder's retained events, oldest first.
    pub events: Vec<Event>,
    /// Leaderboard size requested by the spec.
    pub top_k: usize,
}

/// The chaos fault rates of the lane: high enough that a 96-epoch run
/// reliably shows every event kind, low enough that serving still succeeds.
fn lane_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        timeout_rate: 0.04,
        infeasible_rate: 0.02,
        singular_rate: 0.02,
        poison_prior_rate: 0.04,
        arbitration_delay_rate: 0.08,
        ..ChaosConfig::with_seed(seed)
    }
}

/// Runs the chaos-wrapped failure-coupled scenario with a recording sink
/// installed at every layer.
///
/// # Errors
///
/// Propagates solver failures from the controller (injected faults are
/// absorbed by the degradation ladder, never propagated).
pub fn run_fleet_obs_experiment(spec: &FleetObsSpec) -> SolveResult<FleetObsTable> {
    run_fleet_obs_experiment_with(spec, Arc::new(Recorder::new()))
}

/// [`run_fleet_obs_experiment`] against a caller-provided [`Recorder`] —
/// the entry point `repro fleet-obs --serve` uses so a live
/// [`rental_obs::Exporter`] bound to the same recorder can be scraped
/// while the run executes.
///
/// # Errors
///
/// Propagates solver failures from the controller (injected faults are
/// absorbed by the degradation ladder, never propagated).
pub fn run_fleet_obs_experiment_with(
    spec: &FleetObsSpec,
    recorder: Arc<Recorder>,
) -> SolveResult<FleetObsTable> {
    let (scenario, config) =
        failure_coupled_fleet(spec.num_tenants, spec.seed, spec.mtbf, spec.repair_time);
    let mut policy = scenario.policy;
    policy.threads = spec.threads;

    // Global for the LP/solver layers, explicit for the controller. Alert
    // rules on: the chaotic run gives the burn-rate and streak rules real
    // transitions to show.
    let _guard = install_scoped(recorder.clone());
    let controller = FleetController::new(policy)
        .with_telemetry(recorder.clone())
        .with_alerts(AlertPolicy::default());
    let (report, stats) = controller.run_with_chaos(
        &failure_sweep_solver(),
        &scenario.tenants,
        &config,
        lane_chaos(spec.seed),
    )?;

    Ok(FleetObsTable {
        scenario: scenario.name,
        report,
        chaos: ChaosSummary {
            timeouts: stats.timeouts(),
            infeasibles: stats.infeasibles(),
            singulars: stats.singulars(),
            poisoned_priors: stats.poisoned_priors(),
            delayed_arbitrations: stats.delayed_arbitrations(),
        },
        snapshot: recorder.snapshot(),
        events: recorder.flight().events(),
        top_k: spec.top_k,
    })
}

/// The headline counters worth surfacing in the Markdown rendering; the
/// full catalogue is in `METRICS.md` and in the `--json` dump.
const HEADLINE_COUNTERS: [&str; 8] = [
    "lp.solves",
    "lp.iterations",
    "lp.refactorizations",
    "mip.nodes",
    "solver.warm_start_hits",
    "solver.prior_floor_prunes",
    "fleet.resolves",
    "fleet.degraded_resolves",
];

/// Renders the observability lane as Markdown: stage breakdown, solver
/// effort leaderboard, headline counters and the flight-recorder tail.
pub fn fleet_obs_markdown(table: &FleetObsTable) -> String {
    let report = &table.report;
    let mut out = String::new();

    // Per-stage epoch breakdown.
    let stages = Stage::ALL.map(|stage| (stage, report.stage_seconds(stage)));
    let total = (stages.iter().map(|(_, s)| s).sum::<f64>()).max(f64::MIN_POSITIVE);
    let epochs = report.epochs.max(1) as f64;
    out.push_str("| stage | total (ms) | share | mean per epoch (µs) |\n");
    out.push_str("|---|---:|---:|---:|\n");
    for (stage, seconds) in stages {
        out.push_str(&format!(
            "| {} | {:.2} | {:.1}% | {:.1} |\n",
            stage.name(),
            1e3 * seconds,
            100.0 * seconds / total,
            1e6 * seconds / epochs,
        ));
    }
    out.push_str(&format!(
        "\noutside the epochs: {}; {}\n",
        render_phases(&report.init_timing),
        render_phases(&report.finish_timing),
    ));

    // Per-epoch critical path: which chain bounded each epoch, and how
    // much of it was the merge barrier (the ROADMAP's `merge_wait`
    // question, answered with a number).
    const MAX_PATH_ROWS: usize = 32;
    let trees = &report.epoch_timing;
    let skipped = trees.len().saturating_sub(MAX_PATH_ROWS);
    out.push_str("\ncritical path per epoch");
    if skipped > 0 {
        out.push_str(&format!(" (first {skipped} epochs elided)"));
    }
    out.push_str(":\n");
    out.push_str("| epoch | wall (µs) | attributed (µs) | dominant | probe shards | barrier (µs) | barrier share |\n");
    out.push_str("|---:|---:|---:|---|---:|---:|---:|\n");
    for tree in trees.iter().skip(skipped) {
        let path = tree.critical_path();
        let dominant = path.dominant().map_or("-", |s| s.name);
        let shards = path
            .steps
            .iter()
            .find(|s| s.name == "shard_probe")
            .map_or(0, |s| s.fanout);
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {} | {} | {:.1} | {:.1}% |\n",
            path.trace_id,
            1e6 * path.wall_seconds,
            1e6 * path.attributed_seconds,
            dominant,
            shards,
            1e6 * path.barrier_seconds,
            100.0 * path.barrier_share(),
        ));
    }
    let summary = TraceSummary::from_trees(trees);
    out.push_str(&format!(
        "\naggregated over {} epochs: attributed {:.2} ms of {:.2} ms wall, \
         barrier share {:.1}%; per step:",
        summary.epochs,
        1e3 * summary.attributed_seconds,
        1e3 * summary.wall_seconds,
        100.0 * summary.barrier_share(),
    ));
    for step in &summary.steps {
        out.push_str(&format!(" {},", render_step(step)));
    }
    out.pop();
    out.push('\n');

    // Alert plane: totals plus the rules still firing at run end.
    let counter = |name: &str| table.snapshot.counters.get(name).copied().unwrap_or(0);
    let firing: Vec<&str> = AlertRule::ALL
        .iter()
        .filter(|rule| table.snapshot.gauges.get(rule.gauge_name()) == Some(&1.0))
        .map(|rule| rule.name())
        .collect();
    out.push_str(&format!(
        "\nalerts: {} fired, {} resolved; firing at run end: {}\n",
        counter("obs.alerts_fired"),
        counter("obs.alerts_resolved"),
        if firing.is_empty() {
            "none".to_string()
        } else {
            firing.join(", ")
        },
    ));

    // Solver-effort leaderboard.
    out.push_str("\n| rank | tenant | solves | nodes | LP iterations | work |\n");
    out.push_str("|---:|---|---:|---:|---:|---:|\n");
    for (rank, &index) in report.top_effort(table.top_k).iter().enumerate() {
        let tenant = &report.tenants[index];
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            rank + 1,
            tenant.name,
            tenant.effort.solves,
            tenant.effort.nodes,
            tenant.effort.lp_iterations,
            tenant.effort.work(),
        ));
    }

    out.push_str("\nheadline counters:\n");
    for name in HEADLINE_COUNTERS {
        let value = table.snapshot.counters.get(name).copied().unwrap_or(0);
        out.push_str(&format!("  {name} = {value}\n"));
    }
    out.push_str(&format!(
        "\nchaos injected: {} timeouts, {} infeasibles, {} singulars, {} poisoned priors, \
         {} delayed arbitrations\n",
        table.chaos.timeouts,
        table.chaos.infeasibles,
        table.chaos.singulars,
        table.chaos.poisoned_priors,
        table.chaos.delayed_arbitrations,
    ));

    // Flight-recorder tail.
    out.push_str(&format!(
        "\nflight recorder ({} events retained):\n",
        table.events.len()
    ));
    out.push_str("| seq | epoch | kind | tenant | value | detail |\n");
    out.push_str("|---:|---:|---|---:|---:|---|\n");
    for event in &table.events {
        let tenant = event
            .tenant
            .map(|t| t.to_string())
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {} |\n",
            event.seq,
            event.epoch,
            event.kind.name(),
            tenant,
            event.value,
            event.detail,
        ));
    }
    out
}

/// A run-phase tree (`init` or `finish`) as its wall, then its phases in
/// parentheses.
fn render_phases(tree: &TraceTree) -> String {
    let phases: Vec<String> = (tree.children(ROOT))
        .map(|s| format!("{} {:.2} ms", s.name, 1e3 * s.seconds))
        .collect();
    let root = tree.root();
    format!(
        "{} {:.2} ms ({})",
        root.name,
        1e3 * root.seconds,
        phases.join(", ")
    )
}

/// A summary step as `name seconds`, its sub-steps in parentheses.
fn render_step(step: &StepTotal) -> String {
    let mut out = format!("{} {:.2} ms", step.name, 1e3 * step.seconds);
    if !step.children.is_empty() {
        let inner: Vec<String> = step.children.iter().map(render_step).collect();
        out.push_str(&format!(" ({})", inner.join(", ")));
    }
    out
}

/// The observability lane's rows: the report's telemetry rows, one chaos
/// row, every metric, one row per phase of the run outside its epochs, the
/// per-epoch critical paths with their summary, and every retained event.
pub fn fleet_obs_rows(table: &FleetObsTable) -> Vec<JsonRow> {
    let mut rows = table.report.telemetry();
    rows.push(
        JsonRow::new()
            .str("record", "chaos")
            .usize("timeouts", table.chaos.timeouts)
            .usize("infeasibles", table.chaos.infeasibles)
            .usize("singulars", table.chaos.singulars)
            .usize("poisoned_priors", table.chaos.poisoned_priors)
            .usize("delayed_arbitrations", table.chaos.delayed_arbitrations),
    );
    rows.extend(table.snapshot.rows());
    for tree in [&table.report.init_timing, &table.report.finish_timing] {
        rows.extend(tree.children(ROOT).map(|phase| {
            JsonRow::new()
                .str("record", "run_phase")
                .str("tree", tree.root().name)
                .str("phase", phase.name)
                .f64("seconds", phase.seconds)
        }));
    }
    let trees = &table.report.epoch_timing;
    rows.extend(trees.iter().map(|tree| {
        let path = tree.critical_path();
        JsonRow::new()
            .str("record", "critical_path")
            .u64("epoch", path.trace_id)
            .f64("wall_seconds", path.wall_seconds)
            .f64("attributed_seconds", path.attributed_seconds)
            .f64("barrier_seconds", path.barrier_seconds)
            .f64("barrier_share", path.barrier_share())
            .str("dominant", path.dominant().map_or("-", |s| s.name))
    }));
    let summary = TraceSummary::from_trees(trees);
    rows.push(
        JsonRow::new()
            .str("record", "trace_summary")
            .usize("epochs", summary.epochs)
            .f64("wall_seconds", summary.wall_seconds)
            .f64("attributed_seconds", summary.attributed_seconds)
            .f64("barrier_seconds", summary.barrier_seconds)
            .f64("barrier_share", summary.barrier_share()),
    );
    rows.extend(table.events.iter().map(Event::row));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::rows_jsonl;
    use rental_obs::EventKind;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Every run of the lane installs the process-global LP/solver sink, and
    /// a run's guard uninstalls whatever sink is installed when it drops —
    /// so tests running the lane hold this lock for their whole run.
    fn exclusive_global_sink() -> MutexGuard<'static, ()> {
        static GLOBAL_SINK: Mutex<()> = Mutex::new(());
        GLOBAL_SINK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn small_spec() -> FleetObsSpec {
        FleetObsSpec {
            num_tenants: 3,
            seed: 11,
            top_k: 2,
            ..FleetObsSpec::default()
        }
    }

    #[test]
    fn obs_lane_captures_stages_effort_metrics_and_events() {
        let _sink = exclusive_global_sink();
        let table = run_fleet_obs_experiment(&small_spec()).unwrap();
        assert_eq!(table.report.tenants.len(), 3);
        let stages: f64 = Stage::ALL
            .map(|s| table.report.stage_seconds(s))
            .iter()
            .sum();
        assert!(stages > 0.0);
        assert!(table.report.effort().solves > 0);
        assert!(
            table
                .snapshot
                .counters
                .get("lp.solves")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(
            table
                .snapshot
                .counters
                .get("fleet.epochs")
                .copied()
                .unwrap_or(0)
                > 0
        );
        assert!(!table.events.is_empty(), "a chaotic run records events");
        // The report keeps exactly one trace tree per epoch, in order.
        let trees = &table.report.epoch_timing;
        assert_eq!(trees.len(), table.report.epochs);
        for (epoch, tree) in trees.iter().enumerate() {
            assert_eq!(tree.trace_id, epoch as u64);
            assert_eq!(tree.root().name, "epoch");
        }
        let markdown = fleet_obs_markdown(&table);
        assert!(markdown.contains("outside the epochs: init "));
        assert!(markdown.contains("solve "));
        assert!(markdown.contains("; finish "));
        assert!(markdown.contains("reports "));
        assert!(markdown.contains("| probe |"));
        assert!(markdown.contains("| persist |"));
        assert!(markdown.contains("critical path per epoch"));
        assert!(markdown.contains("barrier share"));
        assert!(markdown.contains("alerts:"));
        assert!(markdown.contains("flight recorder"));
        let json = rows_jsonl(&fleet_obs_rows(&table));
        assert!(json.contains("\"record\":\"fleet\""));
        assert!(json.contains("\"record\":\"chaos\""));
        assert!(json.contains("\"record\":\"critical_path\""));
        assert!(json.contains("\"record\":\"trace_summary\""));
        assert!(json.contains("\"record\":\"run_phase\",\"tree\":\"init\",\"phase\":\"solve\""));
        assert!(json.contains("\"tree\":\"finish\",\"phase\":\"release\""));
        assert!(json.contains("\"metric\":\"lp.solves\""));
    }

    #[test]
    fn obs_lane_event_sequences_are_deterministic() {
        let _sink = exclusive_global_sink();
        let a = run_fleet_obs_experiment(&small_spec()).unwrap();
        let b = run_fleet_obs_experiment(&small_spec()).unwrap();
        let key = |events: &[Event]| -> Vec<(u64, usize, EventKind, Option<usize>)> {
            events
                .iter()
                .map(|e| (e.seq, e.epoch, e.kind, e.tenant))
                .collect()
        };
        assert_eq!(key(&a.events), key(&b.events));
        assert!(a.report.matches_modulo_timing(&b.report));
        assert_eq!(a.chaos, b.chaos);
        // Trace-tree *structure* is deterministic (span names, parents and
        // ids); only the measured seconds differ between runs.
        type SpanShape = (u32, Option<u32>, &'static str);
        let shape = |report: &FleetReport| -> Vec<(u64, Vec<SpanShape>)> {
            (report.epoch_timing.iter())
                .map(|t| {
                    (
                        t.trace_id,
                        t.spans.iter().map(|s| (s.id, s.parent, s.name)).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(a.report.epoch_timing.len(), a.report.epochs);
        assert_eq!(shape(&a.report), shape(&b.report));
        let phases = |tree: &TraceTree| -> Vec<&'static str> {
            tree.children(ROOT).map(|s| s.name).collect()
        };
        assert_eq!(phases(&a.report.init_timing), phases(&b.report.init_timing));
        assert_eq!(
            phases(&a.report.init_timing),
            ["peaks", "requests", "solve", "derive", "states", "coupling"]
        );
        assert_eq!(
            phases(&a.report.finish_timing),
            ["headroom", "reports", "release"]
        );
    }
}
