//! The fleet-scaling experiment: sharded-vs-sequential epoch-loop
//! throughput at 10³–10⁴ tenants.
//!
//! This lane drives the `rental-fleet` controller over the synthetic
//! plateau-shift **scaling fleet** (every tenant probes every epoch, nobody
//! re-solves — the epoch loop itself is the workload) at a sweep of fleet
//! sizes, once with the sequential loop (`shards: Some(1)`) and once with
//! the sharded pipelines (`FleetPolicy::shards`). The headline metric is
//! **tenant-epochs/sec**: tenants × epochs over the wall-clock of the epoch
//! loop alone. A disabled telemetry sink times the loop directly, from the
//! first `fleet.epochs` increment (the first epoch starts) to the last
//! `fleet.epoch_watermark` gauge (the last epoch ends), so neither the
//! initial solve fan-out nor the report's baselines count. A measurement
//! repeats its run until the loops add up to `MIN_LOOP_SECS` (0.2 s) and keeps
//! the fastest loop: a 1k-tenant loop lasts a few tens of milliseconds,
//! shorter than the host's noise, so two runs are not enough to find an
//! undisturbed one. Every row also re-checks
//! the determinism contract: the sharded report must be bit-identical
//! (modulo the wall-clock timing family) to the sequential one.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rental_fleet::{scaling_fleet, FleetController, FleetPolicy, FleetReport, FleetScenario};
use rental_obs::json::JsonRow;
use rental_obs::TelemetrySink;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveResult;

pub use rental_fleet::SCALING_EPOCHS;

/// Parameters of the fleet-scaling sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleSpec {
    /// Fleet sizes to sweep (tenants per row).
    pub sizes: Vec<usize>,
    /// Scenario seed (instances, demand plateaus).
    pub seed: u64,
    /// Shard count of the sharded run; `None` auto-sizes from the fleet
    /// and worker count (the production default).
    pub shards: Option<usize>,
    /// Fewest timed runs per measurement.
    pub trials: usize,
}

/// A measurement repeats its run until the runs' epoch loops add up to at
/// least this many seconds.
const MIN_LOOP_SECS: f64 = 0.2;

impl Default for FleetScaleSpec {
    fn default() -> Self {
        FleetScaleSpec {
            sizes: vec![1_000, 4_000],
            seed: 0x5CA1E5,
            shards: None,
            trials: 2,
        }
    }
}

/// The timed runs of one measurement: how many there were, and the run
/// with the fastest epoch loop — its loop as the stamping sink saw it, and
/// the whole run around it.
#[derive(Debug, Clone, Copy)]
pub struct LoopTiming {
    /// Runs timed.
    pub runs: usize,
    /// Epochs the loop served (`fleet.epochs` increments).
    pub epochs: usize,
    /// Seconds from the first epoch's start to the last epoch's end.
    pub loop_secs: f64,
    /// Wall seconds of the whole run: init fan-out, epoch loop and report.
    pub run_secs: f64,
}

impl LoopTiming {
    /// Tenant-epochs per second of loop time.
    pub fn teps(&self, tenants: usize) -> f64 {
        (tenants * self.epochs) as f64 / self.loop_secs.max(1e-9)
    }
}

/// One fleet-size row of the sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleRow {
    /// Scenario name of this row's fleet.
    pub scenario: String,
    /// Tenants in this row.
    pub tenants: usize,
    /// Shard count the sharded run actually used.
    pub shards_used: usize,
    /// The sequential runs, by the fastest loop.
    pub sequential: LoopTiming,
    /// The sharded runs, by the fastest loop.
    pub sharded: LoopTiming,
    /// Whether the sharded report was bit-identical (modulo timing) to the
    /// sequential one.
    pub deterministic: bool,
}

impl FleetScaleRow {
    /// Sequential tenant-epochs/sec.
    pub fn sequential_teps(&self) -> f64 {
        self.sequential.teps(self.tenants)
    }

    /// Sharded tenant-epochs/sec — the headline metric.
    pub fn sharded_teps(&self) -> f64 {
        self.sharded.teps(self.tenants)
    }

    /// Sharded-over-sequential speedup.
    pub fn speedup(&self) -> f64 {
        self.sharded_teps() / self.sequential_teps()
    }
}

/// The outcome of the sweep.
#[derive(Debug, Clone)]
pub struct FleetScaleTable {
    /// Worker threads rayon reports available.
    pub cores: usize,
    /// One row per fleet size, in spec order.
    pub rows: Vec<FleetScaleRow>,
}

impl FleetScaleTable {
    /// Whether every row reproduced the sequential report exactly.
    pub fn all_deterministic(&self) -> bool {
        self.rows.iter().all(|row| row.deterministic)
    }
}

/// A sink that stays disabled (so the controller skips every
/// allocation-heavy emission) and stamps the epoch loop: the first
/// `fleet.epochs` increment opens it, the last `fleet.epoch_watermark` gauge
/// closes it. Holds (epochs counted, loop start, loop end).
#[derive(Default)]
struct LoopClock(Mutex<(usize, Option<Instant>, Option<Instant>)>);

impl TelemetrySink for LoopClock {
    fn counter(&self, name: &'static str, delta: u64) {
        if name == "fleet.epochs" {
            let mut stamps = self.0.lock().expect("loop clock");
            stamps.0 += delta as usize;
            stamps.1.get_or_insert_with(Instant::now);
        }
    }

    fn gauge(&self, name: &'static str, _value: f64) {
        if name == "fleet.epoch_watermark" {
            self.0.lock().expect("loop clock").2 = Some(Instant::now());
        }
    }
}

/// Runs `scenario` under `policy` at least `trials` times, and until the
/// runs' epoch loops add up to [`MIN_LOOP_SECS`]; returns the timing of the
/// run with the fastest loop and the last run's report. Every run must
/// report the same.
fn timed_runs(
    scenario: &FleetScenario,
    policy: FleetPolicy,
    trials: usize,
) -> SolveResult<(LoopTiming, FleetReport)> {
    let (mut runs, mut loop_total) = (0, 0.0);
    let mut fastest: Option<LoopTiming> = None;
    let mut last: Option<FleetReport> = None;
    while runs < trials.max(1) || (loop_total < MIN_LOOP_SECS && loop_total > 0.0) {
        let clock = Arc::new(LoopClock::default());
        let controller = FleetController::new(policy).with_telemetry(clock.clone());
        let start = Instant::now();
        let report = controller.run(&IlpSolver::new(), &scenario.tenants)?;
        let run_secs = start.elapsed().as_secs_f64();
        let (epochs, first, end) = *clock.0.lock().expect("loop clock");
        let loop_secs = match (first, end) {
            (Some(first), Some(end)) => end.duration_since(first).as_secs_f64(),
            _ => 0.0,
        };
        if let Some(previous) = &last {
            assert!(
                report.matches_modulo_timing(previous),
                "repeated runs of one scenario diverged"
            );
        }
        last = Some(report);
        runs += 1;
        loop_total += loop_secs;
        if fastest.is_none_or(|f| loop_secs < f.loop_secs) {
            fastest = Some(LoopTiming {
                runs,
                epochs,
                loop_secs,
                run_secs,
            });
        }
    }
    let timing = LoopTiming {
        runs,
        ..fastest.expect("at least one run")
    };
    Ok((timing, last.expect("at least one run")))
}

/// Runs the sequential-vs-sharded scaling sweep.
///
/// # Errors
///
/// Propagates solver failures from the controller.
pub fn run_fleet_scale_experiment(spec: &FleetScaleSpec) -> SolveResult<FleetScaleTable> {
    let mut rows = Vec::with_capacity(spec.sizes.len());
    for &tenants in &spec.sizes {
        let scenario = scaling_fleet(tenants, spec.seed);
        let sharded_policy = FleetPolicy {
            shards: spec.shards,
            ..scenario.policy
        };
        let sequential_policy = FleetPolicy {
            shards: Some(1),
            ..scenario.policy
        };
        let (sequential, sequential_report) =
            timed_runs(&scenario, sequential_policy, spec.trials)?;
        let (sharded, sharded_report) = timed_runs(&scenario, sharded_policy, spec.trials)?;
        rows.push(FleetScaleRow {
            scenario: scenario.name,
            tenants,
            shards_used: sharded_policy.shard_count(tenants),
            sequential,
            sharded,
            deterministic: sequential_report.matches_modulo_timing(&sharded_report),
        });
    }
    Ok(FleetScaleTable {
        cores: rayon::current_num_threads(),
        rows,
    })
}

/// The scaling sweep's rows: one `fleet_scale` row per fleet size.
pub fn fleet_scale_rows(table: &FleetScaleTable) -> Vec<JsonRow> {
    table
        .rows
        .iter()
        .map(|row| {
            JsonRow::new()
                .str("record", "fleet_scale")
                .str("scenario", &row.scenario)
                .usize("cores", table.cores)
                .usize("tenants", row.tenants)
                .usize("shards", row.shards_used)
                .usize("sequential_runs", row.sequential.runs)
                .usize("sharded_runs", row.sharded.runs)
                .usize("sequential_epochs", row.sequential.epochs)
                .usize("sharded_epochs", row.sharded.epochs)
                .f64("sequential_secs", row.sequential.loop_secs)
                .f64("sharded_secs", row.sharded.loop_secs)
                .f64("sequential_run_secs", row.sequential.run_secs)
                .f64("sharded_run_secs", row.sharded.run_secs)
                .f64("sequential_teps", row.sequential_teps())
                .f64("sharded_teps", row.sharded_teps())
                .f64("speedup", row.speedup())
                .bool("deterministic", row.deterministic)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_jsonl, rows_markdown};

    #[test]
    fn small_scale_sweep_measures_and_stays_deterministic() {
        let spec = FleetScaleSpec {
            sizes: vec![96],
            seed: 7,
            shards: Some(4),
            trials: 1,
        };
        let table = run_fleet_scale_experiment(&spec).unwrap();
        assert_eq!(table.rows.len(), 1);
        let row = &table.rows[0];
        assert_eq!(row.shards_used, 4);
        assert!(row.sequential_teps() > 0.0);
        assert!(row.sharded_teps() > 0.0);
        // Each timed loop spans every epoch and sits inside its run.
        for timing in [row.sequential, row.sharded] {
            assert_eq!(timing.epochs, SCALING_EPOCHS);
            assert!(timing.loop_secs > 0.0);
            assert!(timing.loop_secs < timing.run_secs);
        }
        assert!(table.all_deterministic());
        let rows = fleet_scale_rows(&table);
        let markdown = rows_markdown(&rows);
        assert!(markdown.contains("| 96 | 4 |"));
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        let json = rows_jsonl(&rows);
        assert!(json.contains("\"record\":\"fleet_scale\""));
    }

    #[test]
    fn every_row_names_its_own_scenario() {
        let spec = FleetScaleSpec {
            sizes: vec![8, 16],
            seed: 7,
            shards: Some(2),
            trials: 1,
        };
        let json = rows_jsonl(&fleet_scale_rows(
            &run_fleet_scale_experiment(&spec).unwrap(),
        ));
        assert_eq!(json.lines().count(), 2);
        for (line, name) in json.lines().zip(["scaling-8", "scaling-16"]) {
            assert!(line.contains(&format!("\"scenario\":\"{name}\"")), "{line}");
        }
    }
}
