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
//! alternates sequential and sharded runs, switching which goes first, until
//! each side's loops add up to `MIN_LOOP_SECS`, spread over rounds that
//! visit every fleet size in turn, and reports each side's median with its
//! quartiles: a 1k-tenant loop lasts a few milliseconds, shorter than the
//! host's noise, and a shared host's speed drifts between runs, so neither
//! one run nor the fastest of many repeats from sweep to sweep. Every row
//! also re-checks the determinism contract: the sharded report must be
//! bit-identical (modulo the wall-clock timing family) to the sequential
//! one.

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
    /// Fewest timed runs per side of a measurement.
    pub trials: usize,
}

/// A measurement repeats its runs until each side's epoch loops add up to at
/// least this many seconds.
const MIN_LOOP_SECS: f64 = 2.0;

/// Rounds the repeats of a sweep are spread over.
const ROUNDS: usize = 8;

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

/// One side's timed runs: how many there were, and their medians and
/// quartiles.
#[derive(Debug, Clone, Copy)]
pub struct LoopTiming {
    /// Runs timed.
    pub runs: usize,
    /// Epochs the loop served (`fleet.epochs` increments).
    pub epochs: usize,
    /// Median seconds from the first epoch's start to the last epoch's end.
    pub loop_secs: f64,
    /// Median wall seconds of the whole run: init fan-out, epoch loop and
    /// report.
    pub run_secs: f64,
    /// Tenant-epochs per second of loop time: p25, median and p75.
    pub teps: [f64; 3],
}

impl LoopTiming {
    fn new(tenants: usize, epochs: usize, loops: &[f64], runs: &[f64]) -> Self {
        let [p25, loop_secs, p75] = quartiles(loops);
        let teps = |secs: f64| (tenants * epochs) as f64 / secs.max(1e-9);
        LoopTiming {
            runs: loops.len(),
            epochs,
            loop_secs,
            run_secs: quartiles(runs)[1],
            // The slowest quarter of the loops is the lowest quarter of the
            // rates.
            teps: [teps(p75), teps(loop_secs), teps(p25)],
        }
    }
}

/// p25, median and p75 of `samples`, interpolated between order
/// statistics.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (low, high) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[low] + (sorted[high] - sorted[low]) * (pos - low as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
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
    /// The sequential runs.
    pub sequential: LoopTiming,
    /// The sharded runs.
    pub sharded: LoopTiming,
    /// Whether the sharded report was bit-identical (modulo timing) to the
    /// sequential one.
    pub deterministic: bool,
}

impl FleetScaleRow {
    /// Sharded-over-sequential speedup of the median tenant-epochs/sec.
    pub fn speedup(&self) -> f64 {
        self.sharded.teps[1] / self.sequential.teps[1]
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

/// One fleet size's measurement in progress: per side (sequential,
/// sharded), the epochs its loop served, every run's loop and wall seconds,
/// and the last report, which every repeat must reproduce.
struct Measurement {
    scenario: FleetScenario,
    policies: [FleetPolicy; 2],
    epochs: [usize; 2],
    loops: [Vec<f64>; 2],
    runs: [Vec<f64>; 2],
    reports: [Option<FleetReport>; 2],
}

impl Measurement {
    fn new(spec: &FleetScaleSpec, tenants: usize) -> Self {
        let scenario = scaling_fleet(tenants, spec.seed);
        let policies = [Some(1), spec.shards].map(|shards| FleetPolicy {
            shards,
            ..scenario.policy
        });
        Measurement {
            scenario,
            policies,
            epochs: [0; 2],
            loops: Default::default(),
            runs: Default::default(),
            reports: Default::default(),
        }
    }

    /// The epoch-loop seconds a side has collected.
    fn loop_total(&self, side: usize) -> f64 {
        self.loops[side].iter().sum()
    }

    /// Whether a side still lacks `trials` runs or `min_loop_secs` of loop.
    fn pending(&self, trials: usize, min_loop_secs: f64) -> bool {
        (0..2).any(|side| {
            let total = self.loop_total(side);
            self.loops[side].len() < trials.max(1) || (total < min_loop_secs && total > 0.0)
        })
    }

    /// One timed run of each side. The side that goes first alternates, so
    /// a host whose speed drifts favours neither.
    fn run_pair(&mut self) -> SolveResult<()> {
        let first = self.loops[0].len() % 2;
        for side in [first, 1 - first] {
            let clock = Arc::new(LoopClock::default());
            let controller =
                FleetController::new(self.policies[side]).with_telemetry(clock.clone());
            let start = Instant::now();
            let report = controller.run(&IlpSolver::new(), &self.scenario.tenants)?;
            let run_secs = start.elapsed().as_secs_f64();
            let (epochs, open, close) = *clock.0.lock().expect("loop clock");
            let loop_secs = match (open, close) {
                (Some(open), Some(close)) => close.duration_since(open).as_secs_f64(),
                _ => 0.0,
            };
            if let Some(previous) = &self.reports[side] {
                assert!(
                    report.matches_modulo_timing(previous),
                    "repeated runs of one scenario diverged"
                );
            }
            self.epochs[side] = epochs;
            self.loops[side].push(loop_secs);
            self.runs[side].push(run_secs);
            self.reports[side] = Some(report);
        }
        Ok(())
    }

    fn finish(self) -> FleetScaleRow {
        let tenants = self.scenario.tenants.len();
        let [sequential, sharded] = [0, 1].map(|side| {
            LoopTiming::new(
                tenants,
                self.epochs[side],
                &self.loops[side],
                &self.runs[side],
            )
        });
        let [sequential_report, sharded_report] =
            self.reports.map(|report| report.expect("at least one run"));
        FleetScaleRow {
            scenario: self.scenario.name,
            tenants,
            shards_used: self.policies[1].shard_count(tenants),
            sequential,
            sharded,
            deterministic: sequential_report.matches_modulo_timing(&sharded_report),
        }
    }
}

/// Runs the sequential-vs-sharded scaling sweep.
///
/// # Errors
///
/// Propagates solver failures from the controller.
pub fn run_fleet_scale_experiment(spec: &FleetScaleSpec) -> SolveResult<FleetScaleTable> {
    sweep(spec, MIN_LOOP_SECS)
}

/// The sweep, each side of a row repeating until its loops add up to
/// `min_loop_secs`. The repeats are spread over `ROUNDS` rounds, each of
/// which gives every unfinished row its share of loop time in turn, so a
/// row's runs span the whole sweep and a host whose speed drifts weighs on
/// every row alike.
fn sweep(spec: &FleetScaleSpec, min_loop_secs: f64) -> SolveResult<FleetScaleTable> {
    let mut rows: Vec<Measurement> = (spec.sizes.iter())
        .map(|&tenants| Measurement::new(spec, tenants))
        .collect();
    let slice = min_loop_secs / ROUNDS as f64;
    while rows
        .iter()
        .any(|row| row.pending(spec.trials, min_loop_secs))
    {
        for row in rows.iter_mut() {
            let goal = [0, 1].map(|side| row.loop_total(side) + slice);
            while row.pending(spec.trials, min_loop_secs) {
                row.run_pair()?;
                if (0..2).all(|side| row.loop_total(side) >= goal[side]) {
                    break;
                }
            }
        }
    }
    Ok(FleetScaleTable {
        cores: rayon::current_num_threads(),
        rows: rows.into_iter().map(Measurement::finish).collect(),
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
                .f64("sequential_teps", row.sequential.teps[1])
                .f64("sequential_teps_p25", row.sequential.teps[0])
                .f64("sequential_teps_p75", row.sequential.teps[2])
                .f64("sharded_teps", row.sharded.teps[1])
                .f64("sharded_teps_p25", row.sharded.teps[0])
                .f64("sharded_teps_p75", row.sharded.teps[2])
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
            trials: 3,
        };
        let table = sweep(&spec, 0.0).unwrap();
        assert_eq!(table.rows.len(), 1);
        let row = &table.rows[0];
        assert_eq!(row.shards_used, 4);
        // Each timed loop spans every epoch and sits inside its run, and
        // the sides alternate, so they ran equally often.
        assert_eq!((row.sequential.runs, row.sharded.runs), (3, 3));
        for timing in [row.sequential, row.sharded] {
            assert_eq!(timing.epochs, SCALING_EPOCHS);
            assert!(timing.loop_secs > 0.0);
            assert!(timing.loop_secs < timing.run_secs);
            assert!(0.0 < timing.teps[0] && timing.teps[0] <= timing.teps[1]);
            assert!(timing.teps[1] <= timing.teps[2]);
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
        let json = rows_jsonl(&fleet_scale_rows(&sweep(&spec, 0.0).unwrap()));
        assert_eq!(json.lines().count(), 2);
        for (line, name) in json.lines().zip(["scaling-8", "scaling-16"]) {
            assert!(line.contains(&format!("\"scenario\":\"{name}\"")), "{line}");
        }
    }
}
