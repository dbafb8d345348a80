//! Per-layer metrics of one traced run, named after the crates they time:
//! `fleet` phases from the epoch stamps, `solvers` from the timed calls,
//! `lp` from the ambient counters and a replay of the distinct requests'
//! relaxations, `persist` from the store, `stream` from a replay of the
//! fixed-mix baselines, and `obs` from the traced-vs-untraced wall.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use rental_core::{Instance, Throughput};
use rental_fleet::FleetReport;
use rental_lp::revised::RevisedLp;
use rental_lp::{Model, SimplexOptions};
use rental_solvers::exact::IlpSolver;
use rental_solvers::solver::WarmStartSolver;
use rental_stream::Autoscaler;

use crate::probe::{address, Call, Stamps, STAGE_SPANS};
use crate::stats::{median, percentile, union_within};
use crate::workload::{Prepared, StoreUsage};
use crate::Metric;

/// Minimum wall time of the LP relaxation replay.
const LP_REPLAY_SECONDS: f64 = 0.25;
/// Repetitions of the baseline replay; the median is reported.
const BASELINE_REPLAYS: usize = 3;
/// Snapshot writes and journal appends timed on payloads of the run's sizes.
const SNAPSHOT_WRITES: usize = 7;
const JOURNAL_APPENDS: usize = 64;

/// Everything recorded about one traced run.
pub struct TracedRun {
    pub t0: Instant,
    pub t1: Instant,
    pub stamps: Stamps,
    pub calls: Vec<Call>,
    pub report: FleetReport,
    pub usage: StoreUsage,
}

impl TracedRun {
    pub fn wall(&self) -> f64 {
        (self.t1 - self.t0).as_secs_f64()
    }
}

/// A solve request by value: instance class, target and caps.
type RequestKey = (usize, Throughput, Option<Vec<u64>>);

/// Groups the tenants' instances into classes of equal value, and the calls
/// into distinct requests (first occurrence order).
struct Requests<'a> {
    classes: Vec<&'a Instance>,
    class_of_tenant: Vec<usize>,
    distinct: Vec<RequestKey>,
}

impl<'a> Requests<'a> {
    /// `None` when a call named an instance that is not a tenant's.
    fn of(prepared: &'a Prepared, calls: &[Call]) -> Option<Requests<'a>> {
        let mut classes: Vec<&Instance> = Vec::new();
        let mut class_by_value: HashMap<String, usize> = HashMap::new();
        let mut class_by_address: HashMap<usize, usize> = HashMap::new();
        let class_of_tenant = prepared
            .tenants
            .iter()
            .map(|t| {
                let class = *class_by_value
                    .entry(format!("{:?}", t.instance))
                    .or_insert_with(|| {
                        classes.push(&t.instance);
                        classes.len() - 1
                    });
                class_by_address.insert(address(&t.instance), class);
                class
            })
            .collect();
        let mut seen = HashSet::new();
        let mut distinct = Vec::new();
        for call in calls {
            let key = (
                *class_by_address.get(&call.instance)?,
                call.target,
                call.caps.clone(),
            );
            if seen.insert(key.clone()) {
                distinct.push(key);
            }
        }
        Some(Requests {
            classes,
            class_of_tenant,
            distinct,
        })
    }
}

fn seconds_since(t0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64()
}

/// Derives every per-layer metric of `run`. `untraced_s` is the median wall
/// of the untraced runs of the same invocation. Failed consistency checks
/// are appended to `failures`.
pub fn metrics(
    prepared: &Prepared,
    run: &TracedRun,
    untraced_s: f64,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric::new(name, value, unit));
    };
    let wall = run.wall();
    let stamps = &run.stamps;
    let epochs = run.report.epochs;
    if stamps.epoch_starts.len() != epochs || stamps.epoch_ends.len() != epochs || epochs == 0 {
        failures.push(format!(
            "the sink saw {} epoch starts and {} ends in a {epochs}-epoch run",
            stamps.epoch_starts.len(),
            stamps.epoch_ends.len()
        ));
        return out;
    }
    let Some(requests) = Requests::of(prepared, &run.calls) else {
        failures.push("a solver call named an instance that is not a tenant's".to_string());
        return out;
    };

    // fleet: the first epoch start and the last epoch end cut the run wall
    // into init, loop and finish.
    let loop_start = seconds_since(run.t0, stamps.epoch_starts[0]);
    let loop_end = seconds_since(run.t0, stamps.epoch_ends[epochs - 1]);
    let intervals: Vec<(f64, f64)> = run
        .calls
        .iter()
        .map(|c| (seconds_since(run.t0, c.start), seconds_since(run.t0, c.end)))
        .collect();
    let epoch_ms: Vec<f64> = stamps
        .epoch_starts
        .iter()
        .zip(&stamps.epoch_ends)
        .map(|(&s, &e)| e.saturating_duration_since(s).as_secs_f64() * 1e3)
        .collect();
    let (init, lp, finish) = (loop_start, loop_end - loop_start, wall - loop_end);
    put("fleet.run_s", wall, "s");
    put("fleet.init_s", init, "s");
    put("fleet.loop_s", lp, "s");
    put("fleet.finish_s", finish, "s");
    let init_solving = union_within(&intervals, 0.0, loop_start);
    put("fleet.init_nonsolve_s", init - init_solving, "s");
    let loop_solving = union_within(&intervals, loop_start, loop_end);
    put("fleet.loop_nonsolve_s", lp - loop_solving, "s");
    put("fleet.epoch_p50_ms", median(&epoch_ms), "ms");
    put("fleet.epoch_p90_ms", percentile(&epoch_ms, 0.9), "ms");
    put("fleet.epoch_max_ms", percentile(&epoch_ms, 1.0), "ms");
    for (span, seconds) in STAGE_SPANS.iter().zip(stamps.stage_seconds) {
        let stage = span.trim_start_matches("fleet.span.");
        put(&format!("fleet.stage.{stage}_s"), seconds, "s");
    }

    // solvers: every call into IlpSolver.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |pred: fn(&Call) -> bool| run.calls.iter().filter(|c| pred(c)).count() as f64;
    let call_ms: Vec<f64> = intervals.iter().map(|(s, e)| (e - s) * 1e3).collect();
    let busy = call_ms.iter().sum::<f64>() / 1e3;
    let inflight = union_within(&intervals, 0.0, wall);
    let calls = run.calls.len() as f64;
    let nodes = run.calls.iter().map(|c| c.nodes).sum::<usize>() as f64;
    let lp_iterations = run.calls.iter().map(|c| c.lp_iterations).sum::<usize>() as f64;
    let distinct = requests.distinct.len() as f64;
    put("solvers.calls", calls, "count");
    put("solvers.busy_s", busy, "s");
    put("solvers.inflight_s", inflight, "s");
    put("solvers.parallelism", ratio(busy, inflight), "ratio");
    put("solvers.call_p50_ms", median(&call_ms), "ms");
    put("solvers.call_p99_ms", percentile(&call_ms, 0.99), "ms");
    put("solvers.call_max_ms", percentile(&call_ms, 1.0), "ms");
    put("solvers.nodes", nodes, "count");
    put("solvers.lp_iterations", lp_iterations, "count");
    put("solvers.nodes_per_busy_s", ratio(nodes, busy), "1/s");
    put("solvers.exhausted", count(|c| c.exhausted), "count");
    put("solvers.errors", count(|c| !c.ok), "count");
    put("solvers.distinct_requests", distinct, "count");
    put(
        "solvers.repeat_share",
        1.0 - ratio(distinct, calls),
        "ratio",
    );

    // lp: the ambient counters, and the relaxations of the distinct requests.
    put("lp.iterations", stamps.lp_iterations as f64, "count");
    put(
        "lp.refactorizations",
        stamps.lp_refactorizations as f64,
        "count",
    );
    put(
        "lp.replay_pivots_per_s",
        lp_replay(&requests, failures),
        "1/s",
    );

    // persist: what the run wrote, and the store calls timed at those sizes.
    let usage = run.usage;
    let (snapshot_ms, append_us) = if usage.snapshots > 0 {
        persist_replay(prepared, usage, epochs, failures)
    } else {
        (0.0, 0.0)
    };
    put("persist.journal_bytes", usage.journal_bytes as f64, "B");
    put("persist.snapshot_bytes", usage.snapshot_bytes as f64, "B");
    put("persist.snapshots", usage.snapshots as f64, "count");
    put("persist.snapshot_write_ms", snapshot_ms, "ms");
    put("persist.journal_append_us", append_us, "us");

    // stream: the fixed-mix baselines `finish()` computes.
    let replay_s = baseline_replay(prepared, &requests, &run.report, failures);
    put("stream.baseline_replay_s", replay_s, "s");

    put(
        "obs.trace_overhead_pct",
        (wall / untraced_s - 1.0) * 100.0,
        "%",
    );
    out
}

/// Pivots per second of the revised simplex over the LP relaxations of the
/// run's distinct requests, solved cold, repeated for at least
/// [`LP_REPLAY_SECONDS`].
fn lp_replay(requests: &Requests<'_>, failures: &mut Vec<String>) -> f64 {
    let models: Vec<Model> = requests
        .distinct
        .iter()
        .map(|(class, target, caps)| {
            let instance = requests.classes[*class];
            match caps {
                Some(caps) => IlpSolver::build_model_with_caps(instance, *target, caps),
                None => IlpSolver::build_model(instance, *target),
            }
        })
        .collect();
    if models.is_empty() {
        return 0.0;
    }
    let options = SimplexOptions::default();
    let mut pivots = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < LP_REPLAY_SECONDS {
        for model in &models {
            match RevisedLp::new(model) {
                Ok(lp) => pivots += black_box(lp.solve(&options)).iterations,
                Err(err) => {
                    failures.push(format!("LP replay: {err}"));
                    return 0.0;
                }
            }
        }
    }
    pivots as f64 / start.elapsed().as_secs_f64()
}

/// Median seconds of replaying every tenant's initial mix through
/// `Autoscaler::run`, the baseline work `finish()` does. The replay must
/// reproduce each tenant's reported fixed-mix and static-peak costs exactly.
fn baseline_replay(
    prepared: &Prepared,
    requests: &Requests<'_>,
    report: &FleetReport,
    failures: &mut Vec<String>,
) -> f64 {
    let mut mixes: HashMap<(usize, Throughput), Vec<f64>> = HashMap::new();
    let mut keys = Vec::with_capacity(prepared.tenants.len());
    for ((tenant, &class), row) in prepared
        .tenants
        .iter()
        .zip(&requests.class_of_tenant)
        .zip(&report.tenants)
    {
        let key = (class, row.initial_target);
        if let Entry::Vacant(slot) = mixes.entry(key) {
            // The initial solve the controller ran, repeated: same solver,
            // same target, no prior.
            match prepared
                .solver
                .solve_with_prior(&tenant.instance, row.initial_target, None)
            {
                Ok(outcome) => {
                    slot.insert(Autoscaler::split_fractions(&outcome.solution));
                }
                Err(err) => {
                    failures.push(format!("baseline replay initial solve: {err}"));
                    return 0.0;
                }
            }
        }
        keys.push(key);
    }
    let fractions: Vec<&Vec<f64>> = keys.iter().map(|key| &mixes[key]).collect();
    let autoscaler = Autoscaler::new(prepared.policy.autoscale_policy());
    let mut seconds = Vec::with_capacity(BASELINE_REPLAYS);
    for _ in 0..BASELINE_REPLAYS {
        let start = Instant::now();
        let baselines: Vec<_> = prepared
            .tenants
            .iter()
            .zip(&fractions)
            .map(|(t, mix)| autoscaler.run(&t.instance, mix, &t.trace))
            .collect();
        seconds.push(start.elapsed().as_secs_f64());
        let mismatched = baselines
            .iter()
            .zip(&report.tenants)
            .filter(|(b, t)| {
                b.total_cost != t.fixed_mix_cost || b.static_peak_cost != t.static_peak_cost
            })
            .count();
        if mismatched > 0 {
            failures.push(format!(
                "baseline replay differs from the report on {mismatched} tenants"
            ));
            break;
        }
    }
    median(&seconds)
}

/// Median `Store::write_snapshot` milliseconds and `Store::append_journal`
/// microseconds on payloads of the run's mean snapshot and journal-record
/// sizes, in a scratch store.
fn persist_replay(
    prepared: &Prepared,
    usage: StoreUsage,
    epochs: usize,
    failures: &mut Vec<String>,
) -> (f64, f64) {
    let timed = || -> std::io::Result<(f64, f64)> {
        let store = prepared
            .open_store("persist-replay")?
            .expect("the durable workload has a store");
        let snapshot = vec![0xA5u8; (usage.snapshot_bytes / usage.snapshots as u64) as usize];
        let record = vec![0x5Au8; (usage.journal_bytes / epochs.max(1) as u64) as usize];
        let mut snapshot_ms = Vec::with_capacity(SNAPSHOT_WRITES);
        for epoch in 0..SNAPSHOT_WRITES {
            let start = Instant::now();
            store.write_snapshot(epoch as u64, &snapshot)?;
            snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let mut append_us = Vec::with_capacity(JOURNAL_APPENDS);
        for _ in 0..JOURNAL_APPENDS {
            let start = Instant::now();
            store.append_journal(&record)?;
            append_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        prepared.close_store(Some(store))?;
        Ok((median(&snapshot_ms), median(&append_us)))
    };
    timed().unwrap_or_else(|err| {
        failures.push(format!("persist replay: {err}"));
        (0.0, 0.0)
    })
}
