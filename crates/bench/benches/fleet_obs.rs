#![allow(missing_docs)] // criterion_group!/criterion_main! generate undocumented items

//! Benchmark of the telemetry substrate's **zero-cost** claim on the
//! failure-coupled serving path.
//!
//! Three variants of the identical failure-coupled run are compared:
//!
//! * `baseline` — the untelemetered PR-7 path (the controller's default
//!   `NoopSink`, nothing installed ambiently);
//! * `noop` — an explicit `NoopSink` handed to `with_telemetry`, still
//!   nothing ambient: every instrumentation site is reached and must
//!   inline to nothing;
//! * `recorder` — a live `Recorder` installed both ambiently (LP + solver
//!   layers) and on the controller (spans, fleet counters, events).
//!
//! No experiments lane measures these overheads, so the harness runs the
//! variants itself, asserts the ISSUE-8 acceptance floors and writes one
//! JSON Lines row to `BENCH_fleet_obs.json`:
//!
//! * **decision identity**: both telemetered runs reproduce the baseline
//!   report bit-for-bit (modulo wall-clock timing, the one masked family);
//! * **noop overhead** < 1% of baseline wall-time;
//! * **enabled overhead** < 5% of baseline wall-time.
//!
//! A fourth, **exporter-attached** variant binds the live scrape endpoint
//! on the recorder and hammers `/metrics` from another thread while the
//! epochs execute, pinning the operational-plane acceptance bars:
//!
//! * **scrape transparency**: the scraped-while-running report is still
//!   bit-identical to the untelemetered reference;
//! * **scrape cost**: the mean `/metrics` round-trip against the fully
//!   populated recorder stays under [`SCRAPE_FLOOR`].
//!
//! The overheads are measured on a fleet large enough that one plain run
//! lasts at least [`MIN_RUN_SECONDS`]: the 8-tenant scenario doubles its
//! tenants until it does. On a run of a few tens of milliseconds the
//! scheduler's noise is larger than both floors. Each of [`TRIALS`] trials
//! runs the three variants back to back, in alternating order (baseline
//! first, then baseline last), and an overhead is the minimum over the
//! trials of the variant's wall-time divided by the baseline's of the same
//! trial. Pairing cancels the host's slow drift, alternating the order
//! cancels a bias toward the first or last run of a trial, and the minimum
//! discards trials where contention slowed the variant's run: an overhead
//! fails its floor only when every trial shows it. Wall-times are the
//! minimum over the trials. One worker thread and a node-cap budget keep
//! every run deterministic.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rental_experiments::{rows_jsonl, rows_markdown};
use rental_fleet::{
    failure_coupled_fleet, FleetController, FleetPolicy, FleetReport, ACCEPTANCE_SEED,
};
use rental_obs::json::JsonRow;
use rental_obs::{install_scoped, Exporter, NoopSink, Recorder};
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveBudget;

/// Tenants of the criterion groups' fleet, and where the calibration of the
/// measured fleet starts.
const NUM_TENANTS: usize = 8;
/// The measured fleet doubles its tenants until one plain run lasts this
/// long.
const MIN_RUN_SECONDS: f64 = 1.0;
/// Paired trials; each runs every variant once.
const TRIALS: usize = 7;
/// ISSUE-8 floor: explicit NoopSink within 1% of the untelemetered path.
const NOOP_FLOOR: f64 = 0.01;
/// ISSUE-8 floor: live recorder within 5% of the untelemetered path.
const ENABLED_FLOOR: f64 = 0.05;
/// Sequential `/metrics` round-trips timed against the populated recorder.
const SCRAPES: usize = 50;
/// ISSUE-10 floor: mean scrape round-trip under 10 ms — a scrape merges
/// the metric shards once and renders a few KiB of text; anything slower
/// would make a 1 Hz scraper a tax on the serving host.
const SCRAPE_FLOOR: f64 = 0.010;

fn scenario(
    tenants: usize,
) -> (
    Vec<rental_fleet::TenantSpec>,
    rental_fleet::CapacityConfig,
    FleetPolicy,
) {
    let (scenario, config) = failure_coupled_fleet(tenants, ACCEPTANCE_SEED, 96.0, 4.0);
    let policy = FleetPolicy {
        threads: Some(1),
        epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
        ..scenario.policy
    };
    (scenario.tenants, config, policy)
}

fn run(
    controller: &FleetController,
    tenants: &[rental_fleet::TenantSpec],
    config: &rental_fleet::CapacityConfig,
) -> FleetReport {
    controller
        .run_with_capacity(&IlpSolver::new(), tenants, config)
        .expect("the coupled run solves")
}

/// One blocking `GET /metrics` round-trip; `Some(body)` on a 200.
fn scrape_metrics(addr: SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// Times one whole run.
fn timed(
    controller: &FleetController,
    tenants: &[rental_fleet::TenantSpec],
    config: &rental_fleet::CapacityConfig,
) -> (FleetReport, f64) {
    let start = Instant::now();
    let report = run(controller, tenants, config);
    (report, start.elapsed().as_secs_f64())
}

/// The three measured variants.
#[derive(Clone, Copy)]
enum Variant {
    Baseline,
    Noop,
    Enabled,
}

fn bench_fleet_obs(c: &mut Criterion) {
    let (tenants, config, policy) = scenario(NUM_TENANTS);

    let baseline_controller = FleetController::new(policy);
    let noop_controller = FleetController::new(policy).with_telemetry(Arc::new(NoopSink));

    let mut group = c.benchmark_group("fleet_obs");
    group.sample_size(10);
    group.bench_function("baseline", |b| {
        b.iter(|| run(&baseline_controller, black_box(&tenants), &config).total_cost())
    });
    group.bench_function("noop", |b| {
        b.iter(|| run(&noop_controller, black_box(&tenants), &config).total_cost())
    });
    group.bench_function("recorder", |b| {
        b.iter(|| {
            let recorder = Arc::new(Recorder::new());
            let _guard = install_scoped(recorder.clone());
            let controller = FleetController::new(policy).with_telemetry(recorder);
            run(&controller, black_box(&tenants), &config).total_cost()
        })
    });
    group.finish();

    // ------------------------------------------------------------------
    // The acceptance checks, written to BENCH_fleet_obs.json.
    // ------------------------------------------------------------------

    // The measured fleet: double the tenants until a plain run lasts
    // MIN_RUN_SECONDS.
    let mut num_tenants = NUM_TENANTS;
    let (tenants, config, policy) = loop {
        let (tenants, config, policy) = scenario(num_tenants);
        let (_, seconds) = timed(&FleetController::new(policy), &tenants, &config);
        if seconds >= MIN_RUN_SECONDS {
            break (tenants, config, policy);
        }
        num_tenants *= 2;
    };
    let baseline_controller = FleetController::new(policy);
    let noop_controller = FleetController::new(policy).with_telemetry(Arc::new(NoopSink));
    let mut seconds = [Vec::new(), Vec::new(), Vec::new()];
    let mut reference: Option<FleetReport> = None;
    let mut noop_identical = true;
    let mut enabled_identical = true;
    let mut enabled = None;
    for trial in 0..TRIALS {
        let mut order = [Variant::Baseline, Variant::Noop, Variant::Enabled];
        if trial % 2 == 1 {
            order.reverse();
        }
        for variant in order {
            let (report, secs) = match variant {
                Variant::Baseline => timed(&baseline_controller, &tenants, &config),
                Variant::Noop => timed(&noop_controller, &tenants, &config),
                Variant::Enabled => {
                    let recorder = Arc::new(Recorder::new());
                    let controller = FleetController::new(policy).with_telemetry(recorder.clone());
                    let guard = install_scoped(recorder.clone());
                    let (report, secs) = timed(&controller, &tenants, &config);
                    drop(guard);
                    enabled = Some(recorder);
                    (report, secs)
                }
            };
            seconds[variant as usize].push(secs);
            let reference = reference.get_or_insert_with(|| report.clone());
            let identical = report.matches_modulo_timing(reference);
            match variant {
                Variant::Baseline => assert!(identical, "the untelemetered runs diverged"),
                Variant::Noop => noop_identical &= identical,
                Variant::Enabled => enabled_identical &= identical,
            }
        }
    }
    let reference = reference.expect("TRIALS >= 1");
    let epochs = reference.epochs;
    let paired = |variant: Variant| {
        (seconds[variant as usize].iter())
            .zip(&seconds[Variant::Baseline as usize])
            .map(|(secs, base)| secs / base)
            .fold(f64::INFINITY, f64::min)
    };
    let (noop_ratio, enabled_ratio) = (paired(Variant::Noop), paired(Variant::Enabled));
    let [baseline_seconds, noop_seconds, enabled_seconds] =
        seconds.map(|runs| runs.into_iter().fold(f64::INFINITY, f64::min));

    assert!(
        noop_identical,
        "a NoopSink run diverged from the untelemetered path"
    );
    assert!(
        enabled_identical,
        "a recorded run diverged from the untelemetered path"
    );
    let recorder = enabled.expect("TRIALS >= 1");
    let snapshot = recorder.snapshot();
    let lp_solves = snapshot.counters.get("lp.solves").copied().unwrap_or(0);
    let events = recorder.flight().events().len();
    assert!(lp_solves > 0, "the ambient sink saw no LP solves");

    // ------------------------------------------------------------------
    // Exporter-attached run: scrape /metrics continuously from another
    // thread while the epochs execute. Scrapes are read-only snapshots,
    // so the report must still match the untelemetered reference.
    // ------------------------------------------------------------------
    let recorder = Arc::new(Recorder::new());
    let exporter = Exporter::bind(recorder.clone(), "127.0.0.1:0").expect("ephemeral port binds");
    let addr = exporter.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            while !stop.load(Ordering::SeqCst) {
                if scrape_metrics(addr).is_some() {
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            scrapes
        })
    };
    let exported_controller = FleetController::new(policy).with_telemetry(recorder.clone());
    let guard = install_scoped(recorder.clone());
    let exported_report = run(&exported_controller, &tenants, &config);
    drop(guard);
    stop.store(true, Ordering::SeqCst);
    let live_scrapes = scraper.join().expect("the scraper thread joins");
    let exported_identical = exported_report.matches_modulo_timing(&reference);
    assert!(
        exported_identical,
        "the exporter-attached run diverged from the untelemetered path"
    );

    // Scrape cost against the now fully populated recorder.
    let scrape_start = Instant::now();
    for _ in 0..SCRAPES {
        assert!(scrape_metrics(addr).is_some(), "scrape failed mid-timing");
    }
    let scrape_mean_seconds = scrape_start.elapsed().as_secs_f64() / SCRAPES as f64;
    exporter.shutdown();
    assert!(
        scrape_mean_seconds < SCRAPE_FLOOR,
        "mean /metrics round-trip {:.3} ms exceeds the {:.0} ms floor",
        1e3 * scrape_mean_seconds,
        1e3 * SCRAPE_FLOOR,
    );

    let noop_overhead = noop_ratio - 1.0;
    let enabled_overhead = enabled_ratio - 1.0;
    let rows = [JsonRow::new()
        .str("record", "fleet_obs")
        .str("scenario", &format!("failure-coupled-{num_tenants}-obs"))
        .usize("tenants", num_tenants)
        .usize("epochs", epochs)
        .usize("trials", TRIALS)
        .f64("baseline_seconds", baseline_seconds)
        .f64("noop_seconds", noop_seconds)
        .f64("enabled_seconds", enabled_seconds)
        .f64("noop_overhead_fraction", noop_overhead)
        .f64("enabled_overhead_fraction", enabled_overhead)
        .f64("noop_floor", NOOP_FLOOR)
        .f64("enabled_floor", ENABLED_FLOOR)
        .bool("noop_identical", noop_identical)
        .bool("enabled_identical", enabled_identical)
        .bool("exported_identical", exported_identical)
        .usize("live_scrapes", live_scrapes)
        .f64("scrape_mean_seconds", scrape_mean_seconds)
        .f64("scrape_floor", SCRAPE_FLOOR)
        .usize("counters_captured", snapshot.counters.len())
        .usize("events_captured", events)];
    print!("{}", rows_markdown(&rows));
    assert!(
        noop_overhead < NOOP_FLOOR,
        "NoopSink overhead {:.2}% exceeds the {:.0}% floor",
        100.0 * noop_overhead,
        100.0 * NOOP_FLOOR,
    );
    assert!(
        enabled_overhead < ENABLED_FLOOR,
        "enabled-telemetry overhead {:.2}% exceeds the {:.0}% floor",
        100.0 * enabled_overhead,
        100.0 * ENABLED_FLOOR,
    );
    std::fs::write("BENCH_fleet_obs.json", rows_jsonl(&rows))
        .expect("BENCH_fleet_obs.json is writable");
    println!("wrote BENCH_fleet_obs.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(200)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_fleet_obs
}
criterion_main!(benches);
