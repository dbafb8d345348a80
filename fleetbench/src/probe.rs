//! Instruments the traced run attaches from outside the program: a telemetry
//! sink that timestamps the controller's existing epoch counter and gauge,
//! and a solver wrapper that times every call into `IlpSolver`. Neither
//! changes a decision; the fidelity check in `main` proves it per run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rental_core::{Instance, Throughput};
use rental_obs::TelemetrySink;
use rental_solvers::exact::IlpSolver;
use rental_solvers::solver::{
    CapacitySolver, MinCostSolver, SolveBudget, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver,
};

/// The program's own `fleet.span.*` totals, in the order
/// `fleet.stage.{probe,arbitrate,solve,adopt,persist,merge_wait}_s` reports
/// them.
pub const STAGE_SPANS: [&str; 6] = [
    "fleet.span.probe",
    "fleet.span.arbitrate",
    "fleet.span.solve",
    "fleet.span.adopt",
    "fleet.span.persist",
    "fleet.span.merge_wait",
];

/// A sink that reports itself disabled (so the controller skips every
/// allocation-heavy emission) and records only what the benchmark needs:
/// when each epoch starts (`fleet.epochs`) and ends
/// (`fleet.epoch_watermark`), the stage span totals, and the LP counters the
/// ambient sink receives.
#[derive(Default)]
pub struct StampSink {
    epoch_starts: Mutex<Vec<Instant>>,
    epoch_ends: Mutex<Vec<Instant>>,
    stage_nanos: [AtomicU64; STAGE_SPANS.len()],
    lp_iterations: AtomicU64,
    lp_refactorizations: AtomicU64,
}

impl TelemetrySink for StampSink {
    fn counter(&self, name: &'static str, delta: u64) {
        match name {
            "fleet.epochs" => self
                .epoch_starts
                .lock()
                .expect("stamp lock")
                .push(Instant::now()),
            "lp.iterations" => {
                self.lp_iterations.fetch_add(delta, Ordering::Relaxed);
            }
            "lp.refactorizations" => {
                self.lp_refactorizations.fetch_add(delta, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn gauge(&self, name: &'static str, _value: f64) {
        if name == "fleet.epoch_watermark" {
            self.epoch_ends
                .lock()
                .expect("stamp lock")
                .push(Instant::now());
        }
    }

    fn span(&self, name: &'static str, seconds: f64) {
        if let Some(k) = STAGE_SPANS.iter().position(|&s| s == name) {
            self.stage_nanos[k].fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        }
    }
}

/// What the sink saw during one run.
pub struct Stamps {
    pub epoch_starts: Vec<Instant>,
    pub epoch_ends: Vec<Instant>,
    pub stage_seconds: [f64; STAGE_SPANS.len()],
    pub lp_iterations: u64,
    pub lp_refactorizations: u64,
}

impl StampSink {
    pub fn stamps(&self) -> Stamps {
        Stamps {
            epoch_starts: self.epoch_starts.lock().expect("stamp lock").clone(),
            epoch_ends: self.epoch_ends.lock().expect("stamp lock").clone(),
            stage_seconds: std::array::from_fn(|k| {
                self.stage_nanos[k].load(Ordering::Relaxed) as f64 / 1e9
            }),
            lp_iterations: self.lp_iterations.load(Ordering::Relaxed),
            lp_refactorizations: self.lp_refactorizations.load(Ordering::Relaxed),
        }
    }
}

/// One timed call into the solver.
pub struct Call {
    pub start: Instant,
    pub end: Instant,
    /// Address of the instance the caller passed; the controller passes its
    /// tenants' own instances, which resolve it to a value after the run.
    pub instance: usize,
    pub target: Throughput,
    pub caps: Option<Vec<u64>>,
    pub nodes: usize,
    pub lp_iterations: usize,
    pub exhausted: bool,
    pub ok: bool,
}

/// `IlpSolver` behind every solver trait the controller uses, timing each
/// call. Budgeted and capped calls forward to the same-named `IlpSolver`
/// method, so the wrapper solves exactly what the plain solver would.
pub struct TimedSolver<'a> {
    inner: &'a IlpSolver,
    calls: Mutex<Vec<Call>>,
}

/// The address an instance is recorded under.
pub fn address(instance: &Instance) -> usize {
    instance as *const Instance as usize
}

impl<'a> TimedSolver<'a> {
    pub fn new(inner: &'a IlpSolver) -> Self {
        TimedSolver {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    pub fn into_calls(self) -> Vec<Call> {
        self.calls.into_inner().expect("call log lock")
    }

    fn timed(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: Option<&[u64]>,
        solve: impl FnOnce() -> SolveResult<SolverOutcome>,
    ) -> SolveResult<SolverOutcome> {
        let start = Instant::now();
        let result = solve();
        let end = Instant::now();
        let outcome = result.as_ref().ok();
        let call = Call {
            start,
            end,
            instance: address(instance),
            target,
            caps: caps.map(<[u64]>::to_vec),
            nodes: outcome.and_then(|o| o.nodes).unwrap_or(0),
            lp_iterations: outcome.and_then(|o| o.lp_iterations).unwrap_or(0),
            exhausted: outcome.is_some_and(|o| o.exhausted),
            ok: outcome.is_some(),
        };
        self.calls.lock().expect("call log lock").push(call);
        result
    }
}

impl MinCostSolver for TimedSolver<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.timed(instance, target, None, || {
            self.inner.solve(instance, target)
        })
    }
}

impl WarmStartSolver for TimedSolver<'_> {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.timed(instance, target, None, || {
            self.inner.solve_with_prior(instance, target, prior)
        })
    }

    fn solve_with_prior_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        self.timed(instance, target, None, || {
            self.inner
                .solve_with_prior_budgeted(instance, target, prior, budget)
        })
    }
}

impl CapacitySolver for TimedSolver<'_> {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.timed(instance, target, Some(caps), || {
            self.inner.solve_with_caps(instance, target, caps, prior)
        })
    }

    fn solve_with_caps_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        self.timed(instance, target, Some(caps), || {
            self.inner
                .solve_with_caps_budgeted(instance, target, caps, prior, budget)
        })
    }
}
