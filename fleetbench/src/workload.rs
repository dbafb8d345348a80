//! The three controller workloads: how each is set up from a seed, how one
//! whole run is driven through the public `FleetController` entry points,
//! and the checks every run's report must pass.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rental_fleet::{
    diurnal_spike_fleet, failure_coupled_fleet, scaling_fleet, CapacityConfig, FleetController,
    FleetPolicy, FleetReport, PersistOptions, TenantSpec, ACCEPTANCE_SEED,
};
use rental_lp::SolveLimits;
use rental_obs::TelemetrySink;
use rental_persist::Store;
use rental_solvers::exact::IlpSolver;
use rental_solvers::solver::CapacitySolver;
use rental_solvers::SolveBudget;

use crate::expected;

/// Per-epoch branch-and-bound node cap of the two 1k workloads: it keeps
/// every re-solve deterministic and cuts the heavy tail of single B&B trees.
pub const NODE_CAP: usize = 50_000;

/// Standing node limit of the two 1k workloads' solver, applied to every
/// solve, the unbudgeted initial and degraded-mode solves included. Without
/// it, one hard (instance, target) pair can take a second and the run time
/// measures which seed drew it.
pub const SOLVE_NODE_LIMIT: usize = 5_000;

/// Offset between the scenario seeds of one panel (the golden-ratio
/// increment, so panels of nearby seeds do not overlap).
const PANEL_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `scaling_fleet(16_000)` under its own policy via `FleetController::run`.
    Scale16k,
    /// `diurnal_spike_fleet(1024)` with the node cap via `FleetController::run`.
    Resolve1k,
    /// `failure_coupled_fleet(1024, .., 96.0, 4.0)` with the node cap via
    /// `FleetController::run_resumable` on a fresh store.
    Durable1k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Scale16k, Workload::Resolve1k, Workload::Durable1k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale16k => "scale-16k",
            Workload::Resolve1k => "resolve-1k",
            Workload::Durable1k => "durable-1k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleets one untraced invocation cycles through: the MIP-bound fleets'
    /// run time depends on which hard solves their seed drew, so those
    /// workloads report the median over a panel of fleets.
    pub fn panel_size(self) -> usize {
        match self {
            Workload::Scale16k => 1,
            Workload::Resolve1k | Workload::Durable1k => 5,
        }
    }

    /// The scenario seeds of the panel of `seed`; the first is `seed` itself.
    pub fn panel(self, seed: u64) -> Vec<u64> {
        (0..self.panel_size() as u64)
            .map(|k| seed.wrapping_add(k.wrapping_mul(PANEL_STRIDE)))
            .collect()
    }

    /// The scenario seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Scale16k => 0x5CA1E5,
            Workload::Resolve1k | Workload::Durable1k => ACCEPTANCE_SEED,
        }
    }
}

/// Everything a run needs, built once per set-up: the generated tenants, the
/// controller policy, the capacity coupling and the solver.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub tenants: Vec<TenantSpec>,
    pub policy: FleetPolicy,
    pub capacity: Option<CapacityConfig>,
    pub solver: IlpSolver,
    /// Directory under which each durable run gets its own fresh store.
    store_root: PathBuf,
}

/// Generates the workload's tenants from `seed` and constructs the solver:
/// the work `setup_s` times. Stores are per run (see [`Prepared::open_store`]).
pub fn setup(workload: Workload, seed: u64, threads: usize, store_root: &Path) -> Prepared {
    let budgeted = |policy: FleetPolicy| FleetPolicy {
        epoch_budget: Some(SolveBudget::with_node_cap(NODE_CAP)),
        ..policy
    };
    let (scenario, capacity) = match workload {
        Workload::Scale16k => (scaling_fleet(16_000, seed), None),
        Workload::Resolve1k => {
            let mut scenario = diurnal_spike_fleet(1024, seed);
            scenario.policy = budgeted(scenario.policy);
            (scenario, None)
        }
        Workload::Durable1k => {
            let (mut scenario, config) = failure_coupled_fleet(1024, seed, 96.0, 4.0);
            scenario.policy = budgeted(scenario.policy);
            (scenario, Some(config))
        }
    };
    let solver = match workload {
        Workload::Scale16k => IlpSolver::new(),
        Workload::Resolve1k | Workload::Durable1k => IlpSolver::with_limits(SolveLimits {
            node_limit: Some(SOLVE_NODE_LIMIT),
            ..SolveLimits::default()
        }),
    };
    Prepared {
        workload,
        seed,
        tenants: scenario.tenants,
        policy: FleetPolicy {
            threads: Some(threads),
            ..scenario.policy
        },
        capacity,
        solver,
        store_root: store_root.to_path_buf(),
    }
}

/// What one run left behind besides its report (durable workload only).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreUsage {
    pub journal_bytes: u64,
    pub snapshot_bytes: u64,
    pub snapshots: usize,
}

impl Prepared {
    /// Opens a fresh store directory named `label` (durable workload only).
    /// Callers open it before the run's clock starts and pass it to
    /// [`Prepared::run`].
    pub fn open_store(&self, label: &str) -> io::Result<Option<Store>> {
        if self.workload != Workload::Durable1k {
            return Ok(None);
        }
        let dir = self.store_root.join(label);
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        Store::open(dir).map(Some)
    }

    /// Drives one whole controller run: init fan-out, epoch loop and report.
    pub fn run<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        sink: Option<Arc<dyn TelemetrySink>>,
        store: Option<&Store>,
    ) -> Result<FleetReport, String> {
        let mut controller = FleetController::new(self.policy);
        if let Some(sink) = sink {
            controller = controller.with_telemetry(sink);
        }
        match (&self.capacity, store) {
            (Some(config), Some(store)) => controller
                .run_resumable(
                    solver,
                    &self.tenants,
                    config,
                    None,
                    store,
                    &PersistOptions::default(),
                    None,
                )
                .map_err(|err| err.to_string())?
                .completed()
                .ok_or_else(|| "resumable run did not complete".to_string()),
            (None, None) => controller
                .run(solver, &self.tenants)
                .map_err(|err| err.to_string()),
            _ => Err("store and capacity coupling must come together".to_string()),
        }
    }

    /// Sizes of the store after a run, then deletes its directory.
    pub fn close_store(&self, store: Option<Store>) -> io::Result<StoreUsage> {
        let Some(store) = store else {
            return Ok(StoreUsage::default());
        };
        let usage = StoreUsage {
            journal_bytes: store.journal_len()?,
            snapshot_bytes: store.snapshots_len()?,
            snapshots: store.snapshot_epochs()?.len(),
        };
        fs::remove_dir_all(store.dir())?;
        Ok(usage)
    }

    /// Tenant-epochs the generated traces imply, computed from the inputs
    /// rather than from the report.
    pub fn expected_tenant_epochs(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.trace.epoch_peaks(self.policy.epoch).len())
            .sum()
    }
}

/// The decision-derived outcome of a run: the paper's objective against the
/// baselines, and the SLO record. Deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    pub cost_vs_fixed_mix: f64,
    pub cost_vs_static_headroom: f64,
    pub slo_violation_rate: f64,
}

impl Outcome {
    pub fn of(report: &FleetReport) -> Outcome {
        Outcome::pooled(&[report])
    }

    /// The outcome of several fleets served as one: costs and tenant-epochs
    /// summed before dividing.
    pub fn pooled(reports: &[&FleetReport]) -> Outcome {
        let sum = |f: fn(&FleetReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
        let total = sum(FleetReport::total_cost);
        Outcome {
            cost_vs_fixed_mix: total / sum(FleetReport::fixed_mix_cost),
            cost_vs_static_headroom: total / sum(FleetReport::static_headroom_cost),
            slo_violation_rate: sum(|r| r.slo_violation_epochs() as f64)
                / sum(|r| r.tenant_epochs() as f64),
        }
    }
}

/// Checks the first report of an invocation against the inputs, the
/// workload's invariants and the committed outcome of its seed. Every later
/// run is checked by equality with this report.
pub fn check_first(prepared: &Prepared, report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.tenants.len() != prepared.tenants.len() {
        failures.push(format!(
            "report has {} tenants, the scenario {}",
            report.tenants.len(),
            prepared.tenants.len()
        ));
    }
    let expected_epochs = prepared.expected_tenant_epochs();
    if report.tenant_epochs() != expected_epochs {
        failures.push(format!(
            "report has {} tenant-epochs, the traces imply {expected_epochs}",
            report.tenant_epochs()
        ));
    }
    let outcome = Outcome::of(report);
    for (name, value) in [
        ("cost_vs_fixed_mix", outcome.cost_vs_fixed_mix),
        ("cost_vs_static_headroom", outcome.cost_vs_static_headroom),
    ] {
        if !(value.is_finite() && value > 0.0) {
            failures.push(format!("{name} = {value} is not a positive ratio"));
        }
    }
    if prepared.workload == Workload::Resolve1k && report.total_cost() > report.fixed_mix_cost() {
        failures.push(format!(
            "total cost {} exceeds the fixed-mix baseline {}",
            report.total_cost(),
            report.fixed_mix_cost()
        ));
    }
    if let Some(committed) = expected::outcome(prepared.workload, prepared.seed) {
        if committed != outcome {
            failures.push(format!(
                "outcome {outcome:?} differs from the committed {committed:?}"
            ));
        }
    }
    failures
}
