//! The multi-tenant fleet experiment: the streaming re-optimization lane.
//!
//! Where [`crate::runner`] reproduces the paper's *static* evaluation (one
//! solve per `(instance, target)` cell), this lane exercises the
//! `rental-fleet` subsystem end to end: a fleet of tenants with shifting
//! workloads is served over a shared epoch clock, and the probe / batch
//! re-solve / adopt loop is compared against the static-peak and fixed-mix
//! autoscale baselines tenant by tenant.

use rental_fleet::{diurnal_spike_fleet, FleetController, FleetReport, ACCEPTANCE_SEED};
use rental_obs::json::JsonRow;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveResult;

/// Parameters of the fleet experiment.
#[derive(Debug, Clone, Copy)]
pub struct FleetExperimentSpec {
    /// Number of tenants in the diurnal+spike scenario.
    pub num_tenants: usize,
    /// Scenario seed (instances, rate scales, spike placement).
    pub seed: u64,
    /// Cap on solver worker threads (`None`: one per available CPU).
    pub threads: Option<usize>,
}

impl Default for FleetExperimentSpec {
    fn default() -> Self {
        FleetExperimentSpec {
            num_tenants: 16,
            seed: ACCEPTANCE_SEED,
            threads: None,
        }
    }
}

/// The outcome of a fleet experiment: the scenario name plus the full
/// controller report the rows are taken from.
#[derive(Debug, Clone)]
pub struct FleetTable {
    /// Scenario name.
    pub scenario: String,
    /// The controller's report.
    pub report: FleetReport,
}

/// Runs the diurnal+spike fleet scenario under the exact ILP re-solver.
///
/// # Errors
///
/// Propagates solver failures from the controller.
pub fn run_fleet_experiment(spec: &FleetExperimentSpec) -> SolveResult<FleetTable> {
    let scenario = diurnal_spike_fleet(spec.num_tenants, spec.seed);
    let mut policy = scenario.policy;
    policy.threads = spec.threads;
    let report = FleetController::new(policy).run(&IlpSolver::new(), &scenario.tenants)?;
    Ok(FleetTable {
        scenario: scenario.name,
        report,
    })
}

/// The fleet lane's rows: one `scenario` row with the headline numbers,
/// followed by the report's own telemetry rows (fleet / epoch / tenant
/// records).
pub fn fleet_rows(table: &FleetTable) -> Vec<JsonRow> {
    let report = &table.report;
    let mut rows = vec![JsonRow::new()
        .str("record", "scenario")
        .str("lane", "fleet")
        .str("name", &table.scenario)
        .usize("tenants", report.tenants.len())
        .f64(
            "switching_cost",
            report.tenants.iter().map(|t| t.switching_cost).sum(),
        )
        .f64("savings_vs_fixed_mix", report.savings_vs_fixed_mix())
        .usize("tenant_epochs", report.tenant_epochs())
        .usize("resolved_tenant_epochs", report.resolved_tenant_epochs())
        .f64("resolve_fraction", report.resolve_fraction())];
    rows.extend(report.telemetry());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_markdown};

    #[test]
    fn small_fleet_experiment_produces_a_full_table() {
        let spec = FleetExperimentSpec {
            num_tenants: 4,
            seed: 11,
            threads: Some(2),
        };
        let table = run_fleet_experiment(&spec).unwrap();
        assert_eq!(table.report.tenants.len(), 4);
        assert!(table.report.epochs > 0);
        let rows = fleet_rows(&table);
        let markdown = rows_markdown(&rows);
        assert!(markdown.contains("| tenant | 0 | tenant-0 |"));
        assert!(markdown.contains("| fleet |"));
        assert!(markdown.contains("tenant_epochs"));
        let csv = rows_csv(&rows);
        // Header, scenario and fleet rows, one row per epoch and per tenant.
        assert_eq!(csv.lines().count(), 3 + table.report.epochs + 4);
        assert!(csv.starts_with("record,lane,name,tenants,switching_cost,"));
    }

    #[test]
    fn fleet_experiments_are_reproducible() {
        let spec = FleetExperimentSpec {
            num_tenants: 3,
            seed: 5,
            threads: Some(2),
        };
        let a = run_fleet_experiment(&spec).unwrap();
        let b = run_fleet_experiment(&spec).unwrap();
        assert_eq!(a.report.adoptions, b.report.adoptions);
        assert_eq!(a.report.total_cost(), b.report.total_cost());
        assert!(a.report.matches_modulo_timing(&b.report));
    }
}
