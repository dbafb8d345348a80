//! The multi-tenant fleet experiment: the streaming re-optimization lane.
//!
//! Where [`crate::runner`] reproduces the paper's *static* evaluation (one
//! solve per `(instance, target)` cell), this lane exercises the
//! `rental-fleet` subsystem end to end: a fleet of tenants with shifting
//! workloads is served over a shared epoch clock, and the probe / batch
//! re-solve / adopt loop is compared against the static-peak and fixed-mix
//! autoscale baselines tenant by tenant.

use rental_fleet::{diurnal_spike_fleet, FleetController, FleetReport, ACCEPTANCE_SEED};
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
/// controller report the tables are rendered from.
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

/// Renders the per-tenant fleet table as Markdown.
pub fn fleet_markdown(table: &FleetTable) -> String {
    let report = &table.report;
    let mut out = String::new();
    out.push_str(
        "| tenant | rho0 | fleet cost | fixed mix | static peak | savings | re-solves | adoptions | probes |\n",
    );
    out.push_str("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n");
    for tenant in &report.tenants {
        let savings = if tenant.fixed_mix_cost > 0.0 {
            100.0 * tenant.savings_vs_fixed_mix() / tenant.fixed_mix_cost
        } else {
            0.0
        };
        out.push_str(&format!(
            "| {} | {} | {:.0} | {:.0} | {:.0} | {savings:.1}% | {} | {} | {} |\n",
            tenant.name,
            tenant.initial_target,
            tenant.total_cost(),
            tenant.fixed_mix_cost,
            tenant.static_peak_cost,
            tenant.resolves,
            tenant.adoptions,
            tenant.probes,
        ));
    }
    let savings = if report.fixed_mix_cost() > 0.0 {
        100.0 * report.savings_vs_fixed_mix() / report.fixed_mix_cost()
    } else {
        0.0
    };
    out.push_str(&format!(
        "| **total** | | **{:.0}** | **{:.0}** | **{:.0}** | **{savings:.1}%** | **{}** | **{}** | **{}** |\n",
        report.total_cost(),
        report.fixed_mix_cost(),
        report.static_peak_cost(),
        report.resolved_tenant_epochs(),
        report.adoptions.iter().filter(|a| a.adopted).count(),
        report.tenants.iter().map(|t| t.probes).sum::<usize>(),
    ));
    out.push_str(&format!(
        "\n{} tenants over {} epochs — {} billed tenant-epochs; {:.1}% re-solved; probe time {:.1} ms vs solve time {:.1} ms\n",
        report.tenants.len(),
        report.epochs,
        report.tenant_epochs(),
        100.0 * report.resolve_fraction(),
        1e3 * report.probe_seconds(),
        1e3 * report.solve_seconds(),
    ));
    out
}

/// Renders the per-tenant fleet table as CSV.
pub fn fleet_csv(table: &FleetTable) -> String {
    let report = &table.report;
    let mut out = String::from(
        "tenant,initial_target,fleet_cost,fixed_mix_cost,static_peak_cost,resolves,adoptions,probes\n",
    );
    for tenant in &report.tenants {
        out.push_str(&format!(
            "{},{},{:.2},{:.2},{:.2},{},{},{}\n",
            tenant.name,
            tenant.initial_target,
            tenant.total_cost(),
            tenant.fixed_mix_cost,
            tenant.static_peak_cost,
            tenant.resolves,
            tenant.adoptions,
            tenant.probes,
        ));
    }
    out
}

/// Renders the fleet lane as JSON lines: one scenario row with the
/// headline numbers, followed by the report's own telemetry rows (fleet /
/// epoch / tenant records).
pub fn fleet_json(table: &FleetTable) -> String {
    let report = &table.report;
    let mut out = rental_obs::json::JsonRow::new()
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
        .f64("resolve_fraction", report.resolve_fraction())
        .finish();
    out.push('\n');
    out.push_str(&table.report.telemetry());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let markdown = fleet_markdown(&table);
        assert!(markdown.contains("tenant-0"));
        assert!(markdown.contains("**total**"));
        assert!(markdown.contains("tenant-epochs"));
        let csv = fleet_csv(&table);
        assert_eq!(csv.lines().count(), 5); // header + one row per tenant
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
        assert_eq!(fleet_csv(&a), fleet_csv(&b));
    }
}
