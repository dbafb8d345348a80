//! The failure-coupled fleet experiment: the capacity/outage lane.
//!
//! Where [`crate::fleet`] serves perfectly reliable tenants from an unbounded
//! cloud, this lane runs the same diurnal+spike fleet under the
//! `rental-capacity` coupling: finite per-type quotas, machine failures
//! sampled per tenant (an MTBF sweep), replacement renting, and
//! capacity-constrained re-solve-on-failure. Each MTBF row compares the
//! coupled controller (**fleet-with-repair**) against the **static-headroom**
//! baseline — provisioning the initial mix for the availability-adjusted
//! peak — on both cost and SLO-violation epochs.

use rental_fleet::{failure_coupled_fleet, FleetController, FleetReport};
use rental_lp::SolveLimits;
use rental_obs::json::JsonRow;
use rental_solvers::exact::IlpSolver;
use rental_solvers::SolveResult;

/// The ILP solver used by the failure sweep (and its bench): node-limited so
/// a single pathological branch-and-bound tree cannot stall a 96-epoch run.
/// Node limits — unlike time limits — keep the sweep **deterministic**; the
/// steepest-descent warm start guarantees a feasible incumbent even when the
/// limit strikes, so limited solves degrade to near-optimal, never to
/// failure.
pub fn failure_sweep_solver() -> IlpSolver {
    IlpSolver::with_limits(SolveLimits {
        node_limit: Some(20_000),
        ..SolveLimits::default()
    })
}

/// Parameters of the failure-coupled fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetFailureSpec {
    /// Number of tenants in the diurnal+spike scenario.
    pub num_tenants: usize,
    /// Scenario seed (instances, rate scales, spikes, outages).
    pub seed: u64,
    /// Mean times between failures to sweep, in hours.
    pub mtbfs: Vec<f64>,
    /// Repair time, in hours.
    pub repair_time: f64,
    /// Cap on solver worker threads (`None`: one per available CPU).
    pub threads: Option<usize>,
}

impl Default for FleetFailureSpec {
    fn default() -> Self {
        FleetFailureSpec {
            num_tenants: 8,
            seed: rental_fleet::ACCEPTANCE_SEED,
            mtbfs: vec![48.0, 96.0, 192.0],
            repair_time: 4.0,
            threads: None,
        }
    }
}

/// One MTBF row of the sweep.
#[derive(Debug, Clone)]
pub struct FleetFailureRow {
    /// Mean time between failures of this row, in hours.
    pub mtbf: f64,
    /// Steady-state machine availability under this MTBF.
    pub availability: f64,
    /// The coupled controller's report (static-headroom baseline included).
    pub report: FleetReport,
}

impl FleetFailureRow {
    /// The pool's peak quota utilization over every machine type.
    fn peak_quota_utilization(&self) -> f64 {
        let quota = &self.report.quota_utilization;
        quota.iter().copied().fold(0.0, f64::max)
    }
}

/// The outcome of the sweep.
#[derive(Debug, Clone)]
pub struct FleetFailureTable {
    /// Scenario name.
    pub scenario: String,
    /// Repair time of every row, in hours.
    pub repair_time: f64,
    /// One row per MTBF, in spec order.
    pub rows: Vec<FleetFailureRow>,
}

/// Runs the MTBF sweep on the failure-coupled diurnal+spike scenario.
///
/// # Errors
///
/// Propagates solver failures from the controller.
pub fn run_fleet_failure_experiment(spec: &FleetFailureSpec) -> SolveResult<FleetFailureTable> {
    let mut rows = Vec::with_capacity(spec.mtbfs.len());
    let mut scenario_name = String::new();
    for &mtbf in &spec.mtbfs {
        let (scenario, config) =
            failure_coupled_fleet(spec.num_tenants, spec.seed, mtbf, spec.repair_time);
        let mut policy = scenario.policy;
        policy.threads = spec.threads;
        let report = FleetController::new(policy).run_with_capacity(
            &failure_sweep_solver(),
            &scenario.tenants,
            &config,
        )?;
        scenario_name = scenario.name;
        rows.push(FleetFailureRow {
            mtbf,
            availability: config.availability(),
            report,
        });
    }
    Ok(FleetFailureTable {
        scenario: scenario_name,
        repair_time: spec.repair_time,
        rows,
    })
}

/// The MTBF sweep's rows: one `fleet_failure` row per MTBF.
pub fn fleet_failure_rows(table: &FleetFailureTable) -> Vec<JsonRow> {
    table
        .rows
        .iter()
        .map(|row| {
            let report = &row.report;
            JsonRow::new()
                .str("record", "fleet_failure")
                .str("scenario", &table.scenario)
                .usize("tenants", report.tenants.len())
                .f64("repair_hours", table.repair_time)
                .f64("mtbf_hours", row.mtbf)
                .f64("availability", row.availability)
                .f64("fleet_cost", report.total_cost())
                .f64("static_headroom_cost", report.static_headroom_cost())
                .f64(
                    "savings_vs_static_headroom",
                    report.savings_vs_static_headroom(),
                )
                .usize("fleet_slo_epochs", report.slo_violation_epochs())
                .usize("baseline_slo_epochs", report.static_headroom_violations())
                .usize("failure_resolves", report.failure_resolves())
                .usize("degraded_resolves", report.degraded_resolves())
                .f64("peak_quota_utilization", row.peak_quota_utilization())
                .usize("solves", report.effort().solves)
                .usize("nodes", report.effort().nodes)
                .usize("lp_iterations", report.effort().lp_iterations)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_markdown};

    #[test]
    fn small_failure_sweep_produces_a_full_table() {
        let spec = FleetFailureSpec {
            num_tenants: 3,
            seed: 11,
            mtbfs: vec![96.0],
            repair_time: 4.0,
            threads: Some(2),
        };
        let table = run_fleet_failure_experiment(&spec).unwrap();
        assert_eq!(table.rows.len(), 1);
        let row = &table.rows[0];
        assert!(row.availability < 1.0);
        assert!(row.report.static_headroom_cost() > 0.0);
        let rows = fleet_failure_rows(&table);
        let markdown = rows_markdown(&rows);
        assert!(markdown.contains("static_headroom_cost"));
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn failure_sweeps_are_reproducible() {
        let spec = FleetFailureSpec {
            num_tenants: 2,
            seed: 5,
            mtbfs: vec![64.0],
            repair_time: 3.0,
            threads: Some(2),
        };
        let a = run_fleet_failure_experiment(&spec).unwrap();
        let b = run_fleet_failure_experiment(&spec).unwrap();
        assert_eq!(a.rows[0].report.adoptions, b.rows[0].report.adoptions);
        assert_eq!(
            rows_csv(&fleet_failure_rows(&a)),
            rows_csv(&fleet_failure_rows(&b))
        );
    }
}
