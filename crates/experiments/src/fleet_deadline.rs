//! The epoch-deadline experiment: the anytime/graceful-degradation lane.
//!
//! Where [`crate::fleet`] lets every re-solve run to proven optimality, this
//! lane sweeps [`rental_fleet::FleetPolicy::epoch_budget`] over the same
//! diurnal+spike fleet: each row caps the branch-and-bound **node budget an
//! epoch may spend across all of its batched re-solves** and measures what
//! the anytime ladder costs — exhausted solves adopt their best incumbent,
//! re-solves without one are deferred under capped exponential backoff, and
//! the bill drifts from the proven-optimal run toward the fixed-mix
//! baseline. Node budgets — unlike wall-clock deadlines — keep every row
//! **deterministic**, so the bench harness pins acceptance floors against
//! the sweep (`BENCH_fleet_deadline.json`).

use rental_fleet::{diurnal_spike_fleet, FleetController, FleetReport};
use rental_obs::json::JsonRow;
use rental_solvers::exact::IlpSolver;
use rental_solvers::{SolveBudget, SolveResult};

/// Parameters of the epoch-deadline sweep.
#[derive(Debug, Clone)]
pub struct FleetDeadlineSpec {
    /// Number of tenants in the diurnal+spike scenario.
    pub num_tenants: usize,
    /// Scenario seed (instances, rate scales, spikes).
    pub seed: u64,
    /// Per-epoch branch-and-bound node budgets to sweep; `None` is the
    /// unlimited tier (identical to the budget-free controller).
    pub node_budgets: Vec<Option<usize>>,
    /// Cap on solver worker threads (`None`: one per available CPU).
    pub threads: Option<usize>,
}

impl Default for FleetDeadlineSpec {
    fn default() -> Self {
        FleetDeadlineSpec {
            num_tenants: 8,
            seed: rental_fleet::ACCEPTANCE_SEED,
            node_budgets: vec![Some(8), Some(64), Some(2_000), None],
            threads: None,
        }
    }
}

/// One node-budget row of the sweep.
#[derive(Debug, Clone)]
pub struct FleetDeadlineRow {
    /// Per-epoch node budget of this row; `None` is unlimited.
    pub node_budget: Option<usize>,
    /// The budgeted controller's report.
    pub report: FleetReport,
}

impl FleetDeadlineRow {
    /// Human label of the budget tier.
    pub fn label(&self) -> String {
        match self.node_budget {
            Some(nodes) => format!("{nodes}"),
            None => "unlimited".to_string(),
        }
    }
}

/// The outcome of the sweep.
#[derive(Debug, Clone)]
pub struct FleetDeadlineTable {
    /// Scenario name.
    pub scenario: String,
    /// One row per node budget, in spec order.
    pub rows: Vec<FleetDeadlineRow>,
}

impl FleetDeadlineTable {
    /// Total cost of the unlimited tier, the denominator of every cost
    /// ratio (`None` when the spec swept no unlimited row).
    fn unlimited_cost(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|row| row.node_budget.is_none())
            .map(|row| row.report.total_cost())
    }

    /// `row cost / unlimited cost` (1.0 when no unlimited row exists).
    pub fn cost_ratio(&self, row: &FleetDeadlineRow) -> f64 {
        match self.unlimited_cost() {
            Some(unlimited) if unlimited > 0.0 => row.report.total_cost() / unlimited,
            _ => 1.0,
        }
    }
}

/// Runs the node-budget sweep on the diurnal+spike scenario.
///
/// # Errors
///
/// Propagates solver failures from the controller (budget exhaustion is
/// absorbed by the degradation ladder, never propagated).
pub fn run_fleet_deadline_experiment(spec: &FleetDeadlineSpec) -> SolveResult<FleetDeadlineTable> {
    let mut rows = Vec::with_capacity(spec.node_budgets.len());
    let mut scenario_name = String::new();
    for &node_budget in &spec.node_budgets {
        let scenario = diurnal_spike_fleet(spec.num_tenants, spec.seed);
        let mut policy = scenario.policy;
        policy.threads = spec.threads;
        policy.epoch_budget = node_budget.map(SolveBudget::with_node_cap);
        let report = FleetController::new(policy).run(&IlpSolver::new(), &scenario.tenants)?;
        scenario_name = scenario.name;
        rows.push(FleetDeadlineRow {
            node_budget,
            report,
        });
    }
    Ok(FleetDeadlineTable {
        scenario: scenario_name,
        rows,
    })
}

/// The node-budget sweep's rows: one `fleet_deadline` row per budget tier
/// (`node_budget` is `null` on the unlimited tier).
pub fn fleet_deadline_rows(table: &FleetDeadlineTable) -> Vec<JsonRow> {
    table
        .rows
        .iter()
        .map(|row| {
            let report = &row.report;
            let json = JsonRow::new()
                .str("record", "fleet_deadline")
                .str("scenario", &table.scenario)
                .usize("tenants", report.tenants.len())
                .f64("unlimited_cost", table.unlimited_cost().unwrap_or(f64::NAN));
            let json = match row.node_budget {
                Some(nodes) => json.usize("node_budget", nodes),
                None => json.raw("node_budget", "null"),
            };
            json.f64("fleet_cost", report.total_cost())
                .f64("cost_ratio_vs_unlimited", table.cost_ratio(row))
                .usize("resolves", report.resolved_tenant_epochs())
                .usize(
                    "adoptions",
                    report.tenants.iter().map(|t| t.adoptions).sum::<usize>(),
                )
                .usize("incumbent_adoptions", report.incumbent_adoptions())
                .usize("budget_exhausted_epochs", report.budget_exhausted_epochs())
                .usize("deferred_resolves", report.deferred_resolves())
                .usize("resolve_retries", report.resolve_retries())
                .usize("nodes", report.effort().nodes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{rows_csv, rows_markdown};

    #[test]
    fn small_deadline_sweep_produces_a_full_table() {
        let spec = FleetDeadlineSpec {
            num_tenants: 3,
            seed: 11,
            node_budgets: vec![Some(500), None],
            threads: Some(1),
        };
        let table = run_fleet_deadline_experiment(&spec).unwrap();
        assert_eq!(table.rows.len(), 2);
        assert!(table.unlimited_cost().unwrap() > 0.0);
        // The budget is a cap, not a subsidy: no tier undercuts unlimited.
        for row in &table.rows {
            assert!(table.cost_ratio(row) >= 1.0 - 1e-9);
        }
        let rows = fleet_deadline_rows(&table);
        let markdown = rows_markdown(&rows);
        assert!(markdown.contains("unlimited_cost"));
        assert!(markdown.contains("| fleet_deadline | diurnal-spike-3 | 3 |"));
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn deadline_sweeps_are_reproducible() {
        let spec = FleetDeadlineSpec {
            num_tenants: 2,
            seed: 5,
            node_budgets: vec![Some(1_000), None],
            threads: Some(1),
        };
        let a = run_fleet_deadline_experiment(&spec).unwrap();
        let b = run_fleet_deadline_experiment(&spec).unwrap();
        assert_eq!(
            rows_csv(&fleet_deadline_rows(&a)),
            rows_csv(&fleet_deadline_rows(&b))
        );
    }
}
