//! What a fleet run reports: per-tenant economics, adoption decisions, the
//! run's trace trees and solver-effort aggregates.

use rental_core::Throughput;
use rental_obs::json::JsonRow;
use rental_obs::{Stage, TraceTree};
use rental_solvers::solver::SolverOutcome;

/// Deterministic solver-effort aggregate of one tenant (or a whole fleet):
/// how much search work its solves consumed. Unlike the epochs' trace trees
/// these are **exact counters**, not wall-clock — they survive
/// [`FleetReport::matches_modulo_timing`] and are persisted across resumes.
///
/// A solve shared by several tenants of one batch (the same request, solved
/// once) counts in full for each of them, so a tenant's effort does not
/// depend on its co-tenants; a fleet total can therefore exceed the work
/// the solver did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverEffort {
    /// Solver invocations that produced an outcome (initial solve included).
    pub solves: usize,
    /// Branch-and-bound nodes expanded, summed over those solves (solvers
    /// that do not search, e.g. pure heuristics, contribute 0).
    pub nodes: usize,
    /// Simplex iterations consumed, summed over those solves — together with
    /// `nodes` this is the budget consumption of the tenant's solving.
    pub lp_iterations: usize,
}

impl SolverEffort {
    /// Folds one solver outcome into the aggregate.
    pub fn record(&mut self, outcome: &SolverOutcome) {
        self.solves += 1;
        self.nodes += outcome.nodes.unwrap_or(0);
        self.lp_iterations += outcome.lp_iterations.unwrap_or(0);
    }

    /// Adds another aggregate into this one.
    fn merge(&mut self, other: &SolverEffort) {
        self.solves += other.solves;
        self.nodes += other.nodes;
        self.lp_iterations += other.lp_iterations;
    }

    /// Scalar ranking key: total countable search work (nodes + simplex
    /// iterations). Used to order tenants by solver effort.
    pub fn work(&self) -> usize {
        self.nodes + self.lp_iterations
    }
}

/// One keep-vs-switch decision taken after a re-solve.
///
/// Projections are over the **remaining horizon** at decision time, computed
/// through the per-plan [`rental_pricing::HorizonCache`]; `adopted` is true
/// exactly when `projected_switch + switching_cost < projected_keep` — the
/// invariant pinned by the fleet property tests.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionRecord {
    /// Index of the tenant in the run's tenant list.
    pub tenant: usize,
    /// Epoch index at which the decision was taken.
    pub epoch: usize,
    /// The target throughput the candidate plan was solved for.
    pub target: Throughput,
    /// Projected remaining-horizon cost of keeping the current mix, or
    /// `None` when the current mix could not carry the demand at all — the
    /// switch was **forced** and no keep option existed.
    pub projected_keep: Option<f64>,
    /// Projected remaining-horizon cost of the candidate plan (switching
    /// charge *not* included).
    pub projected_switch: f64,
    /// The switching/migration charge the candidate had to beat: the
    /// policy's flat [`crate::FleetPolicy::switching_cost`], the same for
    /// every decision of a run (paid on a forced adoption too).
    pub switching_cost: f64,
    /// Whether the candidate plan was adopted.
    pub adopted: bool,
    /// True when the decision was triggered by a failure/capacity SLO
    /// violation (a capacity-constrained re-solve), not by a workload shift.
    pub failure_triggered: bool,
}

impl AdoptionRecord {
    /// True when the switch was forced because keeping was infeasible (the
    /// current mix carried no demand).
    pub fn forced(&self) -> bool {
        self.projected_keep.is_none()
    }

    /// Projected savings of switching, net of the switching charge (`None`
    /// for forced switches, where no keep cost exists to compare against).
    pub fn net_savings(&self) -> Option<f64> {
        self.projected_keep
            .map(|keep| keep - self.projected_switch - self.switching_cost)
    }
}

/// Per-tenant outcome of a fleet run. It holds no wall-clock time, so `==`
/// is the resume contract: a killed-and-resumed run's tenants equal the
/// uninterrupted run's, solver-effort counters included.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name (from the spec).
    pub name: String,
    /// The target the tenant's initial plan was solved for.
    pub initial_target: Throughput,
    /// Rental cost accumulated over the run (cost rate × epoch length).
    pub rental_cost: f64,
    /// Switching charges paid for adopted plans.
    pub switching_cost: f64,
    /// Rental cost per epoch (one entry per epoch of the shared clock).
    pub epoch_costs: Vec<f64>,
    /// Number of what-if probes run.
    pub probes: usize,
    /// Number of re-solves run for this tenant (excluding the initial solve).
    pub resolves: usize,
    /// Number of adopted plans (excluding the initial plan).
    pub adoptions: usize,
    /// Deterministic solver-effort counters (solves, branch-and-bound nodes,
    /// simplex iterations), persisted on resume.
    pub effort: SolverEffort,
    /// Baseline: provisioning the initial mix for the trace peak over the
    /// whole horizon (the paper's static approach applied to the worst case).
    pub static_peak_cost: f64,
    /// Baseline: the fixed-mix autoscaler of `rental-stream` on the initial
    /// mix — rescales machine counts every epoch, never re-solves.
    pub fixed_mix_cost: f64,
    /// Baseline: provisioning the initial mix statically for the
    /// **availability-adjusted** peak (`peak / availability`) — the classic
    /// answer to machine failures. Equals `static_peak_cost` when failures
    /// are disabled.
    pub static_headroom_cost: f64,
    /// SLO-violation epochs of the static-headroom baseline under the same
    /// outage trace (0 when failures are disabled).
    pub static_headroom_violations: usize,
    /// Epochs in which the tenant's surviving capacity (rented minus downed
    /// minus quota-denied machines) could not carry its demand.
    pub slo_violation_epochs: usize,
    /// Capacity-constrained re-solves triggered by SLO violations (subset of
    /// `resolves`-style work, counted separately).
    pub failure_resolves: usize,
    /// Failure re-solves that could not serve the full target and fell back
    /// to the largest quota-feasible target (degraded mode).
    pub degraded_resolves: usize,
    /// Re-solves suppressed because the tenant's previous budgeted solve was
    /// exhausted without an incumbent: the tenant kept its current plan and
    /// sat out a capped-exponential backoff window (deferred, not dropped).
    pub deferred_resolves: usize,
    /// Epochs in which a solve for this tenant hit its budget — with an
    /// incumbent (adopted anytime) or without (deferred).
    pub budget_exhausted_epochs: usize,
    /// Adoptions of budget-exhausted incumbents: plans that are feasible but
    /// not proven optimal (the anytime contract in action).
    pub incumbent_adoptions: usize,
    /// Deferred re-solves that later succeeded after their backoff window.
    pub resolve_retries: usize,
}

impl TenantReport {
    /// Total cost of serving this tenant (rental plus switching charges).
    pub fn total_cost(&self) -> f64 {
        self.rental_cost + self.switching_cost
    }
}

/// The outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Every keep-vs-switch decision, in decision order.
    pub adoptions: Vec<AdoptionRecord>,
    /// Number of epochs of the shared clock.
    pub epochs: usize,
    /// Epoch length (hours).
    pub epoch_hours: f64,
    /// Peak utilisation of every **finitely quota'd** machine type of the
    /// shared capacity pool (fraction of quota in use at the worst epoch).
    /// Empty when the run had no finite quotas (including every uncoupled
    /// run).
    pub quota_utilization: Vec<f64>,
    /// Where the run's start went: a [`TraceTree`] rooted at `init`, its
    /// children back-to-back phases that partition the root — every run's
    /// `peaks`, then a fresh run's `requests`, `solve` (the initial batch),
    /// `derive`, `states` and `coupling`, a durable run's `restore` (a
    /// resume's, its journal replay included) and `persist` (the chain's
    /// root link).
    pub init_timing: TraceTree,
    /// Where each epoch's wall-clock time went: one causal [`TraceTree`]
    /// per epoch of the shared clock, its root the epoch's wall and its
    /// root's children the stages. A resumed run re-measures only the
    /// epochs it actually executed, so already-persisted epochs restore as
    /// untimed trees.
    pub epoch_timing: Vec<TraceTree>,
    /// Where the run's end went: a tree rooted at `finish` whose phases
    /// partition it — `headroom` (the static-headroom fleets against the
    /// outage traces), `reports` (the tenant rows) and `release` (dropping
    /// the tenant states).
    ///
    /// The three timing fields are the report's only wall-clock fields,
    /// masked by [`FleetReport::matches_modulo_timing`].
    pub finish_timing: TraceTree,
}

impl FleetReport {
    /// Tenant-epochs managed: the sum of every tenant's own billed epochs
    /// (tenants with shorter traces stop being billed — and counted — when
    /// their trace ends, matching their per-tenant baselines).
    pub fn tenant_epochs(&self) -> usize {
        self.tenants.iter().map(|t| t.epoch_costs.len()).sum()
    }

    /// Bit-exact equality on every decision-derived field (tenants,
    /// adoptions, quota utilization), ignoring only the wall-clock fields —
    /// [`FleetReport::init_timing`], [`FleetReport::epoch_timing`] and
    /// [`FleetReport::finish_timing`] — which depend on the machine and on
    /// how the run was split across restarts. The equality pinned by the
    /// crash/resume property tests.
    pub fn matches_modulo_timing(&self, other: &FleetReport) -> bool {
        self.tenants == other.tenants
            && self.adoptions == other.adoptions
            && self.epochs == other.epochs
            && self.epoch_hours == other.epoch_hours
            && self.quota_utilization == other.quota_utilization
    }

    /// Tenant-epochs on which a re-solve actually ran.
    pub fn resolved_tenant_epochs(&self) -> usize {
        self.tenants.iter().map(|t| t.resolves).sum()
    }

    /// Fraction of tenant-epochs that re-solved (0.0 on an empty run). The
    /// probes exist to keep this a small minority.
    pub fn resolve_fraction(&self) -> f64 {
        let total = self.tenant_epochs();
        if total == 0 {
            0.0
        } else {
            self.resolved_tenant_epochs() as f64 / total as f64
        }
    }

    /// Total cost over the fleet (rental plus switching).
    pub fn total_cost(&self) -> f64 {
        self.tenants.iter().map(TenantReport::total_cost).sum()
    }

    /// Total cost of the fixed-mix autoscale baseline over the fleet.
    pub fn fixed_mix_cost(&self) -> f64 {
        self.tenants.iter().map(|t| t.fixed_mix_cost).sum()
    }

    /// Total cost of static peak provisioning over the fleet.
    pub fn static_peak_cost(&self) -> f64 {
        self.tenants.iter().map(|t| t.static_peak_cost).sum()
    }

    /// Fleet-wide savings against the fixed-mix autoscale baseline.
    pub fn savings_vs_fixed_mix(&self) -> f64 {
        self.fixed_mix_cost() - self.total_cost()
    }

    /// Fleet-wide savings against static peak provisioning.
    pub fn savings_vs_static_peak(&self) -> f64 {
        self.static_peak_cost() - self.total_cost()
    }

    /// Total cost of the static availability-adjusted-peak baseline.
    pub fn static_headroom_cost(&self) -> f64 {
        self.tenants.iter().map(|t| t.static_headroom_cost).sum()
    }

    /// Fleet-wide savings against the static-headroom baseline.
    pub fn savings_vs_static_headroom(&self) -> f64 {
        self.static_headroom_cost() - self.total_cost()
    }

    /// Total SLO-violation epochs across the fleet.
    pub fn slo_violation_epochs(&self) -> usize {
        self.tenants.iter().map(|t| t.slo_violation_epochs).sum()
    }

    /// Total SLO-violation epochs of the static-headroom baseline.
    pub fn static_headroom_violations(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| t.static_headroom_violations)
            .sum()
    }

    /// Total failure-triggered capacity-constrained re-solves.
    pub fn failure_resolves(&self) -> usize {
        self.tenants.iter().map(|t| t.failure_resolves).sum()
    }

    /// Total degraded-mode fallbacks across the fleet.
    pub fn degraded_resolves(&self) -> usize {
        self.tenants.iter().map(|t| t.degraded_resolves).sum()
    }

    /// Total re-solves deferred to a backoff window across the fleet.
    pub fn deferred_resolves(&self) -> usize {
        self.tenants.iter().map(|t| t.deferred_resolves).sum()
    }

    /// Total budget-exhausted solve epochs across the fleet.
    pub fn budget_exhausted_epochs(&self) -> usize {
        self.tenants.iter().map(|t| t.budget_exhausted_epochs).sum()
    }

    /// Total anytime-incumbent adoptions across the fleet.
    pub fn incumbent_adoptions(&self) -> usize {
        self.tenants.iter().map(|t| t.incumbent_adoptions).sum()
    }

    /// Total post-backoff re-solve successes across the fleet.
    pub fn resolve_retries(&self) -> usize {
        self.tenants.iter().map(|t| t.resolve_retries).sum()
    }

    /// Wall-clock seconds of the probe stage, summed over the epochs.
    pub fn probe_seconds(&self) -> f64 {
        self.stage_seconds(Stage::Probe)
    }

    /// Wall-clock seconds of the solve stage, summed over the epochs (the
    /// initial solves run before epoch 0 and are not counted).
    pub fn solve_seconds(&self) -> f64 {
        self.stage_seconds(Stage::Solve)
    }

    /// Wall-clock seconds of `stage`, read off each epoch's trace tree
    /// ([`TraceTree::seconds`]) and summed over the run.
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        (self.epoch_timing.iter())
            .map(|tree| tree.seconds(stage.name()))
            .sum()
    }

    /// Fleet-wide solver effort: the per-tenant aggregates merged.
    pub fn effort(&self) -> SolverEffort {
        let mut total = SolverEffort::default();
        for tenant in &self.tenants {
            total.merge(&tenant.effort);
        }
        total
    }

    /// Tenant indices ordered by descending solver effort
    /// ([`SolverEffort::work`], ties broken by index), truncated to `k`.
    pub fn top_effort(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.tenants.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.tenants[i].effort.work()), i));
        order.truncate(k);
        order
    }

    /// The run as rows, one self-describing row per record (keyed by
    /// `"record"`): a `fleet` summary, one `epoch` row per epoch with the
    /// stage breakdown and the fleet-wide cost of that epoch, and one
    /// `tenant` row per tenant with its economics (baselines included),
    /// counters and solver effort. Rows of the `rental-obs` encoder, so
    /// `repro` lanes and telemetry dumps speak one format.
    pub fn telemetry(&self) -> Vec<JsonRow> {
        let effort = self.effort();
        let mut rows = vec![JsonRow::new()
            .str("record", "fleet")
            .usize("epochs", self.epochs)
            .f64("epoch_hours", self.epoch_hours)
            .f64("total_cost", self.total_cost())
            .f64("fixed_mix_cost", self.fixed_mix_cost())
            .f64("static_peak_cost", self.static_peak_cost())
            .usize("slo_violation_epochs", self.slo_violation_epochs())
            .usize("solves", effort.solves)
            .usize("nodes", effort.nodes)
            .usize("lp_iterations", effort.lp_iterations)
            .f64("probe_seconds", self.probe_seconds())
            .f64("solve_seconds", self.solve_seconds())];
        for (epoch, tree) in self.epoch_timing.iter().enumerate() {
            let cost: f64 = self
                .tenants
                .iter()
                .filter_map(|t| t.epoch_costs.get(epoch))
                .sum();
            let row = JsonRow::new().str("record", "epoch").usize("epoch", epoch);
            let row = Stage::ALL.into_iter().fold(row, |row, stage| {
                row.f64(stage.name(), tree.seconds(stage.name()))
            });
            rows.push(row.f64("cost", cost));
        }
        rows.extend(self.tenants.iter().enumerate().map(|(i, tenant)| {
            JsonRow::new()
                .str("record", "tenant")
                .usize("tenant", i)
                .str("name", &tenant.name)
                .u64("initial_target", tenant.initial_target)
                .f64("rental_cost", tenant.rental_cost)
                .f64("switching_cost", tenant.switching_cost)
                .f64("fixed_mix_cost", tenant.fixed_mix_cost)
                .f64("static_peak_cost", tenant.static_peak_cost)
                .usize("probes", tenant.probes)
                .usize("resolves", tenant.resolves)
                .usize("adoptions", tenant.adoptions)
                .usize("slo_violation_epochs", tenant.slo_violation_epochs)
                .usize("degraded_resolves", tenant.degraded_resolves)
                .usize("solves", tenant.effort.solves)
                .usize("nodes", tenant.effort.nodes)
                .usize("lp_iterations", tenant.effort.lp_iterations)
        }));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_obs::trace::ROOT;

    fn tenant(rental: f64, switching: f64, resolves: usize) -> TenantReport {
        TenantReport {
            name: "t".to_string(),
            initial_target: 50,
            rental_cost: rental,
            switching_cost: switching,
            epoch_costs: vec![0.0; 10],
            probes: 4,
            resolves,
            adoptions: 1,
            effort: SolverEffort {
                solves: resolves + 1,
                nodes: 100 * resolves,
                lp_iterations: 10 * resolves,
            },
            static_peak_cost: 500.0,
            fixed_mix_cost: 300.0,
            static_headroom_cost: 550.0,
            static_headroom_violations: 3,
            slo_violation_epochs: 1,
            failure_resolves: 1,
            degraded_resolves: 0,
            deferred_resolves: 2,
            budget_exhausted_epochs: 1,
            incumbent_adoptions: 1,
            resolve_retries: 1,
        }
    }

    #[test]
    fn report_totals_aggregate_over_tenants() {
        let mut tree = TraceTree::new(0, "epoch");
        tree.add(ROOT, "probe", 0.001);
        tree.add(ROOT, "arbitrate", 0.25);
        tree.add(ROOT, "solve", 0.01);
        let report = FleetReport {
            tenants: vec![tenant(200.0, 10.0, 2), tenant(100.0, 0.0, 1)],
            adoptions: vec![],
            epochs: 10,
            epoch_hours: 1.0,
            quota_utilization: vec![0.5, 1.0],
            init_timing: TraceTree::new(0, "init"),
            epoch_timing: vec![tree; 10],
            finish_timing: TraceTree::new(0, "finish"),
        };
        assert_eq!(report.tenant_epochs(), 20);
        assert_eq!(report.resolved_tenant_epochs(), 3);
        assert!((report.resolve_fraction() - 0.15).abs() < 1e-12);
        assert!((report.total_cost() - 310.0).abs() < 1e-12);
        assert!((report.fixed_mix_cost() - 600.0).abs() < 1e-12);
        assert!((report.savings_vs_fixed_mix() - 290.0).abs() < 1e-12);
        assert!((report.savings_vs_static_peak() - 690.0).abs() < 1e-12);
        assert!((report.static_headroom_cost() - 1100.0).abs() < 1e-12);
        assert!((report.savings_vs_static_headroom() - 790.0).abs() < 1e-12);
        assert_eq!(report.slo_violation_epochs(), 2);
        assert_eq!(report.static_headroom_violations(), 6);
        assert_eq!(report.failure_resolves(), 2);
        assert_eq!(report.degraded_resolves(), 0);
        assert_eq!(report.deferred_resolves(), 4);
        assert_eq!(report.budget_exhausted_epochs(), 2);
        assert_eq!(report.incumbent_adoptions(), 2);
        assert_eq!(report.resolve_retries(), 2);
        assert!((report.probe_seconds() - 0.01).abs() < 1e-12);
        assert!((report.solve_seconds() - 0.1).abs() < 1e-12);
        // Effort aggregates merge across tenants; the stage spans sum.
        let effort = report.effort();
        assert_eq!(effort.solves, 5);
        assert_eq!(effort.nodes, 300);
        assert_eq!(effort.lp_iterations, 30);
        assert_eq!(effort.work(), 330);
        assert_eq!(report.top_effort(1), vec![0]);
        assert!((report.stage_seconds(Stage::Arbitrate) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_resolve_fraction() {
        let report = FleetReport {
            tenants: vec![],
            adoptions: vec![],
            epochs: 0,
            epoch_hours: 1.0,
            quota_utilization: vec![],
            init_timing: TraceTree::new(0, "init"),
            epoch_timing: vec![],
            finish_timing: TraceTree::new(0, "finish"),
        };
        assert_eq!(report.resolve_fraction(), 0.0);
        assert_eq!(report.total_cost(), 0.0);
        assert_eq!(report.effort(), SolverEffort::default());
        assert!(report.top_effort(3).is_empty());
    }

    #[test]
    fn matches_modulo_timing_masks_exactly_the_stage_times() {
        let base = FleetReport {
            tenants: vec![tenant(200.0, 10.0, 2)],
            adoptions: vec![],
            epochs: 10,
            epoch_hours: 1.0,
            quota_utilization: vec![],
            init_timing: TraceTree::new(0, "init"),
            epoch_timing: (0..10).map(|e| TraceTree::new(e, "epoch")).collect(),
            finish_timing: TraceTree::new(0, "finish"),
        };
        // Different wall-clock, same decisions: matches.
        let mut retimed = base.clone();
        retimed.epoch_timing.clear();
        assert_ne!(base, retimed);
        assert!(base.matches_modulo_timing(&retimed));
        let mut retimed = base.clone();
        retimed.init_timing.add(ROOT, "solve", 0.5);
        retimed.finish_timing.set_wall(0.25);
        assert_ne!(base, retimed);
        assert!(base.matches_modulo_timing(&retimed));
        // Different solver effort is a real divergence, not timing.
        let mut diverged = base.clone();
        diverged.tenants[0].effort.nodes += 1;
        assert!(!base.matches_modulo_timing(&diverged));
    }

    #[test]
    fn telemetry_jsonl_has_one_row_per_record() {
        let report = FleetReport {
            tenants: vec![tenant(200.0, 10.0, 2), tenant(100.0, 0.0, 1)],
            adoptions: vec![],
            epochs: 3,
            epoch_hours: 1.0,
            quota_utilization: vec![],
            init_timing: TraceTree::new(0, "init"),
            epoch_timing: (0..3).map(|e| TraceTree::new(e, "epoch")).collect(),
            finish_timing: TraceTree::new(0, "finish"),
        };
        let rows = report.telemetry();
        assert_eq!(rows.len(), 1 + 3 + 2);
        assert!(rows[0].to_string().starts_with(r#"{"record":"fleet""#));
        assert_eq!(rows[1].get("record"), Some("epoch"));
        assert_eq!(rows[4].get("record"), Some("tenant"));
        assert_eq!(rows[4].get("nodes"), Some("200"));
        // The tenant rows carry the per-tenant baselines.
        assert_eq!(rows[4].get("initial_target"), Some("50"));
        assert_eq!(rows[4].get("fixed_mix_cost"), Some("300"));
        assert_eq!(rows[4].get("static_peak_cost"), Some("500"));
        // Time is per epoch only: tenant rows carry none.
        assert_eq!(rows[4].get("probe_seconds"), None);
        for row in rows {
            let line = row.finish();
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn adoption_net_savings() {
        let record = AdoptionRecord {
            tenant: 0,
            epoch: 3,
            target: 120,
            projected_keep: Some(100.0),
            projected_switch: 70.0,
            switching_cost: 10.0,
            adopted: true,
            failure_triggered: false,
        };
        assert!(!record.forced());
        assert!((record.net_savings().unwrap() - 20.0).abs() < 1e-12);
        let forced = AdoptionRecord {
            projected_keep: None,
            ..record
        };
        assert!(forced.forced());
        assert!(forced.net_savings().is_none());
    }
}
