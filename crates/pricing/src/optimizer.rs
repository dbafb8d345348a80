//! Assigning a billing model to every machine of a provisioning plan.
//!
//! Given a plan, a horizon and the billing options offered by the provider,
//! the optimizer picks for each machine the cheapest admissible model. The
//! only coupling between machines is a reliability cap: at most a configured
//! fraction of the machines of each type may run on interruptible (spot)
//! capacity, so that an interruption storm cannot take out a whole task type
//! at once. Within that cap the machines with the largest spot savings are
//! moved to spot first, which makes the assignment optimal for the model.

use rental_core::{ProvisioningPlan, TypeId};

use crate::billing::{BillingModel, OnDemand, Reserved, Spot, UsageWindow};
use crate::horizon::RentalHorizon;

/// The billing mechanisms offered for the plan and the reliability cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingOptions {
    /// On-demand billing (always available; the fallback).
    pub on_demand: OnDemand,
    /// Reserved capacity, if offered.
    pub reserved: Option<Reserved>,
    /// Interruptible capacity, if offered.
    pub spot: Option<Spot>,
    /// Maximum fraction of the machines of each type that may run on spot
    /// capacity (`0.0 ..= 1.0`).
    pub max_spot_fraction: f64,
}

impl Default for BillingOptions {
    fn default() -> Self {
        BillingOptions {
            on_demand: OnDemand::hourly(),
            reserved: Some(Reserved::one_year(0.4)),
            spot: Some(Spot::typical()),
            max_spot_fraction: 0.5,
        }
    }
}

/// Which billing mechanism a machine ends up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BillingChoice {
    /// Full-price on-demand capacity.
    OnDemand,
    /// Discounted reserved capacity (term commitment).
    Reserved,
    /// Discounted interruptible capacity.
    Spot,
}

impl BillingChoice {
    /// Human-readable name of the choice.
    pub fn name(self) -> &'static str {
        match self {
            BillingChoice::OnDemand => "on-demand",
            BillingChoice::Reserved => "reserved",
            BillingChoice::Spot => "spot",
        }
    }
}

/// The billing decision for one machine of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineBillingDecision {
    /// Index of the machine in the plan's machine list.
    pub machine_index: usize,
    /// Machine (and task) type of the instance.
    pub type_id: TypeId,
    /// The chosen billing mechanism.
    pub choice: BillingChoice,
    /// Charge over the horizon under the chosen mechanism.
    pub charge: f64,
    /// Charge the machine would have incurred on plain on-demand billing.
    pub on_demand_charge: f64,
}

/// A complete billing assignment for a plan over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct BillingAssignment {
    /// The horizon the assignment covers.
    pub horizon: RentalHorizon,
    /// Per-machine decisions, ordered by machine index.
    pub decisions: Vec<MachineBillingDecision>,
    /// Total charge over the horizon.
    pub total: f64,
    /// Total charge if every machine had stayed on on-demand billing.
    pub on_demand_total: f64,
}

impl BillingAssignment {
    /// Total savings relative to plain on-demand billing.
    fn savings(&self) -> f64 {
        self.on_demand_total - self.total
    }

    /// Fraction of the on-demand bill saved (0.0 when the bill is zero).
    pub fn savings_fraction(&self) -> f64 {
        if self.on_demand_total <= 0.0 {
            0.0
        } else {
            self.savings() / self.on_demand_total
        }
    }

    /// Number of machines assigned to the given billing choice.
    pub fn count_of(&self, choice: BillingChoice) -> usize {
        self.decisions.iter().filter(|d| d.choice == choice).count()
    }
}

/// Picks the cheapest admissible billing model for every machine of the plan.
pub fn optimize_billing(
    plan: &ProvisioningPlan,
    horizon: RentalHorizon,
    options: &BillingOptions,
) -> BillingAssignment {
    let max_spot_fraction = options.max_spot_fraction.clamp(0.0, 1.0);

    // First pass: charge of every machine under every offered mechanism, and
    // the best non-spot choice.
    struct Candidate {
        type_id: TypeId,
        on_demand: f64,
        best_stable: (BillingChoice, f64),
        spot: Option<f64>,
    }
    let mut candidates: Vec<Candidate> = Vec::with_capacity(plan.machines.len());
    for machine in &plan.machines {
        let usage = UsageWindow::with_utilisation(horizon.hours, machine.utilisation());
        let on_demand = options.on_demand.charge(machine.hourly_cost, &usage);
        let mut best_stable = (BillingChoice::OnDemand, on_demand);
        if let Some(reserved) = options.reserved {
            let charge = reserved.charge(machine.hourly_cost, &usage);
            if charge < best_stable.1 {
                best_stable = (BillingChoice::Reserved, charge);
            }
        }
        let spot = options
            .spot
            .map(|spot| spot.charge(machine.hourly_cost, &usage));
        candidates.push(Candidate {
            type_id: machine.type_id,
            on_demand,
            best_stable,
            spot,
        });
    }

    // Second pass: per type, move to spot the machines with the largest spot
    // savings, up to the reliability cap.
    let mut spot_selected = vec![false; candidates.len()];
    if options.spot.is_some() && max_spot_fraction > 0.0 {
        let mut per_type: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (index, candidate) in candidates.iter().enumerate() {
            per_type
                .entry(candidate.type_id.index())
                .or_default()
                .push(index);
        }
        for (_, indices) in per_type {
            let cap = (indices.len() as f64 * max_spot_fraction).floor() as usize;
            // Sort by descending savings of spot over the best stable choice.
            let mut ranked: Vec<usize> = indices;
            ranked.sort_by(|&a, &b| {
                let saving = |i: usize| {
                    candidates[i].best_stable.1 - candidates[i].spot.unwrap_or(f64::INFINITY)
                };
                saving(b)
                    .partial_cmp(&saving(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for &index in ranked.iter().take(cap) {
                let spot_charge = candidates[index].spot.unwrap_or(f64::INFINITY);
                if spot_charge < candidates[index].best_stable.1 {
                    spot_selected[index] = true;
                }
            }
        }
    }

    let mut decisions = Vec::with_capacity(candidates.len());
    let mut total = 0.0;
    let mut on_demand_total = 0.0;
    for (index, candidate) in candidates.iter().enumerate() {
        let (choice, charge) = if spot_selected[index] {
            (
                BillingChoice::Spot,
                candidate.spot.expect("spot selected implies spot offered"),
            )
        } else {
            candidate.best_stable
        };
        total += charge;
        on_demand_total += candidate.on_demand;
        decisions.push(MachineBillingDecision {
            machine_index: index,
            type_id: candidate.type_id,
            choice,
            charge,
            on_demand_charge: candidate.on_demand,
        });
    }

    BillingAssignment {
        horizon,
        decisions,
        total,
        on_demand_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_core::{ProvisioningPlan, ThroughputSplit};

    fn table3_plan() -> ProvisioningPlan {
        let instance = illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        ProvisioningPlan::build(&instance, &solution).unwrap()
    }

    #[test]
    fn on_demand_only_matches_the_plain_bill() {
        let plan = table3_plan();
        let horizon = RentalHorizon::days(7.0);
        // Only on-demand billing: the paper's implicit model.
        let options = BillingOptions {
            reserved: None,
            spot: None,
            max_spot_fraction: 0.0,
            ..BillingOptions::default()
        };
        let assignment = optimize_billing(&plan, horizon, &options);
        assert!((assignment.total - 124.0 * 168.0).abs() < 1e-6);
        assert_eq!(assignment.savings(), 0.0);
        assert_eq!(
            assignment.count_of(BillingChoice::OnDemand),
            plan.total_machines()
        );
    }

    #[test]
    fn optimizer_never_exceeds_the_on_demand_bill() {
        let plan = table3_plan();
        for &hours in &[1.0, 24.0, 168.0, 8760.0, 20_000.0] {
            let assignment = optimize_billing(
                &plan,
                RentalHorizon::hours(hours),
                &BillingOptions::default(),
            );
            assert!(
                assignment.total <= assignment.on_demand_total + 1e-9,
                "hours = {hours}"
            );
            assert!(assignment.savings_fraction() >= 0.0);
        }
    }

    #[test]
    fn long_horizons_move_machines_to_reserved_capacity() {
        let plan = table3_plan();
        let options = BillingOptions {
            spot: None,
            ..BillingOptions::default()
        };
        let short = optimize_billing(&plan, RentalHorizon::days(7.0), &options);
        let long = optimize_billing(&plan, RentalHorizon::hours(2.0 * 8760.0), &options);
        assert_eq!(short.count_of(BillingChoice::Reserved), 0);
        assert_eq!(
            long.count_of(BillingChoice::Reserved),
            plan.total_machines()
        );
        assert!(long.savings() > 0.0);
    }

    #[test]
    fn spot_fraction_cap_is_respected_per_type() {
        let plan = table3_plan();
        let options = BillingOptions {
            max_spot_fraction: 0.5,
            ..BillingOptions::default()
        };
        let assignment = optimize_billing(&plan, RentalHorizon::days(30.0), &options);
        // Per type: floor(count / 2) machines at most on spot.
        for q in 0..4 {
            let type_id = TypeId(q);
            let machines_of_type = plan
                .machines
                .iter()
                .filter(|m| m.type_id == type_id)
                .count();
            let spot_of_type = assignment
                .decisions
                .iter()
                .filter(|d| d.type_id == type_id && d.choice == BillingChoice::Spot)
                .count();
            assert!(
                spot_of_type <= machines_of_type / 2,
                "type {q}: {spot_of_type} of {machines_of_type} on spot"
            );
        }
    }

    #[test]
    fn full_spot_fraction_puts_everything_on_spot_for_long_runs() {
        let plan = table3_plan();
        let options = BillingOptions {
            max_spot_fraction: 1.0,
            reserved: None,
            ..BillingOptions::default()
        };
        let assignment = optimize_billing(&plan, RentalHorizon::days(30.0), &options);
        assert_eq!(
            assignment.count_of(BillingChoice::Spot),
            plan.total_machines()
        );
        assert!(assignment.savings_fraction() > 0.5);
    }

    #[test]
    fn decisions_cover_every_machine_exactly_once() {
        let plan = table3_plan();
        let assignment =
            optimize_billing(&plan, RentalHorizon::days(10.0), &BillingOptions::default());
        assert_eq!(assignment.decisions.len(), plan.total_machines());
        let sum: f64 = assignment.decisions.iter().map(|d| d.charge).sum();
        assert!((sum - assignment.total).abs() < 1e-9);
        for (index, decision) in assignment.decisions.iter().enumerate() {
            assert_eq!(decision.machine_index, index);
            assert!(decision.on_demand_charge - decision.charge >= -1e-9);
        }
    }
}
