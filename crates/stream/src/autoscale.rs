//! Epoch-based autoscaling on top of a MinCost solution.
//!
//! The paper sizes a platform once, for a constant target throughput. When
//! the demanded throughput varies over time (a [`WorkloadTrace`]), the cloud's
//! elasticity lets the platform follow the demand: every epoch the controller
//! recomputes how many machines of each type the current rate requires —
//! keeping the *recipe mix* of the underlying MinCost solution — scales up
//! immediately, and scales down only after the demand has stayed low for a
//! configurable number of epochs (hysteresis). Optionally, an outage trace
//! from [`crate::failure`] erodes the rented capacity and the report records
//! the epochs in which the surviving machines could no longer carry the
//! demand.
//!
//! The controller is analytical (it uses the exact cost/capacity arithmetic
//! of `rental-core`, not the discrete-event simulator), which keeps whole
//! multi-week traces cheap to evaluate; the discrete-event simulator remains
//! the tool for validating a single steady-state epoch in detail.

use std::sync::Arc;

use rental_core::{Instance, RecipeId, Solution, TypeId};

use crate::event::SimTime;
use crate::failure::FailureTrace;
use crate::workload::WorkloadTrace;

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Epoch length: how often the controller re-evaluates the fleet.
    pub epoch: SimTime,
    /// Capacity head-room: the controller provisions for `rate × headroom`
    /// (1.0 = provision exactly, 1.2 = 20 % slack).
    pub headroom: f64,
    /// Number of consecutive epochs the demand must stay below the current
    /// fleet before the controller scales down.
    pub scale_down_patience: usize,
    /// Extra machines kept per *used* type as failure redundancy (N+k).
    pub redundancy: u64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            epoch: 1.0,
            headroom: 1.0,
            scale_down_patience: 2,
            redundancy: 0,
        }
    }
}

/// What the controller did in one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub index: usize,
    /// Start time of the epoch.
    pub start: SimTime,
    /// Peak demanded rate inside the epoch.
    pub demand_rate: f64,
    /// Machines rented per type during the epoch.
    pub machines: Vec<u64>,
    /// Machines per type that were up for the whole epoch (rented minus the
    /// peak number simultaneously down).
    pub available: Vec<u64>,
    /// Rental cost of the epoch (`Σ_q x_q c_q × epoch length`).
    pub cost: f64,
    /// True if the surviving capacity could not carry the demand.
    pub violated: bool,
}

/// The outcome of replaying a workload trace under the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleReport {
    /// Per-epoch decisions.
    pub epochs: Vec<EpochRecord>,
    /// Total rental cost over the trace with autoscaling.
    pub total_cost: f64,
    /// Rental cost of the static alternative: provisioning for the trace's
    /// peak rate over the whole duration (the paper's approach applied to the
    /// worst case).
    pub static_peak_cost: f64,
    /// Number of epochs whose demand could not be carried.
    pub violations: usize,
}

impl AutoscaleReport {
    /// Absolute savings of autoscaling over static peak provisioning.
    pub fn savings(&self) -> f64 {
        self.static_peak_cost - self.total_cost
    }

    /// Fraction of the static bill saved (0.0 when the static bill is zero).
    pub fn savings_fraction(&self) -> f64 {
        if self.static_peak_cost <= 0.0 {
            0.0
        } else {
            self.savings() / self.static_peak_cost
        }
    }

    /// Largest fleet (total machines) rented in any epoch.
    pub fn peak_fleet(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.machines.iter().sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Mean fleet size over the epochs.
    pub fn mean_fleet(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(|e| e.machines.iter().sum::<u64>() as f64)
            .sum::<f64>()
            / self.epochs.len() as f64
    }
}

/// The per-epoch arithmetic of fixed-mix scaling: how many machines of each
/// type a demand rate requires when the recipe mix is frozen.
///
/// This is the piece of the [`Autoscaler`] that other controllers reuse — the
/// fleet controller of `rental-fleet` drives one `FixedMixScaler` per tenant
/// (rebuilding it whenever a re-solve changes the tenant's recipe mix) and the
/// fixed-mix baseline of its reports is exactly an [`Autoscaler`] run. The
/// per-type rates are immutable and shared: a clone points at the same
/// storage, so tenants that start from one plan share one scaler's data.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedMixScaler {
    /// The rates of each machine type.
    types: Arc<[TypeRates]>,
    /// Capacity head-room multiplier applied to the demand rate.
    headroom: f64,
    /// Extra machines kept per used type (N+k redundancy).
    redundancy: u64,
}

/// What a [`FixedMixScaler`] knows about one machine type.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TypeRates {
    /// Demand for one unit of total throughput under the fixed recipe mix:
    /// `Σ_j n_jq × f_j`.
    unit_demand: f64,
    /// Machine throughput `r_q`.
    throughput: f64,
    /// Hourly cost `c_q`.
    cost: f64,
}

impl FixedMixScaler {
    /// Builds the scaler for an instance under a fixed recipe mix
    /// (`fractions` as produced by [`Autoscaler::split_fractions`]).
    ///
    /// # Panics
    ///
    /// Panics when `fractions` does not have one entry per recipe.
    pub fn new(instance: &Instance, fractions: &[f64], policy: &AutoscalePolicy) -> Self {
        assert_eq!(
            fractions.len(),
            instance.num_recipes(),
            "one fraction per recipe is required"
        );
        let platform = instance.platform();
        let demand_matrix = instance.application().demand();
        let types = (0..instance.num_types())
            .map(|q| TypeRates {
                unit_demand: (0..instance.num_recipes())
                    .map(|j| demand_matrix.count(RecipeId(j), TypeId(q)) as f64 * fractions[j])
                    .sum(),
                throughput: platform.throughput(TypeId(q)) as f64,
                cost: platform.cost(TypeId(q)) as f64,
            })
            .collect();
        FixedMixScaler {
            types,
            headroom: policy.headroom,
            redundancy: policy.redundancy,
        }
    }

    /// Number of machine types the scaler manages.
    fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Demand per type induced by a total rate (before head-room).
    pub fn demand_at(&self, rate: f64) -> Vec<f64> {
        self.types.iter().map(|t| t.unit_demand * rate).collect()
    }

    /// Machines of one type required to carry `rate` (head-room and
    /// redundancy applied).
    fn required(&self, t: &TypeRates, rate: f64) -> u64 {
        let demand = t.unit_demand * rate * self.headroom;
        if demand <= 0.0 {
            0
        } else {
            (demand / t.throughput).ceil() as u64 + self.redundancy
        }
    }

    /// Machines per type required to carry `rate` (head-room and redundancy
    /// applied).
    pub fn required_for(&self, rate: f64) -> Vec<u64> {
        self.types.iter().map(|t| self.required(t, rate)).collect()
    }

    /// Machines per type required to carry a **provisioning target** (a
    /// demand total that already includes any head-room), without redundancy.
    /// This is what a what-if probe sizes against: the fixed-mix fleet for a
    /// quantized target ρ', comparable to a solver's plan for the same ρ'.
    pub fn required_for_target(&self, target: f64) -> Vec<u64> {
        self.types
            .iter()
            .map(|t| {
                let demand = t.unit_demand * target;
                if demand <= 0.0 {
                    0
                } else {
                    (demand / t.throughput).ceil() as u64
                }
            })
            .collect()
    }

    /// Hourly rental cost of a fleet (machines per type).
    ///
    /// # Panics
    ///
    /// Panics when `fleet` does not have one entry per machine type of the
    /// scaler's instance.
    pub fn cost_rate(&self, fleet: &[u64]) -> f64 {
        assert_eq!(
            fleet.len(),
            self.types.len(),
            "one fleet entry per machine type is required"
        );
        fleet
            .iter()
            .zip(self.types.iter())
            .map(|(&x, t)| x as f64 * t.cost)
            .sum()
    }

    /// Hourly rental cost of the fleet required for `rate` — the fixed-mix
    /// rescale cost a what-if probe compares against. The same sum as
    /// [`FixedMixScaler::cost_rate`] of [`FixedMixScaler::required_for`],
    /// without the fleet's vector.
    pub fn rescale_cost_rate(&self, rate: f64) -> f64 {
        (self.types.iter())
            .map(|t| self.required(t, rate) as f64 * t.cost)
            .sum()
    }

    /// True when the surviving machines (`available` per type) cannot carry
    /// the raw demand at `rate` (no head-room applied — violation is about
    /// actual demand, not the provisioning policy).
    pub fn violates(&self, rate: f64, available: &[u64]) -> bool {
        self.types.iter().enumerate().any(|(q, t)| {
            let needed = t.unit_demand * rate;
            let capacity = available[q] as f64 * t.throughput;
            needed > 1e-9 && capacity < needed - 1e-9
        })
    }
}

/// The mutable scaling state carried across epochs: the current fleet and the
/// per-type scale-down hysteresis counters, held in one buffer (the fleet,
/// then the counters) — inline for platforms of up to five machine types, so
/// such a state allocates nothing.
///
/// Deliberately separate from [`FixedMixScaler`] so a controller can swap the
/// recipe mix (a new scaler) while the rented fleet carries over.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedMixState {
    counts: Counts,
}

/// Machine types whose counts a [`FixedMixState`] holds inline.
const INLINE_TYPES: usize = 5;

/// The counts of a [`FixedMixState`]: how many there are and, inline, the
/// counts themselves (zero past them), or a heap buffer of exactly them.
#[derive(Debug, Clone, PartialEq)]
enum Counts {
    Inline(usize, [u64; 2 * INLINE_TYPES]),
    Heap(Vec<u64>),
}

impl Counts {
    fn zeroed(len: usize) -> Self {
        if len <= 2 * INLINE_TYPES {
            Counts::Inline(len, [0; 2 * INLINE_TYPES])
        } else {
            Counts::Heap(vec![0; len])
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Counts::Inline(len, counts) => &counts[..*len],
            Counts::Heap(counts) => counts,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Counts::Inline(len, counts) => &mut counts[..*len],
            Counts::Heap(counts) => counts,
        }
    }
}

impl FixedMixState {
    /// An empty state (nothing rented) for `num_types` machine types.
    pub fn new(num_types: usize) -> Self {
        FixedMixState {
            counts: Counts::zeroed(2 * num_types),
        }
    }

    /// Number of machine types the state covers.
    fn num_types(&self) -> usize {
        self.counts.as_slice().len() / 2
    }

    /// Machines currently rented, per type.
    pub fn fleet(&self) -> &[u64] {
        &self.counts.as_slice()[..self.num_types()]
    }

    /// The per-type scale-down hysteresis counters (consecutive epochs the
    /// demand has stayed below the rented fleet).
    pub fn below_counts(&self) -> &[u64] {
        &self.counts.as_slice()[self.num_types()..]
    }

    /// Rebuilds a state from its persisted parts — the inverse of reading
    /// [`FixedMixState::fleet`] and [`FixedMixState::below_counts`] back. A
    /// resumed controller restores the exact hysteresis position, so its
    /// scale-down decisions continue bit-identically.
    ///
    /// # Panics
    ///
    /// Panics when the two vectors disagree on the number of machine types.
    pub fn from_parts(fleet: Vec<u64>, below_count: Vec<u64>) -> Self {
        assert_eq!(
            fleet.len(),
            below_count.len(),
            "fleet and hysteresis counters must cover the same machine types"
        );
        let mut state = FixedMixState::new(fleet.len());
        let (to_fleet, to_below) = state.counts.as_mut_slice().split_at_mut(fleet.len());
        to_fleet.copy_from_slice(&fleet);
        to_below.copy_from_slice(&below_count);
        state
    }

    /// Advances one epoch: scales up immediately to what `rate` requires and
    /// scales down only after the demand has stayed low for
    /// `scale_down_patience` consecutive epochs. Returns the fleet rented for
    /// this epoch.
    ///
    /// # Panics
    ///
    /// Panics when the scaler manages a different number of machine types
    /// than this state — swapped-in scalers (new recipe mix) must come from
    /// the same platform.
    pub fn step(
        &mut self,
        scaler: &FixedMixScaler,
        rate: f64,
        scale_down_patience: usize,
    ) -> &[u64] {
        let types = self.num_types();
        assert_eq!(
            types,
            scaler.num_types(),
            "scaler and state must cover the same machine types"
        );
        let (fleet, below) = self.counts.as_mut_slice().split_at_mut(types);
        // One type at a time, so a step allocates nothing.
        for (q, t) in scaler.types.iter().enumerate() {
            let needed = scaler.required(t, rate);
            if needed > fleet[q] {
                fleet[q] = needed;
                below[q] = 0;
            } else if needed < fleet[q] {
                below[q] += 1;
                if below[q] >= scale_down_patience as u64 {
                    fleet[q] = needed;
                    below[q] = 0;
                }
            } else {
                below[q] = 0;
            }
        }
        fleet
    }
}

/// The autoscaling controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct Autoscaler {
    /// Controller parameters.
    pub policy: AutoscalePolicy,
}

impl Autoscaler {
    /// Creates a controller with the given policy.
    pub fn new(policy: AutoscalePolicy) -> Self {
        Autoscaler { policy }
    }

    /// Per-recipe throughput fractions of a solution (`ρ_j / Σ ρ_j`). Returns
    /// an all-zero vector when the split is empty.
    pub fn split_fractions(solution: &Solution) -> Vec<f64> {
        let total: u64 = solution.split.shares().iter().sum();
        if total == 0 {
            return vec![0.0; solution.split.len()];
        }
        solution
            .split
            .shares()
            .iter()
            .map(|&s| s as f64 / total as f64)
            .collect()
    }

    /// Replays `trace` on `instance`, keeping the recipe mix of `fractions`
    /// (as produced by [`Autoscaler::split_fractions`]), without failures.
    pub fn run(
        &self,
        instance: &Instance,
        fractions: &[f64],
        trace: &WorkloadTrace,
    ) -> AutoscaleReport {
        let failures = FailureTrace::empty(trace.duration());
        self.run_with_failures(instance, fractions, trace, &failures)
    }

    /// Replays `trace` on `instance` while the machines suffer the outages of
    /// `failures`.
    pub fn run_with_failures(
        &self,
        instance: &Instance,
        fractions: &[f64],
        trace: &WorkloadTrace,
        failures: &FailureTrace,
    ) -> AutoscaleReport {
        let scaler = FixedMixScaler::new(instance, fractions, &self.policy);
        let num_types = instance.num_types();
        let peaks = trace.epoch_peaks(self.policy.epoch);

        let mut state = FixedMixState::new(num_types);
        let mut epochs = Vec::with_capacity(peaks.len());
        let mut total_cost = 0.0;
        let mut violations = 0;

        for (index, &rate) in peaks.iter().enumerate() {
            let start = index as f64 * self.policy.epoch;
            let end = start + self.policy.epoch;
            let fleet = state
                .step(&scaler, rate, self.policy.scale_down_patience)
                .to_vec();

            let cost = scaler.cost_rate(&fleet) * self.policy.epoch;
            total_cost += cost;

            let available: Vec<u64> = (0..num_types)
                .map(|q| {
                    let down = failures.peak_down_in_window(TypeId(q), start, end);
                    fleet[q].saturating_sub(down)
                })
                .collect();
            let violated = scaler.violates(rate, &available);
            if violated {
                violations += 1;
            }

            epochs.push(EpochRecord {
                index,
                start,
                demand_rate: rate,
                machines: fleet,
                available,
                cost,
                violated,
            });
        }

        // Static alternative: provision once for the peak rate, keep it for
        // the whole trace.
        let static_rate = scaler.rescale_cost_rate(trace.peak_rate());
        let static_peak_cost = static_rate * self.policy.epoch * peaks.len() as f64;

        AutoscaleReport {
            epochs,
            total_cost,
            static_peak_cost,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureModel;
    use rental_core::examples::illustrating_example;
    use rental_core::ThroughputSplit;

    fn instance_and_fractions() -> (Instance, Vec<f64>) {
        let instance = illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let fractions = Autoscaler::split_fractions(&solution);
        (instance, fractions)
    }

    #[test]
    fn split_fractions_sum_to_one() {
        let (_, fractions) = instance_and_fractions();
        let sum: f64 = fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((fractions[0] - 10.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn constant_trace_reproduces_the_static_cost() {
        // At a constant rate the autoscaler and the static peak provisioning
        // rent the same fleet in every epoch, so the two bills coincide.
        let (instance, fractions) = instance_and_fractions();
        let trace = WorkloadTrace::constant(70.0, 24.0);
        let report = Autoscaler::default().run(&instance, &fractions, &trace);
        assert_eq!(report.violations, 0);
        assert!((report.total_cost - report.static_peak_cost).abs() < 1e-9);
        assert_eq!(report.savings_fraction(), 0.0);
        // The fleet matches the Table III allocation for the (10, 30, 30)
        // split: 3, 2, 1, 1 machines → hourly cost 124.
        assert_eq!(report.epochs[0].machines, vec![3, 2, 1, 1]);
        assert!((report.epochs[0].cost - 124.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_traces_save_money_over_static_peak_provisioning() {
        let (instance, fractions) = instance_and_fractions();
        let trace = WorkloadTrace::diurnal(20.0, 80.0, 12.0, 4);
        let report = Autoscaler::default().run(&instance, &fractions, &trace);
        assert_eq!(report.violations, 0);
        assert!(report.savings() > 0.0);
        assert!(report.savings_fraction() > 0.1);
        assert!(report.mean_fleet() < report.peak_fleet() as f64);
    }

    #[test]
    fn hysteresis_delays_scale_down() {
        let (instance, fractions) = instance_and_fractions();
        // One high epoch followed by low epochs.
        let trace = WorkloadTrace::new(vec![
            crate::workload::TraceSegment {
                duration: 1.0,
                rate: 80.0,
            },
            crate::workload::TraceSegment {
                duration: 5.0,
                rate: 20.0,
            },
        ]);
        let patient = Autoscaler::new(AutoscalePolicy {
            scale_down_patience: 3,
            ..AutoscalePolicy::default()
        })
        .run(&instance, &fractions, &trace);
        let eager = Autoscaler::new(AutoscalePolicy {
            scale_down_patience: 1,
            ..AutoscalePolicy::default()
        })
        .run(&instance, &fractions, &trace);
        // The patient controller keeps the large fleet longer, so it spends
        // at least as much as the eager one.
        assert!(patient.total_cost >= eager.total_cost);
        // Both eventually shrink to the low-rate fleet.
        assert_eq!(
            patient.epochs.last().unwrap().machines,
            eager.epochs.last().unwrap().machines
        );
    }

    #[test]
    fn headroom_increases_cost_but_never_reduces_capacity() {
        let (instance, fractions) = instance_and_fractions();
        let trace = WorkloadTrace::diurnal(20.0, 80.0, 6.0, 2);
        let exact = Autoscaler::default().run(&instance, &fractions, &trace);
        let slack = Autoscaler::new(AutoscalePolicy {
            headroom: 1.3,
            ..AutoscalePolicy::default()
        })
        .run(&instance, &fractions, &trace);
        assert!(slack.total_cost >= exact.total_cost);
        for (a, b) in slack.epochs.iter().zip(exact.epochs.iter()) {
            for q in 0..a.machines.len() {
                assert!(a.machines[q] >= b.machines[q]);
            }
        }
    }

    #[test]
    fn failures_without_redundancy_can_violate_the_demand() {
        let (instance, fractions) = instance_and_fractions();
        let trace = WorkloadTrace::constant(70.0, 200.0);
        // Very fragile machines: failures every ~5 time units, slow repairs.
        let counts = vec![3, 2, 1, 1];
        let failures = FailureModel::new(5.0, 3.0, 9).generate(&counts, trace.duration());
        let bare =
            Autoscaler::default().run_with_failures(&instance, &fractions, &trace, &failures);
        assert!(bare.violations > 0);
        // Adding one redundant machine per used type removes most violations.
        let hardened = Autoscaler::new(AutoscalePolicy {
            redundancy: 1,
            ..AutoscalePolicy::default()
        })
        .run_with_failures(&instance, &fractions, &trace, &failures);
        assert!(hardened.violations <= bare.violations);
        assert!(hardened.total_cost > bare.total_cost);
    }

    #[test]
    fn zero_rate_trace_rents_nothing() {
        let (instance, fractions) = instance_and_fractions();
        let trace = WorkloadTrace::constant(0.0, 10.0);
        let report = Autoscaler::default().run(&instance, &fractions, &trace);
        assert_eq!(report.total_cost, 0.0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.peak_fleet(), 0);
    }

    #[test]
    #[should_panic(expected = "one fraction per recipe")]
    fn wrong_fraction_arity_panics() {
        let (instance, _) = instance_and_fractions();
        let trace = WorkloadTrace::constant(10.0, 1.0);
        Autoscaler::default().run(&instance, &[1.0], &trace);
    }

    #[test]
    fn fixed_mix_scaler_reproduces_the_solution_fleet_at_its_own_target() {
        // At the rate the solution was solved for, the fixed-mix rescale
        // rents exactly the solution's machines (Table III: 3, 2, 1, 1 at
        // hourly cost 124 for the (10, 30, 30) split).
        let (instance, fractions) = instance_and_fractions();
        let scaler = FixedMixScaler::new(&instance, &fractions, &AutoscalePolicy::default());
        assert_eq!(scaler.required_for(70.0), vec![3, 2, 1, 1]);
        assert!((scaler.rescale_cost_rate(70.0) - 124.0).abs() < 1e-9);
        assert!(!scaler.violates(70.0, &[3, 2, 1, 1]));
        assert!(scaler.violates(70.0, &[2, 2, 1, 1]));
    }

    #[test]
    fn fixed_mix_state_carries_hysteresis_across_scaler_swaps() {
        let (instance, fractions) = instance_and_fractions();
        let policy = AutoscalePolicy {
            scale_down_patience: 2,
            ..AutoscalePolicy::default()
        };
        let scaler = FixedMixScaler::new(&instance, &fractions, &policy);
        let mut state = FixedMixState::new(instance.num_types());
        state.step(&scaler, 70.0, policy.scale_down_patience);
        assert_eq!(state.fleet(), &[3, 2, 1, 1]);
        // One low epoch: patience holds the fleet; the second shrinks it.
        state.step(&scaler, 10.0, policy.scale_down_patience);
        assert_eq!(state.fleet(), &[3, 2, 1, 1]);
        state.step(&scaler, 10.0, policy.scale_down_patience);
        assert_eq!(state.fleet(), scaler.required_for(10.0).as_slice());
    }

    #[test]
    fn empty_report_statistics_are_zero() {
        let report = AutoscaleReport {
            epochs: vec![],
            total_cost: 0.0,
            static_peak_cost: 0.0,
            violations: 0,
        };
        assert_eq!(report.mean_fleet(), 0.0);
        assert_eq!(report.peak_fleet(), 0);
        assert_eq!(report.savings_fraction(), 0.0);
    }
}
