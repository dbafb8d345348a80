//! Projecting a provisioning plan over a rental horizon.
//!
//! The paper minimises the *hourly* bill because the stream runs for an
//! unknown but long time. Once a concrete horizon is known (a campaign of a
//! week, a quarter, a year), the hourly solution can be projected into a
//! total bill under any [`BillingModel`], and different billing mechanisms
//! can be compared through their break-even points.

use rental_core::{ProvisioningPlan, TypeId};

use crate::billing::{
    BillingModel, HoursRounding, OnDemand, Reserved, SegmentedBilling, UsageWindow,
};

/// A rental horizon: how long the stream application will run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RentalHorizon {
    /// Duration in hours.
    pub hours: f64,
}

impl RentalHorizon {
    /// A horizon of the given number of hours.
    pub fn hours(hours: f64) -> Self {
        RentalHorizon {
            hours: hours.max(0.0),
        }
    }

    /// A horizon of the given number of days (24 h each).
    pub fn days(days: f64) -> Self {
        RentalHorizon::hours(days * 24.0)
    }

    /// A horizon of the given number of weeks (168 h each).
    pub fn weeks(weeks: f64) -> Self {
        RentalHorizon::hours(weeks * 168.0)
    }
}

/// The bill of one rented machine over the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineBill {
    /// Machine (and task) type of the instance.
    pub type_id: TypeId,
    /// Nominal hourly rate of the instance (`c_q`).
    pub hourly_rate: u64,
    /// Expected utilisation of the instance under the plan.
    pub utilisation: f64,
    /// Name of the billing model used.
    pub model: String,
    /// Total charge over the horizon.
    pub charge: f64,
}

/// The bill of a whole provisioning plan over a horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonBill {
    /// The horizon the bill covers.
    pub horizon: RentalHorizon,
    /// Per-machine charges, in the order of the plan's machines.
    pub machines: Vec<MachineBill>,
    /// Total charge over the horizon.
    pub total: f64,
}

impl HorizonBill {
    /// Mean hourly spend implied by the bill (total divided by the horizon).
    pub fn mean_hourly_cost(&self) -> f64 {
        if self.horizon.hours <= 0.0 {
            0.0
        } else {
            self.total / self.horizon.hours
        }
    }

    /// Total charge for machines of one type.
    pub fn cost_of_type(&self, type_id: TypeId) -> f64 {
        self.machines
            .iter()
            .filter(|m| m.type_id == type_id)
            .map(|m| m.charge)
            .sum()
    }
}

/// Bills every machine of the plan over the horizon with a single billing
/// model.
pub fn bill_plan(
    plan: &ProvisioningPlan,
    horizon: RentalHorizon,
    model: &dyn BillingModel,
) -> HorizonBill {
    let mut machines = Vec::with_capacity(plan.machines.len());
    let mut total = 0.0;
    for machine in &plan.machines {
        let usage = UsageWindow::with_utilisation(horizon.hours, machine.utilisation());
        let charge = model.charge(machine.hourly_cost, &usage);
        total += charge;
        machines.push(MachineBill {
            type_id: machine.type_id,
            hourly_rate: machine.hourly_cost,
            utilisation: machine.utilisation(),
            model: model.name().to_string(),
            charge,
        });
    }
    HorizonBill {
        horizon,
        machines,
        total,
    }
}

/// A precomputed, plan-level charge profile: the whole plan's bill as a
/// sorted sequence of prefix-summed affine **billing segments**.
///
/// [`bill_plan`] re-walks every machine of the plan on every query; an
/// autoscaler loop projecting hundreds of what-if horizons per reconfiguration
/// pays that cost each time. The cache merges every machine's piecewise-affine
/// profile ([`SegmentedBilling::segments`]) once — `O(M + S)` — after which a
/// query is a binary search over the merged segment starts plus one affine
/// evaluation: `O(log S)` with `S` tiny in practice (reserved plans have two
/// distinct breakpoints, usage-priced plans one).
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonCache {
    rounding: HoursRounding,
    model_name: &'static str,
    /// Total charge at a zero-length horizon (committed terms bill even
    /// without usage; usage-priced models bill nothing).
    at_zero: f64,
    /// The merged segments, sorted by deduplicated start; the first starts
    /// at `0.0`.
    segments: Box<[Merged]>,
}

/// One merged segment of a [`HorizonCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Merged {
    start: f64,
    /// Prefix-summed plan charge at the segment start.
    base: f64,
    /// Prefix-summed plan charge slope within the segment.
    slope: f64,
}

impl HorizonCache {
    /// Builds the cache for one plan under one billing model.
    pub fn new(plan: &ProvisioningPlan, model: &(impl SegmentedBilling + ?Sized)) -> Self {
        let machines = (plan.machines.iter()).map(|m| (m.hourly_cost, m.utilisation()));
        HorizonCache::from_machines(machines, model)
    }

    /// Builds the cache for machines given as `(hourly cost, utilisation)`
    /// pairs, in plan order, under one billing model: what
    /// [`HorizonCache::new`] reads off a plan's machines, for fleets that
    /// are known only by their machine counts.
    pub fn from_machines(
        machines: impl IntoIterator<Item = (u64, f64)>,
        model: &(impl SegmentedBilling + ?Sized),
    ) -> Self {
        // Gather every machine's segments, then sweep the merged breakpoints
        // accumulating total base and slope. `(slope_delta, jump)` events at
        // each start express both kinks and discontinuities.
        let machines = machines.into_iter();
        // (start, slope_delta, base_jump)
        let mut events: Vec<(f64, f64, f64)> = Vec::with_capacity(machines.size_hint().0);
        let mut at_zero = 0.0;
        for (hourly_cost, utilisation) in machines {
            at_zero += model.charge(hourly_cost, &UsageWindow::full(0.0));
            // Clamp as bill_plan does (UsageWindow::with_utilisation), so the
            // cache==bill_plan equivalence holds even for overloaded plans.
            let utilisation = utilisation.clamp(0.0, 1.0);
            let segments = model.segments(hourly_cost, utilisation);
            debug_assert!(!segments.is_empty(), "profiles are non-empty");
            let mut previous: Option<crate::billing::BillingSegment> = None;
            for &segment in segments.iter() {
                let (prev_slope, prev_value) = match previous {
                    Some(p) => (
                        p.slope,
                        p.base + p.slope * (segment.start_hours - p.start_hours),
                    ),
                    None => (0.0, 0.0),
                };
                events.push((
                    segment.start_hours,
                    segment.slope - prev_slope,
                    segment.base - prev_value,
                ));
                previous = Some(segment);
            }
        }
        // A stable sort leaves sorted events as they are, so events already
        // in start order (every machine's profile one segment from hour 0)
        // skip it.
        if !events.is_sorted_by(|a, b| a.0 <= b.0) {
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("segment starts are finite"));
        }

        // One merged segment per distinct start.
        let distinct = 1 + events.windows(2).filter(|w| w[1].0 > w[0].0).count();
        let mut segments: Vec<Merged> = Vec::with_capacity(distinct);
        let mut total_slope = 0.0;
        let mut total_base = 0.0;
        let mut cursor = 0.0;
        for (start, slope_delta, base_jump) in events {
            if segments.is_empty() || start > cursor {
                // Advance the running value to the new breakpoint.
                total_base += total_slope * (start - cursor);
                cursor = start;
                segments.push(Merged {
                    start,
                    base: total_base,
                    slope: total_slope,
                });
            }
            total_slope += slope_delta;
            total_base += base_jump;
            let last = segments.len() - 1;
            segments[last].base = total_base;
            segments[last].slope = total_slope;
        }
        if segments.is_empty() {
            segments.push(Merged {
                start: 0.0,
                base: 0.0,
                slope: 0.0,
            });
        }
        HorizonCache {
            rounding: model.rounding(),
            model_name: model.name(),
            at_zero,
            segments: segments.into_boxed_slice(),
        }
    }

    /// Name of the billing model the cache was built for.
    pub fn model_name(&self) -> &str {
        self.model_name
    }

    /// Number of merged billing segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total charge of the whole plan over the horizon, in `O(log segments)`.
    ///
    /// Agrees with [`bill_plan`]`.total` for the same plan and model — a
    /// property pinned by the `cache_matches_bill_plan_*` tests.
    pub fn total(&self, horizon: RentalHorizon) -> f64 {
        if horizon.hours <= 0.0 {
            return self.at_zero;
        }
        let hours = self.rounding.apply(horizon.hours);
        let k = self
            .segments
            .partition_point(|s| s.start <= hours)
            .saturating_sub(1);
        let s = &self.segments[k];
        s.base + s.slope * (hours - s.start)
    }

    /// The **marginal** charge of extending the plan's rental from horizon
    /// `from` to horizon `to` — the remaining-horizon what-if query of a
    /// streaming controller: at time `from` into a run that will last until
    /// `to`, *keeping* the plan costs `total_over(from, to)`, while switching
    /// to another plan costs that plan's `total(to − from)` plus the
    /// migration charge. Committed terms already paid by hour `from` are
    /// correctly sunk (the flat stretch of a reserved profile contributes
    /// zero margin). Returns 0 when `to ≤ from`.
    pub fn total_over(&self, from: RentalHorizon, to: RentalHorizon) -> f64 {
        if to.hours <= from.hours {
            0.0
        } else {
            self.total(to) - self.total(from)
        }
    }

    /// The **outage-aware** remaining-horizon query: like
    /// [`Self::total_over`], but derated by the machines' steady-state
    /// `availability` (`mtbf / (mtbf + repair)` of a failure model, in
    /// `(0, 1]`).
    ///
    /// A plan whose machines are only up a fraction `a` of the time must rent
    /// `1/a` of its nominal fleet at the margin to sustain the same effective
    /// capacity — the replacements rented while machines sit in repair — so
    /// the expected marginal charge of *keeping* the plan's capacity from
    /// `from` to `to` is `total_over(from, to) / a`. With `availability = 1`
    /// this is exactly `total_over` (bit-identical: the division by 1.0 is
    /// exact), so failure-free controllers can call it unconditionally.
    ///
    /// # Panics
    ///
    /// Panics when `availability` is not in `(0, 1]`.
    pub fn expected_total_over(
        &self,
        from: RentalHorizon,
        to: RentalHorizon,
        availability: f64,
    ) -> f64 {
        assert!(
            availability > 0.0 && availability <= 1.0,
            "availability must be in (0, 1], got {availability}"
        );
        self.total_over(from, to) / availability
    }

    /// Mean hourly spend over a horizon (total divided by the horizon).
    pub fn mean_hourly_cost(&self, horizon: RentalHorizon) -> f64 {
        if horizon.hours <= 0.0 {
            0.0
        } else {
            self.total(horizon) / horizon.hours
        }
    }
}

/// Horizon length (in hours) beyond which a reserved commitment becomes
/// cheaper than on-demand rental for a machine with the given hourly rate.
///
/// Returns `None` when the reservation never pays off (zero discount) or when
/// the rate is zero (both options are free).
pub fn break_even_hours(
    hourly_rate: u64,
    on_demand: &OnDemand,
    reserved: &Reserved,
) -> Option<f64> {
    if hourly_rate == 0 || reserved.discount <= 0.0 {
        return None;
    }
    // On-demand cost grows as rate × hours (ignoring the sub-hour rounding,
    // negligible over multi-day horizons); reserved cost is flat at
    // rate × (1 − discount) × term until the term ends, then grows at the
    // discounted rate. The curves cross while the reserved cost is still
    // flat, at hours = (1 − discount) × term.
    let _ = on_demand;
    let crossing = (1.0 - reserved.discount) * reserved.term_hours;
    Some(crossing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::Spot;
    use rental_core::examples::illustrating_example;
    use rental_core::{ProvisioningPlan, ThroughputSplit};

    fn table3_plan() -> (ProvisioningPlan, u64) {
        let instance = illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        (ProvisioningPlan::build(&instance, &solution).unwrap(), 124)
    }

    #[test]
    fn hourly_on_demand_bill_matches_the_paper_cost() {
        let (plan, hourly) = table3_plan();
        let bill = bill_plan(&plan, RentalHorizon::hours(1.0), &OnDemand::hourly());
        assert!((bill.total - hourly as f64).abs() < 1e-9);
        assert!((bill.mean_hourly_cost() - hourly as f64).abs() < 1e-9);
    }

    #[test]
    fn horizon_scales_the_bill_linearly() {
        let (plan, hourly) = table3_plan();
        let week = bill_plan(&plan, RentalHorizon::weeks(1.0), &OnDemand::hourly());
        assert!((week.total - hourly as f64 * 168.0).abs() < 1e-6);
        let day = bill_plan(&plan, RentalHorizon::days(1.0), &OnDemand::hourly());
        assert!((day.total - hourly as f64 * 24.0).abs() < 1e-6);
    }

    #[test]
    fn per_machine_bills_sum_to_the_total() {
        let (plan, _) = table3_plan();
        let bill = bill_plan(&plan, RentalHorizon::days(3.0), &Spot::typical());
        let sum: f64 = bill.machines.iter().map(|m| m.charge).sum();
        assert!((sum - bill.total).abs() < 1e-9);
        assert_eq!(bill.machines.len(), plan.total_machines());
    }

    #[test]
    fn cost_of_type_partitions_the_total() {
        let (plan, _) = table3_plan();
        let bill = bill_plan(&plan, RentalHorizon::days(1.0), &OnDemand::hourly());
        let sum: f64 = (0..4).map(|q| bill.cost_of_type(TypeId(q))).sum();
        assert!((sum - bill.total).abs() < 1e-9);
    }

    #[test]
    fn reserved_bill_is_flat_before_the_term() {
        let (plan, _) = table3_plan();
        let reserved = Reserved::with_term(1000.0, 0.4);
        let short = bill_plan(&plan, RentalHorizon::hours(100.0), &reserved);
        let longer = bill_plan(&plan, RentalHorizon::hours(900.0), &reserved);
        assert!((short.total - longer.total).abs() < 1e-9);
    }

    #[test]
    fn break_even_matches_the_crossing_point() {
        let on_demand = OnDemand::hourly();
        let reserved = Reserved::with_term(1000.0, 0.4);
        let crossing = break_even_hours(10, &on_demand, &reserved).unwrap();
        assert!((crossing - 600.0).abs() < 1e-9);
        // Just below the crossing on-demand is cheaper, just above reserved is.
        let usage_below = UsageWindow::full(crossing - 1.0);
        let usage_above = UsageWindow::full(crossing + 1.0);
        use crate::billing::BillingModel;
        assert!(on_demand.charge(10, &usage_below) < reserved.charge(10, &usage_below));
        assert!(on_demand.charge(10, &usage_above) > reserved.charge(10, &usage_above));
    }

    #[test]
    fn break_even_is_none_without_a_discount() {
        assert!(
            break_even_hours(10, &OnDemand::hourly(), &Reserved::with_term(100.0, 0.0)).is_none()
        );
        assert!(
            break_even_hours(0, &OnDemand::hourly(), &Reserved::with_term(100.0, 0.5)).is_none()
        );
    }

    #[test]
    fn zero_horizon_bills_are_zero_for_usage_based_models() {
        let (plan, _) = table3_plan();
        let bill = bill_plan(&plan, RentalHorizon::hours(0.0), &OnDemand::hourly());
        assert_eq!(bill.total, 0.0);
        assert_eq!(bill.mean_hourly_cost(), 0.0);
    }

    // ------------------------------------------------------------------
    // HorizonCache: the O(log segments) what-if projection path.
    // ------------------------------------------------------------------

    use crate::billing::PerSecond;

    fn probe_horizons() -> Vec<RentalHorizon> {
        let mut horizons: Vec<RentalHorizon> = [
            0.0,
            0.004,
            1.0 / 60.0,
            0.5,
            0.999,
            1.0,
            1.5,
            23.0,
            24.0,
            100.0,
            599.9,
            600.0,
            600.1,
            999.0,
            1000.0,
            1001.0,
            8760.0,
            20_000.0,
        ]
        .iter()
        .map(|&h| RentalHorizon::hours(h))
        .collect();
        horizons.extend((1..=40).map(|k| RentalHorizon::hours(k as f64 * 37.31)));
        horizons
    }

    fn assert_cache_matches(plan: &ProvisioningPlan, model: &(impl SegmentedBilling + 'static)) {
        let cache = HorizonCache::new(plan, model);
        assert_eq!(cache.model_name(), model.name());
        for horizon in probe_horizons() {
            let reference = bill_plan(plan, horizon, model);
            let total = cache.total(horizon);
            assert!(
                (total - reference.total).abs() <= 1e-9 * (1.0 + reference.total.abs()),
                "{} at {} h: cache {} vs walk {}",
                model.name(),
                horizon.hours,
                total,
                reference.total
            );
            assert!(
                (cache.mean_hourly_cost(horizon) - reference.mean_hourly_cost()).abs()
                    <= 1e-9 * (1.0 + reference.mean_hourly_cost().abs())
            );
        }
    }

    #[test]
    fn cache_matches_bill_plan_for_every_model() {
        let (plan, _) = table3_plan();
        assert_cache_matches(&plan, &OnDemand::hourly());
        assert_cache_matches(&plan, &OnDemand::with_increment(1.0 / 60.0));
        assert_cache_matches(&plan, &PerSecond::default());
        assert_cache_matches(
            &plan,
            &PerSecond {
                minimum_seconds: 0.0,
            },
        );
        assert_cache_matches(&plan, &Reserved::with_term(1000.0, 0.4));
        assert_cache_matches(&plan, &Reserved::with_term(0.0, 0.4));
        assert_cache_matches(&plan, &Reserved::one_year(0.35));
        assert_cache_matches(&plan, &Spot::typical());
    }

    #[test]
    fn cache_is_logarithmic_not_per_machine() {
        // The merged profile has a handful of segments no matter how many
        // machines the plan holds: repeated what-if queries do not re-walk
        // the machine list.
        let (plan, _) = table3_plan();
        assert!(plan.total_machines() >= 5);
        let cache = HorizonCache::new(&plan, &Reserved::with_term(1000.0, 0.4));
        assert_eq!(cache.num_segments(), 2); // flat term, then rolling renewal
        let cache = HorizonCache::new(&plan, &Spot::typical());
        assert_eq!(cache.num_segments(), 1);
    }

    #[test]
    fn total_over_is_the_marginal_charge() {
        let (plan, hourly) = table3_plan();
        let cache = HorizonCache::new(&plan, &OnDemand::hourly());
        // On-demand margins are linear in the extension length.
        let margin = cache.total_over(RentalHorizon::hours(100.0), RentalHorizon::hours(148.0));
        assert!((margin - hourly as f64 * 48.0).abs() < 1e-6);
        // Degenerate windows cost nothing.
        assert_eq!(
            cache.total_over(RentalHorizon::hours(5.0), RentalHorizon::hours(5.0)),
            0.0
        );
        assert_eq!(
            cache.total_over(RentalHorizon::hours(9.0), RentalHorizon::hours(3.0)),
            0.0
        );
        // A reserved term already paid is sunk: extending within the flat
        // stretch is free, so keeping beats re-committing elsewhere.
        let reserved = HorizonCache::new(&plan, &Reserved::with_term(1000.0, 0.4));
        let sunk = reserved.total_over(RentalHorizon::hours(100.0), RentalHorizon::hours(900.0));
        assert!(sunk.abs() < 1e-9);
        let past_term =
            reserved.total_over(RentalHorizon::hours(900.0), RentalHorizon::hours(1100.0));
        assert!(past_term > 0.0);
    }

    #[test]
    fn outage_aware_queries_derate_by_availability() {
        let (plan, hourly) = table3_plan();
        let cache = HorizonCache::new(&plan, &OnDemand::hourly());
        let from = RentalHorizon::hours(10.0);
        let to = RentalHorizon::hours(34.0);
        // Perfect machines: bit-identical to the plain marginal query.
        assert_eq!(
            cache.expected_total_over(from, to, 1.0),
            cache.total_over(from, to)
        );
        // 90% availability: the margin pays for 1/0.9 of the nominal fleet.
        let derated = cache.expected_total_over(from, to, 0.9);
        assert!((derated - hourly as f64 * 24.0 / 0.9).abs() < 1e-6);
        assert!(derated > cache.total_over(from, to));
    }

    #[test]
    #[should_panic(expected = "availability must be in (0, 1]")]
    fn zero_availability_is_rejected() {
        let (plan, _) = table3_plan();
        let cache = HorizonCache::new(&plan, &OnDemand::hourly());
        cache.expected_total_over(RentalHorizon::hours(0.0), RentalHorizon::hours(1.0), 0.0);
    }

    #[test]
    fn cached_break_even_agrees_with_the_analytic_crossing() {
        let (plan, _) = table3_plan();
        let on_demand = HorizonCache::new(&plan, &OnDemand::hourly());
        let reserved_model = Reserved::with_term(1000.0, 0.4);
        let reserved = HorizonCache::new(&plan, &reserved_model);
        let crossing = (1.0 - reserved_model.discount) * reserved_model.term_hours;
        let below = RentalHorizon::hours(crossing - 2.0);
        let above = RentalHorizon::hours(crossing + 2.0);
        assert!(on_demand.total(below) < reserved.total(below));
        assert!(on_demand.total(above) > reserved.total(above));
    }
}
