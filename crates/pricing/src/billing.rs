//! Billing models: how a machine's nominal hourly rate `c_q` turns into an
//! actual charge over a usage window.
//!
//! The paper prices machines with a flat hourly rate; the models here capture
//! the pricing mechanisms of real IaaS offerings so that a MinCost solution
//! can be costed over a realistic rental horizon. All charges are expressed
//! in the same (abstract) currency unit as the paper's `c_q`.

use rental_core::Cost;

/// How long a machine is rented and how busy it is over that window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageWindow {
    /// Wall-clock duration of the rental, in hours.
    pub hours: f64,
    /// Fraction of the rented time the machine is actually processing work
    /// (`0.0 ..= 1.0`). Only the spot model's restart overhead depends on it;
    /// the paper's steady-state machines run at the utilisation reported by
    /// [`ProvisioningPlan`](rental_core::ProvisioningPlan).
    pub utilisation: f64,
}

impl UsageWindow {
    /// A window of `hours` hours at full utilisation.
    pub fn full(hours: f64) -> Self {
        UsageWindow {
            hours,
            utilisation: 1.0,
        }
    }

    /// A window of `hours` hours at the given utilisation (clamped to `[0, 1]`).
    pub fn with_utilisation(hours: f64, utilisation: f64) -> Self {
        UsageWindow {
            hours,
            utilisation: utilisation.clamp(0.0, 1.0),
        }
    }
}

/// A pricing mechanism translating a nominal hourly rate into a charge.
pub trait BillingModel {
    /// Short identifier used in bills and reports.
    fn name(&self) -> &'static str;

    /// Charge for renting one machine with nominal hourly rate `hourly_rate`
    /// over the given usage window.
    fn charge(&self, hourly_rate: Cost, usage: &UsageWindow) -> f64;
}

/// One piece of a piecewise-affine charge profile: for horizons `h` at or
/// beyond `start_hours` (up to the next segment), the charge is
/// `base + slope × (h − start_hours)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingSegment {
    /// Horizon (hours) where this segment starts.
    pub start_hours: f64,
    /// Charge at `start_hours`.
    pub base: f64,
    /// Charge growth per additional hour within the segment.
    pub slope: f64,
}

/// How a model quantizes the billed duration before its affine profile
/// applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HoursRounding {
    /// The exact duration is billed.
    Exact,
    /// Durations are rounded **up** to a multiple of the increment (classic
    /// on-demand hourly billing).
    UpToIncrement(f64),
}

impl HoursRounding {
    /// Applies the rounding to a horizon length.
    pub fn apply(&self, hours: f64) -> f64 {
        match *self {
            HoursRounding::Exact => hours,
            HoursRounding::UpToIncrement(increment) => {
                if hours <= 0.0 {
                    0.0
                } else {
                    (hours / increment).ceil() * increment
                }
            }
        }
    }
}

/// A billing model whose per-machine charge is piecewise affine in the
/// (rounded) horizon length. All the concrete models here are; the
/// [`crate::horizon::HorizonCache`] exploits it to aggregate a whole plan
/// into prefix-summed segments queried in `O(log segments)`.
pub trait SegmentedBilling: BillingModel {
    /// How the queried horizon is quantized before the segments apply.
    fn rounding(&self) -> HoursRounding {
        HoursRounding::Exact
    }

    /// The charge profile of one machine, as non-empty, strictly-increasing
    /// segments starting at hour 0. Only `hours > 0` is ever evaluated
    /// through the profile (a zero-length rental is handled by
    /// [`BillingModel::charge`] directly, so discontinuities at 0 — minimum
    /// charges, committed terms — are expressible).
    fn segments(&self, hourly_rate: Cost, utilisation: f64) -> ChargeProfile;
}

/// The one or two [`BillingSegment`]s of a machine's charge profile, held
/// inline, so a profile allocates nothing: every model here is affine, or
/// flat up to one breakpoint and affine after it. Reads as a slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeProfile {
    segments: [BillingSegment; 2],
    len: usize,
}

impl ChargeProfile {
    /// A profile of one affine segment.
    pub fn affine(segment: BillingSegment) -> Self {
        ChargeProfile {
            segments: [segment; 2],
            len: 1,
        }
    }

    /// A profile of two segments, `first` up to `second`'s start.
    pub fn broken(first: BillingSegment, second: BillingSegment) -> Self {
        ChargeProfile {
            segments: [first, second],
            len: 2,
        }
    }
}

impl std::ops::Deref for ChargeProfile {
    type Target = [BillingSegment];

    fn deref(&self) -> &[BillingSegment] {
        &self.segments[..self.len]
    }
}

impl SegmentedBilling for OnDemand {
    fn rounding(&self) -> HoursRounding {
        HoursRounding::UpToIncrement(self.increment_hours)
    }

    fn segments(&self, hourly_rate: Cost, _utilisation: f64) -> ChargeProfile {
        // After rounding up to the increment the charge is exactly linear.
        ChargeProfile::affine(BillingSegment {
            start_hours: 0.0,
            base: 0.0,
            slope: hourly_rate as f64,
        })
    }
}

impl SegmentedBilling for PerSecond {
    fn segments(&self, hourly_rate: Cost, _utilisation: f64) -> ChargeProfile {
        let rate = hourly_rate as f64;
        let minimum_hours = self.minimum_seconds / 3600.0;
        if minimum_hours <= 0.0 {
            return ChargeProfile::affine(BillingSegment {
                start_hours: 0.0,
                base: 0.0,
                slope: rate,
            });
        }
        ChargeProfile::broken(
            // Flat at the minimum charge until the minimum duration…
            BillingSegment {
                start_hours: 0.0,
                base: minimum_hours * rate,
                slope: 0.0,
            },
            // …then exact per-second billing.
            BillingSegment {
                start_hours: minimum_hours,
                base: minimum_hours * rate,
                slope: rate,
            },
        )
    }
}

impl SegmentedBilling for Reserved {
    fn segments(&self, hourly_rate: Cost, _utilisation: f64) -> ChargeProfile {
        let effective = self.effective_rate(hourly_rate);
        if self.term_hours <= 0.0 {
            return ChargeProfile::affine(BillingSegment {
                start_hours: 0.0,
                base: 0.0,
                slope: effective,
            });
        }
        ChargeProfile::broken(
            // The committed term is paid in full regardless of usage…
            BillingSegment {
                start_hours: 0.0,
                base: self.term_hours * effective,
                slope: 0.0,
            },
            // …then the rolling renewal grows at the discounted rate.
            BillingSegment {
                start_hours: self.term_hours,
                base: self.term_hours * effective,
                slope: effective,
            },
        )
    }
}

impl SegmentedBilling for Spot {
    fn segments(&self, hourly_rate: Cost, utilisation: f64) -> ChargeProfile {
        let overhead =
            1.0 + self.interruptions_per_hour * self.restart_overhead_hours * utilisation;
        ChargeProfile::affine(BillingSegment {
            start_hours: 0.0,
            base: 0.0,
            slope: overhead * hourly_rate as f64 * (1.0 - self.discount),
        })
    }
}

/// Classic on-demand billing: the rental duration is rounded up to a billing
/// increment (one hour by default, as in the paper) and charged at the full
/// hourly rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemand {
    /// Billing increment in hours (1.0 = per-hour billing, the paper's model).
    pub increment_hours: f64,
}

impl OnDemand {
    /// Per-hour billing, the model implicitly used by the paper.
    pub fn hourly() -> Self {
        OnDemand {
            increment_hours: 1.0,
        }
    }

    /// On-demand billing with an arbitrary increment (e.g. 1/60.0 for
    /// per-minute billing).
    pub fn with_increment(increment_hours: f64) -> Self {
        OnDemand {
            increment_hours: increment_hours.max(f64::EPSILON),
        }
    }
}

impl BillingModel for OnDemand {
    fn name(&self) -> &'static str {
        "on-demand"
    }

    fn charge(&self, hourly_rate: Cost, usage: &UsageWindow) -> f64 {
        if usage.hours <= 0.0 {
            return 0.0;
        }
        let increments = (usage.hours / self.increment_hours).ceil();
        increments * self.increment_hours * hourly_rate as f64
    }
}

/// Per-second billing with a minimum charge, as offered by modern IaaS
/// providers: fine-grained durations are charged exactly, short rentals pay
/// at least the minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerSecond {
    /// Minimum billed duration in seconds (60 s is a common value).
    pub minimum_seconds: f64,
}

impl Default for PerSecond {
    fn default() -> Self {
        PerSecond {
            minimum_seconds: 60.0,
        }
    }
}

impl BillingModel for PerSecond {
    fn name(&self) -> &'static str {
        "per-second"
    }

    fn charge(&self, hourly_rate: Cost, usage: &UsageWindow) -> f64 {
        if usage.hours <= 0.0 {
            return 0.0;
        }
        let seconds = (usage.hours * 3600.0).max(self.minimum_seconds);
        seconds / 3600.0 * hourly_rate as f64
    }
}

/// Reserved capacity: a commitment over a fixed term at a discounted hourly
/// rate. The commitment is paid whether or not the machine is used for the
/// whole term, so short windows still pay the full term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reserved {
    /// Length of the commitment, in hours (e.g. 8760 for one year).
    pub term_hours: f64,
    /// Discount on the hourly rate (`0.4` means paying 60 % of on-demand).
    pub discount: f64,
}

impl Reserved {
    /// A one-year reservation with the given discount.
    pub fn one_year(discount: f64) -> Self {
        Reserved {
            term_hours: 8760.0,
            discount: discount.clamp(0.0, 1.0),
        }
    }

    /// A reservation over an arbitrary term.
    pub fn with_term(term_hours: f64, discount: f64) -> Self {
        Reserved {
            term_hours: term_hours.max(0.0),
            discount: discount.clamp(0.0, 1.0),
        }
    }

    /// Effective hourly rate after the discount.
    pub fn effective_rate(&self, hourly_rate: Cost) -> f64 {
        hourly_rate as f64 * (1.0 - self.discount)
    }
}

impl BillingModel for Reserved {
    fn name(&self) -> &'static str {
        "reserved"
    }

    fn charge(&self, hourly_rate: Cost, usage: &UsageWindow) -> f64 {
        if usage.hours <= 0.0 && self.term_hours <= 0.0 {
            return 0.0;
        }
        // The whole term is committed: renting for less than the term still
        // pays for the term; renting for longer pays the discounted rate for
        // the extra hours (rolling renewal).
        let billed_hours = usage.hours.max(self.term_hours);
        billed_hours * self.effective_rate(hourly_rate)
    }
}

/// Interruptible (spot) capacity: a deep discount on the hourly rate, but
/// interruptions force work to be redone, which shows up as extra billed
/// hours proportional to the interruption rate and the restart overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spot {
    /// Discount on the hourly rate (`0.7` means paying 30 % of on-demand).
    pub discount: f64,
    /// Expected number of interruptions per rented hour.
    pub interruptions_per_hour: f64,
    /// Hours of work lost (and re-billed) per interruption.
    pub restart_overhead_hours: f64,
}

impl Spot {
    /// A typical spot offer: 70 % discount, one interruption every 50 hours,
    /// 15 minutes of lost work per interruption.
    pub fn typical() -> Self {
        Spot {
            discount: 0.7,
            interruptions_per_hour: 0.02,
            restart_overhead_hours: 0.25,
        }
    }

    /// Expected overhead factor applied to the billed hours
    /// (`1 + interruptions_per_hour × restart_overhead_hours`).
    pub fn overhead_factor(&self) -> f64 {
        1.0 + self.interruptions_per_hour * self.restart_overhead_hours
    }
}

impl BillingModel for Spot {
    fn name(&self) -> &'static str {
        "spot"
    }

    fn charge(&self, hourly_rate: Cost, usage: &UsageWindow) -> f64 {
        if usage.hours <= 0.0 {
            return 0.0;
        }
        // Only the busy fraction of the window needs to be redone after an
        // interruption, so the overhead scales with utilisation.
        let overhead =
            1.0 + self.interruptions_per_hour * self.restart_overhead_hours * usage.utilisation;
        usage.hours * overhead * hourly_rate as f64 * (1.0 - self.discount)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_demand_hourly_matches_the_paper_rate() {
        // One hour at rate 10 costs exactly 10, as in the paper's model.
        let model = OnDemand::hourly();
        assert_eq!(model.charge(10, &UsageWindow::full(1.0)), 10.0);
        assert_eq!(model.charge(10, &UsageWindow::full(24.0)), 240.0);
    }

    #[test]
    fn on_demand_rounds_up_to_the_increment() {
        let model = OnDemand::hourly();
        assert_eq!(model.charge(10, &UsageWindow::full(0.1)), 10.0);
        assert_eq!(model.charge(10, &UsageWindow::full(1.5)), 20.0);
        let minute = OnDemand::with_increment(1.0 / 60.0);
        let charge = minute.charge(60, &UsageWindow::full(0.5));
        assert!((charge - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_is_free() {
        let usage = UsageWindow::full(0.0);
        assert_eq!(OnDemand::hourly().charge(10, &usage), 0.0);
        assert_eq!(PerSecond::default().charge(10, &usage), 0.0);
        assert_eq!(Spot::typical().charge(10, &usage), 0.0);
    }

    #[test]
    fn per_second_billing_is_cheaper_than_hourly_for_short_jobs() {
        let hourly = OnDemand::hourly();
        let per_second = PerSecond::default();
        let usage = UsageWindow::full(0.25);
        assert!(per_second.charge(100, &usage) < hourly.charge(100, &usage));
    }

    #[test]
    fn per_second_minimum_applies() {
        let model = PerSecond {
            minimum_seconds: 120.0,
        };
        // 10 seconds of use is billed as 120 seconds.
        let charge = model.charge(3600, &UsageWindow::full(10.0 / 3600.0));
        assert!((charge - 120.0).abs() < 1e-9);
    }

    #[test]
    fn reserved_commits_the_whole_term() {
        let reserved = Reserved::with_term(100.0, 0.4);
        // Renting for 10 hours still pays the 100-hour term at 60 % of rate 10.
        assert!((reserved.charge(10, &UsageWindow::full(10.0)) - 600.0).abs() < 1e-9);
        // Renting for 200 hours pays 200 discounted hours.
        assert!((reserved.charge(10, &UsageWindow::full(200.0)) - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn reserved_beats_on_demand_on_long_horizons() {
        let reserved = Reserved::one_year(0.4);
        let on_demand = OnDemand::hourly();
        let usage = UsageWindow::full(8760.0);
        assert!(reserved.charge(10, &usage) < on_demand.charge(10, &usage));
    }

    #[test]
    fn spot_discount_dominates_when_interruptions_are_rare() {
        let spot = Spot {
            discount: 0.7,
            interruptions_per_hour: 0.0,
            restart_overhead_hours: 1.0,
        };
        let usage = UsageWindow::full(100.0);
        let on_demand = OnDemand::hourly().charge(10, &usage);
        assert!((spot.charge(10, &usage) - 0.3 * on_demand).abs() < 1e-9);
    }

    #[test]
    fn spot_overhead_grows_with_interruption_rate() {
        let calm = Spot {
            discount: 0.5,
            interruptions_per_hour: 0.01,
            restart_overhead_hours: 0.5,
        };
        let stormy = Spot {
            interruptions_per_hour: 0.5,
            ..calm
        };
        let usage = UsageWindow::full(100.0);
        assert!(stormy.charge(10, &usage) > calm.charge(10, &usage));
        assert!(stormy.overhead_factor() > calm.overhead_factor());
    }

    #[test]
    fn spot_overhead_scales_with_utilisation() {
        let spot = Spot::typical();
        let busy = UsageWindow::with_utilisation(100.0, 1.0);
        let idle = UsageWindow::with_utilisation(100.0, 0.1);
        assert!(spot.charge(10, &busy) > spot.charge(10, &idle));
    }

    #[test]
    fn utilisation_is_clamped() {
        let usage = UsageWindow::with_utilisation(1.0, 3.0);
        assert_eq!(usage.utilisation, 1.0);
        let usage = UsageWindow::with_utilisation(1.0, -1.0);
        assert_eq!(usage.utilisation, 0.0);
    }

    #[test]
    fn model_names_are_stable() {
        assert_eq!(OnDemand::hourly().name(), "on-demand");
        assert_eq!(PerSecond::default().name(), "per-second");
        assert_eq!(Reserved::one_year(0.4).name(), "reserved");
        assert_eq!(Spot::typical().name(), "spot");
    }
}
