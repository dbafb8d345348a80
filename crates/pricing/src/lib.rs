//! # rental-pricing
//!
//! Billing models and rental-horizon cost projection for MinCost solutions.
//!
//! The paper's model prices every machine with a single hourly rate `c_q` and
//! minimises the *hourly* bill. Real IaaS catalogues are richer: on-demand
//! billing is rounded up to a billing increment, sustained workloads can be
//! moved to cheaper reserved capacity, and interruptible (spot) capacity
//! trades a discount against restart overhead. This crate layers those
//! pricing mechanisms *on top of* the paper's solutions without changing the
//! optimisation problem itself:
//!
//! * [`billing`] — the [`BillingModel`] trait and the four concrete models
//!   (on-demand, per-second, reserved, spot);
//! * [`horizon`] — project a [`ProvisioningPlan`](rental_core::ProvisioningPlan)
//!   over a rental horizon and compute break-even points between models;
//! * [`optimizer`] — assign the cheapest admissible billing model to every
//!   machine of a plan, with a cap on the interruptible fraction;
//! * [`catalogue`] — a named, EC2-like machine catalogue that maps onto the
//!   paper's abstract [`Platform`](rental_core::Platform).
//!
//! Everything in this crate is an extension beyond the paper (documented as
//! such in DESIGN.md); the paper's own experiments only ever use the plain
//! hourly rate, which corresponds to [`billing::OnDemand`] with a one-hour
//! increment and 100 % utilisation.
//!
//! ```
//! use rental_core::examples::illustrating_example;
//! use rental_core::{ProvisioningPlan, ThroughputSplit};
//! use rental_pricing::billing::{BillingModel, OnDemand, UsageWindow};
//! use rental_pricing::horizon::{bill_plan, RentalHorizon};
//!
//! let instance = illustrating_example();
//! let solution = instance
//!     .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
//!     .unwrap();
//! let plan = ProvisioningPlan::build(&instance, &solution).unwrap();
//!
//! // One week of on-demand rental at the paper's hourly prices.
//! let bill = bill_plan(&plan, RentalHorizon::hours(168.0), &OnDemand::hourly());
//! assert_eq!(bill.total, 124.0 * 168.0);
//! # let _ = OnDemand::hourly().charge(10, &UsageWindow::full(1.0));
//! ```

pub mod billing;
pub mod catalogue;
pub mod horizon;
pub mod optimizer;

pub use billing::{
    BillingModel, BillingSegment, ChargeProfile, HoursRounding, OnDemand, PerSecond, Reserved,
    SegmentedBilling, Spot, UsageWindow,
};
pub use catalogue::{Catalogue, CatalogueEntry};
pub use horizon::{
    bill_plan, break_even_hours, HorizonBill, HorizonCache, MachineBill, RentalHorizon,
};
pub use optimizer::{
    optimize_billing, BillingAssignment, BillingChoice, BillingOptions, MachineBillingDecision,
};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::billing::{BillingModel, OnDemand, PerSecond, Reserved, Spot, UsageWindow};
    pub use crate::catalogue::{Catalogue, CatalogueEntry};
    pub use crate::horizon::{bill_plan, break_even_hours, HorizonBill, RentalHorizon};
    pub use crate::optimizer::{
        optimize_billing, BillingAssignment, BillingChoice, BillingOptions,
    };
}
