//! # rental-capacity
//!
//! The **shared capacity pool** between the MinCost solvers and the fleet
//! controller: per-type machine quotas arbitrated across all tenants of a
//! serving fleet, capacity-constrained re-solves, and the failure-coupling
//! configuration that turns `rental_stream::failure` outages into lost
//! capacity during serving.
//!
//! The paper assumes every tenant can rent unbounded, perfectly reliable
//! machines. Real clouds impose **per-type quotas** (a region only has so
//! many instances of each type to hand out) and machines **fail
//! mid-horizon**. This crate closes both gaps:
//!
//! * [`CapacityPool`] — the quota **ledger**. Every machine type `q` has a
//!   quota (possibly [`UNLIMITED_CAP`]); every tenant holds some machines of
//!   each type; acquisition and release happen at **epoch granularity**. When
//!   the fleets' combined demand for a type exceeds its quota, the pool
//!   arbitrates **deterministically**: grants are proportional to demand
//!   (largest-remainder rounding), with ties broken toward the lower tenant
//!   index — so a run is reproducible regardless of thread scheduling and no
//!   tenant can be starved below its proportional share.
//! * **Capacity-constrained solving** — a tenant's re-solve must respect
//!   what the pool can actually hand it: its own holdings plus the residual
//!   quota, minus any machines currently down. Those per-type caps flow as
//!   *variable bounds* into the MILP through
//!   [`rental_solvers::CapacitySolver::solve_with_caps`], so branch & bound
//!   spills demand onto costlier types exactly when the preferred type's
//!   quota is exhausted.
//! * **Degraded mode** — when even the spill cannot carry the full target
//!   (the quota is simply too small), [`solve_or_degrade`] falls back to the
//!   **largest feasible target** under the caps (a small max-coverage MILP
//!   gated by the [`coverage_bound`] LP probe) and returns the cheapest plan
//!   that serves it: the tenant runs degraded, and the controller records
//!   the epochs as SLO violations until quota frees up.
//! * [`CapacityConfig`] — what a capacity-coupled fleet run needs beyond the
//!   tenant specs: the quotas, the [`rental_stream::FailureModel`] outages
//!   are sampled from (one trace per tenant, sub-seeded from the fleet
//!   seed), the failure redundancy and head-room policy, and the
//!   re-solve-on-failure switch. [`CapacityConfig::unconstrained`] — infinite
//!   quotas, no failures — makes the coupled controller bit-identical to the
//!   uncoupled one.
//!
//! ```
//! use rental_capacity::CapacityPool;
//!
//! // Two tenants compete for a quota of 10 machines of the only type.
//! let mut pool = CapacityPool::new(vec![10], 2);
//! let grants = pool.arbitrate_epoch(&[vec![8], vec![4]]);
//! assert_eq!(grants, vec![vec![7], vec![3]]); // proportional, deterministic
//! assert_eq!(pool.residual(0), 0);
//! ```

pub mod config;
pub mod degraded;
pub mod pool;

pub use config::CapacityConfig;
pub use degraded::{coverage_bound, degrade_with, solve_or_degrade, CappedOutcome};
pub use pool::{CapacityPool, LedgerError, PoolLedger};
pub use rental_solvers::UNLIMITED_CAP;
