//! # multi-recipe-cloud
//!
//! A full Rust reproduction of *"Minimizing Rental Cost for Multiple Recipe
//! Applications in the Cloud"* (Hanna, Marchal, Nicod, Philippe, Rehn-Sonigo,
//! Sabbah — IPDPS Workshops 2016).
//!
//! The problem: a streaming application can be computed by any of several
//! alternative workflow DAGs ("recipes") whose tasks are *typed*; the cloud
//! rents machines of matching types at different hourly prices and
//! throughputs. Choose how to split a target throughput across the recipes
//! and how many machines of each type to rent so that the total rental cost
//! is minimal.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the application/platform model and exact cost
//!   functions (§III–IV of the paper);
//! * [`lp`] — a self-contained simplex + branch-and-bound MILP
//!   solver standing in for Gurobi;
//! * [`solvers`] — the exact algorithms (§IV–V) and the six
//!   heuristics H0–H32Jump (§VI);
//! * [`simgen`] — the random workload generator of §VIII-A;
//! * [`stream`] — a discrete-event streaming simulator that
//!   validates allocations end to end;
//! * [`pricing`] — billing models (on-demand, per-second,
//!   reserved, spot), rental-horizon projection and billing-plan optimisation
//!   layered on top of MinCost solutions (extension beyond the paper);
//! * [`capacity`] — the shared capacity pool: per-type
//!   machine quotas arbitrated across tenants, capacity-constrained re-solves
//!   with degraded-mode fallback, failure-coupling configuration (extension
//!   beyond the paper);
//! * [`fleet`] — the multi-tenant streaming re-optimization
//!   controller: probe / batch re-solve / adopt over a shared epoch clock,
//!   with switching-cost hysteresis and failure-coupled capacity-constrained
//!   serving (extension beyond the paper);
//! * [`experiments`] — the harness regenerating Table III
//!   and Figures 3–8.
//!
//! ## Quickstart
//!
//! ```
//! use multi_recipe_cloud::prelude::*;
//!
//! // The paper's illustrating example (Figure 2 + Table II).
//! let instance = rental_core::examples::illustrating_example();
//!
//! // Exact optimum via the ILP of §V-C.
//! let optimal = IlpSolver::new().solve(&instance, 70).unwrap();
//! assert_eq!(optimal.cost(), 124);
//!
//! // The H32Jump heuristic finds the same cost on this instance.
//! let heuristic = SteepestGradientJumpSolver::with_seed(8).solve(&instance, 70).unwrap();
//! assert_eq!(heuristic.cost(), 124);
//!
//! // And the streaming simulator confirms the allocation sustains ρ = 70.
//! let report = StreamSimulator::default().simulate(&instance, &optimal.solution);
//! assert!(report.sustains(70, 0.9));
//! ```

pub use rental_capacity as capacity;
pub use rental_core as core;
pub use rental_experiments as experiments;
pub use rental_fleet as fleet;
pub use rental_lp as lp;
pub use rental_pricing as pricing;
pub use rental_simgen as simgen;
pub use rental_solvers as solvers;
pub use rental_stream as stream;

/// Most commonly used items across the workspace, for a single glob import.
pub mod prelude {
    pub use rental_capacity::{CapacityConfig, CapacityPool};
    pub use rental_core::plan::ProvisioningPlan;
    pub use rental_core::prelude::*;
    pub use rental_core::Instance;
    pub use rental_fleet::{FleetController, FleetPolicy, FleetReport, TenantSpec};
    pub use rental_lp::{MipSolver, SolveLimits};
    pub use rental_pricing::billing::{BillingModel, OnDemand, PerSecond, Reserved, Spot};
    pub use rental_pricing::horizon::{bill_plan, RentalHorizon};
    pub use rental_pricing::optimizer::{optimize_billing, BillingOptions};
    pub use rental_simgen::{GeneratorConfig, InstanceGenerator};
    pub use rental_solvers::exact::{
        BlackBoxKnapsackSolver, BruteForceSolver, DpNoSharedSolver, IlpSolver, SingleRecipeSolver,
    };
    pub use rental_solvers::heuristics::{
        BestGraphSolver, GreedyMarginalSolver, LpRoundingSolver, RandomSplitSolver,
        RandomWalkSolver, SimulatedAnnealingSolver, SteepestGradientJumpSolver,
        SteepestGradientSolver, StochasticDescentSolver, TabuSearchSolver,
    };
    pub use rental_solvers::{MinCostSolver, SolverOutcome, SuiteConfig};
    pub use rental_stream::{SimulationConfig, SimulationReport, StreamSimulator};
}
