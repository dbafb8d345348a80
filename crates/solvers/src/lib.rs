//! # rental-solvers
//!
//! Exact algorithms and heuristics for the **MinCost** problem of *"Minimizing
//! Rental Cost for Multiple Recipe Applications in the Cloud"* (Hanna et al.,
//! IPDPSW 2016).
//!
//! | Paper section | Algorithm | Type |
//! |---|---|---|
//! | §IV-A | [`exact::SingleRecipeSolver`] | closed form |
//! | §IV-B | [`exact::independent_applications_solution`] | closed form |
//! | §V-A | [`exact::BlackBoxKnapsackSolver`] | pseudo-polynomial DP |
//! | §V-B | [`exact::DpNoSharedSolver`] | pseudo-polynomial DP |
//! | §V-C | [`exact::IlpSolver`] | MILP (branch & bound) |
//! | §VI-a | [`heuristics::RandomSplitSolver`] (H0) | heuristic |
//! | §VI-b | [`heuristics::BestGraphSolver`] (H1) | heuristic |
//! | §VI-c | [`heuristics::RandomWalkSolver`] (H2) | heuristic |
//! | §VI-d | [`heuristics::StochasticDescentSolver`] (H31) | heuristic |
//! | §VI-e | [`heuristics::SteepestGradientSolver`] (H32) | heuristic |
//! | §VI-e | [`heuristics::SteepestGradientJumpSolver`] (H32Jump) | heuristic |
//!
//! Beyond the paper's suite, the crate ships four extension heuristics used
//! by the ablation studies in DESIGN.md: simulated annealing
//! ([`heuristics::SimulatedAnnealingSolver`]), tabu search
//! ([`heuristics::TabuSearchSolver`]), a greedy marginal-cost construction
//! ([`heuristics::GreedyMarginalSolver`]) and LP-relaxation rounding
//! ([`heuristics::LpRoundingSolver`]).
//!
//! All algorithms implement the [`MinCostSolver`] trait, so the experiment
//! harness can compare them uniformly. [`registry::standard_suite`] builds the
//! exact set of solvers compared in the paper's evaluation, and
//! [`registry::extended_suite`] adds the extensions.
//!
//! The local-search heuristics all run on the sparse delta-evaluation search
//! kernel of `rental_core::cost` (per-instance pair-diff table, undo tokens,
//! parallel candidate scans), and [`batch::solve_batch`] fans a whole solver
//! portfolio across many `(instance, target)` pairs in parallel — the
//! many-tenants serving path.
//!
//! ```
//! use rental_core::examples::illustrating_example;
//! use rental_solvers::exact::IlpSolver;
//! use rental_solvers::heuristics::BestGraphSolver;
//! use rental_solvers::MinCostSolver;
//!
//! let instance = illustrating_example();
//! let optimal = IlpSolver::new().solve(&instance, 70).unwrap();
//! let h1 = BestGraphSolver.solve(&instance, 70).unwrap();
//! assert_eq!(optimal.cost(), 124);  // Table III
//! assert_eq!(h1.cost(), 138);       // Table III
//! ```

pub mod batch;
pub mod certify;
pub mod exact;
pub mod heuristics;
pub mod multicloud;
pub mod registry;
pub mod solver;

pub use batch::{
    solve_batch, solve_batch_portfolio, solve_batch_timed, solve_batch_with, solve_sweep,
    solve_sweep_batch_timed, solve_sweep_timed, solve_warm_batch, BatchItem, WarmBatchItem,
};
pub use certify::{certify_plan, CertifyError};
pub use multicloud::{CloudRegion, MultiCloudProblem, MultiCloudSolution, RegionAllocation};
pub use registry::{
    extended_suite, extended_suite_names, ilp_solver, standard_suite, standard_suite_names,
    SuiteConfig,
};
pub use solver::{
    CapacitySolver, MinCostSolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver, UNLIMITED_CAP,
};
