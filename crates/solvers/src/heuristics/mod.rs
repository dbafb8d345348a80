//! The six heuristics of §VI: H0 (random), H1 (best graph), H2 (random walk),
//! H31 (stochastic descent), H32 (steepest gradient) and H32Jump — plus the
//! extensions that are not part of the paper's suite but support the ablation
//! studies of `rental_experiments::ablation`: simulated annealing
//! ([`SimulatedAnnealingSolver`]), tabu search ([`TabuSearchSolver`]), a
//! greedy marginal-cost construction ([`GreedyMarginalSolver`]) and
//! LP-relaxation rounding ([`LpRoundingSolver`]).

pub mod annealing;
pub mod greedy_marginal;
pub mod h0_random;
pub mod h1_best_graph;
pub mod h2_random_walk;
pub mod h31_descent;
pub mod h32_steepest;
pub mod lp_rounding;
pub mod tabu;

pub use annealing::SimulatedAnnealingSolver;
pub use greedy_marginal::GreedyMarginalSolver;
pub use h0_random::RandomSplitSolver;
pub use h1_best_graph::{best_graph_split, BestGraphSolver};
pub use h2_random_walk::RandomWalkSolver;
pub use h31_descent::StochasticDescentSolver;
pub use h32_steepest::{SteepestGradientJumpSolver, SteepestGradientSolver};
pub use lp_rounding::LpRoundingSolver;
pub use tabu::TabuSearchSolver;
