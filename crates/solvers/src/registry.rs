//! A convenience registry building the full suite of algorithms compared in
//! the paper's experiments (ILP + H0, H1, H2, H31, H32, H32Jump).

use rental_lp::SolveLimits;

use crate::exact::IlpSolver;
use crate::heuristics::{
    BestGraphSolver, GreedyMarginalSolver, LpRoundingSolver, RandomSplitSolver, RandomWalkSolver,
    SimulatedAnnealingSolver, SteepestGradientJumpSolver, SteepestGradientSolver,
    StochasticDescentSolver, TabuSearchSolver,
};
use crate::solver::MinCostSolver;

/// Configuration of the standard solver suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Seed shared by the stochastic heuristics (each one derives its own
    /// sub-seed so their random streams are independent).
    pub seed: u64,
    /// Optional wall-clock limit for the ILP solver (seconds). The paper uses
    /// 100 s for the Figure-8 experiment and no limit otherwise.
    pub ilp_time_limit: Option<f64>,
    /// Whether to include the H0 (pure random) baseline. The paper describes
    /// it but does not plot it; it is excluded from the default suite.
    pub include_h0: bool,
    /// Whether to include the ILP. Disabling it is useful for very large
    /// instances where only heuristics are compared.
    pub include_ilp: bool,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: 0x000C_100D,
            ilp_time_limit: None,
            include_h0: false,
            include_ilp: true,
        }
    }
}

impl SuiteConfig {
    /// Suite configuration with a specific seed.
    pub fn with_seed(seed: u64) -> Self {
        SuiteConfig {
            seed,
            ..SuiteConfig::default()
        }
    }
}

/// Builds the suite's ILP solver on its own. Target sweeps
/// ([`crate::batch::solve_sweep`]) use this to thread incumbents between
/// targets, which the boxed [`MinCostSolver`] interface cannot express.
pub fn ilp_solver(config: &SuiteConfig) -> IlpSolver {
    match config.ilp_time_limit {
        Some(seconds) => IlpSolver::with_limits(SolveLimits::with_time_limit(seconds)),
        None => IlpSolver::new(),
    }
}

/// Builds the standard suite of solvers in the order used by the paper's
/// tables and figures: ILP first, then H1, H2, H31, H32, H32Jump (and
/// optionally H0).
pub fn standard_suite(config: &SuiteConfig) -> Vec<Box<dyn MinCostSolver + Send + Sync>> {
    let mut suite: Vec<Box<dyn MinCostSolver + Send + Sync>> = Vec::new();
    if config.include_ilp {
        suite.push(Box::new(ilp_solver(config)));
    }
    if config.include_h0 {
        suite.push(Box::new(RandomSplitSolver::with_seed(config.seed)));
    }
    suite.push(Box::new(BestGraphSolver));
    suite.push(Box::new(RandomWalkSolver::with_seed(config.seed ^ 0x2)));
    suite.push(Box::new(StochasticDescentSolver::with_seed(
        config.seed ^ 0x31,
    )));
    suite.push(Box::new(SteepestGradientSolver::default()));
    suite.push(Box::new(SteepestGradientJumpSolver::with_seed(
        config.seed ^ 0x32,
    )));
    suite
}

/// The solver names of the standard suite, in order. Useful for table headers.
pub fn standard_suite_names(config: &SuiteConfig) -> Vec<String> {
    standard_suite(config)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

/// Builds the extended suite: the standard suite plus the heuristics that go
/// beyond the paper (simulated annealing, tabu search, greedy marginal-cost
/// construction and LP-relaxation rounding). Used by the ablation experiments
/// (`rental_experiments::ablation`, the `repro ablation-*` lanes) and
/// benches.
pub fn extended_suite(config: &SuiteConfig) -> Vec<Box<dyn MinCostSolver + Send + Sync>> {
    let mut suite = standard_suite(config);
    suite.push(Box::new(SimulatedAnnealingSolver::with_seed(
        config.seed ^ 0x5A,
    )));
    suite.push(Box::new(TabuSearchSolver::default()));
    suite.push(Box::new(GreedyMarginalSolver::default()));
    suite.push(Box::new(LpRoundingSolver::default()));
    suite
}

/// The solver names of the extended suite, in order.
pub fn extended_suite_names(config: &SuiteConfig) -> Vec<String> {
    extended_suite(config)
        .iter()
        .map(|s| s.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;

    #[test]
    fn default_suite_has_ilp_and_five_heuristics() {
        let suite = standard_suite(&SuiteConfig::default());
        let names = standard_suite_names(&SuiteConfig::default());
        assert_eq!(suite.len(), 6);
        assert_eq!(names, vec!["ILP", "H1", "H2", "H31", "H32", "H32Jump"]);
    }

    #[test]
    fn h0_and_ilp_toggles_are_honoured() {
        let config = SuiteConfig {
            include_h0: true,
            include_ilp: false,
            ..SuiteConfig::default()
        };
        let names = standard_suite_names(&config);
        assert_eq!(names, vec!["H0", "H1", "H2", "H31", "H32", "H32Jump"]);
    }

    #[test]
    fn every_suite_member_solves_the_illustrating_example() {
        let instance = illustrating_example();
        let suite = standard_suite(&SuiteConfig::with_seed(42));
        for solver in &suite {
            let outcome = solver.solve(&instance, 70).unwrap();
            assert!(outcome.solution.split.covers(70), "{}", solver.name());
            assert!(outcome.cost() >= 124, "{}", solver.name());
        }
    }

    #[test]
    fn extended_suite_adds_the_four_extensions() {
        let config = SuiteConfig::default();
        let names = extended_suite_names(&config);
        assert_eq!(
            names,
            vec!["ILP", "H1", "H2", "H31", "H32", "H32Jump", "SA", "Tabu", "Greedy", "LPRound"]
        );
    }

    #[test]
    fn every_extended_suite_member_solves_the_illustrating_example() {
        let instance = illustrating_example();
        for solver in extended_suite(&SuiteConfig::with_seed(7)) {
            let outcome = solver.solve(&instance, 90).unwrap();
            assert!(outcome.solution.split.covers(90), "{}", solver.name());
            assert!(outcome.cost() >= 155, "{}", solver.name());
        }
    }

    #[test]
    fn ilp_time_limit_is_accepted() {
        let config = SuiteConfig {
            ilp_time_limit: Some(10.0),
            ..SuiteConfig::default()
        };
        let suite = standard_suite(&config);
        assert_eq!(suite[0].name(), "ILP");
    }
}
