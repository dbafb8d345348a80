//! Every outcome of the exact ILP on a fleet-shaped set of §V-C MILPs,
//! pinned as one hash.
//!
//! Branch and bound is deterministic: the same requests explore the same
//! nodes, pivot the same number of times and return the same incumbent and
//! bound, bit for bit. Engine work that is meant to change only speed (how
//! node LPs are restored, where scratch lives, what a node allocates) must
//! leave every one of those numbers alone, including on node-capped solves,
//! whose incumbent depends on exactly which nodes ran.
//!
//! The requests mimic a fleet's re-solves: tenants drawn with the fleet's
//! instance shape (6 recipes, 5 types), each walking a chain of targets with
//! its last uncapped outcome as the prior, some solves under per-type caps,
//! and a node limit low enough that some solves exhaust it. Every outcome —
//! cost, shares, machine counts, nodes, LP iterations, lower-bound bits and
//! flags, or the error — is folded into one FNV-1a hash.

use rental_core::Instance;
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::exact::IlpSolver;
use rental_solvers::{
    CapacitySolver, SolveBudget, SolveError, SolverOutcome, SweepPrior, UNLIMITED_CAP,
};

/// The hash of every outcome below, as the engine computes them.
const PINNED: u64 = 0x37C5_2E06_624C_6627;

/// Tenants (distinct instances) and targets per tenant.
const TENANTS: u64 = 32;
const TARGETS: usize = 12;
/// Node limit of every solve: low enough that the harder trees exhaust it.
const NODE_LIMIT: usize = 40;

/// The fleet's instance shape: 6 recipes of 3–6 tasks over 5 machine types.
fn fleet_config() -> GeneratorConfig {
    GeneratorConfig {
        num_recipes: 6,
        tasks_per_recipe: 3..=6,
        mutation_percent: 50,
        num_types: 5,
        throughput_range: 10..=100,
        cost_range: 1..=100,
        edge_probability: 0.3,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn outcome(&mut self, result: &Result<SolverOutcome, SolveError>) {
        match result {
            Ok(outcome) => {
                self.word(1);
                self.word(outcome.cost());
                for &share in outcome.solution.split.shares() {
                    self.word(share);
                }
                for &count in outcome.solution.allocation.machine_counts() {
                    self.word(count);
                }
                self.word(outcome.nodes.map_or(u64::MAX, |n| n as u64));
                self.word(outcome.lp_iterations.map_or(u64::MAX, |n| n as u64));
                self.word(outcome.lower_bound.map_or(u64::MAX, f64::to_bits));
                self.word(u64::from(outcome.proven_optimal));
                self.word(u64::from(outcome.exhausted));
            }
            Err(SolveError::BudgetExhausted { .. }) => self.word(2),
            Err(SolveError::NoSolutionFound { .. }) => self.word(3),
            Err(other) => panic!("unexpected solve error: {other}"),
        }
    }
}

/// Tenant `i`'s target chain: a diurnal swing between a low and a high rate
/// drawn from the tenant index, so consecutive targets move both ways.
fn targets(i: u64) -> impl Iterator<Item = u64> {
    let low = 20 + (i * 37) % 40;
    let high = 110 + (i * 53) % 120;
    (0..TARGETS).map(move |k| {
        let phase = (k as f64 / TARGETS as f64 * std::f64::consts::TAU).sin();
        low + ((high - low) as f64 * (0.5 + 0.5 * phase)).round() as u64
    })
}

/// Caps for every third solve: a quota on the tenant's two cheapest types,
/// generous enough that most capped solves stay feasible.
fn caps(instance: &Instance, i: u64, k: usize) -> Vec<u64> {
    let mut caps = vec![UNLIMITED_CAP; instance.num_types()];
    if k % 3 == 2 {
        let mut order: Vec<usize> = (0..instance.num_types()).collect();
        order.sort_by_key(|&q| instance.platform().cost(rental_core::TypeId(q)));
        for &q in order.iter().take(2) {
            caps[q] = 1 + (i + k as u64) % 4;
        }
    }
    caps
}

#[test]
fn fleet_shaped_solves_keep_their_pinned_outcomes() {
    let solver = IlpSolver::with_limits(rental_lp::SolveLimits {
        node_limit: Some(NODE_LIMIT),
        ..rental_lp::SolveLimits::default()
    });
    let budget = SolveBudget::unlimited();
    let mut hash = Fnv(0xCBF2_9CE4_8422_2325);
    let (mut solves, mut exhausted, mut capped, mut errors, mut nodes) = (0, 0, 0, 0, 0);
    for i in 0..TENANTS {
        let instance = InstanceGenerator::new(fleet_config(), 0x5EED ^ i).generate_instance();
        let mut prior: Option<SweepPrior> = None;
        for (k, target) in targets(i).enumerate() {
            let caps = caps(&instance, i, k);
            let is_capped = caps.iter().any(|&c| c != UNLIMITED_CAP);
            capped += usize::from(is_capped);
            let result =
                solver.solve_with_caps_budgeted(&instance, target, &caps, prior.as_ref(), &budget);
            hash.outcome(&result);
            solves += 1;
            match &result {
                Ok(outcome) => {
                    exhausted += usize::from(outcome.exhausted);
                    nodes += outcome.nodes.unwrap_or(0);
                    // A capped bound may exceed the uncapped optimum, so only
                    // uncapped outcomes become priors (the `CapacitySolver`
                    // contract: a prior's caps are no tighter than the
                    // solve's).
                    if !is_capped {
                        prior = Some(SweepPrior::from_outcome(target, outcome));
                    }
                }
                Err(_) => errors += 1,
            }
        }
    }
    assert!(exhausted > 0, "the node limit must bind on some solve");
    assert!(capped > 0 && errors < solves / 4);
    assert_eq!(
        hash.0, PINNED,
        "{solves} solves ({capped} capped, {exhausted} exhausted, {errors} errors, \
         {nodes} nodes) hash to {:#018X}",
        hash.0
    );
}
