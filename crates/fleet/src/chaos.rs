//! Deterministic seeded fault injection for the fleet controller — chaos
//! engineering for the probe / solve / adopt loop.
//!
//! [`ChaosSolver`] wraps any [`CapacitySolver`] and, on every intercepted
//! re-solve, draws a fault from a [SplitMix64](https://prng.di.unimi.it/)
//! stream keyed by [`ChaosConfig::seed`] and the call index:
//!
//! * **timeout** — the solve is cut short with
//!   [`SolveError::BudgetExhausted`] before any incumbent exists;
//! * **spurious infeasible** — [`SolveError::NoSolutionFound`] even though
//!   the instance is perfectly feasible;
//! * **singular** — a simulated singular refactorization. Per the
//!   `rental-lp` recovery ladder a singular basis is retried (Bland from
//!   scratch, then dense LU) and only ever surfaces as a *recoverable*
//!   iteration-limit outcome, so at the solver boundary it is injected as
//!   [`SolveError::BudgetExhausted`]: inconclusive and retryable, never a
//!   panic;
//! * **poisoned prior** — the warm-start prior's proven lower bound is
//!   inflated before delegation, exercising the prior-soundness guards of
//!   the ILP solver (a poisoned floor must be dropped, not trusted).
//!
//! [`ChaosClock`] additionally injects **delayed arbitration decisions**:
//! an epoch whose draw fires re-applies the *previous* epoch's desired
//! fleets to the capacity pool, so tenants serve on stale grants.
//!
//! The initial batch is never faulted — every tenant needs *some* plan
//! before the epoch clock starts, exactly like the controller's own
//! unbudgeted initial solves — so the fleet driver solves it outside the
//! wrapper and starts the fault stream at position `tenants.len()`: re-solve
//! `k` of a run draws position `tenants.len() + k`. A request repeated within
//! one batch is solved, and drawn, once
//! ([`rental_solvers::solve_warm_batch`]): its repeats share the outcome,
//! injected fault included. Everything is deterministic for a fixed seed
//! and a single solver thread; the chaos property tests pin that the
//! controller **never panics**, never grants above quota, and degrades
//! toward the fixed-mix baseline as the fault rate approaches 1.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rental_capacity::CapacityConfig;
use rental_core::{Instance, Throughput};
use rental_solvers::solver::{
    CapacitySolver, MinCostSolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
    WarmStartSolver,
};

use crate::controller::FleetController;
use crate::report::FleetReport;
use crate::tenant::TenantSpec;

/// SplitMix64 finalizer: a high-quality 64-bit mix, the same generator the
/// LP layer uses for its deterministic anti-stall perturbation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)` (53 mantissa bits).
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Parameters of the fault injector. All rates are probabilities in
/// `[0, 1]`; the default is all-zero (chaos disabled — every call delegates
/// untouched).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability of an injected solve timeout
    /// ([`SolveError::BudgetExhausted`] with no incumbent).
    pub timeout_rate: f64,
    /// Probability of a spurious [`SolveError::NoSolutionFound`].
    pub infeasible_rate: f64,
    /// Probability of a simulated singular refactorization (surfaces as
    /// [`SolveError::BudgetExhausted`] — see the module docs).
    pub singular_rate: f64,
    /// Probability that the warm-start prior's lower bound is poisoned
    /// (inflated) before the solve.
    pub poison_prior_rate: f64,
    /// Multiplier applied to a poisoned prior's lower bound (clamped to at
    /// least 1).
    pub poison_factor: f64,
    /// Probability that an epoch's capacity arbitration acts on the
    /// previous epoch's desired fleets (a delayed decision).
    pub arbitration_delay_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            timeout_rate: 0.0,
            infeasible_rate: 0.0,
            singular_rate: 0.0,
            poison_prior_rate: 0.0,
            poison_factor: 10.0,
            arbitration_delay_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A disabled (all-zero) config with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }

    /// Total probability that a re-solve errors outright (timeout, spurious
    /// infeasible or singular — the poisoned prior still solves).
    pub fn failure_rate(&self) -> f64 {
        self.timeout_rate + self.infeasible_rate + self.singular_rate
    }
}

/// Counters of the faults actually injected over one run, plus the run's
/// position in the deterministic fault stream.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Intercepted solver calls so far, shared by the run's solver wrapper
    /// and chaos clock.
    calls: AtomicU64,
    timeouts: AtomicUsize,
    infeasibles: AtomicUsize,
    singulars: AtomicUsize,
    poisoned_priors: AtomicUsize,
    delayed_arbitrations: AtomicUsize,
}

impl ChaosStats {
    /// Injected solve timeouts.
    pub fn timeouts(&self) -> usize {
        self.timeouts.load(Ordering::SeqCst)
    }

    /// Injected spurious infeasibilities.
    pub fn infeasibles(&self) -> usize {
        self.infeasibles.load(Ordering::SeqCst)
    }

    /// Injected singular refactorizations.
    pub fn singulars(&self) -> usize {
        self.singulars.load(Ordering::SeqCst)
    }

    /// Priors whose lower bound was poisoned before delegation.
    pub fn poisoned_priors(&self) -> usize {
        self.poisoned_priors.load(Ordering::SeqCst)
    }

    /// Epochs whose arbitration acted on stale desired fleets.
    pub fn delayed_arbitrations(&self) -> usize {
        self.delayed_arbitrations.load(Ordering::SeqCst)
    }

    /// Total injected faults of every kind.
    pub fn total_faults(&self) -> usize {
        self.timeouts()
            + self.infeasibles()
            + self.singulars()
            + self.poisoned_priors()
            + self.delayed_arbitrations()
    }
}

/// The fault kind drawn for one intercepted call.
enum Fault {
    Timeout,
    Infeasible,
    Singular,
    Poison,
}

/// A [`CapacitySolver`] wrapper that injects deterministic faults; see the
/// module docs for the fault catalogue.
pub struct ChaosSolver<'a, S> {
    inner: &'a S,
    config: ChaosConfig,
    stats: &'a ChaosStats,
}

impl<'a, S> ChaosSolver<'a, S> {
    /// Wraps `inner`, drawing faults from the stream position `stats`
    /// holds.
    pub fn new(inner: &'a S, config: ChaosConfig, stats: &'a ChaosStats) -> Self {
        ChaosSolver {
            inner,
            config,
            stats,
        }
    }

    /// Draws the fault (if any) for the next intercepted call and counts
    /// it. Deterministic for a fixed seed and call order (single-threaded
    /// solves).
    fn draw(&self) -> Option<Fault> {
        let n = self.stats.calls.fetch_add(1, Ordering::SeqCst);
        let u = unit(splitmix64(
            self.config.seed ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03),
        ));
        let c = &self.config;
        let fault = if u < c.timeout_rate {
            Fault::Timeout
        } else if u < c.timeout_rate + c.infeasible_rate {
            Fault::Infeasible
        } else if u < c.failure_rate() {
            Fault::Singular
        } else if u < c.failure_rate() + c.poison_prior_rate {
            Fault::Poison
        } else {
            return None;
        };
        match fault {
            Fault::Timeout => self.stats.timeouts.fetch_add(1, Ordering::SeqCst),
            Fault::Infeasible => self.stats.infeasibles.fetch_add(1, Ordering::SeqCst),
            Fault::Singular => self.stats.singulars.fetch_add(1, Ordering::SeqCst),
            Fault::Poison => self.stats.poisoned_priors.fetch_add(1, Ordering::SeqCst),
        };
        Some(fault)
    }

    /// The injected error of a killed solve.
    fn injected_error(&self, fault: &Fault) -> SolveError {
        match fault {
            Fault::Infeasible => SolveError::NoSolutionFound {
                solver: "chaos".to_string(),
            },
            // Timeouts and singular refactorizations are both inconclusive
            // and retryable at this boundary.
            _ => SolveError::BudgetExhausted {
                solver: "chaos".to_string(),
            },
        }
    }

    /// Intercepts one solve: draws its fault, then either kills it or runs
    /// `solve` on the prior — poisoned (its proven lower bound inflated, a
    /// bound the downstream solver must refuse to trust blindly) when the
    /// draw says so.
    fn intercept(
        &self,
        prior: Option<&SweepPrior>,
        solve: impl FnOnce(Option<&SweepPrior>) -> SolveResult<SolverOutcome>,
    ) -> SolveResult<SolverOutcome> {
        match self.draw() {
            Some(Fault::Poison) => {
                let poisoned = prior.map(|p| SweepPrior {
                    lower_bound: p
                        .lower_bound
                        .map(|b| b * self.config.poison_factor.max(1.0) + 1.0),
                    ..p.clone()
                });
                solve(poisoned.as_ref())
            }
            Some(fault) => Err(self.injected_error(&fault)),
            None => solve(prior),
        }
    }
}

impl<S: MinCostSolver> MinCostSolver for ChaosSolver<'_, S> {
    fn name(&self) -> &str {
        "chaos"
    }

    /// Plain solves are not faulted (the controller's serving loop never
    /// issues them; baselines must stay honest).
    fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
        self.inner.solve(instance, target)
    }
}

impl<S: WarmStartSolver> WarmStartSolver for ChaosSolver<'_, S> {
    fn solve_with_prior(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.intercept(prior, |prior| {
            self.inner.solve_with_prior(instance, target, prior)
        })
    }

    fn solve_with_prior_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        self.intercept(prior, |prior| {
            self.inner
                .solve_with_prior_budgeted(instance, target, prior, budget)
        })
    }
}

impl<S: CapacitySolver> CapacitySolver for ChaosSolver<'_, S> {
    fn solve_with_caps(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
    ) -> SolveResult<SolverOutcome> {
        self.intercept(prior, |prior| {
            self.inner.solve_with_caps(instance, target, caps, prior)
        })
    }

    fn solve_with_caps_budgeted(
        &self,
        instance: &Instance,
        target: Throughput,
        caps: &[u64],
        prior: Option<&SweepPrior>,
        budget: &SolveBudget,
    ) -> SolveResult<SolverOutcome> {
        self.intercept(prior, |prior| {
            self.inner
                .solve_with_caps_budgeted(instance, target, caps, prior, budget)
        })
    }
}

/// Per-epoch arbitration chaos: decides which epochs act on stale desired
/// fleets. Keyed independently of the solver fault stream so the two do not
/// correlate.
pub struct ChaosClock<'a> {
    config: ChaosConfig,
    stats: &'a ChaosStats,
}

impl<'a> ChaosClock<'a> {
    /// Builds a clock over the given config and fault counters — one per
    /// chaos-wrapped run of the fleet driver.
    pub(crate) fn new(config: ChaosConfig, stats: &'a ChaosStats) -> Self {
        ChaosClock { config, stats }
    }

    /// Whether this epoch's arbitration decision is delayed (counted when
    /// it is). Thread-independent: keyed on the epoch index alone.
    pub(crate) fn delays_epoch(&self, epoch: usize) -> bool {
        let u = unit(splitmix64(
            self.config.seed ^ (epoch as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        ));
        let delayed = u < self.config.arbitration_delay_rate;
        if delayed {
            self.stats
                .delayed_arbitrations
                .fetch_add(1, Ordering::SeqCst);
        }
        delayed
    }

    /// Intercepted solver calls so far — the run's position in the
    /// deterministic fault stream. Snapshots and journal records carry it
    /// ([`crate::persist`]) so a resumed run draws exactly the faults the
    /// uninterrupted run would have drawn.
    pub(crate) fn calls(&self) -> u64 {
        self.stats.calls.load(Ordering::SeqCst)
    }

    /// Repositions the run's solver fault stream (on resume from a
    /// snapshot or a replayed journal record).
    pub(crate) fn set_calls(&self, calls: u64) {
        self.stats.calls.store(calls, Ordering::SeqCst);
    }
}

/// Where in an epoch's persistence sequence a planned crash strikes. The
/// write order per epoch is: journal append, then (on snapshot epochs) the
/// snapshot write — so the four points cover every boundary plus the torn
/// mid-record case the recovery ladder must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort after the epoch executed but before its journal record was
    /// written: the epoch is lost and re-executed on resume.
    BeforeJournal,
    /// Abort mid-journal-write, leaving only the first `keep` bytes of the
    /// record's frame on disk (a torn write). Recovery must detect the torn
    /// suffix by checksum and discard it.
    TornJournal {
        /// Bytes of the framed record that reach the disk.
        keep: usize,
    },
    /// Abort right after the journal record was durably appended.
    AfterJournal,
    /// Force a snapshot at this epoch and abort right after it was written.
    AfterSnapshot,
}

/// A seeded crash fault: the run aborts at epoch `epoch`, at the chosen
/// [`CrashPoint`] of the persistence sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The epoch after whose execution the crash strikes.
    pub epoch: usize,
    /// Where in the epoch's persistence sequence the abort lands.
    pub point: CrashPoint,
}

impl CrashPlan {
    /// Draws a deterministic crash point somewhere in `0..num_epochs` from
    /// the seed: epoch, crash point, and (for torn writes) the number of
    /// surviving bytes are all taken from independent SplitMix64 draws.
    pub fn draw(seed: u64, num_epochs: usize) -> CrashPlan {
        let epochs = num_epochs.max(1) as u64;
        let epoch = (splitmix64(seed ^ 0xC4A5_11D0_57A9_E3B1) % epochs) as usize;
        let keep = splitmix64(seed ^ 0x9D8F_2E41_6C05_BB37) % 64;
        let point = match splitmix64(seed ^ 0x51F0_83C6_D2E9_4A7D) % 4 {
            0 => CrashPoint::BeforeJournal,
            1 => CrashPoint::TornJournal {
                keep: keep as usize,
            },
            2 => CrashPoint::AfterJournal,
            _ => CrashPoint::AfterSnapshot,
        };
        CrashPlan { epoch, point }
    }
}

/// How a [`CorruptionFault`] mangled the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A single bit was flipped at the reported byte offset.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: u64,
    },
    /// The file was truncated to the reported length.
    Truncate {
        /// Bytes surviving the truncation.
        len: u64,
    },
    /// The journal was empty or missing — nothing to corrupt.
    Noop,
}

/// A seeded corruption fault against the journal tail: flips one bit or
/// truncates the file at a deterministic position in its final quarter,
/// simulating a torn sector or an interrupted flush. Recovery must detect
/// the damage by checksum, discard the corrupt suffix, and fall back to the
/// last good snapshot — never panic, never over-grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionFault {
    /// Seed of the deterministic strike position.
    pub seed: u64,
}

impl CorruptionFault {
    /// Applies the fault to the file at `path` (typically
    /// [`rental_persist::Store::journal_path`]).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a missing or empty journal is reported
    /// as [`CorruptionKind::Noop`].
    pub fn strike(&self, path: &std::path::Path) -> std::io::Result<CorruptionKind> {
        use std::io::{Read, Seek, SeekFrom, Write};
        let Ok(mut file) = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        else {
            return Ok(CorruptionKind::Noop);
        };
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(CorruptionKind::Noop);
        }
        // Strike somewhere in the final quarter of the file — the most
        // recently written (least protected) region.
        let tail_start = len - len.div_ceil(4);
        let span = (len - tail_start).max(1);
        let offset = tail_start + splitmix64(self.seed ^ 0xB7E1_5162_8AED_2A6B) % span;
        if splitmix64(self.seed ^ 0x243F_6A88_85A3_08D3).is_multiple_of(2) {
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut byte)?;
            byte[0] ^= 1 << (splitmix64(self.seed ^ 0x1319_8A2E_0370_7344) % 8);
            file.seek(SeekFrom::Start(offset))?;
            file.write_all(&byte)?;
            file.sync_all()?;
            Ok(CorruptionKind::BitFlip { offset })
        } else {
            file.set_len(offset)?;
            file.sync_all()?;
            Ok(CorruptionKind::Truncate { len: offset })
        }
    }
}

impl FleetController {
    /// [`FleetController::run_with_capacity`] under deterministic fault
    /// injection: solver faults per [`ChaosConfig`]'s rates, arbitration
    /// delays per [`ChaosConfig::arbitration_delay_rate`]. The initial
    /// batch is never faulted.
    ///
    /// With an all-zero config this is behaviourally identical to
    /// [`FleetController::run_with_capacity`].
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetController::run_with_capacity`]; injected
    /// timeouts and spurious infeasibilities are absorbed by the
    /// controller's degradation ladder (anytime incumbents, then
    /// keep-current-plan with backoff), never propagated.
    pub fn run_with_chaos<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: ChaosConfig,
    ) -> SolveResult<(FleetReport, ChaosStats)> {
        self.serve(solver, tenants, Some(config), Some(chaos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_solvers::exact::IlpSolver;
    use rental_stream::WorkloadTrace;

    fn tenants() -> Vec<TenantSpec> {
        vec![TenantSpec::new(
            "chaotic",
            illustrating_example(),
            WorkloadTrace::diurnal(20.0, 160.0, 12.0, 2),
        )]
    }

    #[test]
    fn unit_draws_are_deterministic_and_in_range() {
        for n in 0..1000u64 {
            let u = unit(splitmix64(n));
            assert!((0.0..1.0).contains(&u), "u = {u}");
            assert_eq!(u, unit(splitmix64(n)));
        }
    }

    #[test]
    fn disabled_chaos_is_behaviourally_identical() {
        let policy = crate::FleetPolicy {
            switching_cost: 4.0,
            threads: Some(1),
            ..crate::FleetPolicy::default()
        };
        let config = CapacityConfig::unconstrained();
        let plain = FleetController::new(policy)
            .run_with_capacity(&IlpSolver::new(), &tenants(), &config)
            .unwrap();
        let (chaotic, stats) = FleetController::new(policy)
            .run_with_chaos(
                &IlpSolver::new(),
                &tenants(),
                &config,
                ChaosConfig::default(),
            )
            .unwrap();
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(plain.adoptions.len(), chaotic.adoptions.len());
        for (a, b) in plain.tenants.iter().zip(&chaotic.tenants) {
            assert_eq!(a.epoch_costs, b.epoch_costs);
            assert_eq!(a.rental_cost, b.rental_cost);
            assert_eq!(a.resolves, b.resolves);
            assert_eq!(a.adoptions, b.adoptions);
        }
    }

    #[test]
    fn protected_initial_calls_are_never_faulted() {
        let chaos = ChaosConfig {
            timeout_rate: 1.0,
            ..ChaosConfig::with_seed(7)
        };
        // The wrapper itself protects nothing: every call it intercepts dies.
        let stats = ChaosStats::default();
        let inner = IlpSolver::new();
        let solver = ChaosSolver::new(&inner, chaos, &stats);
        let err = solver
            .solve_with_prior(&illustrating_example(), 70, None)
            .unwrap_err();
        assert!(matches!(err, SolveError::BudgetExhausted { .. }));
        // The driver solves the initial batch outside it: three identical
        // tenants get their initial plans, and every re-solve drawn from
        // stream position 3 on times out.
        let policy = crate::FleetPolicy {
            switching_cost: 4.0,
            threads: Some(1),
            ..crate::FleetPolicy::default()
        };
        let tenants: Vec<TenantSpec> = (0..3).flat_map(|_| tenants()).collect();
        let (report, stats) = FleetController::new(policy)
            .run_with_chaos(&inner, &tenants, &CapacityConfig::unconstrained(), chaos)
            .unwrap();
        assert!(report.tenants.iter().all(|t| t.effort.solves == 1));
        assert!(stats.timeouts() > 0);
        assert_eq!(
            stats.calls.load(Ordering::SeqCst),
            3 + stats.timeouts() as u64
        );
    }

    #[test]
    fn poisoned_priors_are_defused_by_the_solver_guards() {
        let stats = ChaosStats::default();
        let chaos = ChaosConfig {
            poison_prior_rate: 1.0,
            ..ChaosConfig::with_seed(3)
        };
        let inner = IlpSolver::new();
        let solver = ChaosSolver::new(&inner, chaos, &stats);
        let instance = illustrating_example();
        let honest = inner.solve(&instance, 70).unwrap();
        let prior = SweepPrior::from_outcome(70, &honest);
        let outcome = solver
            .solve_with_prior(&instance, 70, Some(&prior))
            .unwrap();
        // The poisoned floor (10× the optimum) must not inflate the cost,
        // and any surviving bound must stay below the returned cost.
        assert_eq!(outcome.cost(), honest.cost());
        if let Some(bound) = outcome.lower_bound {
            assert!(bound <= outcome.cost() as f64 + 1e-6);
        }
        assert_eq!(stats.poisoned_priors(), 1);
    }
}
