//! Deterministic seeded fault injection for the fleet controller — chaos
//! engineering for the probe / solve / adopt loop.
//!
//! Every re-solve request of a chaos run draws its fault from a
//! [SplitMix64](https://prng.di.unimi.it/) hash of [`ChaosConfig::seed`],
//! the epoch, the request's digest — the tenant asking, its target, caps
//! and warm-start prior, the key the decision journal files its outcome
//! under — and how many times the epoch already asked that request, so a
//! re-ask (a failure repair's degraded fallback asking its full target
//! again) draws afresh instead of repeating the first ask's fault:
//!
//! * **timeout** — the request is answered with
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
//!   inflated before the solve, exercising the prior-soundness guards of
//!   the ILP solver (a poisoned floor must be dropped, not trusted).
//!
//! The run's one outcome source draws the faults before its batch reaches
//! the solver: a killed request never reaches it, a poisoned one is solved
//! on its inflated prior, and a durable run journals what was served under
//! the request as it was asked. [`ChaosClock`] additionally injects
//! **delayed arbitration decisions**: an epoch whose draw fires re-applies
//! the *previous* epoch's desired fleets to the capacity pool, so tenants
//! serve on stale grants.
//!
//! A draw depends on its key alone, never on how many other draws came
//! before, so a run's faults are the same at every thread and shard count
//! and in any order of distinct requests. An epoch asks its requests from
//! the sequential barrier, so the ask counts are deterministic too, and a
//! resumed run keeps no chaos state: its journaled epochs replay their
//! recorded outcomes, and its live epochs, counting asks from zero, draw
//! what the uninterrupted run drew. The initial batch is never faulted —
//! every tenant needs *some* plan before the epoch clock starts, exactly
//! like the controller's own unbudgeted initial solves. The chaos property tests pin
//! that the controller **never panics**, never grants above quota, and
//! degrades toward the fixed-mix baseline as the fault rate approaches 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use rental_capacity::CapacityConfig;
use rental_solvers::solver::{CapacitySolver, SolveError, SolveResult, SweepPrior};

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
/// `[0, 1]`; the default is all-zero (chaos disabled — every request is
/// solved untouched).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault draws.
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
    fn failure_rate(&self) -> f64 {
        self.timeout_rate + self.infeasible_rate + self.singular_rate
    }
}

/// Counters of the faults actually injected over one run.
#[derive(Debug, Default)]
pub struct ChaosStats {
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

    /// Requests solved on a poisoned prior.
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

/// What an injected fault does to one re-solve request.
#[derive(Debug, PartialEq)]
pub(crate) enum Fault {
    /// The request is answered with this error and never reaches the
    /// solver.
    Kill(SolveError),
    /// The request is solved on this prior: the one it asked with, its
    /// proven lower bound inflated — a bound the solver must refuse to
    /// trust blindly.
    Poison(Option<SweepPrior>),
}

/// A chaos run's fault source: the fault of each re-solve request and the
/// delay of each epoch's arbitration, drawn from independent keys so the
/// two do not correlate.
pub struct ChaosClock<'a> {
    config: ChaosConfig,
    stats: &'a ChaosStats,
    /// The epoch being asked and how many times it asked each request
    /// digest so far (epochs are asked in order).
    asks: Mutex<(usize, HashMap<u64, u64>)>,
}

impl<'a> ChaosClock<'a> {
    /// Builds a clock over the given config and fault counters — one per
    /// chaos run of the fleet driver.
    pub(crate) fn new(config: ChaosConfig, stats: &'a ChaosStats) -> Self {
        ChaosClock {
            config,
            stats,
            asks: Mutex::new((0, HashMap::new())),
        }
    }

    /// Whether this epoch's arbitration decision is delayed (counted when
    /// it is). Keyed on the epoch index alone.
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

    /// The fault injected into the request with digest `request`, asked at
    /// `epoch` on `prior`, if any (counted when drawn). Keyed on the epoch,
    /// the digest and how many times this epoch already asked it: the first
    /// ask of a key draws the same fault in any order, and each re-ask draws
    /// its own.
    pub(crate) fn fault(
        &self,
        epoch: usize,
        request: u64,
        prior: Option<&SweepPrior>,
    ) -> Option<Fault> {
        let asked = {
            let mut asks = self.asks.lock().unwrap_or_else(PoisonError::into_inner);
            if asks.0 != epoch {
                *asks = (epoch, HashMap::new());
            }
            let count = asks.1.entry(request).or_insert(0);
            *count += 1;
            *count - 1
        };
        let c = &self.config;
        let epoch_key = splitmix64(c.seed ^ (epoch as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let ask_key = match asked {
            0 => request,
            n => splitmix64(request ^ n.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7)),
        };
        let u = unit(splitmix64(epoch_key ^ ask_key));
        // Timeouts and singular refactorizations are both inconclusive and
        // retryable at this boundary.
        let exhausted = || SolveError::BudgetExhausted {
            solver: "chaos".to_string(),
        };
        let (count, fault) = if u < c.timeout_rate {
            (&self.stats.timeouts, Fault::Kill(exhausted()))
        } else if u < c.timeout_rate + c.infeasible_rate {
            let solver = "chaos".to_string();
            let infeasible = SolveError::NoSolutionFound { solver };
            (&self.stats.infeasibles, Fault::Kill(infeasible))
        } else if u < c.failure_rate() {
            (&self.stats.singulars, Fault::Kill(exhausted()))
        } else if u < c.failure_rate() + c.poison_prior_rate {
            let poisoned = prior.map(|p| SweepPrior {
                lower_bound: p.lower_bound.map(|b| b * c.poison_factor.max(1.0) + 1.0),
                ..p.clone()
            });
            (&self.stats.poisoned_priors, Fault::Poison(poisoned))
        } else {
            return None;
        };
        count.fetch_add(1, Ordering::SeqCst);
        Some(fault)
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
    use crate::journal::Solves;
    use rental_core::examples::illustrating_example;
    use rental_solvers::batch::WarmBatchItem;
    use rental_solvers::exact::IlpSolver;
    use rental_solvers::solver::MinCostSolver;
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

    /// A draw is keyed on its (epoch, request) pair alone: the same keys
    /// drawn in reverse order inject the same faults and count the same.
    #[test]
    fn fault_draws_do_not_depend_on_call_order() {
        let chaos = ChaosConfig {
            timeout_rate: 0.2,
            infeasible_rate: 0.2,
            singular_rate: 0.2,
            poison_prior_rate: 0.2,
            ..ChaosConfig::with_seed(5)
        };
        let prior = SweepPrior::from_outcome(
            70,
            &IlpSolver::new().solve(&illustrating_example(), 70).unwrap(),
        );
        let keys: Vec<(usize, u64)> = (0..32)
            .flat_map(|epoch| (0..16).map(move |r| (epoch, splitmix64(r))))
            .collect();
        let draw = |keys: &mut dyn Iterator<Item = &(usize, u64)>| {
            let stats = ChaosStats::default();
            let clock = ChaosClock::new(chaos, &stats);
            let faults: Vec<Option<Fault>> = keys
                .map(|&(epoch, request)| clock.fault(epoch, request, Some(&prior)))
                .collect();
            let counts = [
                stats.timeouts(),
                stats.infeasibles(),
                stats.singulars(),
                stats.poisoned_priors(),
            ];
            (faults, counts)
        };
        let (forward, counts) = draw(&mut keys.iter());
        let (mut backward, reverse_counts) = draw(&mut keys.iter().rev());
        backward.reverse();
        assert_eq!(forward, backward);
        assert_eq!(counts, reverse_counts);
        assert!(
            counts.iter().all(|&n| n > 0),
            "every kind fires: {counts:?}"
        );
    }

    /// A request asked again in the same epoch — a failure repair's
    /// degraded fallback re-asking its full target — draws its own fault
    /// instead of repeating the first ask's, and a later epoch counts asks
    /// from zero again.
    #[test]
    fn a_re_asked_request_draws_its_own_fault() {
        let chaos = ChaosConfig {
            infeasible_rate: 0.5,
            ..ChaosConfig::with_seed(9)
        };
        let (solver, instance) = (IlpSolver::new(), illustrating_example());
        let requests: Vec<(usize, WarmBatchItem<'_>)> = (1..=33)
            .map(|k| (0, WarmBatchItem::new(&instance, 10 * k, None)))
            .collect();
        let killed = |clock: &ChaosClock<'_>, epoch| -> Vec<bool> {
            (Solves::Live.batch(&solver, Some(clock), epoch, &requests, None, Some(1)))
                .iter()
                .map(|r| matches!(r, Err(SolveError::NoSolutionFound { .. })))
                .collect()
        };
        let stats = ChaosStats::default();
        let clock = ChaosClock::new(chaos, &stats);
        let first = killed(&clock, 4);
        let again = killed(&clock, 4);
        let killed_first = first.iter().filter(|&&k| k).count();
        let killed_again = (first.iter().zip(&again))
            .filter(|&(&a, &b)| a && b)
            .count();
        assert!(killed_first > 0);
        assert!(
            killed_again < killed_first,
            "{killed_again} of {killed_first} killed first asks were killed again"
        );
        // Each killed ask is one fault.
        let killed_total = killed_first + again.iter().filter(|&&k| k).count();
        assert_eq!(stats.infeasibles(), killed_total);
        // The next epoch asks afresh: a clock that never saw epoch 4 draws
        // the same faults there.
        let fresh_stats = ChaosStats::default();
        let fresh = ChaosClock::new(chaos, &fresh_stats);
        assert_eq!(killed(&clock, 5), killed(&fresh, 5));
    }

    #[test]
    fn protected_initial_calls_are_never_faulted() {
        let chaos = ChaosConfig {
            timeout_rate: 1.0,
            ..ChaosConfig::with_seed(7)
        };
        // The draw itself protects nothing: every request it keys dies.
        let stats = ChaosStats::default();
        let fault = ChaosClock::new(chaos, &stats).fault(0, 0, None);
        assert!(matches!(
            fault,
            Some(Fault::Kill(SolveError::BudgetExhausted { .. }))
        ));
        // The driver solves the initial batch without drawing: three
        // identical tenants get their initial plans, and every re-solve
        // times out.
        let policy = crate::FleetPolicy {
            switching_cost: 4.0,
            threads: Some(1),
            ..crate::FleetPolicy::default()
        };
        let tenants: Vec<TenantSpec> = (0..3).flat_map(|_| tenants()).collect();
        let (report, stats) = FleetController::new(policy)
            .run_with_chaos(
                &IlpSolver::new(),
                &tenants,
                &CapacityConfig::unconstrained(),
                chaos,
            )
            .unwrap();
        assert!(report.tenants.iter().all(|t| t.effort.solves == 1));
        assert!(stats.timeouts() > 0);
    }

    #[test]
    fn poisoned_priors_are_defused_by_the_solver_guards() {
        let stats = ChaosStats::default();
        let chaos = ChaosConfig {
            poison_prior_rate: 1.0,
            ..ChaosConfig::with_seed(3)
        };
        let clock = ChaosClock::new(chaos, &stats);
        let solver = IlpSolver::new();
        let instance = illustrating_example();
        let honest = solver.solve(&instance, 70).unwrap();
        let prior = SweepPrior::from_outcome(70, &honest);
        // The request goes through the run's outcome source, which solves
        // it on the poisoned prior.
        let request = (0, WarmBatchItem::new(&instance, 70, Some(&prior)));
        let outcome = Solves::Live
            .batch(&solver, Some(&clock), 0, &[request], None, Some(1))
            .pop()
            .unwrap()
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
