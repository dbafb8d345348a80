//! The decision journal: what a durable run journals per epoch, and the
//! source the fleet driver takes its solver outcomes from.
//!
//! An epoch of the driver is a deterministic function of the state before
//! it, the configs and the outcomes of its solver calls, so a durable run
//! journals those outcomes, not the state they produce: one
//! [`JournalRecord`] per epoch holds its [`Decision`]s in call order — each
//! the request's digest and what was served: a plan or an absorbed error —
//! and a digest of the decision state the epoch left (command logging;
//! Malviya et al., "Rethinking Main Memory OLTP Recovery", ICDE 2014). A
//! record carries no stage timing (format 4), no chaos state (format 5)
//! and no solver seconds (format 6, see [`crate::persist`]): an epoch's
//! seconds live only in its trace tree, which a replayed epoch keeps
//! untimed, and an injected fault is just the outcome it served.
//!
//! Every re-solve of the epoch loop goes through [`Solves::batch`], chaos
//! faults included: under [`crate::chaos`] each live request draws its
//! fault from the epoch, its digest and how often the epoch already asked
//! it, before the batch reaches the solver.
//! A run without a store solves live and keeps nothing; a durable run also
//! keeps each outcome for the epoch's record; a resume re-executes the
//! journaled epochs ([`replay`]) with [`Solves::Replayed`], which serves the
//! decisions instead of calling the solver and checks each against the
//! request the epoch makes and the independent plan certificate — in
//! release builds too — so a journal that no longer fits the run is caught
//! at its first decision that does not (see [`crate::persist`] for the
//! recovery ladder).

use std::borrow::Cow;
use std::time::Duration;

use rental_core::{Allocation, Instance, Solution, Throughput, ThroughputSplit};
use rental_persist::{DecodeError, Decoder, Encoder};
use rental_solvers::batch::{solve_warm_batch, WarmBatchItem};
use rental_solvers::solver::{CapacitySolver, SolveBudget, SolveError, SolveResult, SolverOutcome};

use crate::chaos::{ChaosClock, Fault};
use crate::persist::{tally_counts, FORMAT_VERSION};
use crate::run::FleetRun;

/// Magic number of journal records (`"RPJL"`).
pub(crate) const JOURNAL_MAGIC: u32 = 0x5250_4A4C;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// A solver outcome flattened to integers; its instance rebuilds the rest.
/// Its vectors borrow from a live outcome being encoded
/// ([`PersistedOutcome::of`]) and are owned when captured or decoded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PersistedOutcome<'a> {
    pub(crate) target: Throughput,
    pub(crate) shares: Cow<'a, [u64]>,
    pub(crate) machines: Cow<'a, [u64]>,
    pub(crate) proven_optimal: bool,
    pub(crate) lower_bound: Option<f64>,
    pub(crate) nodes: Option<u64>,
    pub(crate) lp_iterations: Option<u64>,
    pub(crate) exhausted: bool,
}

/// What one journaled solve returned: a plan, or one of the two errors an
/// epoch absorbs. Any other error ends the run before its epoch commits.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Served {
    Plan(PersistedOutcome<'static>),
    Infeasible(String),
    Exhausted(String),
}

/// One solver outcome of an epoch, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Decision {
    /// Digest of the request it answered ([`request_digest`]).
    pub(crate) request: u64,
    pub(crate) served: Served,
}

/// The journal record of one executed epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalRecord {
    pub(crate) epoch: u64,
    /// The epoch's solver outcomes, in call order.
    pub(crate) decisions: Vec<Decision>,
    /// [`state_digest`] after the epoch.
    pub(crate) digest: u64,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

pub(crate) fn put_outcome(enc: &mut Encoder, outcome: &PersistedOutcome<'_>) {
    enc.put_u64(outcome.target);
    enc.put_u64s(&outcome.shares);
    enc.put_u64s(&outcome.machines);
    enc.put_bool(outcome.proven_optimal);
    enc.put_opt_f64(outcome.lower_bound);
    enc.put_opt_u64(outcome.nodes);
    enc.put_opt_u64(outcome.lp_iterations);
    enc.put_bool(outcome.exhausted);
}

pub(crate) fn get_outcome(dec: &mut Decoder<'_>) -> Result<PersistedOutcome<'static>, DecodeError> {
    Ok(PersistedOutcome {
        target: dec.get_u64()?,
        shares: dec.get_u64s()?.into(),
        machines: dec.get_u64s()?.into(),
        proven_optimal: dec.get_bool()?,
        lower_bound: dec.get_opt_f64()?,
        nodes: dec.get_opt_u64()?,
        lp_iterations: dec.get_opt_u64()?,
        exhausted: dec.get_bool()?,
    })
}

fn put_decision(enc: &mut Encoder, decision: &Decision) {
    enc.put_u64(decision.request);
    match &decision.served {
        Served::Plan(outcome) => {
            enc.put_u8(0);
            put_outcome(enc, outcome);
        }
        Served::Infeasible(solver) => {
            enc.put_u8(1);
            enc.put_str(solver);
        }
        Served::Exhausted(solver) => {
            enc.put_u8(2);
            enc.put_str(solver);
        }
    }
}

fn get_decision(dec: &mut Decoder<'_>) -> Result<Decision, DecodeError> {
    let request = dec.get_u64()?;
    let served = match dec.get_u8()? {
        0 => Served::Plan(get_outcome(dec)?),
        1 => Served::Infeasible(dec.get_str()?),
        2 => Served::Exhausted(dec.get_str()?),
        tag => return Err(DecodeError::BadTag(tag)),
    };
    Ok(Decision { request, served })
}

impl JournalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned(JOURNAL_MAGIC, FORMAT_VERSION);
        enc.put_u64(self.epoch);
        enc.put_seq(&self.decisions, put_decision);
        enc.put_u64(self.digest);
        enc.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<JournalRecord, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, JOURNAL_MAGIC, |v| v == FORMAT_VERSION)?;
        let record = JournalRecord {
            epoch: dec.get_u64()?,
            decisions: dec.get_seq(8, get_decision)?,
            digest: dec.get_u64()?,
        };
        dec.expect_end()?;
        Ok(record)
    }
}

impl PersistedOutcome<'_> {
    /// The persisted form of `outcome`, borrowing its vectors.
    pub(crate) fn of(outcome: &SolverOutcome) -> PersistedOutcome<'_> {
        PersistedOutcome {
            target: outcome.solution.target,
            shares: outcome.solution.split.shares().into(),
            machines: outcome.solution.allocation.machine_counts().into(),
            proven_optimal: outcome.proven_optimal,
            lower_bound: outcome.lower_bound,
            nodes: outcome.nodes.map(|n| n as u64),
            lp_iterations: outcome.lp_iterations.map(|n| n as u64),
            exhausted: outcome.exhausted,
        }
    }

    /// The outcome with owned vectors.
    pub(crate) fn into_owned(self) -> PersistedOutcome<'static> {
        PersistedOutcome {
            shares: self.shares.into_owned().into(),
            machines: self.machines.into_owned().into(),
            ..self
        }
    }

    /// Rebuilds the outcome for `instance`, with no solver seconds (the
    /// store keeps none). `None` when it fails validation — wrong arity —
    /// or independent certification under `caps`: disk contents are
    /// untrusted, so every restored plan is re-certified, in release builds
    /// too, unlike the debug assertions at adoption sites.
    pub(crate) fn restore(
        &self,
        instance: &Instance,
        caps: Option<&[u64]>,
    ) -> Option<SolverOutcome> {
        if self.shares.len() != instance.num_recipes()
            || self.machines.len() != instance.num_types()
        {
            return None;
        }
        let solution = Solution {
            target: self.target,
            split: ThroughputSplit::new(self.shares.to_vec()),
            allocation: Allocation::from_counts(self.machines.to_vec(), instance.platform())
                .ok()?,
        };
        rental_solvers::certify_plan(instance, &solution, caps).ok()?;
        Some(SolverOutcome {
            solution,
            proven_optimal: self.proven_optimal,
            lower_bound: self.lower_bound,
            elapsed: Duration::ZERO,
            nodes: self.nodes.map(|n| n as usize),
            lp_iterations: self.lp_iterations.map(|n| n as usize),
            exhausted: self.exhausted,
        })
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// A 64-bit word-at-a-time digest (the FxHash step: rotate, xor, multiply).
/// Each step is a bijection of the state, so one changed word always
/// changes the result.
#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for word in words {
            self.word(word);
        }
    }

    fn slice(&mut self, words: &[u64]) {
        self.word(words.len() as u64);
        self.words(words.iter().copied());
    }
}

/// Digest of one solve request: the tenant asking, the target, its caps and
/// its warm-start prior.
fn request_digest(tenant: usize, item: &WarmBatchItem<'_>) -> u64 {
    let mut d = Digest::default();
    d.words([tenant as u64, item.target, item.caps.is_some() as u64]);
    d.slice(item.caps.unwrap_or_default());
    if let Some(prior) = item.prior {
        d.words([prior.target, prior.lower_bound.map_or(1, f64::to_bits)]);
        d.slice(prior.split.shares());
    }
    d.0
}

/// Digest of the decision state after an epoch: every tenant's decision
/// state, deterministic totals, epoch-cost and plan counts and pool
/// holdings, the adoption count and the stale desired fleets. Timing is
/// excluded.
pub(crate) fn state_digest(run: &FleetRun<'_>) -> u64 {
    let mut d = Digest::default();
    for (i, s) in run.states.iter().enumerate() {
        let core = &s.core;
        d.words(core.fractions.iter().map(|f| f.to_bits()));
        d.slice(core.mix.fleet());
        d.words(core.mix.below_counts().iter().map(|&n| n as u64));
        let (solved, adopted) = (core.solved_target, core.adopted_epoch as u64);
        d.words([
            solved,
            adopted,
            core.deferred_until as u64,
            core.backoff as u64,
        ]);
        if let Some(prior) = &core.prior {
            d.words([prior.target, prior.lower_bound.map_or(1, f64::to_bits)]);
            d.slice(prior.split.shares());
        }
        if let Some((rho, caps)) = &core.last_failure_solve {
            d.word(*rho);
            d.slice(caps);
        }
        let t = &s.tally;
        d.words([t.rental_cost.to_bits(), t.switching_cost.to_bits()]);
        d.words(tally_counts(t).map(|n| n as u64));
        d.words([s.epoch_costs.len() as u64, s.plans.len() as u64]);
        if let Some(cs) = &run.coupled {
            d.slice(cs.pool.holdings(i));
        }
    }
    d.word(run.adoptions.len() as u64);
    for fleet in run.stale_desired.iter().flatten() {
        d.slice(fleet);
    }
    d.0
}

// ---------------------------------------------------------------------------
// The outcome source
// ---------------------------------------------------------------------------

impl Decision {
    /// The journal entry of one live solve of the request with digest
    /// `request`. `None` for an error the epoch does not absorb: the run
    /// ends before the epoch commits.
    fn capture(request: u64, result: &SolveResult<SolverOutcome>) -> Option<Decision> {
        let served = match result {
            Ok(outcome) => Served::Plan(PersistedOutcome::of(outcome).into_owned()),
            Err(SolveError::NoSolutionFound { solver }) => Served::Infeasible(solver.clone()),
            Err(SolveError::BudgetExhausted { solver }) => Served::Exhausted(solver.clone()),
            Err(_) => return None,
        };
        Some(Decision { request, served })
    }
}

/// The journaled outcomes of one epoch being re-executed, served in call
/// order. A decision that does not answer the request, or whose plan fails
/// certification, marks the replay as diverged; from then on every request
/// is refused.
pub(crate) struct Replay {
    decisions: std::vec::IntoIter<Decision>,
    diverged: bool,
}

impl Replay {
    /// A replay serving `decisions` in order.
    pub(crate) fn new(decisions: Vec<Decision>) -> Self {
        Replay {
            decisions: decisions.into_iter(),
            diverged: false,
        }
    }

    /// Serves the next decision to the request with digest `request`.
    fn serve(&mut self, request: u64, item: &WarmBatchItem<'_>) -> SolveResult<SolverOutcome> {
        let decision = (self.decisions.next()).filter(|d| !self.diverged && d.request == request);
        let served = decision.and_then(|d| {
            Some(match d.served {
                Served::Plan(outcome) => Ok(outcome
                    .restore(item.instance, item.caps)
                    .filter(|o| o.solution.target == item.target)?),
                Served::Infeasible(solver) => Err(SolveError::NoSolutionFound { solver }),
                Served::Exhausted(solver) => Err(SolveError::BudgetExhausted { solver }),
            })
        });
        served.unwrap_or_else(|| {
            self.diverged = true;
            let solver = "journal".to_string();
            Err(SolveError::NoSolutionFound { solver })
        })
    }

    /// True when every decision was served and each answered its request.
    pub(crate) fn clean(&self) -> bool {
        !self.diverged && self.decisions.len() == 0
    }
}

/// Where a run's solver outcomes come from.
pub(crate) enum Solves {
    /// The solver, keeping nothing: a run without a store.
    Live,
    /// The solver, keeping each outcome for the epoch's journal record.
    Journaled(Vec<Decision>),
    /// A journaled epoch's outcomes ([`Replay`]).
    Replayed(Replay),
}

impl Solves {
    pub(crate) fn replaying(&self) -> bool {
        matches!(self, Solves::Replayed(_))
    }

    /// Solves a batch of requests — tenant `requests[k].0` asks
    /// `requests[k].1` — through [`solve_warm_batch`], or serves it from the
    /// journal. Under `chaos`, each live request first draws its fault from
    /// `epoch`, its digest and its ask count ([`ChaosClock`]): a killed
    /// request gets the injected error
    /// without reaching the solver, a poisoned one is solved on its
    /// inflated prior, and either is journaled under the request as asked.
    pub(crate) fn batch<S: CapacitySolver + Sync>(
        &mut self,
        solver: &S,
        chaos: Option<&ChaosClock<'_>>,
        epoch: usize,
        requests: &[(usize, WarmBatchItem<'_>)],
        budget: Option<&SolveBudget>,
        threads: Option<usize>,
    ) -> Vec<SolveResult<SolverOutcome>> {
        let digests: Vec<u64> = (requests.iter())
            .map(|(tenant, item)| request_digest(*tenant, item))
            .collect();
        if let Solves::Replayed(replay) = self {
            return (digests.iter().zip(requests))
                .map(|(&digest, (_, item))| replay.serve(digest, item))
                .collect();
        }
        let faults: Vec<Option<Fault>> = (digests.iter().zip(requests))
            .map(|(&digest, (_, item))| chaos?.fault(epoch, digest, item.prior))
            .collect();
        let asked: Vec<WarmBatchItem<'_>> = (requests.iter().zip(&faults))
            .filter_map(|((_, item), fault)| match fault {
                Some(Fault::Kill(_)) => None,
                Some(Fault::Poison(prior)) => Some(WarmBatchItem {
                    prior: prior.as_ref(),
                    ..*item
                }),
                None => Some(*item),
            })
            .collect();
        let mut solved = solve_warm_batch(solver, &asked, budget, threads).into_iter();
        let results: Vec<SolveResult<SolverOutcome>> = (faults.into_iter())
            .map(|fault| match fault {
                Some(Fault::Kill(err)) => Err(err),
                _ => solved.next().expect("every request not killed is solved"),
            })
            .collect();
        if let Solves::Journaled(log) = self {
            let decisions = digests.into_iter().zip(&results);
            log.extend(decisions.filter_map(|(digest, result)| Decision::capture(digest, result)));
        }
        results
    }
}

/// Re-executes journaled epochs through the driver's own step, each served
/// its record's decisions. `Err(k)` when record `k` fails a check: a
/// decision that does not answer its request or fails certification, a
/// decision left over, or a state digest that differs. The run is then
/// part-way through that epoch and must be discarded.
pub(crate) fn replay<S: CapacitySolver + Sync>(
    run: &mut FleetRun<'_>,
    solver: &S,
    records: &[JournalRecord],
) -> Result<(), usize> {
    for (k, record) in records.iter().enumerate() {
        run.solves = Solves::Replayed(Replay::new(record.decisions.clone()));
        let stepped = run.step(solver, run.next_epoch).is_ok();
        let served = std::mem::replace(&mut run.solves, Solves::Live);
        let clean = matches!(served, Solves::Replayed(replay) if replay.clean());
        if !(stepped && clean && state_digest(run) == record.digest) {
            return Err(k);
        }
        run.close_replayed_epoch();
    }
    Ok(())
}
