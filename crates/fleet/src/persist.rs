//! Crash-safe fleet serving: snapshots, a decision journal and resume by
//! re-execution on top of [`rental_persist`].
//!
//! An epoch of the fleet driver is a deterministic function of the state
//! before it, the configs and the outcomes of its solver calls — the one
//! input that wall-clock budgets and chaos faults shape. So the journal
//! logs decisions, not state: [`FleetController::run_resumable`] appends
//! one **journal record** per completed epoch carrying that epoch's solver
//! outcomes in call order (each a plan, with its nodes and LP iterations, or
//! an absorbed error — an injected fault included — under its request's
//! digest) and a digest of the decision state the epoch left. A full
//! **checkpoint snapshot** is written every [`PersistOptions::snapshot_every`]
//! epochs. Neither payload carries stage timing (format 4) or chaos state
//! (format 5): wall-clock seconds live only in the report's epoch rows, the
//! rows of epochs a resume did not execute restore as zero, and a chaos
//! fault is drawn from its epoch and request alone ([`crate::chaos`]).
//! Both are framed with CRC-32 checksums by the [`rental_persist::Store`],
//! so torn writes and tail corruption are detected, never trusted.
//!
//! [`FleetController::resume_from`] restores a killed run and continues it —
//! producing a [`FleetReport`] **bit-identical** (modulo wall-clock timing,
//! see [`FleetReport::matches_modulo_timing`]) to the uninterrupted run. The
//! recovery ladder, healthiest rung first:
//!
//! 1. **replay by re-execution** — decode the newest frame-valid snapshot,
//!    then re-execute every consecutive journaled epoch past it through the
//!    driver's own epoch step, its solves served from the journal instead
//!    of the solver. Every served outcome must answer the request the epoch
//!    makes (its request digest) and pass the independent plan certificate,
//!    in release builds too, and the state after each epoch must match the
//!    journaled digest;
//! 2. **the valid prefix, then live** — a torn, corrupt or diverging record
//!    (one that fails any of those checks) ends the valid journal: it is
//!    truncated there, the snapshot is replayed up to that epoch, and the
//!    run continues live, re-solving the lost epochs — which reproduces them
//!    exactly under deterministic budgets;
//! 3. **cold restart** — nothing restorable (or the snapshot fails
//!    validation: bad arity, failed plan certification, a quota ledger that
//!    would over-grant, outage-trace fingerprint mismatch): the store is
//!    reset and the whole run re-executes from the initial fixed-mix plans.
//!    Determinism makes even this rung produce the identical report.
//!
//! Snapshots persist only **decision state**. Derived caches — the
//! fixed-mix scalers, probe memos, plan horizon caches, the outage traces
//! themselves — are rebuilt from the configs on resume; outage traces are
//! validated against their checkpointed fingerprints, restored plans are
//! re-certified by the independent integer checker, and the pool ledger is
//! re-admitted only through [`rental_capacity::CapacityPool::restore_ledger`]'s
//! quota invariants. A corrupted store can therefore cost re-execution
//! time, but never a panic and never an over-grant. Replayed epochs emit no
//! telemetry: the process that ran them did.
//!
//! Persistence is the durability hook of the one fleet driver (the crate's
//! `run` module): replay *is* the live epoch loop, so a resumed run cannot
//! drift from a plain one. **Sharding is resume-transparent** for the same
//! reason: the shard fan-out knob ([`crate::FleetPolicy::shards`]) lives in
//! the policy, not the store, and every shard count makes the same solver
//! calls in the same order, so a run journaled under one shard count may be
//! resumed under another (or on a machine with a different core count)
//! without divergence — the `fleet_sharding` kill-and-resume property test
//! pins exactly this.

use std::io;
use std::sync::Arc;

use rental_capacity::{CapacityConfig, PoolLedger};
use rental_core::{Throughput, ThroughputSplit};
use rental_obs::{EventKind, SpanTimer, Stage};
use rental_persist::{DecodeError, Decoder, Encoder, JournalAppender, Store};
use rental_solvers::solver::{CapacitySolver, SolveError, SweepPrior};
use rental_stream::FixedMixState;

use crate::chaos::{ChaosClock, ChaosConfig, CrashPlan, CrashPoint};
use crate::controller::{
    Derived, FleetController, KnownPlan, RunEnv, Tally, TenantCore, TenantState,
};
use crate::journal::{
    get_outcome, put_outcome, replay, state_digest, JournalRecord, PersistedOutcome, Solves,
};
use crate::report::{AdoptionRecord, FleetReport, SolverEffort};
use crate::run::FleetRun;
use crate::tenant::TenantSpec;

/// Magic number of checkpoint snapshots (`"RPSF"`).
const CHECKPOINT_MAGIC: u32 = 0x5250_5346;
/// Current on-disk format version of both payload kinds. Version 3 replaced
/// the per-epoch state deltas of the journal with the epoch's solver
/// outcomes and a state digest; version 4 dropped the per-tenant stage
/// seconds of the checkpoint and the per-decision seconds of the journal;
/// version 5 dropped the chaos fault-stream position of both. A store of an
/// older version cold-restarts.
pub(crate) const FORMAT_VERSION: u32 = 5;

/// Why a resumable run failed. Corrupted or missing persisted state is
/// **not** an error — the recovery ladder absorbs it; only real filesystem
/// failures and solver errors propagate.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation of the store failed.
    Io(io::Error),
    /// The controller's solving failed (same contract as
    /// [`FleetController::run_with_capacity`]).
    Solve(SolveError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "persistence I/O failed: {err}"),
            PersistError::Solve(err) => write!(f, "solve failed: {err}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(err) => Some(err),
            PersistError::Solve(err) => Some(err),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(err: io::Error) -> Self {
        PersistError::Io(err)
    }
}

impl From<SolveError> for PersistError {
    fn from(err: SolveError) -> Self {
        PersistError::Solve(err)
    }
}

/// Result alias for resumable runs.
pub type PersistResult<T> = Result<T, PersistError>;

/// Knobs of the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistOptions {
    /// A full snapshot is written every this many epochs (the journal covers
    /// the gaps). `0` disables periodic snapshots — recovery then replays
    /// the whole journal from the initial snapshot.
    pub snapshot_every: usize,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions { snapshot_every: 8 }
    }
}

/// How a resumable run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run executed to the end of every tenant's trace.
    Completed(FleetReport),
    /// An injected [`CrashPlan`] aborted the run after executing `epoch` —
    /// resume with [`FleetController::resume_from`].
    Crashed {
        /// The last epoch that executed before the abort.
        epoch: usize,
    },
}

impl RunOutcome {
    /// The report of a completed run, if it completed.
    pub fn completed(self) -> Option<FleetReport> {
        match self {
            RunOutcome::Completed(report) => Some(report),
            RunOutcome::Crashed { .. } => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Persisted shapes
// ---------------------------------------------------------------------------

/// A learned plan: its target ρ and its outcome (the horizon cache is
/// derived).
#[derive(Debug, Clone, PartialEq)]
struct PersistedPlan {
    rho: Throughput,
    outcome: PersistedOutcome,
}

/// A tenant's initial plan: its target and recipe mix.
type InitialPlan = (Throughput, Vec<f64>);

/// One tenant's checkpointed state: decision state, running totals, every
/// epoch cost and the whole plan log.
#[derive(Debug, Clone, PartialEq)]
struct TenantSnapshot {
    core: TenantCore,
    tally: Tally,
    epoch_costs: Vec<f64>,
    plans: Vec<PersistedPlan>,
}

/// A full controller checkpoint: everything a resume needs that is not
/// derivable from the configs.
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    /// The first epoch a resumed run still has to execute.
    epoch_next: u64,
    /// Every tenant's initial plan — its target and recipe mix, constant
    /// over a run — and state.
    tenants: Vec<(InitialPlan, TenantSnapshot)>,
    adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger>,
    /// Fingerprints of the per-tenant outage traces — resume regenerates the
    /// traces from the config and refuses to continue when they diverge.
    trace_fingerprints: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_fleets(enc: &mut Encoder, fleets: &[Vec<u64>]) {
    enc.put_seq(fleets, |e, fleet| e.put_u64s(fleet));
}

fn get_fleets(dec: &mut Decoder<'_>) -> Result<Vec<Vec<u64>>, DecodeError> {
    dec.get_seq(8, |d| d.get_u64s())
}

fn put_core(enc: &mut Encoder, core: &TenantCore) {
    enc.put_f64s(&core.fractions);
    enc.put_u64s(core.mix.fleet());
    enc.put_usizes(core.mix.below_counts());
    enc.put_u64(core.solved_target);
    enc.put_usize(core.adopted_epoch);
    enc.put_opt(core.prior.as_ref(), |e, prior| {
        e.put_u64(prior.target);
        e.put_u64s(prior.split.shares());
        e.put_opt_f64(prior.lower_bound);
    });
    enc.put_opt(core.last_failure_solve.as_ref(), |e, (rho, caps)| {
        e.put_u64(*rho);
        e.put_u64s(caps);
    });
    enc.put_usize(core.deferred_until);
    enc.put_usize(core.backoff);
}

fn get_core(dec: &mut Decoder<'_>) -> Result<TenantCore, DecodeError> {
    let fractions = dec.get_f64s()?;
    let (fleet, below) = (dec.get_u64s()?, dec.get_usizes()?);
    if fleet.len() != below.len() {
        return Err(DecodeError::BadLength(below.len() as u64));
    }
    Ok(TenantCore {
        fractions,
        mix: FixedMixState::from_parts(fleet, below),
        solved_target: dec.get_u64()?,
        adopted_epoch: dec.get_usize()?,
        prior: dec.get_opt(|d| {
            Ok(SweepPrior {
                target: d.get_u64()?,
                split: ThroughputSplit::new(d.get_u64s()?),
                lower_bound: d.get_opt_f64()?,
            })
        })?,
        last_failure_solve: dec.get_opt(|d| Ok((d.get_u64()?, d.get_u64s()?)))?,
        deferred_until: dec.get_usize()?,
        backoff: dec.get_usize()?,
    })
}

/// A tally's counters, in encoding order.
pub(crate) fn tally_counts(t: &Tally) -> [usize; 13] {
    [
        t.effort.solves,
        t.effort.nodes,
        t.effort.lp_iterations,
        t.probes,
        t.resolves,
        t.adoptions,
        t.slo_violations,
        t.failure_resolves,
        t.degraded_resolves,
        t.deferred_resolves,
        t.budget_exhausted_epochs,
        t.incumbent_adoptions,
        t.resolve_retries,
    ]
}

fn put_tally(enc: &mut Encoder, t: &Tally) {
    enc.put_f64(t.rental_cost);
    enc.put_f64(t.switching_cost);
    for count in tally_counts(t) {
        enc.put_usize(count);
    }
}

fn get_tally(dec: &mut Decoder<'_>) -> Result<Tally, DecodeError> {
    // Struct fields evaluate in the order written, which is the encoding
    // order of `put_tally`.
    Ok(Tally {
        rental_cost: dec.get_f64()?,
        switching_cost: dec.get_f64()?,
        effort: SolverEffort {
            solves: dec.get_usize()?,
            nodes: dec.get_usize()?,
            lp_iterations: dec.get_usize()?,
        },
        probes: dec.get_usize()?,
        resolves: dec.get_usize()?,
        adoptions: dec.get_usize()?,
        slo_violations: dec.get_usize()?,
        failure_resolves: dec.get_usize()?,
        degraded_resolves: dec.get_usize()?,
        deferred_resolves: dec.get_usize()?,
        budget_exhausted_epochs: dec.get_usize()?,
        incumbent_adoptions: dec.get_usize()?,
        resolve_retries: dec.get_usize()?,
    })
}

fn put_adoption(enc: &mut Encoder, record: &AdoptionRecord) {
    enc.put_usize(record.tenant);
    enc.put_usize(record.epoch);
    enc.put_u64(record.target);
    enc.put_opt_f64(record.projected_keep);
    enc.put_f64(record.projected_switch);
    enc.put_f64(record.switching_cost);
    enc.put_bool(record.adopted);
    enc.put_bool(record.failure_triggered);
}

fn get_adoption(dec: &mut Decoder<'_>) -> Result<AdoptionRecord, DecodeError> {
    Ok(AdoptionRecord {
        tenant: dec.get_usize()?,
        epoch: dec.get_usize()?,
        target: dec.get_u64()?,
        projected_keep: dec.get_opt_f64()?,
        projected_switch: dec.get_f64()?,
        switching_cost: dec.get_f64()?,
        adopted: dec.get_bool()?,
        failure_triggered: dec.get_bool()?,
    })
}

fn put_ledger(enc: &mut Encoder, ledger: &PoolLedger) {
    put_fleets(enc, &ledger.holdings);
    enc.put_u64s(&ledger.in_use);
    enc.put_u64s(&ledger.peak_in_use);
}

fn get_ledger(dec: &mut Decoder<'_>) -> Result<PoolLedger, DecodeError> {
    Ok(PoolLedger {
        holdings: get_fleets(dec)?,
        in_use: dec.get_u64s()?,
        peak_in_use: dec.get_u64s()?,
    })
}

fn put_tenant(enc: &mut Encoder, snap: &TenantSnapshot) {
    put_core(enc, &snap.core);
    put_tally(enc, &snap.tally);
    enc.put_f64s(&snap.epoch_costs);
    enc.put_seq(&snap.plans, |e, plan| {
        e.put_u64(plan.rho);
        put_outcome(e, &plan.outcome);
    });
}

fn get_tenant(dec: &mut Decoder<'_>) -> Result<TenantSnapshot, DecodeError> {
    Ok(TenantSnapshot {
        core: get_core(dec)?,
        tally: get_tally(dec)?,
        epoch_costs: dec.get_f64s()?,
        plans: dec.get_seq(8, |d| {
            Ok(PersistedPlan {
                rho: d.get_u64()?,
                outcome: get_outcome(d)?,
            })
        })?,
    })
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned(CHECKPOINT_MAGIC, FORMAT_VERSION);
        enc.put_u64(self.epoch_next);
        enc.put_seq(&self.tenants, |e, ((target, fractions), snap)| {
            e.put_f64s(fractions);
            e.put_u64(*target);
            put_tenant(e, snap);
        });
        enc.put_seq(&self.adoptions, put_adoption);
        enc.put_opt(self.stale_desired.as_ref(), |e, fleets| {
            put_fleets(e, fleets)
        });
        enc.put_opt(self.ledger.as_ref(), put_ledger);
        enc.put_u64s(&self.trace_fingerprints);
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Checkpoint, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, CHECKPOINT_MAGIC, |v| v == FORMAT_VERSION)?;
        let checkpoint = Checkpoint {
            epoch_next: dec.get_u64()?,
            tenants: dec.get_seq(8, |d| {
                let fractions = d.get_f64s()?;
                Ok(((d.get_u64()?, fractions), get_tenant(d)?))
            })?,
            adoptions: dec.get_seq(8, get_adoption)?,
            stale_desired: dec.get_opt(get_fleets)?,
            ledger: dec.get_opt(get_ledger)?,
            trace_fingerprints: dec.get_u64s()?,
        };
        dec.expect_end()?;
        Ok(checkpoint)
    }
}

// ---------------------------------------------------------------------------
// Capture (state → persisted shapes) and restore (persisted shapes → state)
// ---------------------------------------------------------------------------

fn capture_checkpoint(run: &FleetRun<'_>, epoch_next: usize) -> Checkpoint {
    let capture_tenant = |s: &TenantState<'_>| TenantSnapshot {
        core: s.core.clone(),
        tally: s.tally,
        epoch_costs: s.epoch_costs.clone(),
        plans: (s.plans.iter())
            .map(|(rho, plan)| PersistedPlan {
                rho: *rho,
                outcome: PersistedOutcome::capture(&plan.outcome),
            })
            .collect(),
    };
    Checkpoint {
        epoch_next: epoch_next as u64,
        tenants: (run.states.iter())
            .map(|s| {
                let initial = (s.initial_target, s.initial_fractions.to_vec());
                (initial, capture_tenant(s))
            })
            .collect(),
        adoptions: run.adoptions.clone(),
        stale_desired: run.stale_desired.clone(),
        ledger: run.coupled.as_ref().map(|cs| cs.pool.ledger()),
        trace_fingerprints: run
            .coupled
            .as_ref()
            .map(|cs| cs.traces.iter().map(|t| t.fingerprint()).collect())
            .unwrap_or_default(),
    }
}

/// Rebuilds one tenant's state around its snapshot. `None` when the
/// snapshot fails validation, which sends the caller down to the
/// cold-restart rung.
fn restore_tenant<'a>(
    ctl: &FleetController,
    env: &RunEnv,
    spec: &'a TenantSpec,
    (initial, snap): (InitialPlan, TenantSnapshot),
) -> Option<TenantState<'a>> {
    let (recipes, types) = (spec.instance.num_recipes(), spec.instance.num_types());
    let core = &snap.core;
    let valid = initial.1.len() == recipes
        && core.fractions.len() == recipes
        && core.mix.fleet().len() == types
        && core.prior.as_ref().is_none_or(|p| p.split.len() == recipes)
        && (core.last_failure_solve.as_ref()).is_none_or(|(_, caps)| caps.len() == types);
    if !valid {
        return None;
    }
    let plans = (snap.plans.iter())
        .map(|plan| {
            let outcome = plan.outcome.restore(&spec.instance, None)?;
            let cache = ctl.plan_cache(&spec.instance, &outcome.solution).ok()?;
            Some((plan.rho, Arc::new(KnownPlan { outcome, cache })))
        })
        .collect::<Option<Vec<_>>>()?;
    let derived = Derived::new(&spec.instance, env, initial, &core.fractions);
    Some(TenantState::new(
        spec,
        &derived,
        spec.trace.epoch_peaks(env.baseline_scaling.epoch),
        snap.core,
        snap.tally,
        snap.epoch_costs,
        plans,
    ))
}

/// A run positioned at the checkpoint, or `None` when the checkpoint fails
/// validation.
fn restore_checkpoint<'a>(
    ctl: &'a FleetController,
    tenants: &'a [TenantSpec],
    config: Option<&CapacityConfig>,
    chaos: Option<&'a ChaosClock<'a>>,
    checkpoint: Checkpoint,
) -> Option<FleetRun<'a>> {
    let env = ctl.run_env(config);
    if checkpoint.tenants.len() != tenants.len() {
        return None;
    }
    let states = (tenants.iter().zip(checkpoint.tenants))
        .map(|(spec, snapshot)| restore_tenant(ctl, &env, spec, snapshot))
        .collect::<Option<Vec<_>>>()?;
    // The coupling is regenerated from the config (traces are
    // deterministic, validated by fingerprint) and the checkpointed ledger
    // re-admitted under the pool's quota invariants.
    let coupled = match (ctl.init_coupling(tenants, config, &env), checkpoint.ledger) {
        (Some(mut coupling), Some(ledger)) => {
            let fingerprints: Vec<u64> = coupling.traces.iter().map(|t| t.fingerprint()).collect();
            let admitted = fingerprints == checkpoint.trace_fingerprints
                && coupling.pool.restore_ledger(ledger).is_ok();
            admitted.then_some(Some(coupling))?
        }
        (None, None) => None,
        _ => return None,
    };
    let start = checkpoint.epoch_next as usize;
    let mut run = FleetRun::new(ctl, env, chaos, states, coupled, start);
    run.adoptions = checkpoint.adoptions;
    run.stale_desired = checkpoint.stale_desired;
    run.checkpoint_epoch = Some(start);
    Some(run)
}

// ---------------------------------------------------------------------------
// The durability hook
// ---------------------------------------------------------------------------

/// Writes the checkpoint of `run`, positioned at `epoch_next`.
fn snapshot(store: &Store, run: &FleetRun<'_>, epoch_next: usize) -> io::Result<()> {
    store.write_snapshot(
        epoch_next as u64,
        &capture_checkpoint(run, epoch_next).encode(),
    )
}

/// The durability hook of the fleet driver: the store a resumable run
/// journals and snapshots into, and an optional planned crash.
pub(crate) struct Durability<'a> {
    store: &'a Store,
    opts: &'a PersistOptions,
    crash: Option<&'a CrashPlan>,
    /// Resume from the store (the recovery ladder) instead of starting
    /// fresh.
    resume: bool,
    /// The journal, opened at the first append after the store was reset
    /// or recovered.
    journal: Option<JournalAppender>,
}

impl Durability<'_> {
    /// The top two rungs of the recovery ladder: the newest valid snapshot,
    /// replayed through every consecutive journaled epoch that passes its
    /// checks. The journal is cut back to what replayed, so the resumed run
    /// appends onto consistent ground. `Ok(None)` means nothing restorable
    /// (or a fresh run) — the caller starts cold.
    pub(crate) fn restore<'a, S: CapacitySolver + Sync>(
        &mut self,
        ctl: &'a FleetController,
        solver: &S,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<&'a ChaosClock<'a>>,
    ) -> io::Result<Option<FleetRun<'a>>> {
        if !self.resume {
            return Ok(None);
        }
        let recovery = self.store.recover()?;
        let checkpoint = (recovery.snapshot.as_ref())
            .and_then(|s| Some((s.epoch, Checkpoint::decode(&s.payload).ok()?)))
            .filter(|(epoch, checkpoint)| checkpoint.epoch_next == *epoch);
        let Some((_, checkpoint)) = checkpoint else {
            return Ok(None);
        };
        // Records before the snapshot are history; from the snapshot on
        // they must continue it epoch by epoch.
        let (mut history, mut records) = (0, Vec::new());
        for payload in &recovery.journal {
            let Ok(record) = JournalRecord::decode(payload) else {
                break;
            };
            let next = checkpoint.epoch_next + records.len() as u64;
            match record.epoch {
                epoch if epoch < checkpoint.epoch_next && records.is_empty() => history += 1,
                epoch if epoch == next => records.push(record),
                _ => break,
            }
        }
        // A failed record ends the valid journal: replay again up to it.
        let mut run = loop {
            let Some(mut run) = restore_checkpoint(ctl, tenants, config, chaos, checkpoint.clone())
            else {
                return Ok(None);
            };
            match replay(&mut run, solver, &records) {
                Ok(()) => break run,
                Err(valid) => records.truncate(valid),
            }
        };
        if history + records.len() < recovery.journal.len() {
            self.store.truncate_journal(history + records.len())?;
        }
        run.solves = Solves::Journaled(Vec::new());
        let start = run.next_epoch;
        ctl.telemetry.event(
            EventKind::Recovery,
            start,
            None,
            start as f64,
            "resumed from checkpoint + journal replay",
        );
        // Recovery-ladder state for `/health`: which epoch this process
        // resumed from (absent on never-recovered runs).
        ctl.telemetry
            .gauge("fleet.recovery.resumed_epoch", start as f64);
        Ok(Some(run))
    }

    /// Starts a fresh (or cold-restarted) run's store: a clean slate plus
    /// the initial snapshot.
    pub(crate) fn begin(&mut self, run: &mut FleetRun<'_>) -> io::Result<()> {
        self.journal = None;
        self.store.reset()?;
        run.checkpoint_epoch = Some(0);
        run.solves = Solves::Journaled(Vec::new());
        snapshot(self.store, run, 0)
    }

    /// Journals the epoch `run` just executed (and snapshots on the
    /// configured cadence). Returns true when a planned crash aborted the
    /// run at this epoch.
    pub(crate) fn commit(&mut self, run: &mut FleetRun<'_>, epoch: usize) -> io::Result<bool> {
        let span = SpanTimer::start(Stage::Persist);
        let decisions = match &mut run.solves {
            Solves::Journaled(log) => std::mem::take(log),
            _ => Vec::new(),
        };
        let record = JournalRecord {
            epoch: epoch as u64,
            decisions,
            digest: state_digest(run),
        };
        let payload = record.encode();
        let store = self.store;
        let journal = match &mut self.journal {
            Some(journal) => journal,
            slot => slot.insert(store.journal_appender()?),
        };
        if let Some(plan) = self.crash.filter(|c| c.epoch == epoch) {
            match plan.point {
                CrashPoint::BeforeJournal => {}
                CrashPoint::TornJournal { keep } => journal.append_prefix(&payload, keep)?,
                CrashPoint::AfterJournal => journal.append(&payload)?,
                CrashPoint::AfterSnapshot => {
                    journal.append(&payload)?;
                    snapshot(store, run, epoch + 1)?;
                }
            }
            return Ok(true);
        }
        journal.append(&payload)?;
        if self.opts.snapshot_every > 0 && (epoch + 1).is_multiple_of(self.opts.snapshot_every) {
            snapshot(store, run, epoch + 1)?;
            run.checkpoint_epoch = Some(epoch + 1);
        }
        span.stop_into(&mut run.tree);
        Ok(false)
    }
}

impl FleetController {
    /// [`FleetController::run_with_capacity`] with crash-safe persistence: a
    /// **fresh** run (the store is reset) that journals every epoch and
    /// snapshots every [`PersistOptions::snapshot_every`] epochs. With
    /// `chaos`, the re-solves draw deterministic faults exactly as
    /// [`FleetController::run_with_chaos`] does; a journaled fault is the
    /// outcome it served, and a resumed run's live epochs draw the faults
    /// the uninterrupted run drew. With `crash`, the run aborts at the
    /// planned epoch and crash point, returning [`RunOutcome::Crashed`].
    ///
    /// A completed resumable run's report equals the corresponding
    /// non-persistent run's report exactly, timing fields aside.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on store failures, [`PersistError::Solve`] with
    /// the same contract as [`FleetController::run_with_capacity`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetController::run_with_capacity`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_resumable<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: Option<ChaosConfig>,
        store: &Store,
        opts: &PersistOptions,
        crash: Option<&CrashPlan>,
    ) -> PersistResult<RunOutcome> {
        let mut durable = Durability {
            store,
            opts,
            crash,
            resume: false,
            journal: None,
        };
        Ok(self
            .drive(solver, tenants, Some(config), chaos, Some(&mut durable))?
            .0)
    }

    /// Resumes a killed [`FleetController::run_resumable`] from the store,
    /// walking the recovery ladder (replay of the journaled epochs → their
    /// valid prefix, then live → cold restart) and continuing to completion
    /// — or to the next planned crash. All non-store arguments must repeat
    /// the original run's; the combined crashed-then-resumed execution then
    /// produces a report bit-identical (modulo wall-clock timing) to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetController::run_resumable`] — persisted-state
    /// corruption is handled by the ladder, never an error.
    ///
    /// # Panics
    ///
    /// Same conditions as [`FleetController::run_with_capacity`].
    #[allow(clippy::too_many_arguments)]
    pub fn resume_from<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
        chaos: Option<ChaosConfig>,
        store: &Store,
        opts: &PersistOptions,
        crash: Option<&CrashPlan>,
    ) -> PersistResult<RunOutcome> {
        let mut durable = Durability {
            store,
            opts,
            crash,
            resume: true,
            journal: None,
        };
        Ok(self
            .drive(solver, tenants, Some(config), chaos, Some(&mut durable))?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Decision, Served, JOURNAL_MAGIC};
    use crate::scenario::failure_coupled_fleet;
    use crate::FleetPolicy;
    use proptest::prelude::*;
    use rental_solvers::exact::IlpSolver;
    use rental_solvers::SolveBudget;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn core() -> TenantCore {
        TenantCore {
            fractions: vec![0.5, 0.5],
            mix: FixedMixState::from_parts(vec![3, 0, 2], vec![0, 1, 2]),
            solved_target: 60,
            adopted_epoch: 4,
            prior: Some(SweepPrior {
                target: 60,
                split: ThroughputSplit::new(vec![30, 30]),
                lower_bound: Some(101.5),
            }),
            last_failure_solve: Some((50, vec![4, 5, 6])),
            deferred_until: 9,
            backoff: 2,
        }
    }

    fn tally() -> Tally {
        Tally {
            rental_cost: 123.25,
            switching_cost: 8.0,
            probes: 11,
            resolves: 3,
            adoptions: 2,
            effort: SolverEffort {
                solves: 4,
                nodes: 950,
                lp_iterations: 188,
            },
            slo_violations: 1,
            failure_resolves: 1,
            degraded_resolves: 0,
            deferred_resolves: 4,
            budget_exhausted_epochs: 1,
            incumbent_adoptions: 1,
            resolve_retries: 1,
        }
    }

    fn outcome() -> PersistedOutcome {
        PersistedOutcome {
            target: 60,
            shares: vec![30, 30],
            machines: vec![2, 1, 1],
            proven_optimal: true,
            lower_bound: Some(104.0),
            elapsed: 0.002,
            nodes: Some(17),
            lp_iterations: Some(230),
            exhausted: false,
        }
    }

    /// A checkpoint touching every field of the codec.
    fn checkpoint() -> Checkpoint {
        Checkpoint {
            epoch_next: 7,
            tenants: vec![(
                (40, vec![0.25, 0.75]),
                TenantSnapshot {
                    core: core(),
                    tally: tally(),
                    epoch_costs: vec![10.0, 12.5, -0.0],
                    plans: vec![PersistedPlan {
                        rho: 60,
                        outcome: outcome(),
                    }],
                },
            )],
            adoptions: vec![AdoptionRecord {
                tenant: 0,
                epoch: 4,
                target: 60,
                projected_keep: None,
                projected_switch: 99.0,
                switching_cost: 8.0,
                adopted: true,
                failure_triggered: true,
            }],
            stale_desired: Some(vec![vec![3, 0, 2]]),
            ledger: Some(PoolLedger {
                holdings: vec![vec![3, 0, 2]],
                in_use: vec![3, 0, 2],
                peak_in_use: vec![4, 1, 2],
            }),
            trace_fingerprints: vec![0xDEAD_BEEF_0123_4567],
        }
    }

    /// A journal record with a decision of every kind.
    fn journal_record() -> JournalRecord {
        let decision = |request, served| Decision { request, served };
        JournalRecord {
            epoch: 7,
            decisions: vec![
                decision(0x0123_4567_89AB_CDEF, Served::Plan(outcome())),
                decision(2, Served::Infeasible("ilp".to_string())),
                decision(3, Served::Exhausted("chaos".to_string())),
            ],
            digest: 0xFEED_F00D_DEAD_BEEF,
        }
    }

    /// Runs both decoders; a panic fails the calling test.
    fn decode_both(bytes: &[u8]) -> (bool, bool) {
        (
            Checkpoint::decode(bytes).is_ok(),
            JournalRecord::decode(bytes).is_ok(),
        )
    }

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let checkpoint = checkpoint();
        let decoded = Checkpoint::decode(&checkpoint.encode()).expect("round trip");
        assert_eq!(decoded, checkpoint);
        // -0.0 must survive bit-exactly (f64s are stored as raw bits).
        assert!(decoded.tenants[0].1.epoch_costs[2].is_sign_negative());
    }

    #[test]
    fn journal_record_round_trips_every_decision_kind() {
        let record = journal_record();
        let decoded = JournalRecord::decode(&record.encode()).expect("round trip");
        assert_eq!(decoded, record);
        // An unknown decision tag is refused, not misread.
        let mut bytes = record.encode();
        // Past the header, the epoch, the decision count and the request.
        let tag = 8 + 8 + 8 + 8;
        assert_eq!(bytes[tag], 0, "first decision's tag");
        bytes[tag] = 3;
        assert_eq!(JournalRecord::decode(&bytes), Err(DecodeError::BadTag(3)));
    }

    #[test]
    fn decode_rejects_foreign_magic_and_trailing_bytes() {
        let bytes = journal_record().encode();
        assert!(
            Checkpoint::decode(&bytes).is_err(),
            "journal magic is not a checkpoint"
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(
            JournalRecord::decode(&padded).is_err(),
            "trailing bytes rejected"
        );
        assert!(
            JournalRecord::decode(&bytes[..bytes.len() - 1]).is_err(),
            "truncation rejected"
        );
        // A store of an older version is not read: it takes the
        // cold-restart rung.
        for (magic, payload) in [
            (CHECKPOINT_MAGIC, checkpoint().encode()),
            (JOURNAL_MAGIC, bytes),
        ] {
            for version in [2, 3, 4] {
                let mut old = Encoder::versioned(magic, version).finish();
                old.extend_from_slice(&payload[8..]);
                assert_eq!(decode_both(&old), (false, false), "version {version}");
            }
        }
    }

    /// The encodings of the fixtures are pinned together with the format
    /// version: a codec change fails here until its author bumps
    /// [`FORMAT_VERSION`] and re-pins the checksums.
    #[test]
    fn the_format_version_is_pinned_with_the_encodings() {
        let pins = (
            FORMAT_VERSION,
            rental_persist::crc32(&checkpoint().encode()),
            rental_persist::crc32(&journal_record().encode()),
        );
        let pinned = (5, 0x357F_3914, 0x7654_D432);
        assert_eq!(pins, pinned, "a codec change needs a version bump");
    }

    #[test]
    fn every_truncation_of_a_valid_encoding_is_rejected() {
        for bytes in [checkpoint().encode(), journal_record().encode()] {
            for len in 0..bytes.len() {
                assert_eq!(decode_both(&bytes[..len]), (false, false), "{len} bytes");
            }
        }
    }

    #[test]
    fn served_plans_are_certified_against_their_request() {
        let instance = rental_core::examples::illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let plan = PersistedOutcome {
            target: 70,
            shares: solution.split.shares().to_vec(),
            machines: solution.allocation.machine_counts().to_vec(),
            ..outcome()
        };
        assert!(plan.restore(&instance, None).is_some());
        // Caps below the plan's machines, a machine short, a wrong arity.
        let tight: Vec<u64> = plan.machines.iter().map(|&n| n.saturating_sub(1)).collect();
        assert!(plan.restore(&instance, Some(&tight)).is_none());
        let mut short = plan.clone();
        short.machines[0] -= 1;
        assert!(short.restore(&instance, None).is_none());
        let mut arity = plan.clone();
        arity.shares.push(0);
        assert!(arity.restore(&instance, None).is_none());
    }

    fn scratch_store(tag: &str) -> Store {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "rental-fleet-journal-{}-{tag}-{unique}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn journal(store: &Store) -> Vec<JournalRecord> {
        (store.recover().unwrap().journal.iter())
            .map(|payload| JournalRecord::decode(payload).unwrap())
            .collect()
    }

    /// A record with its plans' solver-reported times zeroed.
    fn without_timing(mut record: JournalRecord) -> JournalRecord {
        for decision in &mut record.decisions {
            if let Served::Plan(plan) = &mut decision.served {
                plan.elapsed = 0.0;
            }
        }
        record
    }

    /// Resume must not trust a journaled outcome that does not fit the run:
    /// a decision answering another request, a plan that fails its
    /// certificate and a state digest that differs each end the valid
    /// journal at their record. The resume replays up to it, re-solves from
    /// there and still reproduces the uninterrupted report — and the record
    /// it journals in place of the tampered one is the original.
    #[test]
    fn a_tampered_decision_ends_the_valid_journal() {
        let (scenario, config) = failure_coupled_fleet(2, 11, 96.0, 4.0);
        let controller = FleetController::new(FleetPolicy {
            threads: Some(1),
            epoch_budget: Some(SolveBudget::with_node_cap(50_000)),
            ..scenario.policy
        });
        let (solver, tenants) = (IlpSolver::new(), &scenario.tenants);
        let reference = controller
            .run_with_capacity(&solver, tenants, &config)
            .unwrap();
        // Without periodic snapshots, resume replays from epoch 0.
        let opts = PersistOptions { snapshot_every: 0 };
        let crash = CrashPlan {
            epoch: 72,
            point: CrashPoint::AfterJournal,
        };
        let store = scratch_store("tamper");
        let crashed = controller
            .run_resumable(&solver, tenants, &config, None, &store, &opts, Some(&crash))
            .unwrap();
        assert!(matches!(crashed, RunOutcome::Crashed { epoch: 72 }));
        let original = journal(&store);
        let (k, d) = (original.iter().enumerate())
            .find_map(|(k, record)| {
                let d =
                    (record.decisions.iter()).position(|d| matches!(d.served, Served::Plan(_)))?;
                Some((k, d))
            })
            .expect("the run journals a solved plan");
        let tampers: [fn(&mut JournalRecord, usize); 3] = [
            |record, d| record.decisions[d].request ^= 1,
            |record, d| {
                if let Served::Plan(plan) = &mut record.decisions[d].served {
                    plan.machines.iter_mut().for_each(|n| *n = 0);
                }
            },
            |record, _| record.digest ^= 1,
        ];
        for tamper in tampers {
            let mut records = original.clone();
            tamper(&mut records[k], d);
            store.truncate_journal(0).unwrap();
            for record in &records {
                store.append_journal(&record.encode()).unwrap();
            }
            let resumed = controller
                .resume_from(&solver, tenants, &config, None, &store, &opts, None)
                .unwrap()
                .completed()
                .expect("resume completes");
            assert!(resumed.matches_modulo_timing(&reference));
            // The journal was cut at the tampered record and re-solved from
            // there: every record equals the original, timing aside.
            let untimed: Vec<JournalRecord> = (journal(&store).into_iter())
                .take(original.len())
                .map(without_timing)
                .collect();
            assert_eq!(
                untimed,
                original
                    .iter()
                    .cloned()
                    .map(without_timing)
                    .collect::<Vec<_>>()
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoders_are_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
            headed in any::<bool>(),
        ) {
            // Behind a valid header the garbage reaches the field decoders.
            let magic = if bytes.len() % 2 == 0 { CHECKPOINT_MAGIC } else { JOURNAL_MAGIC };
            let mut input = Vec::new();
            if headed {
                input = Encoder::versioned(magic, FORMAT_VERSION).finish();
            }
            input.extend_from_slice(&bytes);
            decode_both(&input);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn decoders_are_total_on_single_byte_mutations(flip in 1u8..=255) {
            // Every position of both encodings, each case with its own flip.
            for valid in [checkpoint().encode(), journal_record().encode()] {
                for index in 0..valid.len() {
                    let mut bytes = valid.clone();
                    bytes[index] ^= flip;
                    decode_both(&bytes);
                }
            }
        }
    }
}
