//! Crash-safe fleet serving: checkpoint/WAL persistence and deterministic
//! resume on top of [`rental_persist`].
//!
//! [`FleetController::run_resumable`] executes the capacity-coupled serving
//! loop epoch by epoch, writing one **journal record** per completed epoch
//! (the state delta: decision state and running totals, new epoch costs,
//! newly learned plans, new adoption records, the pool ledger) and a full
//! **checkpoint snapshot** every [`PersistOptions::snapshot_every`] epochs.
//! Both are framed with CRC-32 checksums by the [`rental_persist::Store`], so
//! torn writes and tail corruption are detected, never trusted.
//!
//! [`FleetController::resume_from`] restores a killed run and continues it —
//! producing a [`FleetReport`] **bit-identical** (modulo wall-clock timing,
//! see [`FleetReport::matches_modulo_timing`]) to the uninterrupted run. The
//! recovery ladder, healthiest rung first:
//!
//! 1. **journal replay** — decode the newest frame-valid snapshot, then
//!    apply every consecutive journal record past it;
//! 2. **last good snapshot** — a torn/corrupt/diverging journal suffix is
//!    discarded (and the journal rewritten to its applied prefix); the lost
//!    epochs are deterministically *re-executed*, which reproduces them
//!    exactly;
//! 3. **cold restart** — nothing restorable (or the persisted state fails
//!    validation: bad arity, failed plan certification, a quota ledger that
//!    would over-grant, outage-trace fingerprint mismatch): the store is
//!    reset and the whole run re-executes from the initial fixed-mix plans.
//!    Determinism makes even this rung produce the identical report.
//!
//! Only **decision state** is persisted. Derived caches — the fixed-mix
//! scalers, probe memos, plan horizon caches, the outage traces themselves —
//! are rebuilt from the configs on resume; outage traces are validated
//! against their checkpointed fingerprints, restored plans are re-certified
//! by the independent integer checker, and the pool ledger is re-admitted
//! only through [`rental_capacity::CapacityPool::restore_ledger`]'s quota
//! invariants. A corrupted store can therefore cost re-execution time, but
//! never a panic and never an over-grant.
//!
//! Persistence is the durability hook of the one fleet driver (the crate's
//! `run` module): the epoch loop is the same as every other entry
//! point's, so a durable run cannot drift from a plain one. **Sharding is
//! resume-transparent** for the same reason: the shard fan-out knob
//! ([`crate::FleetPolicy::shards`]) lives in the policy, not the store, and
//! every shard count produces bit-identical decision state, so a run
//! journaled under one shard count may be resumed under another (or on a
//! machine with a different core count) without divergence — the
//! `fleet_sharding` kill-and-resume property test pins exactly this.

use std::io;
use std::time::Duration;

use rental_capacity::{CapacityConfig, PoolLedger};
use rental_core::{Allocation, Instance, Solution, Throughput, ThroughputSplit};
use rental_obs::{EventKind, SpanTimer, Stage, StageTimes};
use rental_persist::{DecodeError, Decoder, Encoder, Store};
use rental_solvers::solver::{CapacitySolver, SolveError, SolverOutcome, SweepPrior};
use rental_stream::FixedMixState;

use crate::chaos::{ChaosClock, ChaosConfig, CrashPlan, CrashPoint};
use crate::controller::{FleetController, KnownPlan, RunEnv, Tally, TenantCore, TenantState};
use crate::report::{AdoptionRecord, FleetReport, SolverEffort};
use crate::run::FleetRun;
use crate::tenant::TenantSpec;

/// Magic number of checkpoint snapshots (`"RPSF"`).
const CHECKPOINT_MAGIC: u32 = 0x5250_5346;
/// Magic number of journal records (`"RPJL"`).
const JOURNAL_MAGIC: u32 = 0x5250_4A4C;
/// Current on-disk format version of both payload kinds. Version 2 replaced
/// the two probe/solve stopwatch fields with the full five-stage
/// [`StageTimes`] vector and added the deterministic solver-effort scalars.
const FORMAT_VERSION: u32 = 2;

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

/// A learned plan, flattened to integers: its target ρ plus everything
/// needed to rebuild its [`SolverOutcome`] (the horizon cache is derived).
#[derive(Debug, Clone, PartialEq)]
struct PersistedPlan {
    rho: Throughput,
    target: Throughput,
    shares: Vec<u64>,
    machines: Vec<u64>,
    proven_optimal: bool,
    lower_bound: Option<f64>,
    elapsed: f64,
    nodes: Option<u64>,
    lp_iterations: Option<u64>,
    exhausted: bool,
}

/// A tenant's initial plan: its target and recipe mix.
type InitialPlan = (Throughput, Vec<f64>);

/// One tenant's persisted state. The decision state and running totals are
/// small, so they always travel **absolute** (applying a journal record is
/// idempotent); a checkpoint carries every epoch cost and the whole plan
/// log, a journal record only the costs and plans accrued since the
/// previous record. The running totals include the per-stage wall-clock seconds:
/// timing is the masked field family of
/// [`FleetReport::matches_modulo_timing`], but persisting it keeps a resumed
/// run's totals from silently dropping the pre-crash portion.
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
    /// over a run, so journal records do not repeat them — and state.
    tenants: Vec<(InitialPlan, TenantSnapshot)>,
    adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger>,
    /// Fingerprints of the per-tenant outage traces — resume regenerates the
    /// traces from the config and refuses to continue when they diverge.
    trace_fingerprints: Vec<u64>,
    /// Position in the chaos fault stream, when the run is chaos-wrapped.
    chaos_calls: Option<u64>,
}

/// The write-ahead record of one executed epoch.
#[derive(Debug, Clone, PartialEq)]
struct JournalRecord {
    epoch: u64,
    tenants: Vec<TenantSnapshot>,
    new_adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger>,
    chaos_calls: Option<u64>,
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

fn put_plan(enc: &mut Encoder, plan: &PersistedPlan) {
    enc.put_u64(plan.rho);
    enc.put_u64(plan.target);
    enc.put_u64s(&plan.shares);
    enc.put_u64s(&plan.machines);
    enc.put_bool(plan.proven_optimal);
    enc.put_opt_f64(plan.lower_bound);
    enc.put_f64(plan.elapsed);
    enc.put_opt_u64(plan.nodes);
    enc.put_opt_u64(plan.lp_iterations);
    enc.put_bool(plan.exhausted);
}

fn get_plan(dec: &mut Decoder<'_>) -> Result<PersistedPlan, DecodeError> {
    Ok(PersistedPlan {
        rho: dec.get_u64()?,
        target: dec.get_u64()?,
        shares: dec.get_u64s()?,
        machines: dec.get_u64s()?,
        proven_optimal: dec.get_bool()?,
        lower_bound: dec.get_opt_f64()?,
        elapsed: dec.get_f64()?,
        nodes: dec.get_opt_u64()?,
        lp_iterations: dec.get_opt_u64()?,
        exhausted: dec.get_bool()?,
    })
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

fn put_tally(enc: &mut Encoder, t: &Tally) {
    enc.put_f64(t.rental_cost);
    enc.put_f64(t.switching_cost);
    for seconds in t.timing.seconds() {
        enc.put_f64(seconds);
    }
    for count in [
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
    ] {
        enc.put_usize(count);
    }
}

fn get_tally(dec: &mut Decoder<'_>) -> Result<Tally, DecodeError> {
    // Struct fields evaluate in the order written, which is the encoding
    // order of `put_tally`.
    Ok(Tally {
        rental_cost: dec.get_f64()?,
        switching_cost: dec.get_f64()?,
        timing: {
            let mut seconds = [0.0; Stage::COUNT];
            for slot in &mut seconds {
                *slot = dec.get_f64()?;
            }
            StageTimes::from_seconds(seconds)
        },
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
    enc.put_seq(&snap.plans, put_plan);
}

fn get_tenant(dec: &mut Decoder<'_>) -> Result<TenantSnapshot, DecodeError> {
    Ok(TenantSnapshot {
        core: get_core(dec)?,
        tally: get_tally(dec)?,
        epoch_costs: dec.get_f64s()?,
        plans: dec.get_seq(8, get_plan)?,
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
        enc.put_opt_u64(self.chaos_calls);
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
            chaos_calls: dec.get_opt_u64()?,
        };
        dec.expect_end()?;
        Ok(checkpoint)
    }

    /// Applies one journal record. Returns false (leaving `self` possibly
    /// partially advanced — the caller discards it) when the record does not
    /// continue this checkpoint: wrong epoch or wrong tenant arity.
    fn apply(&mut self, record: &JournalRecord) -> bool {
        if record.epoch != self.epoch_next || record.tenants.len() != self.tenants.len() {
            return false;
        }
        for ((_, snap), delta) in self.tenants.iter_mut().zip(&record.tenants) {
            snap.core = delta.core.clone();
            snap.tally = delta.tally;
            snap.epoch_costs.extend_from_slice(&delta.epoch_costs);
            snap.plans.extend_from_slice(&delta.plans);
        }
        self.adoptions.extend_from_slice(&record.new_adoptions);
        self.stale_desired = record.stale_desired.clone();
        if record.ledger.is_some() {
            self.ledger = record.ledger.clone();
        }
        self.chaos_calls = record.chaos_calls;
        self.epoch_next += 1;
        true
    }
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned(JOURNAL_MAGIC, FORMAT_VERSION);
        enc.put_u64(self.epoch);
        enc.put_seq(&self.tenants, put_tenant);
        enc.put_seq(&self.new_adoptions, put_adoption);
        enc.put_opt(self.stale_desired.as_ref(), |e, fleets| {
            put_fleets(e, fleets)
        });
        enc.put_opt(self.ledger.as_ref(), put_ledger);
        enc.put_opt_u64(self.chaos_calls);
        enc.finish()
    }

    fn decode(bytes: &[u8]) -> Result<JournalRecord, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, JOURNAL_MAGIC, |v| v == FORMAT_VERSION)?;
        let record = JournalRecord {
            epoch: dec.get_u64()?,
            tenants: dec.get_seq(8, get_tenant)?,
            new_adoptions: dec.get_seq(8, get_adoption)?,
            stale_desired: dec.get_opt(get_fleets)?,
            ledger: dec.get_opt(get_ledger)?,
            chaos_calls: dec.get_opt_u64()?,
        };
        dec.expect_end()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// Capture (state → persisted shapes) and restore (persisted shapes → state)
// ---------------------------------------------------------------------------

fn capture_plan(rho: Throughput, plan: &KnownPlan) -> PersistedPlan {
    let outcome = &plan.outcome;
    PersistedPlan {
        rho,
        target: outcome.solution.target,
        shares: outcome.solution.split.shares().to_vec(),
        machines: outcome.solution.allocation.machine_counts().to_vec(),
        proven_optimal: outcome.proven_optimal,
        lower_bound: outcome.lower_bound,
        elapsed: outcome.elapsed.as_secs_f64(),
        nodes: outcome.nodes.map(|n| n as u64),
        lp_iterations: outcome.lp_iterations.map(|n| n as u64),
        exhausted: outcome.exhausted,
    }
}

/// A tenant's state with its epoch costs and plans from the given ledger
/// positions on.
fn capture_tenant(state: &TenantState<'_>, (costs, plans): (usize, usize)) -> TenantSnapshot {
    TenantSnapshot {
        core: state.core.clone(),
        tally: state.tally,
        epoch_costs: state.epoch_costs[costs..].to_vec(),
        plans: (state.plans[plans..].iter())
            .map(|(rho, plan)| capture_plan(*rho, plan))
            .collect(),
    }
}

fn capture_checkpoint(run: &FleetRun<'_>, epoch_next: usize) -> Checkpoint {
    Checkpoint {
        epoch_next: epoch_next as u64,
        tenants: (run.states.iter())
            .map(|s| {
                let initial = (s.initial_target, s.initial_fractions.clone());
                (initial, capture_tenant(s, (0, 0)))
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
        chaos_calls: run.chaos.map(|clock| clock.calls()),
    }
}

/// Rebuilds one learned plan. `None` when it fails validation — wrong
/// arity, a timing that is no duration, or independent certification.
fn restore_plan(
    ctl: &FleetController,
    instance: &Instance,
    plan: &PersistedPlan,
) -> Option<(Throughput, KnownPlan)> {
    if plan.shares.len() != instance.num_recipes() || plan.machines.len() != instance.num_types() {
        return None;
    }
    let elapsed = Duration::try_from_secs_f64(plan.elapsed).ok()?;
    let solution = Solution {
        target: plan.target,
        split: ThroughputSplit::new(plan.shares.clone()),
        allocation: Allocation::from_counts(plan.machines.clone(), instance.platform()).ok()?,
    };
    // Disk contents are untrusted: re-certify every restored plan with the
    // independent integer checker — in release builds too, unlike the debug
    // assertions at adoption sites.
    rental_solvers::certify_plan(instance, &solution, None).ok()?;
    let cache = ctl.plan_cache(instance, &solution).ok()?;
    let outcome = SolverOutcome {
        solution,
        proven_optimal: plan.proven_optimal,
        lower_bound: plan.lower_bound,
        elapsed,
        nodes: plan.nodes.map(|n| n as usize),
        lp_iterations: plan.lp_iterations.map(|n| n as usize),
        exhausted: plan.exhausted,
    };
    Some((plan.rho, KnownPlan { outcome, cache }))
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
        && (core.last_failure_solve.as_ref()).is_none_or(|(_, caps)| caps.len() == types)
        && (snap.tally.timing.seconds().iter()).all(|s| s.is_finite() && *s >= 0.0);
    if !valid {
        return None;
    }
    let plans = (snap.plans.iter())
        .map(|plan| restore_plan(ctl, &spec.instance, plan))
        .collect::<Option<Vec<_>>>()?;
    Some(TenantState::new(
        spec,
        env,
        initial,
        snap.core,
        snap.tally,
        snap.epoch_costs,
        plans,
    ))
}

/// Per-tenant positions in the epoch-cost and learned-plan ledgers (plus the
/// adoption ledger's), taken before an epoch executes, so that epoch's
/// journal record carries exactly what the epoch added.
pub(crate) struct Marks {
    tenants: Vec<(usize, usize)>,
    adoptions: usize,
}

impl Marks {
    pub(crate) fn of(run: &FleetRun<'_>) -> Marks {
        Marks {
            tenants: (run.states.iter())
                .map(|s| (s.epoch_costs.len(), s.plans.len()))
                .collect(),
            adoptions: run.adoptions.len(),
        }
    }
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
}

impl Durability<'_> {
    /// The top two rungs of the recovery ladder: the newest valid snapshot
    /// plus consecutive journal replay. Any divergent or undecodable journal
    /// suffix is dropped and the journal rewritten to the applied prefix, so
    /// the resumed run appends onto consistent ground. `Ok(None)` means
    /// nothing restorable (or a fresh run) — the caller starts cold.
    pub(crate) fn restore<'a>(
        &self,
        ctl: &'a FleetController,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<&'a ChaosClock<'a>>,
    ) -> io::Result<Option<FleetRun<'a>>> {
        if !self.resume {
            return Ok(None);
        }
        let recovery = self.store.recover()?;
        let Some(snapshot) = recovery.snapshot else {
            return Ok(None);
        };
        let Ok(mut checkpoint) = Checkpoint::decode(&snapshot.payload) else {
            return Ok(None);
        };
        if checkpoint.epoch_next != snapshot.epoch {
            return Ok(None);
        }
        // Replay: records before the snapshot are history; records from the
        // snapshot on must be consecutive, correctly-shaped continuations.
        let mut kept = 0;
        for (index, payload) in recovery.journal.iter().enumerate() {
            let Ok(record) = JournalRecord::decode(payload) else {
                break;
            };
            if record.epoch >= checkpoint.epoch_next && !checkpoint.apply(&record) {
                break;
            }
            kept = index + 1;
        }
        if kept < recovery.journal.len() {
            let path = self.store.journal_path();
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
            for payload in &recovery.journal[..kept] {
                self.store.append_journal(payload)?;
            }
        }
        let env = ctl.run_env(config);
        if checkpoint.tenants.len() != tenants.len() {
            return Ok(None);
        }
        let states = (tenants.iter().zip(checkpoint.tenants))
            .map(|(spec, snapshot)| restore_tenant(ctl, &env, spec, snapshot))
            .collect::<Option<Vec<_>>>();
        // The coupling is regenerated from the config (traces are
        // deterministic, validated by fingerprint) and the checkpointed
        // ledger re-admitted under the pool's quota invariants.
        let coupled = match (ctl.init_coupling(tenants, config, &env), &checkpoint.ledger) {
            (Some(mut coupling), Some(ledger)) => {
                let fingerprints: Vec<u64> =
                    coupling.traces.iter().map(|t| t.fingerprint()).collect();
                let admitted = fingerprints == checkpoint.trace_fingerprints
                    && coupling.pool.restore_ledger(ledger.clone()).is_ok();
                admitted.then_some(Some(coupling))
            }
            (None, None) => Some(None),
            _ => None,
        };
        let (Some(states), Some(coupled)) = (states, coupled) else {
            return Ok(None);
        };
        if let (Some(clock), Some(calls)) = (chaos, checkpoint.chaos_calls) {
            clock.set_calls(calls);
        }
        let start = checkpoint.epoch_next as usize;
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
        let mut run = FleetRun::new(ctl, env, chaos, states, coupled, start);
        run.adoptions = checkpoint.adoptions;
        run.stale_desired = checkpoint.stale_desired;
        run.checkpoint_epoch = Some(start);
        Ok(Some(run))
    }

    /// Starts a fresh (or cold-restarted) run's store: a clean slate plus
    /// the initial snapshot.
    pub(crate) fn begin(&self, run: &mut FleetRun<'_>) -> io::Result<()> {
        self.store.reset()?;
        run.checkpoint_epoch = Some(0);
        self.snapshot(run, 0)
    }

    fn snapshot(&self, run: &FleetRun<'_>, epoch_next: usize) -> io::Result<()> {
        let payload = capture_checkpoint(run, epoch_next).encode();
        self.store.write_snapshot(epoch_next as u64, &payload)
    }

    /// Journals the epoch `run` just executed (and snapshots on the
    /// configured cadence). Returns true when a planned crash aborted the
    /// run at this epoch.
    pub(crate) fn commit(
        &self,
        run: &mut FleetRun<'_>,
        epoch: usize,
        marks: &Marks,
    ) -> io::Result<bool> {
        let record = JournalRecord {
            epoch: epoch as u64,
            tenants: (run.states.iter().zip(&marks.tenants))
                .map(|(state, &mark)| capture_tenant(state, mark))
                .collect(),
            new_adoptions: run.adoptions[marks.adoptions..].to_vec(),
            stale_desired: run.stale_desired.clone(),
            ledger: run.coupled.as_ref().map(|cs| cs.pool.ledger()),
            chaos_calls: run.chaos.map(|clock| clock.calls()),
        };
        let payload = record.encode();
        if let Some(plan) = self.crash.filter(|c| c.epoch == epoch) {
            match plan.point {
                CrashPoint::BeforeJournal => {}
                CrashPoint::TornJournal { keep } => {
                    self.store.append_journal_prefix(&payload, keep)?;
                }
                CrashPoint::AfterJournal => self.store.append_journal(&payload)?,
                CrashPoint::AfterSnapshot => {
                    self.store.append_journal(&payload)?;
                    self.snapshot(run, epoch + 1)?;
                }
            }
            return Ok(true);
        }
        let span = SpanTimer::start(Stage::Persist);
        self.store.append_journal(&payload)?;
        if self.opts.snapshot_every > 0 && (epoch + 1).is_multiple_of(self.opts.snapshot_every) {
            self.snapshot(run, epoch + 1)?;
            run.checkpoint_epoch = Some(epoch + 1);
        }
        span.stop_into(&mut run.obs.times, run.ctl.telemetry.as_ref());
        Ok(false)
    }
}

impl FleetController {
    /// [`FleetController::run_with_capacity`] with crash-safe persistence: a
    /// **fresh** run (the store is reset) that journals every epoch and
    /// snapshots every [`PersistOptions::snapshot_every`] epochs. With
    /// `chaos`, the solving is wrapped in the deterministic fault injector
    /// exactly as [`FleetController::run_with_chaos`] does — and the fault
    /// stream position is checkpointed, so a resumed run draws the same
    /// faults. With `crash`, the run aborts at the planned epoch and crash
    /// point, returning [`RunOutcome::Crashed`].
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
        let durable = Durability {
            store,
            opts,
            crash,
            resume: false,
        };
        Ok(self
            .drive(solver, tenants, Some(config), chaos, Some(&durable))?
            .0)
    }

    /// Resumes a killed [`FleetController::run_resumable`] from the store,
    /// walking the recovery ladder (journal replay → last good snapshot →
    /// cold restart) and continuing to completion — or to the next planned
    /// crash. All non-store arguments must repeat the original run's; the
    /// combined crashed-then-resumed execution then produces a report
    /// bit-identical (modulo wall-clock timing) to the uninterrupted run.
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
        let durable = Durability {
            store,
            opts,
            crash,
            resume: true,
        };
        Ok(self
            .drive(solver, tenants, Some(config), chaos, Some(&durable))?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            timing: StageTimes::from_seconds([0.125, 0.0625, 1.5, 0.25, 0.03125]),
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

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let checkpoint = Checkpoint {
            epoch_next: 7,
            tenants: vec![(
                (40, vec![0.25, 0.75]),
                TenantSnapshot {
                    core: core(),
                    tally: tally(),
                    epoch_costs: vec![10.0, 12.5, -0.0],
                    plans: vec![PersistedPlan {
                        rho: 60,
                        target: 60,
                        shares: vec![30, 30],
                        machines: vec![2, 1, 1],
                        proven_optimal: true,
                        lower_bound: Some(104.0),
                        elapsed: 0.002,
                        nodes: Some(17),
                        lp_iterations: Some(230),
                        exhausted: false,
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
            chaos_calls: Some(42),
        };
        let decoded = Checkpoint::decode(&checkpoint.encode()).expect("round trip");
        assert_eq!(decoded, checkpoint);
        // -0.0 must survive bit-exactly (f64s are stored as raw bits).
        assert!(decoded.tenants[0].1.epoch_costs[2].is_sign_negative());
    }

    #[test]
    fn journal_record_round_trips_and_applies() {
        let snapshot = |epoch_costs| TenantSnapshot {
            core: core(),
            tally: Tally::default(),
            epoch_costs,
            plans: vec![],
        };
        let mut checkpoint = Checkpoint {
            epoch_next: 3,
            tenants: vec![((10, vec![1.0]), snapshot(vec![1.0, 2.0, 3.0]))],
            adoptions: vec![],
            stale_desired: None,
            ledger: None,
            trace_fingerprints: vec![],
            chaos_calls: None,
        };
        let record = JournalRecord {
            epoch: 3,
            tenants: vec![TenantSnapshot {
                tally: tally(),
                ..snapshot(vec![4.0])
            }],
            new_adoptions: vec![],
            stale_desired: None,
            ledger: None,
            chaos_calls: None,
        };
        let decoded = JournalRecord::decode(&record.encode()).expect("round trip");
        assert_eq!(decoded, record);
        assert!(checkpoint.apply(&decoded));
        assert_eq!(checkpoint.epoch_next, 4);
        assert_eq!(
            checkpoint.tenants[0].1.epoch_costs,
            vec![1.0, 2.0, 3.0, 4.0]
        );
        // The running totals travel absolute: applying replaces them.
        assert_eq!(checkpoint.tenants[0].1.tally, tally());
        // Replaying out of order is rejected.
        assert!(!checkpoint.apply(&decoded));
    }

    #[test]
    fn decode_rejects_foreign_magic_and_trailing_bytes() {
        let record = JournalRecord {
            epoch: 0,
            tenants: vec![],
            new_adoptions: vec![],
            stale_desired: None,
            ledger: None,
            chaos_calls: None,
        };
        let bytes = record.encode();
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
    }
}
