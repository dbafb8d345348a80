//! Crash-safe fleet serving: a snapshot chain, a decision journal and
//! resume by re-execution on top of [`rental_persist`].
//!
//! An epoch of the fleet driver is a deterministic function of the state
//! before it, the configs and the outcomes of its solver calls — the one
//! input that wall-clock budgets and chaos faults shape. So the journal
//! logs decisions, not state: [`FleetController::run_resumable`] appends
//! one **journal record** per completed epoch carrying that epoch's solver
//! outcomes in call order (each a plan, with its nodes and LP iterations, or
//! an absorbed error — an injected fault included — under its request's
//! digest) and a digest of the decision state the epoch left.
//!
//! Every [`PersistOptions::snapshot_every`] epochs a **snapshot** is
//! written, and the snapshots form a **chain** (format 6). A run's history
//! — every tenant's epoch costs and learned plans, the adoption records —
//! only ever grows, so each snapshot is a link that carries what was
//! appended since the link before it, plus the mutable decision state
//! (tenant cores and tallies, the pool ledger, the stale desired fleets)
//! and the epoch of the link it extends. The first link, written when the
//! run starts, also carries the run's constants: every tenant's initial
//! plan and the fingerprints of the outage traces. Links are encoded
//! straight from the running state, and history is written once, so a
//! snapshot costs what changed since the last one.
//!
//! Neither payload carries wall-clock time: not stage timing (format 4),
//! not chaos state (format 5), not solver seconds (format 6). Seconds live
//! only in the report's trace trees, the trees of epochs a resume did not
//! execute restore untimed, a restored plan carries zero solver seconds,
//! and a chaos fault is drawn from its epoch and request alone
//! ([`crate::chaos`]) — two runs of one seed write byte-identical stores.
//! Both payloads are framed with CRC-32 checksums by the
//! [`rental_persist::Store`], so torn writes and tail corruption are
//! detected, never trusted.
//!
//! [`FleetController::resume_from`] restores a killed run and continues it —
//! producing a [`FleetReport`] **bit-identical** (modulo wall-clock timing,
//! see [`FleetReport::matches_modulo_timing`]) to the uninterrupted run. The
//! recovery ladder, healthiest rung first:
//!
//! 1. **replay by re-execution** — read the newest complete chain: its
//!    newest link and every link back to the first, each frame-valid,
//!    decodable and extending the one before it (a missing or corrupt link
//!    breaks every chain through it, and an older tip is taken; each
//!    snapshot is read once, oldest first). Fold it into the checkpoint at
//!    its newest link, then re-execute every consecutive journaled epoch
//!    past it through the driver's own epoch step, its solves served from
//!    the journal instead of the solver. Every
//!    served outcome must answer the request the epoch makes (its request
//!    digest) and pass the independent plan certificate, in release builds
//!    too, and the state after each epoch must match the journaled digest.
//!    The resumed run's next link extends the chain it restored;
//! 2. **the valid prefix, then live** — a torn, corrupt or diverging record
//!    (one that fails any of those checks) ends the valid journal: it is
//!    truncated there, the snapshot is replayed up to that epoch, and the
//!    run continues live, re-solving the lost epochs — which reproduces them
//!    exactly under deterministic budgets;
//! 3. **cold restart** — no complete chain (or its checkpoint fails
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

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use rental_capacity::{CapacityConfig, PoolLedger};
use rental_core::{Throughput, ThroughputSplit};
use rental_obs::{EventKind, SpanTimer, Stage};
use rental_persist::{DecodeError, Decoder, Encoder, JournalAppender, Snapshot, Store};
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
/// version 5 dropped the chaos fault-stream position of both; version 6
/// made snapshots links of a chain, each carrying the history appended
/// since the link before it, and dropped the solver seconds of every
/// persisted outcome. A store of an older version cold-restarts.
pub(crate) const FORMAT_VERSION: u32 = 6;

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
    /// A snapshot — the next link of the chain — is written every this many
    /// epochs (the journal covers the gaps). `0` disables periodic
    /// snapshots — recovery then replays the whole journal from the root
    /// link.
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
    outcome: PersistedOutcome<'static>,
}

/// A tenant's initial plan: its target and recipe mix.
type InitialPlan = (Throughput, Vec<f64>);

/// One tenant's checkpointed state: decision state, running totals and
/// history — in a link, the epoch costs and plans appended since the link
/// before it; in a folded checkpoint, all of them.
#[derive(Debug, Clone, PartialEq)]
struct TenantSnapshot {
    core: TenantCore,
    tally: Tally,
    epoch_costs: Vec<f64>,
    plans: Vec<PersistedPlan>,
}

/// What a link of the snapshot chain extends.
#[derive(Debug, Clone, PartialEq)]
enum Base {
    /// Nothing: the chain's first link, written when the run starts, which
    /// also holds the run's constants — every tenant's initial plan and the
    /// fingerprints of the outage traces (resume regenerates the traces
    /// from the config and refuses to continue when they diverge).
    Root {
        initial: Vec<InitialPlan>,
        fingerprints: Vec<u64>,
    },
    /// The link of this epoch.
    After(u64),
}

/// One snapshot file: a link of the chain, as decoded.
#[derive(Debug, Clone, PartialEq)]
struct Link {
    /// The first epoch a run resumed from this link still has to execute.
    epoch_next: u64,
    base: Base,
    tenants: Vec<TenantSnapshot>,
    /// The adoption records appended since the link before.
    adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger<'static>>,
}

/// A chain folded into the checkpoint at its newest link: everything a
/// resume needs that is not derivable from the configs.
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    epoch_next: u64,
    tenants: Vec<(InitialPlan, TenantSnapshot)>,
    adoptions: Vec<AdoptionRecord>,
    stale_desired: Option<Vec<Vec<u64>>>,
    ledger: Option<PoolLedger<'static>>,
    trace_fingerprints: Vec<u64>,
}

/// How much of a run's history the newest link of its chain covers: where
/// the next link's history starts.
struct Written {
    epoch: u64,
    /// Per tenant: epoch costs and plans covered.
    tenants: Vec<(usize, usize)>,
    adoptions: usize,
}

impl Written {
    /// The history of `run` at its link of `epoch_next`.
    fn of(run: &FleetRun<'_>, epoch_next: usize) -> Self {
        Written {
            epoch: epoch_next as u64,
            tenants: (run.states.iter())
                .map(|s| (s.epoch_costs.len(), s.plans.len()))
                .collect(),
            adoptions: run.adoptions.len(),
        }
    }

    /// The history a checkpoint restores.
    fn at(checkpoint: &Checkpoint) -> Self {
        Written {
            epoch: checkpoint.epoch_next,
            tenants: (checkpoint.tenants.iter())
                .map(|(_, t)| (t.epoch_costs.len(), t.plans.len()))
                .collect(),
            adoptions: checkpoint.adoptions.len(),
        }
    }
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

fn put_ledger(enc: &mut Encoder, ledger: &PoolLedger<'_>) {
    put_fleets(enc, &ledger.holdings);
    enc.put_u64s(&ledger.in_use);
    enc.put_u64s(&ledger.peak_in_use);
}

fn get_ledger(dec: &mut Decoder<'_>) -> Result<PoolLedger<'static>, DecodeError> {
    Ok(PoolLedger {
        holdings: get_fleets(dec)?.into(),
        in_use: dec.get_u64s()?.into(),
        peak_in_use: dec.get_u64s()?.into(),
    })
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

/// Encodes the link of `run` at `epoch_next` straight from the run: the
/// history appended since `prev`, the run's newest link, plus the decision
/// state; with no `prev`, the root link with all of it and the run's
/// constants.
fn encode_link(run: &FleetRun<'_>, epoch_next: usize, prev: Option<&Written>) -> Vec<u8> {
    let mut enc = Encoder::versioned(CHECKPOINT_MAGIC, FORMAT_VERSION);
    enc.put_u64(epoch_next as u64);
    match prev {
        None => {
            enc.put_u8(0);
            enc.put_seq(&run.states, |e, s| {
                e.put_f64s(&s.initial_fractions);
                e.put_u64(s.initial_target);
            });
            let coupled = run.coupled.as_ref().map_or(&[][..], |cs| &cs.tenants);
            enc.put_seq(coupled, |e, t| e.put_u64(t.fingerprint));
        }
        Some(prev) => {
            enc.put_u8(1);
            enc.put_u64(prev.epoch);
        }
    }
    enc.put_usize(run.states.len());
    for (i, s) in run.states.iter().enumerate() {
        let (costs, plans) = prev.map_or((0, 0), |prev| prev.tenants[i]);
        put_core(&mut enc, &s.core);
        put_tally(&mut enc, &s.tally);
        enc.put_f64s(&s.epoch_costs[costs..]);
        enc.put_seq(&s.plans[plans..], |e, (rho, plan)| {
            e.put_u64(*rho);
            put_outcome(e, &PersistedOutcome::of(&plan.outcome));
        });
    }
    let adoptions = prev.map_or(0, |prev| prev.adoptions);
    enc.put_seq(&run.adoptions[adoptions..], put_adoption);
    enc.put_opt(run.stale_desired.as_deref(), put_fleets);
    enc.put_opt(run.coupled.as_ref(), |e, cs| {
        put_ledger(e, &cs.pool.ledger())
    });
    enc.finish()
}

impl Link {
    fn decode(bytes: &[u8]) -> Result<Link, DecodeError> {
        let (mut dec, _) = Decoder::versioned(bytes, CHECKPOINT_MAGIC, |v| v == FORMAT_VERSION)?;
        let link = Link {
            epoch_next: dec.get_u64()?,
            base: match dec.get_u8()? {
                0 => Base::Root {
                    initial: dec.get_seq(16, |d| {
                        let fractions = d.get_f64s()?;
                        Ok((d.get_u64()?, fractions))
                    })?,
                    fingerprints: dec.get_u64s()?,
                },
                1 => Base::After(dec.get_u64()?),
                tag => return Err(DecodeError::BadTag(tag)),
            },
            tenants: dec.get_seq(8, get_tenant)?,
            adoptions: dec.get_seq(8, get_adoption)?,
            stale_desired: dec.get_opt(get_fleets)?,
            ledger: dec.get_opt(get_ledger)?,
        };
        dec.expect_end()?;
        Ok(link)
    }
}

impl Checkpoint {
    /// Folds a chain, oldest link first, into the checkpoint at its newest
    /// link. Each later link must extend the one before it, tenant for
    /// tenant, as [`newest_chain`] checks; `None` unless the first link is
    /// a root.
    fn fold(links: Vec<Link>) -> Option<Checkpoint> {
        let mut links = links.into_iter();
        let root = links.next()?;
        let Base::Root {
            initial,
            fingerprints,
        } = root.base
        else {
            return None;
        };
        let mut checkpoint = Checkpoint {
            epoch_next: root.epoch_next,
            tenants: initial.into_iter().zip(root.tenants).collect(),
            adoptions: root.adoptions,
            stale_desired: root.stale_desired,
            ledger: root.ledger,
            trace_fingerprints: fingerprints,
        };
        for link in links {
            for ((_, tenant), new) in checkpoint.tenants.iter_mut().zip(link.tenants) {
                tenant.core = new.core;
                tenant.tally = new.tally;
                tenant.epoch_costs.extend(new.epoch_costs);
                tenant.plans.extend(new.plans);
            }
            checkpoint.epoch_next = link.epoch_next;
            checkpoint.adoptions.extend(link.adoptions);
            checkpoint.stale_desired = link.stale_desired;
            checkpoint.ledger = link.ledger;
        }
        Some(checkpoint)
    }
}

/// The newest complete snapshot chain of `store`, folded into the
/// checkpoint at its newest link; `None` when no chain is complete.
/// `newest` is the newest snapshot whose frame is sound, as
/// [`Store::recover`] read it (newer files are known corrupt). A link ends a
/// complete chain when its snapshot is sound, decodes and names its own
/// epoch, and it is a root with one initial plan per tenant, or extends an
/// older link that ends a complete chain and holds as many tenants. The
/// snapshots are read oldest first, each once, however many newer tips a
/// broken link breaks.
fn newest_chain(store: &Store, newest: Option<Snapshot>) -> io::Result<Option<Checkpoint>> {
    let Some(newest) = newest else {
        return Ok(None);
    };
    let mut complete = BTreeMap::new();
    for epoch in store.snapshot_epochs()? {
        if epoch < newest.epoch {
            if let Some(payload) = store.read_snapshot(epoch)? {
                file_link(&mut complete, epoch, &payload);
            }
        }
    }
    file_link(&mut complete, newest.epoch, &newest.payload);
    // Back from the newest complete link to its root: every link on the way
    // was filed.
    let mut chain = Vec::new();
    let mut at = complete.keys().next_back().copied();
    while let Some(link) = at.and_then(|epoch| complete.remove(&epoch)) {
        at = match link.base {
            Base::After(prev) => Some(prev),
            Base::Root { .. } => None,
        };
        chain.push(link);
    }
    chain.reverse();
    Ok(Checkpoint::fold(chain))
}

/// Files the snapshot of `epoch` among the `complete` links (by epoch) when
/// it ends a complete chain. Called oldest first.
fn file_link(complete: &mut BTreeMap<u64, Link>, epoch: u64, payload: &[u8]) {
    let Some(link) = Link::decode(payload).ok().filter(|l| l.epoch_next == epoch) else {
        return;
    };
    let extends = match &link.base {
        Base::Root { initial, .. } => initial.len() == link.tenants.len(),
        Base::After(prev) => (complete.get(prev))
            .is_some_and(|older: &Link| older.tenants.len() == link.tenants.len()),
    };
    if extends {
        complete.insert(epoch, link);
    }
}

// ---------------------------------------------------------------------------
// Restore (persisted shapes → state)
// ---------------------------------------------------------------------------

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
            let fingerprints = coupling.tenants.iter().map(|t| t.fingerprint);
            let admitted = fingerprints.eq(checkpoint.trace_fingerprints.iter().copied())
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

/// Writes the link of `run` at `epoch_next`, extending the chain's newest
/// link (the root link when there is none), and makes it the newest.
fn snapshot(
    store: &Store,
    run: &FleetRun<'_>,
    epoch_next: usize,
    chain: &mut Option<Written>,
) -> io::Result<()> {
    let payload = encode_link(run, epoch_next, chain.as_ref());
    store.write_snapshot(epoch_next as u64, &payload)?;
    *chain = Some(Written::of(run, epoch_next));
    Ok(())
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
    /// What the newest link of the run's snapshot chain covers.
    chain: Option<Written>,
}

impl Durability<'_> {
    /// The top two rungs of the recovery ladder: the newest complete
    /// snapshot chain, replayed through every consecutive journaled epoch
    /// that passes its checks. The journal is cut back to what replayed, so
    /// the resumed run appends onto consistent ground. `Ok(None)` means
    /// nothing restorable (or a fresh run) — the caller starts cold.
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
        let mut recovery = self.store.recover()?;
        // The newest chain whose every link is present and sound; a broken
        // one falls back to an older tip.
        let Some(checkpoint) = newest_chain(self.store, recovery.snapshot.take())? else {
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
        // The next link extends the chain at the checkpoint, replayed
        // epochs included.
        self.chain = Some(Written::at(&checkpoint));
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
    /// the root link of the snapshot chain.
    pub(crate) fn begin(&mut self, run: &mut FleetRun<'_>) -> io::Result<()> {
        self.journal = None;
        self.chain = None;
        self.store.reset()?;
        run.checkpoint_epoch = Some(0);
        run.solves = Solves::Journaled(Vec::new());
        snapshot(self.store, run, 0, &mut self.chain)
    }

    /// Journals the epoch `run` just executed (and snapshots on the
    /// configured cadence), timing each part as a child of the epoch's
    /// `persist` span: the state digest, the record's encoding, its append
    /// and, on snapshot epochs, the snapshot. Returns true when a planned
    /// crash aborted the run at this epoch.
    pub(crate) fn commit(&mut self, run: &mut FleetRun<'_>, epoch: usize) -> io::Result<bool> {
        let mut span = SpanTimer::start(Stage::Persist);
        let decisions = match &mut run.solves {
            Solves::Journaled(log) => std::mem::take(log),
            _ => Vec::new(),
        };
        let digest = state_digest(run);
        span.lap_into(&mut run.tree, "digest");
        let record = JournalRecord {
            epoch: epoch as u64,
            decisions,
            digest,
        };
        let payload = record.encode();
        span.lap_into(&mut run.tree, "encode");
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
                    snapshot(store, run, epoch + 1, &mut self.chain)?;
                }
            }
            return Ok(true);
        }
        journal.append(&payload)?;
        span.lap_into(&mut run.tree, "append");
        if self.opts.snapshot_every > 0 && (epoch + 1).is_multiple_of(self.opts.snapshot_every) {
            snapshot(store, run, epoch + 1, &mut self.chain)?;
            run.checkpoint_epoch = Some(epoch + 1);
            span.lap_into(&mut run.tree, "snapshot");
        }
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
            chain: None,
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
            chain: None,
        };
        Ok(self
            .drive(solver, tenants, Some(config), chaos, Some(&mut durable))?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CouplingState, TenantCoupling};
    use crate::journal::{Decision, Served, JOURNAL_MAGIC};
    use crate::scenario::failure_coupled_fleet;
    use crate::FleetPolicy;
    use proptest::prelude::*;
    use rental_capacity::CapacityPool;
    use rental_core::examples::illustrating_example;
    use rental_solvers::exact::IlpSolver;
    use rental_solvers::solver::SolverOutcome;
    use rental_solvers::SolveBudget;
    use rental_stream::{FailureModel, FailureTrace, WorkloadTrace};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn core() -> TenantCore {
        TenantCore {
            fractions: vec![0.25, 0.25, 0.5],
            mix: FixedMixState::from_parts(vec![3, 0, 2, 1], vec![0, 1, 2, 0]),
            solved_target: 60,
            adopted_epoch: 4,
            prior: Some(SweepPrior {
                target: 60,
                split: ThroughputSplit::new(vec![10, 20, 30]),
                lower_bound: Some(101.5),
            }),
            last_failure_solve: Some((50, vec![4, 5, 6, 7])),
            deferred_until: 9,
            backoff: 2,
        }
    }

    /// The fixture's decision state at its next link: core and tally moved
    /// since the root.
    fn next_core() -> TenantCore {
        TenantCore {
            solved_target: 80,
            adopted_epoch: 8,
            ..core()
        }
    }

    fn next_tally() -> Tally {
        Tally {
            rental_cost: 126.75,
            resolves: 4,
            ..tally()
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

    fn outcome() -> PersistedOutcome<'static> {
        PersistedOutcome {
            target: 60,
            shares: vec![30, 30].into(),
            machines: vec![2, 1, 1].into(),
            proven_optimal: true,
            lower_bound: Some(104.0),
            nodes: Some(17),
            lp_iterations: Some(230),
            exhausted: false,
        }
    }

    fn adoption(epoch: usize) -> AdoptionRecord {
        AdoptionRecord {
            tenant: 0,
            epoch,
            target: 70,
            projected_keep: None,
            projected_switch: 99.0,
            switching_cost: 8.0,
            adopted: true,
            failure_triggered: true,
        }
    }

    /// The ledger of the fixture's one tenant holding `holding` after a peak
    /// of `peak`.
    fn ledger(holding: Vec<u64>, peak: Vec<u64>) -> PoolLedger<'static> {
        PoolLedger {
            holdings: vec![holding.clone()].into(),
            in_use: holding.into(),
            peak_in_use: peak.into(),
        }
    }

    /// [`plan`] as a link persists it.
    fn persisted(ctl: &FleetController, target: Throughput, shares: Vec<u64>) -> PersistedPlan {
        PersistedPlan {
            rho: target,
            outcome: PersistedOutcome::of(&plan(ctl, target, shares).outcome).into_owned(),
        }
    }

    /// A plan of the illustrating example at `target`, solved as `shares`.
    fn plan(ctl: &FleetController, target: Throughput, shares: Vec<u64>) -> Arc<KnownPlan> {
        let instance = illustrating_example();
        let solution = instance
            .solution(target, ThroughputSplit::new(shares))
            .unwrap();
        let cache = ctl.plan_cache(&instance, &solution).unwrap();
        let outcome = SolverOutcome {
            solution,
            proven_optimal: true,
            lower_bound: Some(104.0),
            elapsed: Duration::from_millis(2),
            nodes: Some(17),
            lp_iterations: Some(230),
            exhausted: false,
        };
        Arc::new(KnownPlan { outcome, cache })
    }

    /// A one-tenant coupled run built by hand, at epoch 7, whose links touch
    /// every field of the codec.
    fn fixture<'a>(ctl: &'a FleetController, spec: &'a TenantSpec) -> FleetRun<'a> {
        let config = CapacityConfig::unconstrained()
            .with_quotas(vec![5, 4, 3, 3])
            .with_failures(FailureModel::new(12.0, 3.0, 42));
        let env = ctl.run_env(Some(&config));
        let derived = Derived::new(&spec.instance, &env, (70, vec![0.5, 0.25, 0.25]), &[1.0; 3]);
        let plans = vec![(70, plan(ctl, 70, vec![10, 30, 30]))];
        let costs = vec![10.0, 12.5, -0.0];
        let state = TenantState::new(spec, &derived, Vec::new(), core(), tally(), costs, plans);
        let mut pool = CapacityPool::new(vec![5, 4, 3, 3], 1);
        pool.arbitrate_epoch([[3, 0, 2, 1]]);
        pool.arbitrate_epoch([[2, 0, 2, 0]]);
        let mut coupling = TenantCoupling::new(FailureTrace::empty(12.0), 4);
        coupling.fingerprint = 0xDEAD_BEEF_0123_4567;
        let coupled = CouplingState {
            pool,
            tenants: vec![coupling],
        };
        let mut run = FleetRun::new(ctl, env, None, vec![state], Some(coupled), 7);
        run.adoptions = vec![adoption(4)];
        run.stale_desired = Some(vec![vec![3, 0, 2, 1]]);
        run
    }

    fn controller() -> FleetController {
        FleetController::new(FleetPolicy::default())
    }

    fn spec() -> TenantSpec {
        TenantSpec::new(
            "fixture",
            illustrating_example(),
            WorkloadTrace::constant(70.0, 12.0),
        )
    }

    /// The fixture's root link at epoch 7 and the link at epoch 9 that
    /// extends it, after one more epoch cost, plan, adoption and
    /// arbitration, and a new core and tally.
    fn links() -> (Vec<u8>, Vec<u8>) {
        let (ctl, spec) = (controller(), spec());
        let mut run = fixture(&ctl, &spec);
        let root = encode_link(&run, 7, None);
        let written = Written::of(&run, 7);
        let state = &mut run.states[0];
        state.epoch_costs.push(3.5);
        state.plans.push((80, plan(&ctl, 80, vec![20, 30, 30])));
        state.core = next_core();
        state.tally = next_tally();
        run.adoptions.push(adoption(8));
        run.stale_desired = None;
        let coupled = run.coupled.as_mut().unwrap();
        coupled.pool.arbitrate_epoch([[1, 1, 1, 1]]);
        (root, encode_link(&run, 9, Some(&written)))
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
            Link::decode(bytes).is_ok(),
            JournalRecord::decode(bytes).is_ok(),
        )
    }

    #[test]
    fn checkpoint_round_trips_through_the_codec() {
        let ctl = controller();
        let (root, next) = links();
        let (root, next) = (Link::decode(&root).unwrap(), Link::decode(&next).unwrap());
        let first_plan = persisted(&ctl, 70, vec![10, 30, 30]);
        let learned = persisted(&ctl, 80, vec![20, 30, 30]);
        let (initial, fingerprints) = ((70, vec![0.5, 0.25, 0.25]), vec![0xDEAD_BEEF_0123_4567]);
        // The root holds the constants, the whole history so far and the
        // decision state.
        let expected_root = Link {
            epoch_next: 7,
            base: Base::Root {
                initial: vec![initial.clone()],
                fingerprints: fingerprints.clone(),
            },
            tenants: vec![TenantSnapshot {
                core: core(),
                tally: tally(),
                epoch_costs: vec![10.0, 12.5, -0.0],
                plans: vec![first_plan.clone()],
            }],
            adoptions: vec![adoption(4)],
            stale_desired: Some(vec![vec![3, 0, 2, 1]]),
            ledger: Some(ledger(vec![2, 0, 2, 0], vec![3, 0, 2, 1])),
        };
        assert_eq!(root, expected_root);
        // -0.0 must survive bit-exactly (f64s are stored as raw bits).
        assert!(root.tenants[0].epoch_costs[2].is_sign_negative());
        // The next link holds only what was appended since, and the decision
        // state.
        let next_ledger = ledger(vec![1, 1, 1, 1], vec![3, 1, 2, 1]);
        let expected_next = Link {
            epoch_next: 9,
            base: Base::After(7),
            tenants: vec![TenantSnapshot {
                core: next_core(),
                tally: next_tally(),
                epoch_costs: vec![3.5],
                plans: vec![learned.clone()],
            }],
            adoptions: vec![adoption(8)],
            stale_desired: None,
            ledger: Some(next_ledger.clone()),
        };
        assert_eq!(next, expected_next);
        // Folded, the chain is the checkpoint at its newest link.
        let expected = Checkpoint {
            epoch_next: 9,
            tenants: vec![(
                initial,
                TenantSnapshot {
                    core: next_core(),
                    tally: next_tally(),
                    epoch_costs: vec![10.0, 12.5, -0.0, 3.5],
                    plans: vec![first_plan, learned],
                },
            )],
            adoptions: vec![adoption(4), adoption(8)],
            stale_desired: None,
            ledger: Some(next_ledger),
            trace_fingerprints: fingerprints,
        };
        let checkpoint = Checkpoint::fold(vec![root, next.clone()]);
        assert_eq!(checkpoint, Some(expected));
        // A chain that does not start at a root folds to nothing.
        assert!(Checkpoint::fold(vec![next]).is_none());
    }

    /// Recovery takes the newest chain whose every link is in the store,
    /// sound, and extends the link before it; a link that breaks breaks
    /// every chain through it.
    #[test]
    fn recovery_folds_the_newest_complete_chain() {
        let (ctl, spec) = (controller(), spec());
        let run = fixture(&ctl, &spec);
        let link = |epoch, prev: Option<u64>| {
            let written = prev.map(|epoch| Written {
                epoch,
                ..Written::of(&run, 7)
            });
            encode_link(&run, epoch, written.as_ref())
        };
        let store = scratch_store("chain");
        let newest = || newest_chain(&store, store.recover().unwrap().snapshot).unwrap();
        let epochs = |checkpoint: Option<Checkpoint>| checkpoint.map(|c| c.epoch_next);
        assert_eq!(newest(), None, "an empty store");
        store.write_snapshot(7, &link(7, None)).unwrap();
        store.write_snapshot(9, &link(9, Some(7))).unwrap();
        let chain = [link(7, None), link(9, Some(7))].map(|bytes| Link::decode(&bytes).unwrap());
        assert_eq!(newest(), Checkpoint::fold(chain.to_vec()));
        // A link past a gap, a link extending it, and a link filed under
        // another epoch than its own end no chain: the older tip is taken.
        store.write_snapshot(11, &link(11, Some(6))).unwrap();
        store.write_snapshot(13, &link(13, Some(11))).unwrap();
        store.write_snapshot(15, &link(13, Some(9))).unwrap();
        assert_eq!(epochs(newest()), Some(9));
        // A sound link after them extends the complete chain.
        store.write_snapshot(17, &link(17, Some(9))).unwrap();
        assert_eq!(epochs(newest()), Some(17));
        // Without a sound root no chain is complete.
        store.write_snapshot(7, b"not a link").unwrap();
        assert_eq!(newest(), None);
        let _ = std::fs::remove_dir_all(store.dir());
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
            Link::decode(&bytes).is_err(),
            "journal magic is not a snapshot"
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
        for (magic, payload) in [(CHECKPOINT_MAGIC, links().0), (JOURNAL_MAGIC, bytes)] {
            for version in [2, 3, 4, 5] {
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
        let (root, next) = links();
        let pins = (
            FORMAT_VERSION,
            rental_persist::crc32(&root),
            rental_persist::crc32(&next),
            rental_persist::crc32(&journal_record().encode()),
        );
        let pinned = (6, 0xC673_9A6D, 0x8389_B9B2, 0x4365_8688);
        assert_eq!(pins, pinned, "a codec change needs a version bump");
    }

    #[test]
    fn every_truncation_of_a_valid_encoding_is_rejected() {
        let (root, next) = links();
        for bytes in [root, next, journal_record().encode()] {
            for len in 0..bytes.len() {
                assert_eq!(decode_both(&bytes[..len]), (false, false), "{len} bytes");
            }
        }
    }

    #[test]
    fn served_plans_are_certified_against_their_request() {
        let instance = illustrating_example();
        let solution = instance
            .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let plan = PersistedOutcome {
            target: 70,
            shares: solution.split.shares().to_vec().into(),
            machines: solution.allocation.machine_counts().to_vec().into(),
            ..outcome()
        };
        let restored = plan.restore(&instance, None).unwrap();
        assert_eq!(
            restored.elapsed,
            Duration::ZERO,
            "no solver seconds on disk"
        );
        // Caps below the plan's machines, a machine short, a wrong arity.
        let tight: Vec<u64> = plan.machines.iter().map(|&n| n.saturating_sub(1)).collect();
        assert!(plan.restore(&instance, Some(&tight)).is_none());
        let mut short = plan.clone();
        short.machines.to_mut()[0] -= 1;
        assert!(short.restore(&instance, None).is_none());
        let mut arity = plan.clone();
        arity.shares.to_mut().push(0);
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
                    plan.machines.to_mut().iter_mut().for_each(|n| *n = 0);
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
            // there: every record equals the original.
            assert_eq!(journal(&store)[..original.len()], original[..]);
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
            // Every position of the encodings, each case with its own flip.
            let (root, next) = links();
            for valid in [root, next, journal_record().encode()] {
                for index in 0..valid.len() {
                    let mut bytes = valid.clone();
                    bytes[index] ^= flip;
                    decode_both(&bytes);
                }
            }
        }
    }
}
