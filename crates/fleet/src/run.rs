//! The one fleet driver: a [`FleetRun`] owns a run's state and steps it
//! through the shared epoch clock; every public entry point — `run`,
//! `run_with_capacity`, `run_with_chaos`, `run_resumable`, `resume_from` —
//! is this loop with an optional capacity coupling, chaos clock and
//! durability hook.
//!
//! # Sharded epoch pipelines
//!
//! The per-tenant halves of each epoch — trace advancement, billing, the
//! fixed-mix baseline, shift detection and the memoized what-if probes — are
//! embarrassingly parallel, so large fleets run them as **sharded
//! pipelines** on the shared worker pool (see [`FleetPolicy::shards`]):
//! tenants partition into contiguous index-range shards, each shard advances
//! its tenants independently, and all shards meet at a single deterministic
//! **merge–arbitrate–solve barrier** per epoch where pool arbitration, the
//! batched solver fan-outs and every flight-recorder event live. Shard
//! outputs concatenate in shard order — which *is* tenant-index order — so
//! the controller's decisions, its [`FleetReport`] and its event sequence
//! are bit-identical (modulo [`FleetReport::epoch_timing`]) at every shard
//! count, including one.
//!
//! # Time
//!
//! This module owns the epoch loop's clock, and each epoch's [`TraceTree`]
//! is the one record of its time, built where the work happens. One
//! [`SpanTimer`] times each phase — the bill pass, each re-solve batch and
//! degraded fallback, each forced repair adoption, adopt — and the durable
//! hook times persist; each adds its seconds into its stage's span under
//! the epoch's root, so phases of one stage accumulate. Repair's triage
//! and the probe fan-out go under `probe`: the triage as one span, the
//! fan-out as one `shard_probe` span per shard plus its `merge_wait`, so the
//! probe stage is the fan-out's wall time, not its summed busy time. A
//! coupled bill is timed in three back-to-back laps, one clock read per
//! boundary, that partition `arbitrate`: `desired`, `grant` and
//! `violations` (the durable hook splits `persist` the same way).
//! [`FleetRun::observe`] sets the root to the epoch's wall, emits every
//! `fleet.span.*` sample from the tree, once per epoch, at the barrier, and
//! files the tree in the report. The run's time outside its epochs has a
//! tree each, timed in back-to-back laps: `init` (`peaks`, then a fresh
//! run's `requests`, `solve`, `derive`, `states` and `coupling`, a durable
//! run's `restore` and `persist`) and `finish` (`headroom`, `reports` and
//! `release`), kept in [`FleetReport::init_timing`] and
//! [`FleetReport::finish_timing`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rental_capacity::{coverage_bound, degrade_with, CapacityConfig, CappedOutcome};
use rental_core::{InstanceClasses, Solution, Throughput};
use rental_obs::trace::{BARRIER_SPAN, ROOT};
use rental_obs::{
    AlertEngine, EpochObservation, EventKind, NoopSink, SpanTimer, Stage, TelemetrySink, TraceTree,
};
use rental_pricing::RentalHorizon;
use rental_solvers::batch::{solve_warm_batch, WarmBatchItem};
use rental_solvers::solver::{CapacitySolver, SolveError, SolveResult, SweepPrior};
use rental_stream::{Autoscaler, FixedMixScaler, FixedMixState};

use crate::chaos::{ChaosClock, ChaosConfig, ChaosStats};
use crate::controller::{
    debug_certify, first_target, fits_caps, quantize_target, shifted, CouplingState, Derived,
    FleetController, FleetPolicy, KnownPlan, RunEnv, Tally, TenantCore, TenantState,
};
use crate::journal::Solves;
use crate::persist::{Durability, PersistResult, RunOutcome};
use crate::report::{AdoptionRecord, FleetReport};
use crate::tenant::TenantSpec;

/// The sink of epochs re-executed from the journal: the process that first
/// ran them already emitted their telemetry.
static REPLAY_SINK: NoopSink = NoopSink;

/// An epoch's trace tree before any of its phases ran: the root alone, at
/// zero seconds. Epochs a run did not time itself keep it.
fn untimed(epoch: usize) -> TraceTree {
    TraceTree::new(epoch as u64, "epoch")
}

/// A trace tree of the run outside its epochs, timed in back-to-back laps:
/// each lap is a child of the root, one clock read per boundary, and the
/// root is the wall from the start to the last lap, so the laps partition
/// it.
struct Laps {
    tree: TraceTree,
    start: Instant,
    lap: Instant,
}

impl Laps {
    fn start(root: &'static str) -> Self {
        let now = Instant::now();
        Laps {
            tree: TraceTree::new(0, root),
            start: now,
            lap: now,
        }
    }

    /// Ends the lap `name`, started at the previous lap's end.
    fn lap(&mut self, name: &'static str) {
        let now = Instant::now();
        self.tree.add(ROOT, name, (now - self.lap).as_secs_f64());
        self.lap = now;
    }

    fn stop(mut self) -> TraceTree {
        self.tree.set_wall((self.lap - self.start).as_secs_f64());
        self.tree
    }
}

/// One shard of a sharded pass: its first tenant's index, and its tenants'
/// states and lanes.
type Shard<'s, 'a, L> = (usize, &'s mut [TenantState<'a>], &'s mut [L]);

/// Runs `f` once per tenant, fanned out over `shards` contiguous shards of
/// the state slice on the shared worker pool, returning the results `f`
/// gives — its `Some`s — **in tenant-index order**: a pass that hands the
/// barrier nothing for most tenants returns `None` for them, and its shards
/// keep nothing. Each call of `f` also gets the tenant's entry of `lanes` —
/// per-tenant data that lives outside the tenant states, sharded alongside
/// them.
///
/// This is the deterministic backbone of the sharded epoch loop. Shards are
/// contiguous index ranges, so concatenating their outputs in shard order
/// *is* tenant-index order, and every cross-tenant effect — pool
/// arbitration, solver fan-outs, flight-recorder events — stays with the
/// caller at the barrier after this returns. With `probe` given — the probe
/// fan-out, the one whose shards the epoch's trace shows — the epoch's
/// `probe` span gets one `shard_probe` span per shard, its busy seconds, and
/// one `merge_wait`, the fan-out's wall time past the busiest shard.
/// Counters may be emitted from inside `f` (the sink's registry
/// merges its thread-local shards on snapshot); flight-recorder events must
/// not be.
///
/// One shard short-circuits to a plain sequential loop over the same
/// closure, so `FleetPolicy { shards: Some(1) }` runs the sequential
/// controller rather than an emulation of it.
fn for_each_tenant_sharded<'a, L, R, F>(
    states: &mut [TenantState<'a>],
    lanes: &mut [L],
    shards: usize,
    probe: Option<&mut TraceTree>,
    f: F,
) -> Vec<R>
where
    L: Send,
    R: Send,
    F: Fn(usize, &mut TenantState<'a>, &mut L) -> Option<R> + Sync,
{
    let len = states.len();
    assert_eq!(lanes.len(), len, "one lane per tenant");
    let shards = shards.clamp(1, len.max(1));
    let run_shard = |offset: usize, slice: &mut [TenantState<'a>], lanes: &mut [L]| {
        let busy = Instant::now();
        let out: Vec<R> = (slice.iter_mut().zip(lanes).enumerate())
            .filter_map(|(k, (state, lane))| f(offset + k, state, lane))
            .collect();
        (out, busy.elapsed().as_secs_f64())
    };
    let fan_out = Instant::now();
    let shard_results = if shards <= 1 {
        vec![run_shard(0, states, lanes)]
    } else {
        let chunk = len.div_ceil(shards);
        // Hand each worker exclusive `&mut` access to its own contiguous
        // shard: the slices split up front, and the per-shard mutex lets the
        // `Fn + Sync` closure below reclaim mutable access from a shared
        // reference. Each mutex is locked exactly once, by the worker that
        // drew its index.
        let shard_slices: Vec<Mutex<Shard<'_, 'a, L>>> = states
            .chunks_mut(chunk)
            .zip(lanes.chunks_mut(chunk))
            .enumerate()
            .map(|(s, (slice, lanes))| Mutex::new((s * chunk, slice, lanes)))
            .collect();
        rayon::parallel_map_indexed(shard_slices.len(), Some(shards), |s| {
            let mut guard = shard_slices[s].lock().expect("shard slice poisoned");
            let (offset, slice, lanes) = &mut *guard;
            run_shard(*offset, slice, lanes)
        })
    };
    let wall = fan_out.elapsed().as_secs_f64();
    if let Some(tree) = probe {
        let stage = tree.add(ROOT, Stage::Probe.name(), 0.0);
        let mut busiest = 0.0f64;
        for &(_, busy) in &shard_results {
            tree.push(stage, "shard_probe", busy);
            busiest = busiest.max(busy);
        }
        tree.add(stage, BARRIER_SPAN, (wall - busiest).max(0.0));
    }
    let len = shard_results.iter().map(|(out, _)| out.len()).sum();
    concat(shard_results.into_iter().map(|(out, _)| out), len)
}

/// The `len` items of `parts`, concatenated in order. The first part's
/// buffer grows to hold the rest, so only the later parts are copied.
fn concat<R>(parts: impl IntoIterator<Item = Vec<R>>, len: usize) -> Vec<R> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().unwrap_or_default();
    merged.reserve_exact(len - merged.len());
    for part in parts {
        merged.extend(part);
    }
    merged
}

/// The lanes of a sharded pass that needs none: one unit per tenant, which
/// occupies no memory.
fn no_lanes(len: usize) -> Vec<()> {
    vec![(); len]
}

/// Every tenant's epoch peaks, computed once per run into one buffer that
/// the tenant states borrow: tenant `i`'s are `flat[bounds[i]..bounds[i + 1]]`.
pub(crate) struct Peaks {
    flat: Vec<f64>,
    bounds: Vec<usize>,
}

impl Peaks {
    /// The epoch peaks of `tenants` under epochs of `epoch` hours: each
    /// tenant's epoch count, then one buffer of exactly their sum, which
    /// `shards` contiguous shards fill in place on the shared worker pool.
    pub(crate) fn of(tenants: &[TenantSpec], epoch: f64, shards: usize) -> Self {
        let len = tenants.len();
        let counts = rayon::parallel_map_chunks_mut(&mut no_lanes(len), shards, |i, _| {
            tenants[i].trace.epoch_count(epoch)
        });
        let mut bounds = Vec::with_capacity(len + 1);
        bounds.push(0);
        for count in counts {
            bounds.push(bounds[bounds.len() - 1] + count);
        }
        let mut flat = vec![0.0; bounds[len]];
        let mut rest = flat.as_mut_slice();
        let mut slices = Vec::with_capacity(len);
        for pair in bounds.windows(2) {
            let (peaks, tail) = rest.split_at_mut(pair[1] - pair[0]);
            slices.push(peaks);
            rest = tail;
        }
        rayon::parallel_map_chunks_mut(&mut slices, shards, |i, peaks| {
            tenants[i].trace.fill_epoch_peaks(epoch, peaks);
        });
        Peaks { flat, bounds }
    }

    /// Tenant `i`'s epoch peaks.
    pub(crate) fn tenant(&self, i: usize) -> &[f64] {
        &self.flat[self.bounds[i]..self.bounds[i + 1]]
    }
}

/// The tenants of each request, in tenant order, by a counting sort:
/// request `r`'s are `members[starts[r]..starts[r + 1]]`.
fn group_by_request(request_of: &[usize], requests: usize) -> (Vec<usize>, Vec<usize>) {
    let mut starts = vec![0; requests + 1];
    for &r in request_of {
        starts[r + 1] += 1;
    }
    for r in 0..requests {
        starts[r + 1] += starts[r];
    }
    let mut next = starts.clone();
    let mut members = vec![0; request_of.len()];
    for (i, &r) in request_of.iter().enumerate() {
        members[next[r]] = i;
        next[r] += 1;
    }
    (starts, members)
}

/// One tenant due for a keep-vs-switch decision this epoch, as produced by
/// the sharded probe pass. `keep: None` marks a forced re-solve (the
/// current mix cannot carry the demand); `caps` carries the tenant's pool
/// caps when a finite quota constrains what it may adopt.
pub(crate) struct DueTenant {
    tenant: usize,
    rho: Throughput,
    keep: Option<f64>,
    remaining_hours: f64,
    caps: Option<Vec<u64>>,
}

/// A violated epoch warranting a capacity-constrained re-solve: the tenant,
/// its quantized target and its effective caps.
type Repair = (usize, Throughput, Vec<u64>);

/// One fleet run in progress: the per-tenant states and everything
/// cross-tenant — the capacity coupling, the adoption ledger, the stale
/// desired fleets a chaos clock replays, the alert engine and the per-epoch
/// trace trees. [`FleetRun::step`] advances it one epoch, phase by phase.
pub(crate) struct FleetRun<'a> {
    pub(crate) ctl: &'a FleetController,
    pub(crate) env: RunEnv,
    pub(crate) chaos: Option<&'a ChaosClock<'a>>,
    pub(crate) states: Vec<TenantState<'a>>,
    pub(crate) coupled: Option<CouplingState>,
    pub(crate) adoptions: Vec<AdoptionRecord>,
    /// The previous epoch's desired fleets, kept only under chaos so the
    /// clock can replay them as a delayed arbitration decision (the
    /// chaos-free path never populates it).
    pub(crate) stale_desired: Option<Vec<Vec<u64>>>,
    /// The first epoch still to execute.
    pub(crate) next_epoch: usize,
    num_epochs: usize,
    /// The newest snapshot's epoch, for durable runs (feeds the
    /// checkpoint-lag alert rule).
    pub(crate) checkpoint_epoch: Option<usize>,
    alerts: Option<AlertEngine>,
    /// The run's start, timed by [`FleetController::drive`].
    init_timing: TraceTree,
    epoch_timing: Vec<TraceTree>,
    /// The trace tree of the epoch in progress.
    pub(crate) tree: TraceTree,
    /// Where the re-solves' outcomes come from: the solver, or the journal
    /// being replayed.
    pub(crate) solves: Solves,
}

impl<'a> FleetRun<'a> {
    /// A run positioned at `next_epoch`. The epochs before it were run by
    /// an earlier (killed) process: the tenants' fixed-mix baselines —
    /// derived state — are replayed through them, and their trace trees
    /// restore untimed (timing is the masked field family, so a resumed
    /// report still matches the uninterrupted one). The alert engine always
    /// starts empty — alert state is operational, not part of the certified
    /// plan.
    pub(crate) fn new(
        ctl: &'a FleetController,
        env: RunEnv,
        chaos: Option<&'a ChaosClock<'a>>,
        mut states: Vec<TenantState<'a>>,
        coupled: Option<CouplingState>,
        next_epoch: usize,
    ) -> Self {
        for state in &mut states {
            for &rate in state.peaks.iter().take(next_epoch) {
                let scaler = &state.derived.baseline;
                state.baselines.advance(scaler, rate, &env.baseline_scaling);
            }
        }
        FleetRun {
            ctl,
            env,
            chaos,
            num_epochs: states.iter().map(|s| s.peaks.len()).max().unwrap_or(0),
            states,
            coupled,
            adoptions: Vec::new(),
            stale_desired: None,
            next_epoch,
            checkpoint_epoch: None,
            alerts: ctl.alerts.clone().map(AlertEngine::new),
            init_timing: TraceTree::new(0, "init"),
            epoch_timing: (0..next_epoch).map(untimed).collect(),
            tree: untimed(next_epoch),
            solves: Solves::Live,
        }
    }

    /// A fresh run: one batched cold solve per distinct initial request
    /// (instance and target; tenants asking the same share its outcome),
    /// then the coupling state. Initial solves are never budgeted. Each
    /// phase is a lap of `laps`.
    ///
    /// What the tenants of one request have in common is derived once per
    /// request and shared: the plan and its horizon cache, its warm-start
    /// prior, the recipe mix, the scalers' rates, the instance's constants
    /// and — for a request of two or more tenants — the plan's probe table.
    /// The states borrow their epoch `peaks` and are built in one sharded
    /// pass, in tenant order.
    fn start<S: CapacitySolver + Sync>(
        ctl: &'a FleetController,
        solver: &S,
        tenants: &'a [TenantSpec],
        peaks: &'a Peaks,
        config: Option<&CapacityConfig>,
        chaos: Option<&'a ChaosClock<'a>>,
        laps: &mut Laps,
    ) -> SolveResult<Self> {
        let env = ctl.run_env(config);
        let policy = &ctl.policy;
        // Requests by value: tenants of equal instances (shared storage or
        // not) and equal targets ask the same.
        let mut classes = InstanceClasses::new();
        let mut granularity = Vec::new();
        let mut numbers = HashMap::new();
        let mut targets = Vec::new();
        let request_of: Vec<usize> = (tenants.iter().enumerate())
            .map(|(i, t)| {
                let class = classes.class_of(&t.instance);
                if class == granularity.len() {
                    granularity.push(t.instance.throughput_granularity());
                }
                let rho = first_target(peaks.tenant(i), env.serve_headroom, granularity[class]);
                *numbers.entry((class, rho)).or_insert_with(|| {
                    targets.push(rho);
                    targets.len() - 1
                })
            })
            .collect();
        // Each request's tenants, the first one first: the tenants of a
        // request that may probe share its probe table.
        let (starts, members) = group_by_request(&request_of, targets.len());
        let sharers = |r: usize| &members[starts[r]..starts[r + 1]];
        laps.lap("requests");
        let items: Vec<WarmBatchItem<'_>> = (targets.iter().enumerate())
            .map(|(r, &rho)| WarmBatchItem::new(&tenants[sharers(r)[0]].instance, rho, None))
            .collect();
        let results = solve_warm_batch(solver, &items, None, policy.threads);
        laps.lap("solve");
        let shared = rayon::parallel_map_indexed(targets.len(), policy.threads, |r| {
            let (rho, sharers) = (targets[r], sharers(r));
            let instance = &tenants[sharers[0]].instance;
            let outcome = results[r].clone()?;
            debug_certify(instance, &outcome.solution, None);
            let fractions = Autoscaler::split_fractions(&outcome.solution);
            let mut derived = Derived::new(instance, &env, (rho, fractions));
            let scaler = FixedMixScaler::new(instance, &derived.initial_fractions, &env.scaling);
            if policy.resolve && sharers.len() > 1 {
                let peaks = sharers.iter().map(|&k| peaks.tenant(k));
                derived.build_probe_table(instance, &scaler, peaks, &env, policy);
            }
            let prior = Arc::new(SweepPrior::from_outcome(rho, &outcome));
            let cache = ctl.plan_cache(instance, &outcome.solution)?;
            let plan = Arc::new(KnownPlan { outcome, cache });
            derived.initial_plan = Some((rho, Arc::clone(&plan)));
            SolveResult::Ok((Arc::new(derived), scaler, plan, prior))
        });
        // The first tenant, in tenant order, whose request failed fails the
        // run.
        if let Some(err) = request_of.iter().find_map(|&r| shared[r].as_ref().err()) {
            return Err(err.clone());
        }
        let shared: Vec<_> = shared.into_iter().flatten().collect();
        laps.lap("derive");
        let shards = policy.shard_count(tenants.len());
        // The sharded pass of a run's start, where the states do not exist
        // yet: each shard builds its tenants' states in place.
        let states =
            rayon::parallel_map_chunks_mut(&mut no_lanes(tenants.len()), shards, |i, _| {
                let (derived, scaler, plan, prior) = &shared[request_of[i]];
                let (spec, rho, peaks) = (&tenants[i], derived.initial_target, peaks.tenant(i));
                let core = TenantCore {
                    fractions: Arc::clone(&derived.initial_fractions),
                    mix: FixedMixState::new(spec.instance.num_types()),
                    solved_target: rho,
                    adopted_epoch: 0,
                    prior: Some(Arc::clone(prior)),
                    last_failure_solve: None,
                    deferred_until: 0,
                    backoff: 0,
                };
                let mut tally = Tally::default();
                tally.effort.record(&plan.outcome);
                let costs = Vec::with_capacity(peaks.len());
                let (derived, scaler) = (Arc::clone(derived), scaler.clone());
                TenantState::new(spec, derived, scaler, peaks, core, tally, costs, Vec::new())
            });
        laps.lap("states");
        let coupled = ctl.init_coupling(tenants, config, &env);
        laps.lap("coupling");
        Ok(FleetRun::new(ctl, env, chaos, states, coupled, 0))
    }

    fn policy(&self) -> &'a FleetPolicy {
        &self.ctl.policy
    }

    fn sink(&self) -> &'a dyn TelemetrySink {
        if self.solves.replaying() {
            &REPLAY_SINK
        } else {
            self.ctl.telemetry.as_ref()
        }
    }

    /// One tick of the shared epoch clock: rent (and, when coupled,
    /// arbitrate and detect violations), repair failures, probe shifts,
    /// batch the re-solves and take the keep-vs-switch decisions.
    pub(crate) fn step<S: CapacitySolver + Sync>(
        &mut self,
        solver: &S,
        epoch: usize,
    ) -> SolveResult<()> {
        self.sink().counter("fleet.epochs", 1);
        let repairs = self.bill(epoch);
        self.repair(solver, epoch, repairs)?;
        if self.policy().resolve {
            let due = self.probe(epoch);
            self.resolve(solver, epoch, &due)?;
            self.adopt(epoch, due);
        }
        Ok(())
    }

    /// Phase 1 — rent this epoch's fleets under the current mixes and
    /// advance the fixed-mix baseline. A tenant whose own trace has ended
    /// stops being billed (and counted) — its per-tenant baselines only
    /// cover its own trace, too.
    ///
    /// Coupled runs route the renting through the pool's arbitration
    /// (desired fleets plus outage replacements, granted against the
    /// quotas) and detect throughput-violated epochs, returning the tenants
    /// whose violation warrants a capacity-constrained re-solve. The
    /// per-tenant halves run as sharded passes around the arbitration
    /// barrier — the pool itself mutates only at the barrier, and events
    /// fire only there.
    fn bill(&mut self, epoch: usize) -> Vec<Repair> {
        let (policy, sink) = (self.policy(), self.sink());
        let shards = policy.shard_count(self.states.len());
        let mut span = SpanTimer::start(Stage::Arbitrate);
        let FleetRun {
            env,
            chaos,
            states,
            coupled,
            stale_desired,
            tree,
            ..
        } = self;
        let env = &*env;
        let patience = policy.scale_down_patience;
        let mut repairs = Vec::new();
        let Some(CouplingState { pool, tenants }) = coupled else {
            let mut lanes = no_lanes(states.len());
            for_each_tenant_sharded(states, &mut lanes, shards, None, |_, state, _| {
                let &rate = state.peaks.get(epoch)?;
                let fleet = state.core.mix.step(&state.scaler, rate, patience);
                let cost = state.scaler.cost_rate(fleet) * policy.epoch;
                state.rent(cost);
                let scaler = &state.derived.baseline;
                state.baselines.advance(scaler, rate, &env.baseline_scaling);
                None::<()>
            });
            span.stop_into(tree);
            return repairs;
        };
        // The coupled bill runs in three back-to-back parts, each a child
        // of the stage's span: the desired fleets, the grants and the
        // violations.
        let window_start = epoch as f64 * policy.epoch;
        let window_end = window_start + policy.epoch;
        // Desired fleets: the mix's scale-up/down plus one replacement per
        // machine known down at the window start (the "repair" half of
        // fleet-with-repair), written into each tenant's buffer. Ended
        // tenants release their holdings.
        for_each_tenant_sharded(states, tenants, shards, None, |_, state, coupling| {
            let Some(&rate) = state.peaks.get(epoch) else {
                coupling.desired.fill(0);
                return None::<()>;
            };
            let fleet = state.core.mix.step(&state.scaler, rate, patience);
            coupling.desired.copy_from_slice(fleet);
            if env.failures_enabled {
                for q in 0..coupling.desired.len() {
                    let count = coupling.desired[q];
                    coupling.desired[q] += coupling.down_at(q, count, window_start);
                }
            }
            None
        });
        span.lap_into(tree, "desired");
        // Under chaos, a delayed decision re-arbitrates on the previous
        // epoch's desired fleets — tenants then serve the epoch on stale
        // grants.
        let delayed = chaos.is_some_and(|clock| clock.delays_epoch(epoch));
        if delayed {
            sink.event(
                EventKind::ChaosFault,
                epoch,
                None,
                0.0,
                "delayed arbitration: serving on stale grants",
            );
        }
        match stale_desired.as_ref().filter(|_| delayed) {
            Some(stale) => pool.arbitrate_epoch(stale),
            None => pool.arbitrate_epoch(tenants.iter().map(|t| &t.desired)),
        };
        if chaos.is_some() {
            let stale = stale_desired.get_or_insert_with(Vec::new);
            stale.resize_with(tenants.len(), Vec::new);
            for (fleet, coupling) in stale.iter_mut().zip(tenants.iter()) {
                fleet.clone_from(&coupling.desired);
            }
        }
        if sink.enabled() && !pool.is_unlimited() {
            let peak = (pool.utilization().iter()).fold(0.0, |a: f64, &u| a.max(u));
            sink.gauge("fleet.pool.peak_utilization", peak);
        }
        span.lap_into(tree, "grant");
        let pool = &*pool;
        // A violated epoch: the tenant, the rate for the barrier's
        // SloViolation event, plus the repair a re-solve should attempt, if
        // any.
        let violations: Vec<(usize, f64, Option<Repair>)> =
            for_each_tenant_sharded(states, tenants, shards, None, |i, state, coupling| {
                let &rate = state.peaks.get(epoch)?;
                let granted = pool.holdings(i);
                state.rent(state.scaler.cost_rate(granted) * policy.epoch);
                let scaler = &state.derived.baseline;
                state.baselines.advance(scaler, rate, &env.baseline_scaling);
                // Surviving capacity: the granted machines minus the worst
                // simultaneous outage among them this epoch.
                let available = coupling.surviving(granted, window_start, window_end);
                if !state.scaler.violates(rate, available) {
                    // A healthy epoch closes the outage episode; the next
                    // violation is a new situation to solve.
                    state.core.last_failure_solve = None;
                    return None;
                }
                state.tally.slo_violations += 1;
                sink.counter("fleet.slo_violations", 1);
                let rho = quantize_target(rate, env.serve_headroom, state.derived.granularity);
                if !policy.resolve || rho == 0 {
                    return Some((i, rate, None));
                }
                // A deferred tenant keeps its current plan until its backoff
                // window ends; the violation is still counted above.
                if epoch < state.core.deferred_until {
                    state.tally.deferred_resolves += 1;
                    return Some((i, rate, None));
                }
                // Effective caps for the re-solve: holdings plus residual
                // quota, minus machines still down at the epoch's end (lost
                // capacity for the outage's duration).
                for (q, &held) in granted.iter().enumerate() {
                    let cap = pool.cap(i, q);
                    coupling.caps[q] = if cap == rental_capacity::UNLIMITED_CAP {
                        cap
                    } else {
                        cap.saturating_sub(coupling.down_at(q, held, window_end))
                    };
                }
                // Re-solving an unchanged outage situation cannot produce a
                // new answer; only count the violation.
                let unchanged = matches!(
                    &state.core.last_failure_solve,
                    Some((r, c)) if *r == rho && *c == coupling.caps
                );
                Some((
                    i,
                    rate,
                    (!unchanged).then(|| (i, rho, coupling.caps.clone())),
                ))
            });
        // Barrier: flight-recorder events fire here, in tenant-index order,
        // never from shard workers.
        for (i, rate, repair) in violations {
            if sink.enabled() {
                sink.event(
                    EventKind::SloViolation,
                    epoch,
                    Some(i),
                    rate,
                    "surviving capacity below demand",
                );
            }
            repairs.extend(repair);
        }
        span.lap_into(tree, "violations");
        repairs
    }

    /// Phase 2 — failure re-solves: probe (fractional coverage bound)
    /// first, then one batched capacity-constrained fan-out, then the
    /// degraded-mode fallback for what the quota cannot carry.
    fn repair<S: CapacitySolver + Sync>(
        &mut self,
        solver: &S,
        epoch: usize,
        repairs: Vec<Repair>,
    ) -> SolveResult<()> {
        if repairs.is_empty() {
            return Ok(());
        }
        let (policy, sink) = (self.policy(), self.sink());
        let mut full = Vec::new();
        let mut needs_degrade = Vec::new();
        let mut fitting = Vec::new();
        // Triage — the futility check, then the coverage probe — is the
        // repair's part of the probe stage; the adoptions it finds run after
        // it.
        let triage = SpanTimer::start(Stage::Probe);
        for (i, rho, caps) in repairs {
            let state = &mut self.states[i];
            if state.peaks.len() <= epoch + 1 {
                // Last billed epoch: no remaining horizon to serve.
                state.core.last_failure_solve = Some((rho, caps));
                continue;
            }
            // Futility check: when the best-known plan at ρ' already fits
            // the caps, a capped re-solve cannot beat it. If it is the very
            // plan being run, the violation is a transient outage the
            // replacement renting already handles; otherwise adopt it
            // without re-solving.
            let fitting_known = state.known(rho).and_then(|kp| {
                fits_caps(kp.outcome.solution.allocation.machine_counts(), &caps)
                    .then(|| kp.outcome.solution.clone())
            });
            if let Some(solution) = fitting_known {
                if state.core.solved_target != rho {
                    fitting.push((i, rho, solution));
                }
                state.core.last_failure_solve = Some((rho, caps));
                continue;
            }
            state.tally.probes += 1;
            if coverage_bound(&state.spec.instance, &caps)? >= rho as f64 - 1e-9 {
                full.push((i, rho, caps));
            } else {
                needs_degrade.push((i, rho, caps));
            }
        }
        let seconds = triage.stop();
        let probe = self.tree.add(ROOT, Stage::Probe.name(), 0.0);
        self.tree.add(probe, "triage", seconds);
        for (i, rho, solution) in fitting {
            self.adopt_repair(i, epoch, rho, solution)?;
        }
        let budget = policy.epoch_budget.map(|b| b.split(full.len().max(1)));
        let requests: Vec<(usize, WarmBatchItem<'_>)> = (full.iter())
            .map(|(i, rho, caps)| (*i, self.states[*i].item(*rho, Some(caps))))
            .collect();
        let batch = SpanTimer::start(Stage::Solve);
        let results = self.solves.batch(
            solver,
            self.chaos,
            epoch,
            &requests,
            budget.as_ref(),
            policy.threads,
        );
        batch.stop_into(&mut self.tree);
        for ((i, rho, caps), result) in full.into_iter().zip(results) {
            let state = &mut self.states[i];
            match result {
                Ok(outcome) => {
                    state.tally.failure_resolves += 1;
                    state.core.last_failure_solve = Some((rho, caps));
                    state.solved(&outcome, true);
                    self.adopt_repair(i, epoch, rho, outcome.solution)?;
                }
                // The fractional bound over-estimated what integer machine
                // counts can do; degrade.
                Err(SolveError::NoSolutionFound { .. }) => needs_degrade.push((i, rho, caps)),
                // Exhausted with no incumbent: inconclusive. Keep the
                // current plan, skip the episode memo (a retry with more
                // budget can succeed) and re-queue with backoff.
                Err(err) => state.defer(err, epoch)?,
            }
        }
        for (i, rho, caps) in needs_degrade {
            // Not `solve_or_degrade`: every tenant routed here either already
            // failed the batched full-target solve or was proven infeasible
            // by the coverage probe, so the full-target attempt would be a
            // guaranteed duplicate of the most expensive MILP in the path.
            let fallback = SpanTimer::start(Stage::Solve);
            let (state, solves, chaos) = (&self.states[i], &mut self.solves, self.chaos);
            let result = degrade_with(&state.spec.instance, rho, &caps, |target| {
                let request = (i, state.item(target, Some(&caps)));
                let mut results =
                    solves.batch(solver, chaos, epoch, &[request], None, policy.threads);
                results.pop().expect("one result per request")
            });
            fallback.stop_into(&mut self.tree);
            let state = &mut self.states[i];
            state.tally.failure_resolves += 1;
            state.core.last_failure_solve = Some((rho, caps));
            match result {
                Ok(CappedOutcome::Full(outcome)) => {
                    state.solved(&outcome, true);
                    self.adopt_repair(i, epoch, rho, outcome.solution)?;
                }
                Ok(CappedOutcome::Degraded { target, outcome }) => {
                    state.solved(&outcome, true);
                    state.tally.degraded_resolves += 1;
                    sink.counter("fleet.degraded_resolves", 1);
                    if sink.enabled() {
                        sink.event(
                            EventKind::DegradedSolve,
                            epoch,
                            Some(i),
                            target as f64,
                            "quota-infeasible target degraded to largest feasible",
                        );
                    }
                    self.adopt_repair(i, epoch, target, outcome.solution)?;
                }
                // Nothing rentable at all: keep the current fleet and keep
                // counting the violations.
                Ok(CappedOutcome::Unserved) => {}
                // Even the degraded fallback came up empty (budget or an
                // injected fault): keep the current plan, forget the episode
                // memo and re-queue with backoff.
                Err(err) => {
                    state.tally.failure_resolves -= 1;
                    state.core.last_failure_solve = None;
                    state.defer(err, epoch)?;
                }
            }
        }
        Ok(())
    }

    /// Adopts a failure re-solve's plan: forced (the demand is unserved, so
    /// there is no keep option and no hysteresis), the switching cost is
    /// still paid, and the adoption is recorded with its outage-derated
    /// remaining-horizon projection.
    fn adopt_repair(
        &mut self,
        tenant: usize,
        epoch: usize,
        target: Throughput,
        solution: Solution,
    ) -> SolveResult<()> {
        let (ctl, sink) = (self.ctl, self.sink());
        let span = SpanTimer::start(Stage::Adopt);
        let state = &mut self.states[tenant];
        let remaining_hours = state.peaks.len().saturating_sub(epoch + 1) as f64 * ctl.policy.epoch;
        let charge = ctl.policy.switching_cost;
        debug_certify(&state.spec.instance, &solution, None);
        let projected_switch = ctl
            .plan_cache(&state.spec.instance, &solution)?
            .expected_total_over(
                RentalHorizon::hours(0.0),
                RentalHorizon::hours(remaining_hours),
                self.env.availability,
            );
        self.adoptions.push(AdoptionRecord {
            tenant,
            epoch,
            target,
            projected_keep: None,
            projected_switch,
            switching_cost: charge,
            adopted: true,
            failure_triggered: true,
        });
        sink.counter("fleet.adoptions", 1);
        sink.event(
            EventKind::Adoption,
            epoch,
            Some(tenant),
            projected_switch,
            "forced failure-triggered adoption",
        );
        state.switch_to(&solution, target, charge, epoch, &self.env.scaling);
        span.stop_into(&mut self.tree);
        Ok(())
    }

    /// Phase 3 — shift detection and what-if probes, the sharded half of
    /// the epoch. Each shard advances its own tenants and builds their due
    /// entries; the entries concatenate in tenant-index order at the
    /// barrier.
    fn probe(&mut self, epoch: usize) -> Vec<DueTenant> {
        let ctl = self.ctl;
        let policy = &ctl.policy;
        let shards = policy.shard_count(self.states.len());
        // Pool-aware shift re-solves: under a finite quota the ordinary
        // keep-vs-switch path sees the same holdings-plus-residual caps the
        // failure path uses, so it can never adopt a plan the pool must
        // refuse at the next arbitration. An unlimited pool imposes
        // nothing, keeping `run_with_capacity` with
        // [`CapacityConfig::unconstrained`] bit-identical to `run`.
        let pool = self
            .coupled
            .as_ref()
            .map(|cs| &cs.pool)
            .filter(|pool| !pool.is_unlimited());
        let serve_headroom = self.env.serve_headroom;
        let tree = Some(&mut self.tree);
        let mut lanes = no_lanes(self.states.len());
        for_each_tenant_sharded(&mut self.states, &mut lanes, shards, tree, |i, state, _| {
            let rate = state.peaks.get(epoch).copied().unwrap_or(0.0);
            let rho = quantize_target(rate, serve_headroom, state.derived.granularity);
            // Each tenant projects over *its own* remaining trace —
            // savings past a tenant's last billed epoch do not exist, so
            // they must not tip a switching decision.
            let remaining_hours = state.peaks.len().saturating_sub(epoch + 1) as f64 * policy.epoch;
            if remaining_hours <= 0.0 {
                // Past its last decision epoch a tenant never probes
                // again: free its memo here, inside the sharded pass.
                state.probe_cache = Vec::new();
                return None;
            }
            if rho == 0 {
                return None;
            }
            // A deferred tenant sits out its backoff window: it keeps
            // its current plan, and the suppressed re-solve is counted.
            if epoch < state.core.deferred_until {
                state.tally.deferred_resolves += 1;
                return None;
            }
            let due = |keep| DueTenant {
                tenant: i,
                rho,
                keep,
                remaining_hours,
                caps: pool.map(|pool| pool.caps_for(i)),
            };
            if !state.mix_carries_demand() {
                // A zero mix cannot carry any demand: re-solving is not
                // optional, no probe needed.
                return Some(due(None));
            }
            if !shifted(rho, state.core.solved_target, policy.shift_threshold) {
                return None;
            }
            state.tally.probes += 1;
            // Keep-side projection: continued machines bill only the
            // margin past the current plan's elapsed rental time
            // (committed terms already paid are sunk), scale-up machines
            // bill fresh.
            let elapsed_hours = (epoch + 1 - state.core.adopted_epoch) as f64 * policy.epoch;
            let entry = state.probe_entry(rho);
            let keep_projected = entry.continued.total_over(
                RentalHorizon::hours(elapsed_hours),
                RentalHorizon::hours(elapsed_hours + remaining_hours),
            ) + entry.fresh.total(RentalHorizon::hours(remaining_hours));
            let reference_rate = state
                .known(rho)
                .map_or(rho as f64 * state.derived.min_unit_cost, |k| {
                    k.outcome.cost() as f64
                });
            let reference_projected = reference_rate * remaining_hours;
            let worth_probing = keep_projected > (1.0 + policy.probe_epsilon) * reference_projected
                && keep_projected - reference_projected > policy.switching_cost;
            worth_probing.then(|| due(Some(keep_projected)))
        })
    }

    /// Phase 4 — the solve barrier: one batched warm-started fan-out for
    /// every due tenant without a usable plan at its target — never solved,
    /// or (under a finite pool) solved only beyond its caps. One epoch budget
    /// splits across the batch. A capped optimum's lower bound is *not*
    /// adopted as a warm-start prior (a cap-constrained bound is no floor for
    /// later uncapped targets), and a failed solve defers the tenant — the
    /// failure path owns degraded serving, not the shift path.
    fn resolve<S: CapacitySolver + Sync>(
        &mut self,
        solver: &S,
        epoch: usize,
        due: &[DueTenant],
    ) -> SolveResult<()> {
        let (ctl, sink) = (self.ctl, self.sink());
        let policy = &ctl.policy;
        let pending: Vec<&DueTenant> = due
            .iter()
            .filter(|d| {
                let known = self.states[d.tenant].known(d.rho);
                match &d.caps {
                    None => known.is_none(),
                    Some(caps) => !known.is_some_and(|kp| {
                        fits_caps(kp.outcome.solution.allocation.machine_counts(), caps)
                    }),
                }
            })
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let budget = policy.epoch_budget.map(|b| b.split(pending.len()));
        let requests: Vec<(usize, WarmBatchItem<'_>)> = (pending.iter())
            .map(|d| {
                (
                    d.tenant,
                    self.states[d.tenant].item(d.rho, d.caps.as_deref()),
                )
            })
            .collect();
        let batch = SpanTimer::start(Stage::Solve);
        let results = self.solves.batch(
            solver,
            self.chaos,
            epoch,
            &requests,
            budget.as_ref(),
            policy.threads,
        );
        batch.stop_into(&mut self.tree);
        for (d, result) in pending.into_iter().zip(results) {
            let state = &mut self.states[d.tenant];
            match result {
                Ok(outcome) => {
                    state.solved(&outcome, false);
                    state.tally.resolves += 1;
                    sink.counter("fleet.resolves", 1);
                    if d.caps.is_none() {
                        let prior = SweepPrior::from_outcome(d.rho, &outcome);
                        state.core.prior = Some(Arc::new(prior));
                    }
                    debug_certify(&state.spec.instance, &outcome.solution, d.caps.as_deref());
                    let cache = ctl.plan_cache(&state.spec.instance, &outcome.solution)?;
                    state.learn(d.rho, KnownPlan { outcome, cache });
                }
                // No usable plan came back (exhausted with no incumbent, an
                // infeasible quota, or an injected fault): keep the current
                // plan and re-queue with backoff — deferred, not dropped.
                Err(err) => state.defer(err, epoch)?,
            }
        }
        Ok(())
    }

    /// Phase 5 — keep-vs-switch decisions under the switching-cost
    /// hysteresis, one per due tenant: the candidate's projection plus the
    /// switching cost must beat keeping the current mix rescaled to ρ'.
    fn adopt(&mut self, epoch: usize, due: Vec<DueTenant>) {
        let (policy, sink) = (self.policy(), self.sink());
        let span = SpanTimer::start(Stage::Adopt);
        for d in due {
            let state = &mut self.states[d.tenant];
            // A deferred re-solve left no plan at ρ': the tenant keeps its
            // current plan; the backoff schedule re-queues it.
            let Some(known) = state.known(d.rho) else {
                continue;
            };
            let counts = known.outcome.solution.allocation.machine_counts();
            // Under a finite pool a candidate exceeding the tenant's caps is
            // not adoptable — the capped re-solve above either replaced it
            // or deferred the tenant — so it is skipped like a deferral.
            if d.caps.as_ref().is_some_and(|caps| !fits_caps(counts, caps)) {
                continue;
            }
            let switch_projected = known.cache.total(RentalHorizon::hours(d.remaining_hours));
            let charge = policy.switching_cost;
            // A forced switch (no keep option) bypasses the hysteresis: the
            // demand must be served.
            let adopted = d.keep.is_none_or(|keep| switch_projected + charge < keep);
            self.adoptions.push(AdoptionRecord {
                tenant: d.tenant,
                epoch,
                target: d.rho,
                projected_keep: d.keep,
                projected_switch: switch_projected,
                switching_cost: charge,
                adopted,
                failure_triggered: false,
            });
            if adopted {
                let (candidate, exhausted) =
                    (known.outcome.solution.clone(), known.outcome.exhausted);
                debug_certify(&state.spec.instance, &candidate, None);
                sink.counter("fleet.adoptions", 1);
                sink.event(
                    EventKind::Adoption,
                    epoch,
                    Some(d.tenant),
                    switch_projected,
                    "workload-shift adoption",
                );
                if exhausted {
                    // An anytime incumbent (feasible, not proven optimal)
                    // is adopted like any plan.
                    state.tally.incumbent_adoptions += 1;
                }
                state.switch_to(&candidate, d.rho, charge, epoch, &self.env.scaling);
            }
        }
        span.stop_into(&mut self.tree);
    }

    /// The per-epoch observability barrier, after the epoch (and its
    /// persistence) completed: publishes the epoch watermark, closes the
    /// epoch's trace tree at its wall time, emits the epoch's `fleet.span.*`
    /// samples from it — one per stage, one per probe shard and the probe
    /// fan-out's barrier wait — evaluates the alert rules and files the tree.
    /// Everything here is pure copy-out — no controller state is read back —
    /// so runs stay bit-identical under any sink.
    pub(crate) fn observe(&mut self, epoch: usize, wall_seconds: f64) {
        let sink = self.sink();
        sink.gauge("fleet.epoch_watermark", epoch as f64);
        let mut tree = std::mem::replace(&mut self.tree, untimed(epoch + 1));
        tree.set_wall(wall_seconds);
        for stage in Stage::ALL {
            sink.span(stage.span_name(), tree.seconds(stage.name()));
        }
        let named = |name| (tree.spans.iter()).filter(move |s| s.name == name);
        for shard in named("shard_probe") {
            sink.span("fleet.span.shard_probe", shard.seconds);
        }
        sink.span(
            "fleet.span.merge_wait",
            named(BARRIER_SPAN).map(|s| s.seconds).sum(),
        );
        if let Some(engine) = &mut self.alerts {
            let total = |count: fn(&Tally) -> usize| {
                self.states.iter().map(|s| count(&s.tally) as u64).sum()
            };
            let observation = EpochObservation {
                epoch,
                active_tenants: self.states.iter().filter(|s| s.peaks.len() > epoch).count(),
                slo_violations: total(|t| t.slo_violations),
                degraded_resolves: total(|t| t.degraded_resolves),
                budget_exhausted: total(|t| t.budget_exhausted_epochs),
                checkpoint_epoch: self.checkpoint_epoch,
            };
            engine.observe(observation, sink);
        }
        self.epoch_timing.push(tree);
    }

    /// Closes an epoch re-executed from the journal. Like the epochs before
    /// the snapshot, it keeps an untimed tree and is not observed.
    pub(crate) fn close_replayed_epoch(&mut self) {
        let epoch = self.next_epoch;
        self.epoch_timing.push(untimed(epoch));
        self.tree = untimed(epoch + 1);
        self.next_epoch += 1;
    }

    /// The report: every tenant's row and the run-level ledgers, timed in
    /// laps. Under failures, each tenant's static-headroom fleet is checked
    /// against its whole outage trace in one sharded pass, each trace walked
    /// once by its cursor; the rows are built in another, each tenant's
    /// epoch costs moving into its row. Then the states are released.
    fn finish(mut self) -> FleetReport {
        let mut laps = Laps::start("finish");
        let env = &self.env;
        let shards = self.ctl.policy.shard_count(self.states.len());
        let epoch = env.baseline_scaling.epoch;
        let headroom_violations = match self.coupled.as_mut().filter(|_| env.failures_enabled) {
            Some(cs) => {
                let tenants = &mut cs.tenants;
                for_each_tenant_sharded(&mut self.states, tenants, shards, None, |_, s, c| {
                    Some(s.headroom_violations(c, epoch))
                })
            }
            None => Vec::new(),
        };
        laps.lap("headroom");
        let tenants = rayon::parallel_map_chunks_mut(&mut self.states, shards, |i, s| {
            s.report(env, headroom_violations.get(i).copied().unwrap_or(0))
        });
        laps.lap("reports");
        let quota_utilization = (self.coupled.as_ref())
            .filter(|cs| !cs.pool.is_unlimited())
            .map(|cs| cs.pool.utilization())
            .unwrap_or_default();
        drop((self.states, self.coupled));
        laps.lap("release");
        FleetReport {
            epochs: self.num_epochs,
            epoch_hours: self.ctl.policy.epoch,
            quota_utilization,
            tenants,
            adoptions: self.adoptions,
            init_timing: self.init_timing,
            epoch_timing: self.epoch_timing,
            finish_timing: laps.stop(),
        }
    }
}

impl FleetController {
    /// The one fleet driver behind every entry point: the solver drives the
    /// shared epoch loop — under the deterministic fault injector when
    /// `chaos` is given, capacity-coupled under `config`, journaled and
    /// resumable under `durable`. The initial fan-out is never faulted.
    pub(crate) fn drive<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<ChaosConfig>,
        mut durable: Option<&mut Durability<'_>>,
    ) -> PersistResult<(RunOutcome, ChaosStats)> {
        let stats = ChaosStats::default();
        let clock = chaos.map(|chaos| ChaosClock::new(chaos, &stats));
        let chaos = clock.as_ref();
        let mut laps = Laps::start("init");
        let shards = self.policy.shard_count(tenants.len());
        let peaks = Peaks::of(tenants, self.policy.epoch, shards);
        laps.lap("peaks");
        let restored = match durable.as_deref_mut() {
            Some(durable) => {
                let restored = durable.restore(self, solver, tenants, &peaks, config, chaos)?;
                laps.lap("restore");
                restored
            }
            None => None,
        };
        let mut run = match restored {
            Some(run) => run,
            None => {
                // Fresh start, or the cold-restart rung: clean slate,
                // everything re-derived deterministically from configs.
                let mut run =
                    FleetRun::start(self, solver, tenants, &peaks, config, chaos, &mut laps)?;
                if let Some(durable) = durable.as_deref_mut() {
                    durable.begin(&mut run)?;
                    laps.lap("persist");
                }
                run
            }
        };
        run.init_timing = laps.stop();
        for epoch in run.next_epoch..run.num_epochs {
            let wall = Instant::now();
            run.step(solver, epoch)?;
            if let Some(durable) = durable.as_deref_mut() {
                if durable.commit(&mut run, epoch)? {
                    return Ok((RunOutcome::Crashed { epoch }, stats));
                }
            }
            run.observe(epoch, wall.elapsed().as_secs_f64());
        }
        let report = run.finish();
        Ok((RunOutcome::Completed(report), stats))
    }
}
