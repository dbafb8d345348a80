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
//! This module owns the epoch loop's clock. One [`SpanTimer`] times each
//! phase of an epoch — the bill pass, repair's triage, each shard of the
//! probe fan-out, each re-solve batch and degraded fallback, adopt — and
//! the durable hook times persist; each adds its seconds to the epoch's
//! [`StageTimes`] row only. [`FleetRun::observe`] emits every
//! `fleet.span.*` sample from that row, once per epoch, at the barrier.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rental_capacity::{coverage_bound, degrade_with, CapacityConfig, CappedOutcome};
use rental_core::{InstanceClasses, Solution, Throughput, TypeId};
use rental_obs::{
    epoch_tree, AlertEngine, EpochObservation, EventKind, FanoutObs, NoopSink, SpanTimer, Stage,
    StageTimes, TelemetrySink,
};
use rental_pricing::RentalHorizon;
use rental_solvers::batch::{solve_warm_batch, WarmBatchItem};
use rental_solvers::solver::{CapacitySolver, SolveError, SolveResult, SweepPrior};
use rental_stream::{Autoscaler, FixedMixState};

use crate::chaos::{ChaosClock, ChaosConfig, ChaosSolver, ChaosStats};
use crate::controller::{
    debug_certify, first_target, fits_caps, quantize_target, surviving, CouplingState, Derived,
    FleetController, FleetPolicy, KnownPlan, RunEnv, Tally, TenantCore, TenantState,
};
use crate::journal::Solves;
use crate::persist::{Durability, PersistResult, RunOutcome};
use crate::report::{AdoptionRecord, FleetReport};
use crate::tenant::TenantSpec;

/// The sink of epochs re-executed from the journal: the process that first
/// ran them already emitted their telemetry.
static REPLAY_SINK: NoopSink = NoopSink;

/// What one epoch records besides its decisions: the stage breakdown and the
/// fan-out observations its trace tree is built from.
#[derive(Default)]
pub(crate) struct EpochObs {
    pub(crate) times: StageTimes,
    fanout: FanoutObs,
}

/// Runs `f` once per tenant, fanned out over `shards` contiguous shards of
/// the state slice on the shared worker pool, returning the per-tenant
/// results **in tenant-index order**.
///
/// This is the deterministic backbone of the sharded epoch loop. Shards are
/// contiguous index ranges, so concatenating their outputs in shard order
/// *is* tenant-index order, and every cross-tenant effect — pool
/// arbitration, solver fan-outs, flight-recorder events — stays with the
/// caller at the barrier after this returns. With `probe` given — the probe
/// fan-out, the one whose shards the epoch's trace shows — each shard's busy
/// seconds join the epoch's probe stage and its fan-out observations, and
/// the merge-barrier wait (fan-out wall time past the busiest shard) joins
/// them too. Counters may be emitted from inside `f` (the sink's registry
/// merges its thread-local shards on snapshot); flight-recorder events must
/// not be.
///
/// One shard short-circuits to a plain sequential loop over the same
/// closure, so `FleetPolicy { shards: Some(1) }` runs the sequential
/// controller rather than an emulation of it.
fn for_each_tenant_sharded<'a, R, F>(
    states: &mut [TenantState<'a>],
    shards: usize,
    mut probe: Option<&mut EpochObs>,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut TenantState<'a>) -> R + Sync,
{
    let len = states.len();
    let shards = shards.clamp(1, len.max(1));
    let run_shard = |offset: usize, slice: &mut [TenantState<'a>]| {
        let busy = Instant::now();
        let out: Vec<R> = (slice.iter_mut().enumerate())
            .map(|(k, state)| f(offset + k, state))
            .collect();
        (out, busy.elapsed().as_secs_f64())
    };
    let fan_out = Instant::now();
    let shard_results = if shards <= 1 {
        vec![run_shard(0, states)]
    } else {
        let chunk = len.div_ceil(shards);
        // Hand each worker exclusive `&mut` access to its own contiguous
        // shard: the slice splits up front, and the per-shard mutex lets the
        // `Fn + Sync` closure below reclaim mutable access from a shared
        // reference. Each mutex is locked exactly once, by the worker that
        // drew its index.
        let shard_slices: Vec<Mutex<(usize, &mut [TenantState<'a>])>> = states
            .chunks_mut(chunk)
            .enumerate()
            .map(|(s, slice)| Mutex::new((s * chunk, slice)))
            .collect();
        rayon::parallel_map_indexed(shard_slices.len(), Some(shards), |s| {
            let mut guard = shard_slices[s].lock().expect("shard slice poisoned");
            let (offset, slice) = &mut *guard;
            run_shard(*offset, slice)
        })
    };
    let wall = fan_out.elapsed().as_secs_f64();
    let mut merged = Vec::with_capacity(len);
    let mut busiest = 0.0f64;
    for (out, busy) in shard_results {
        if let Some(obs) = probe.as_deref_mut() {
            obs.times.add(Stage::Probe, busy);
            obs.fanout.probe_shards.push(busy);
        }
        busiest = busiest.max(busy);
        merged.extend(out);
    }
    if let Some(obs) = probe {
        obs.fanout.merge_wait += (wall - busiest).max(0.0);
    }
    merged
}

/// `f(0), …, f(len - 1)`, fanned out over `shards` contiguous shards on the
/// shared worker pool, the results in index order — the sharded pass of a
/// run's start, where the tenant states do not exist yet.
fn map_sharded<R, F>(len: usize, shards: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let shards = shards.clamp(1, len.max(1));
    let chunk = len.div_ceil(shards);
    rayon::parallel_map_indexed(shards, Some(shards), |s| {
        (s * chunk..((s + 1) * chunk).min(len))
            .map(&f)
            .collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
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
/// timing rows. [`FleetRun::step`] advances it one epoch, phase by phase.
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
    epoch_timing: Vec<StageTimes>,
    pub(crate) obs: EpochObs,
    /// Where the re-solves' outcomes come from: the solver, or the journal
    /// being replayed.
    pub(crate) solves: Solves,
}

impl<'a> FleetRun<'a> {
    /// A run positioned at `next_epoch`. The epochs before it were run by
    /// an earlier (killed) process: the tenants' fixed-mix baselines —
    /// derived state — are replayed through them, and their timing rows restore as zero
    /// (timing is the masked field family, so a resumed report still matches
    /// the uninterrupted one). The alert engine always starts empty — alert
    /// state is operational, not part of the certified plan.
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
                state.baselines.advance(rate, &env.baseline_scaling);
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
            epoch_timing: vec![StageTimes::zero(); next_epoch],
            obs: EpochObs::default(),
            solves: Solves::Live,
        }
    }

    /// A fresh run: one batched cold solve per distinct initial request
    /// (instance and target; tenants asking the same share its outcome),
    /// then the coupling state. Initial solves are never budgeted.
    ///
    /// What the tenants of one request have in common is derived once per
    /// request and shared: the plan and its horizon cache, the recipe mix,
    /// the scalers' rates and the instance's constants. Each tenant's epoch
    /// peaks are computed once, and the states are built in one sharded
    /// pass, in tenant order.
    fn start<S: CapacitySolver + Sync>(
        ctl: &'a FleetController,
        solver: &S,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<&'a ChaosClock<'a>>,
    ) -> SolveResult<Self> {
        let env = ctl.run_env(config);
        let shards = ctl.policy.shard_count(tenants.len());
        let epoch = env.baseline_scaling.epoch;
        let peaks = map_sharded(tenants.len(), shards, |i| {
            tenants[i].trace.epoch_peaks(epoch)
        });
        // Requests by value: tenants of equal instances (shared storage or
        // not) and equal targets ask the same.
        let mut classes = InstanceClasses::new();
        let mut granularity = Vec::new();
        let mut requests = HashMap::new();
        let mut firsts = Vec::new();
        let request_of: Vec<usize> = (tenants.iter().zip(&peaks))
            .enumerate()
            .map(|(i, (t, peaks))| {
                let class = classes.class_of(&t.instance);
                if class == granularity.len() {
                    granularity.push(t.instance.throughput_granularity());
                }
                let rho = first_target(peaks, env.serve_headroom, granularity[class]);
                *requests.entry((class, rho)).or_insert_with(|| {
                    firsts.push((i, rho));
                    firsts.len() - 1
                })
            })
            .collect();
        let items: Vec<WarmBatchItem<'_>> = (firsts.iter())
            .map(|&(i, rho)| WarmBatchItem::new(&tenants[i].instance, rho, None))
            .collect();
        let results = solve_warm_batch(solver, &items, None, ctl.policy.threads);
        let shared = rayon::parallel_map_indexed(firsts.len(), ctl.policy.threads, |r| {
            let (i, rho) = firsts[r];
            let instance = &tenants[i].instance;
            let outcome = results[r].clone()?;
            debug_certify(instance, &outcome.solution, None);
            let fractions = Autoscaler::split_fractions(&outcome.solution);
            let derived = Derived::new(instance, &env, (rho, fractions.clone()), &fractions);
            let cache = ctl.plan_cache(instance, &outcome.solution)?;
            SolveResult::Ok((derived, Arc::new(KnownPlan { outcome, cache })))
        });
        // The first tenant, in tenant order, whose request failed fails the
        // run.
        if let Some(err) = request_of.iter().find_map(|&r| shared[r].as_ref().err()) {
            return Err(err.clone());
        }
        let shared: Vec<_> = shared.into_iter().flatten().collect();
        let mut states = map_sharded(tenants.len(), shards, |i| {
            let (derived, plan) = &shared[request_of[i]];
            let (spec, rho) = (&tenants[i], derived.initial_target);
            let outcome = &plan.outcome;
            let core = TenantCore {
                fractions: derived.initial_fractions.to_vec(),
                mix: FixedMixState::new(spec.instance.num_types()),
                solved_target: rho,
                adopted_epoch: 0,
                prior: Some(SweepPrior::from_outcome(rho, outcome)),
                last_failure_solve: None,
                deferred_until: 0,
                backoff: 0,
            };
            let mut tally = Tally::default();
            tally.effort.record(outcome);
            let epoch_costs = Vec::with_capacity(peaks[i].len());
            let plans = vec![(rho, Arc::clone(plan))];
            TenantState::new(spec, derived, Vec::new(), core, tally, epoch_costs, plans)
        });
        // The shards only borrowed the peaks; each tenant's peaks move in now.
        for (state, peaks) in states.iter_mut().zip(peaks) {
            state.peaks = peaks;
        }
        let coupled = ctl.init_coupling(tenants, config, &env);
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
        let span = SpanTimer::start(Stage::Arbitrate);
        let FleetRun {
            env,
            chaos,
            states,
            coupled,
            stale_desired,
            ..
        } = self;
        let env = &*env;
        let patience = policy.scale_down_patience;
        let mut repairs = Vec::new();
        match coupled {
            None => {
                for_each_tenant_sharded(states, shards, None, |_, state| {
                    let Some(&rate) = state.peaks.get(epoch) else {
                        return;
                    };
                    let fleet = state.core.mix.step(&state.scaler, rate, patience);
                    let cost = state.scaler.cost_rate(fleet) * policy.epoch;
                    state.rent(cost);
                    state.baselines.advance(rate, &env.baseline_scaling);
                });
            }
            Some(cs) => {
                let window_start = epoch as f64 * policy.epoch;
                let window_end = window_start + policy.epoch;
                // Desired fleets: the mix's scale-up/down plus one
                // replacement per machine known down at the window start
                // (the "repair" half of fleet-with-repair). Ended tenants
                // release their holdings.
                let traces = &cs.traces;
                let desired: Vec<Vec<u64>> =
                    for_each_tenant_sharded(states, shards, None, |i, state| {
                        let Some(&rate) = state.peaks.get(epoch) else {
                            return vec![0; state.spec.instance.num_types()];
                        };
                        let mut fleet = state.core.mix.step(&state.scaler, rate, patience).to_vec();
                        if env.failures_enabled {
                            for (q, count) in fleet.iter_mut().enumerate() {
                                *count +=
                                    traces[i].machines_down_among(TypeId(q), *count, window_start);
                            }
                        }
                        fleet
                    });
                // Under chaos, a delayed decision re-arbitrates on the
                // previous epoch's desired fleets — tenants then serve the
                // epoch on stale grants.
                let delayed = chaos.is_some_and(|clock| clock.delays_epoch(epoch));
                let grants = if delayed {
                    sink.event(
                        EventKind::ChaosFault,
                        epoch,
                        None,
                        0.0,
                        "delayed arbitration: serving on stale grants",
                    );
                    cs.pool
                        .arbitrate_epoch(stale_desired.as_ref().unwrap_or(&desired))
                } else {
                    cs.pool.arbitrate_epoch(&desired)
                };
                if chaos.is_some() {
                    *stale_desired = Some(desired);
                }
                if sink.enabled() && !cs.pool.is_unlimited() {
                    let peak = cs
                        .pool
                        .utilization()
                        .iter()
                        .fold(0.0, |a: f64, &u| a.max(u));
                    sink.gauge("fleet.pool.peak_utilization", peak);
                }
                let pool = &cs.pool;
                // A violated epoch: the rate for the barrier's SloViolation
                // event, plus the repair a re-solve should attempt, if any.
                let violations: Vec<Option<(f64, Option<Repair>)>> =
                    for_each_tenant_sharded(states, shards, None, |i, state| {
                        let &rate = state.peaks.get(epoch)?;
                        let granted = &grants[i];
                        state.rent(state.scaler.cost_rate(granted) * policy.epoch);
                        state.baselines.advance(rate, &env.baseline_scaling);
                        // Surviving capacity: the granted machines minus the
                        // worst simultaneous outage among them this epoch.
                        let available = surviving(granted, &traces[i], window_start, window_end);
                        if !state.scaler.violates(rate, &available) {
                            // A healthy epoch closes the outage episode; the
                            // next violation is a new situation to solve.
                            state.core.last_failure_solve = None;
                            return None;
                        }
                        state.tally.slo_violations += 1;
                        sink.counter("fleet.slo_violations", 1);
                        let rho = quantize_target(rate, env.serve_headroom, state.granularity);
                        if !policy.resolve || rho == 0 {
                            return Some((rate, None));
                        }
                        // A deferred tenant keeps its current plan until its
                        // backoff window ends; the violation is still
                        // counted above.
                        if epoch < state.core.deferred_until {
                            state.tally.deferred_resolves += 1;
                            return Some((rate, None));
                        }
                        // Effective caps for the re-solve: holdings plus
                        // residual quota, minus machines still down at the
                        // epoch's end (lost capacity for the outage's
                        // duration).
                        let caps: Vec<u64> = pool
                            .caps_for(i)
                            .iter()
                            .enumerate()
                            .map(|(q, &cap)| {
                                if cap == rental_capacity::UNLIMITED_CAP {
                                    cap
                                } else {
                                    cap.saturating_sub(traces[i].machines_down_among(
                                        TypeId(q),
                                        granted[q],
                                        window_end,
                                    ))
                                }
                            })
                            .collect();
                        // Re-solving an unchanged outage situation cannot
                        // produce a new answer; only count the violation.
                        let unchanged = matches!(
                            &state.core.last_failure_solve,
                            Some((r, c)) if *r == rho && *c == caps
                        );
                        Some((rate, (!unchanged).then_some((i, rho, caps))))
                    });
                // Barrier: flight-recorder events fire here, in tenant-index
                // order, never from shard workers.
                for (i, violation) in violations.into_iter().enumerate() {
                    let Some((rate, repair)) = violation else {
                        continue;
                    };
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
            }
        }
        span.stop_into(&mut self.obs.times);
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
        // Triage — the futility check, then the coverage probe — is the
        // repair's probe phase.
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
                let running = state.core.solved_target == rho;
                state.core.last_failure_solve = Some((rho, caps));
                if !running {
                    self.adopt_repair(i, epoch, rho, solution)?;
                }
                continue;
            }
            state.tally.probes += 1;
            if coverage_bound(&state.spec.instance, &caps)? >= rho as f64 - 1e-9 {
                full.push((i, rho, caps));
            } else {
                needs_degrade.push((i, rho, caps));
            }
        }
        triage.stop_into(&mut self.obs.times);
        let budget = policy.epoch_budget.map(|b| b.split(full.len().max(1)));
        let items: Vec<WarmBatchItem<'_>> = full
            .iter()
            .map(|(i, rho, caps)| self.states[*i].item(*rho, Some(caps)))
            .collect();
        let tenants: Vec<usize> = full.iter().map(|(i, _, _)| *i).collect();
        let batch = SpanTimer::start(Stage::Solve);
        let results = self
            .solves
            .batch(solver, &items, &tenants, budget.as_ref(), policy.threads);
        batch.stop_into(&mut self.obs.times);
        drop(items);
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
            let (state, solves) = (&self.states[i], &mut self.solves);
            let result = degrade_with(&state.spec.instance, rho, &caps, |target| {
                let item = state.item(target, Some(&caps));
                solves.one(i, &item, || {
                    solver.solve_with_caps(item.instance, target, &caps, item.prior)
                })
            });
            fallback.stop_into(&mut self.obs.times);
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
    /// there is no keep option and no hysteresis), the switching charge is
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
        let state = &mut self.states[tenant];
        let remaining_hours = state.peaks.len().saturating_sub(epoch + 1) as f64 * ctl.policy.epoch;
        let charge = ctl.policy.switching_charge(
            &state.scaler.required_for_target(target as f64),
            solution.allocation.machine_counts(),
        );
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
        let billing = ctl.billing.as_ref();
        for_each_tenant_sharded(&mut self.states, shards, Some(&mut self.obs), |i, state| {
            let rate = state.peaks.get(epoch).copied().unwrap_or(0.0);
            let rho = quantize_target(rate, serve_headroom, state.granularity);
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
            let solved = state.core.solved_target;
            let shift =
                (rho as f64 - solved as f64).abs() > policy.shift_threshold * solved.max(1) as f64;
            if !shift {
                return None;
            }
            state.tally.probes += 1;
            // Keep-side projection: continued machines bill only the
            // margin past the current plan's elapsed rental time
            // (committed terms already paid are sunk), scale-up machines
            // bill fresh.
            let elapsed_hours = (epoch + 1 - state.core.adopted_epoch) as f64 * policy.epoch;
            let entry = state.probe_entry(rho, billing);
            let keep_projected = entry.continued.total_over(
                RentalHorizon::hours(elapsed_hours),
                RentalHorizon::hours(elapsed_hours + remaining_hours),
            ) + entry.fresh.total(RentalHorizon::hours(remaining_hours));
            let reference_rate = state
                .known(rho)
                .map_or(rho as f64 * state.min_unit_cost, |k| {
                    k.outcome.cost() as f64
                });
            let reference_projected = reference_rate * remaining_hours;
            let worth_probing = keep_projected > (1.0 + policy.probe_epsilon) * reference_projected
                && keep_projected - reference_projected > policy.switching_cost;
            worth_probing.then(|| due(Some(keep_projected)))
        })
        .into_iter()
        .flatten()
        .collect()
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
        let items: Vec<WarmBatchItem<'_>> = (pending.iter())
            .map(|d| self.states[d.tenant].item(d.rho, d.caps.as_deref()))
            .collect();
        let tenants: Vec<usize> = pending.iter().map(|d| d.tenant).collect();
        let batch = SpanTimer::start(Stage::Solve);
        let results = self
            .solves
            .batch(solver, &items, &tenants, budget.as_ref(), policy.threads);
        batch.stop_into(&mut self.obs.times);
        drop(items);
        for (d, result) in pending.into_iter().zip(results) {
            let state = &mut self.states[d.tenant];
            match result {
                Ok(outcome) => {
                    state.solved(&outcome, false);
                    state.tally.resolves += 1;
                    sink.counter("fleet.resolves", 1);
                    if d.caps.is_none() {
                        state.core.prior = Some(SweepPrior::from_outcome(d.rho, &outcome));
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
    /// hysteresis, one per due tenant. The charge the candidate must beat is
    /// the flat cost plus the per-machine-delta cost of the machines that
    /// actually change between the kept fleet (current mix rescaled to ρ')
    /// and the candidate's fleet.
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
            let charge =
                policy.switching_charge(&state.scaler.required_for_target(d.rho as f64), counts);
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
        span.stop_into(&mut self.obs.times);
    }

    /// The per-epoch observability barrier, after the epoch (and its
    /// persistence) completed: publishes the epoch watermark, emits the
    /// epoch's `fleet.span.*` samples — one per stage from its row, one per
    /// probe shard and the probe fan-out's barrier wait — and its causal
    /// trace tree, evaluates the alert rules and files the epoch's stage
    /// row. Everything here is pure copy-out — no controller state is read
    /// back — so runs stay bit-identical under any sink.
    pub(crate) fn observe(&mut self, epoch: usize, wall_seconds: f64) {
        let sink = self.sink();
        sink.gauge("fleet.epoch_watermark", epoch as f64);
        let obs = std::mem::take(&mut self.obs);
        for stage in Stage::ALL {
            sink.span(stage.span_name(), obs.times.get(stage));
        }
        for &busy in &obs.fanout.probe_shards {
            sink.span("fleet.span.shard_probe", busy);
        }
        sink.span("fleet.span.merge_wait", obs.fanout.merge_wait);
        if sink.enabled() {
            epoch_tree(epoch as u64, wall_seconds, &obs.times, &obs.fanout).emit(sink);
        }
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
        self.epoch_timing.push(obs.times);
    }

    /// Closes an epoch re-executed from the journal. Like the epochs before
    /// the snapshot, it gets a zero timing row and is not observed.
    pub(crate) fn close_replayed_epoch(&mut self) {
        self.obs = EpochObs::default();
        self.epoch_timing.push(StageTimes::zero());
        self.next_epoch += 1;
    }

    /// The report: every tenant's row and the run-level ledgers. Under
    /// failures, each tenant's static-headroom fleet is checked against its
    /// whole outage trace in one parallel pass of indexed outage queries.
    fn finish(self) -> FleetReport {
        let env = &self.env;
        let states = &self.states;
        let headroom_violations = match self.coupled.as_ref().filter(|_| env.failures_enabled) {
            Some(cs) => rayon::parallel_map_indexed(states.len(), self.ctl.policy.threads, |i| {
                states[i].headroom_violations(&cs.traces[i], env.baseline_scaling.epoch)
            }),
            None => vec![0; states.len()],
        };
        FleetReport {
            epochs: self.num_epochs,
            epoch_hours: self.ctl.policy.epoch,
            quota_utilization: self
                .coupled
                .as_ref()
                .filter(|cs| !cs.pool.is_unlimited())
                .map(|cs| cs.pool.utilization())
                .unwrap_or_default(),
            tenants: (self.states.into_iter().zip(headroom_violations))
                .map(|(s, violations)| s.report(env, violations))
                .collect(),
            adoptions: self.adoptions,
            epoch_timing: self.epoch_timing,
        }
    }
}

impl FleetController {
    /// The one fleet driver behind every entry point: the solver, wrapped
    /// in the deterministic fault injector when `chaos` is given, drives the
    /// shared epoch loop — capacity-coupled under `config`, journaled and
    /// resumable under `durable`. The initial fan-out is never faulted, so
    /// it bypasses the injector; the fault stream starts at position
    /// `tenants.len()`, and re-solve `k` draws position `tenants.len() + k`.
    pub(crate) fn drive<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<ChaosConfig>,
        durable: Option<&mut Durability<'_>>,
    ) -> PersistResult<(RunOutcome, ChaosStats)> {
        let stats = ChaosStats::default();
        let outcome = match chaos {
            Some(chaos) => {
                let wrapped = ChaosSolver::new(solver, chaos, &stats);
                let clock = ChaosClock::new(chaos, &stats);
                clock.set_calls(tenants.len() as u64);
                self.drive_loop(solver, &wrapped, Some(&clock), tenants, config, durable)
            }
            None => self.drive_loop(solver, solver, None, tenants, config, durable),
        }?;
        Ok((outcome, stats))
    }

    /// The loop itself: `initial` solves a fresh run's initial fan-out,
    /// `solver` every re-solve.
    fn drive_loop<'a, I: CapacitySolver + Sync, S: CapacitySolver + Sync>(
        &'a self,
        initial: &I,
        solver: &S,
        chaos: Option<&'a ChaosClock<'a>>,
        tenants: &'a [TenantSpec],
        config: Option<&CapacityConfig>,
        mut durable: Option<&mut Durability<'_>>,
    ) -> PersistResult<RunOutcome> {
        let restored = match durable.as_deref_mut() {
            Some(durable) => durable.restore(self, solver, tenants, config, chaos)?,
            None => None,
        };
        let mut run = match restored {
            Some(run) => run,
            None => {
                // Fresh start, or the cold-restart rung: clean slate,
                // everything re-derived deterministically from configs.
                let mut run = FleetRun::start(self, initial, tenants, config, chaos)?;
                if let Some(durable) = durable.as_deref_mut() {
                    durable.begin(&mut run)?;
                }
                run
            }
        };
        for epoch in run.next_epoch..run.num_epochs {
            let wall = Instant::now();
            run.step(solver, epoch)?;
            if let Some(durable) = durable.as_deref_mut() {
                if durable.commit(&mut run, epoch)? {
                    return Ok(RunOutcome::Crashed { epoch });
                }
            }
            run.observe(epoch, wall.elapsed().as_secs_f64());
        }
        Ok(RunOutcome::Completed(run.finish()))
    }
}
