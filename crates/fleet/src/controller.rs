//! The event-driven fleet controller: probe, batch re-solve, adopt.
//!
//! Per epoch of the shared clock the controller (1) re-reads every tenant's
//! demand rate and, on a workload shift, runs a cheap memoized what-if probe,
//! (2) batches every due tenant into one warm-started solver fan-out on the
//! shared worker pool, and (3) adopts a freshly solved plan only when its
//! projected remaining-horizon savings beat the switching cost. See the crate
//! docs for how this maps onto §I's streaming model.
//!
//! This module holds the controller's configuration, its public entry points
//! and the per-tenant state; every entry point is a thin constructor of the
//! one shared epoch loop (the crate's `run` module).

use std::sync::Arc;

use rental_capacity::{CapacityConfig, CapacityPool, UNLIMITED_CAP};
use rental_core::{Instance, ProvisioningPlan, RecipeId, Solution, Throughput, TypeId};
use rental_obs::{AlertPolicy, NoopSink, TelemetrySink};
use rental_pricing::{HorizonCache, OnDemand, SegmentedBilling};
use rental_solvers::batch::WarmBatchItem;
use rental_solvers::solver::{
    CapacitySolver, SolveBudget, SolveError, SolveResult, SolverOutcome, SweepPrior,
};
use rental_stream::{
    AutoscalePolicy, Autoscaler, FailureTrace, FixedMixScaler, FixedMixState, OutageCursor,
    WorkloadTrace,
};

use crate::chaos::{ChaosConfig, ChaosStats};
use crate::persist::{PersistError, RunOutcome};
use crate::report::{FleetReport, SolverEffort, TenantReport};
use crate::tenant::TenantSpec;

/// Parameters of the fleet controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPolicy {
    /// Epoch length of the shared clock (hours).
    pub epoch: f64,
    /// Capacity head-room: tenants are provisioned for `rate × headroom`.
    pub headroom: f64,
    /// Consecutive low epochs before a tenant's fleet scales down (the same
    /// hysteresis as [`AutoscalePolicy::scale_down_patience`]).
    pub scale_down_patience: usize,
    /// Probe slack ε: a tenant is **not** due for a re-solve while the
    /// fixed-mix rescale of its current plan stays within `(1 + ε)` of the
    /// best known cost at the shifted target.
    pub probe_epsilon: f64,
    /// Relative target change (vs. the target the current plan was solved
    /// for) that counts as a workload shift worth probing.
    pub shift_threshold: f64,
    /// Flat switching/migration charge paid when a new plan is adopted, in
    /// cost units. Candidate plans must project savings above this over the
    /// remaining horizon (hysteresis).
    pub switching_cost: f64,
    /// Master switch for the probe/solve/adopt loop. Disabled, the controller
    /// degrades to one fixed-mix autoscaler per tenant.
    pub resolve: bool,
    /// Cap on solver worker threads (`None`: one per available CPU).
    pub threads: Option<usize>,
    /// Per-epoch solve budget shared by every re-solve batch of one epoch:
    /// the batch scheduler splits the countable caps across the pending
    /// units ([`SolveBudget::split`]) while a wall-clock deadline is shared
    /// by the concurrent fan-out. A budgeted solve that runs out with an
    /// incumbent is adopted as an **anytime** plan; one that runs out with
    /// no incumbent defers the tenant (it keeps its current plan and is
    /// re-queued with backoff). `None` (the default) keeps the unbudgeted
    /// path bit-identical. Initial solves are never budgeted — every tenant
    /// needs *some* plan before the epoch clock starts.
    pub epoch_budget: Option<SolveBudget>,
    /// Number of per-tenant pipeline shards the epoch loop fans out over.
    /// `Some(1)` **is** the sequential controller (the same code path, not
    /// an emulation); `None` (the default) auto-sizes — one shard per
    /// solver worker once the fleet is large enough to amortise the
    /// fan-out, sequential below that. Shards merge at one deterministic
    /// barrier per epoch in tenant-index order, so the report is
    /// bit-identical (modulo [`FleetReport::epoch_timing`]) at every shard
    /// count.
    pub shards: Option<usize>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            epoch: 1.0,
            headroom: 1.0,
            scale_down_patience: 2,
            probe_epsilon: 0.02,
            shift_threshold: 0.05,
            switching_cost: 0.0,
            resolve: true,
            threads: None,
            epoch_budget: None,
            shards: None,
        }
    }
}

/// Fleets below this many tenants per shard stay sequential under the auto
/// shard policy: the per-epoch fan-out costs more than it parallelises.
const MIN_TENANTS_PER_SHARD: usize = 64;

/// Cap (in epochs) on the exponential re-queue backoff of a tenant whose
/// budgeted re-solve produced no plan: it is retried after 1, 2, 4, 8, 8, …
/// epochs — deferred, never dropped.
const BACKOFF_CAP: usize = 8;

/// The next capped-exponential backoff step (in epochs): 1, 2, 4, …,
/// clamped to [`BACKOFF_CAP`].
fn next_backoff(current: usize) -> usize {
    if current == 0 {
        1
    } else {
        current.saturating_mul(2).min(BACKOFF_CAP)
    }
}

impl FleetPolicy {
    /// The per-tenant autoscaling policy implied by the fleet policy — used
    /// both for the tenants' own fixed-mix scaling between re-solves and for
    /// the fixed-mix baseline of the report.
    pub fn autoscale_policy(&self) -> AutoscalePolicy {
        AutoscalePolicy {
            epoch: self.epoch,
            headroom: self.headroom,
            scale_down_patience: self.scale_down_patience,
            redundancy: 0,
        }
    }

    /// Resolves the shard count of the per-tenant epoch pipelines for a
    /// fleet of `tenants`: an explicit [`FleetPolicy::shards`] clamped to
    /// the fleet size, or (auto) one shard per solver worker once every
    /// shard has at least `MIN_TENANTS_PER_SHARD` (64) tenants to advance.
    pub fn shard_count(&self, tenants: usize) -> usize {
        let cap = tenants.max(1);
        match self.shards {
            Some(n) => n.clamp(1, cap),
            None => {
                let workers = self
                    .threads
                    .unwrap_or_else(rayon::current_num_threads)
                    .max(1);
                (tenants / MIN_TENANTS_PER_SHARD).clamp(1, workers).min(cap)
            }
        }
    }
}

/// Whether a plan's per-type machine counts fit inside per-type caps
/// ([`UNLIMITED_CAP`] entries impose nothing) — the one fit test shared by
/// the failure path's futility check, the pool-aware shift re-solve filter
/// and the adoption guard, so they cannot drift apart.
pub(crate) fn fits_caps(counts: &[u64], caps: &[u64]) -> bool {
    counts
        .iter()
        .zip(caps)
        .all(|(&count, &cap)| cap == UNLIMITED_CAP || count <= cap)
}

/// Quantizes a demand rate into a provisioning target: head-room applied,
/// rounded up to the instance's throughput granularity (which stabilises
/// probes and re-solve targets against sub-granularity rate jitter).
pub(crate) fn quantize_target(rate: f64, headroom: f64, granularity: u64) -> Throughput {
    let demand = rate * headroom;
    if demand <= 0.0 {
        return 0;
    }
    let rho = demand.ceil() as u64;
    let g = granularity.max(1);
    rho.div_ceil(g) * g
}

/// Whether target `rho` moved from the `solved` target by more than the
/// relative `threshold`: a workload shift worth probing. The probe pass and
/// the probe table ([`Derived::build_probe_table`]) ask through this one
/// function, so they cannot drift apart.
pub(crate) fn shifted(rho: Throughput, solved: Throughput, threshold: f64) -> bool {
    (rho as f64 - solved as f64).abs() > threshold * solved.max(1) as f64
}

/// [`initial_target`] from a tenant's epoch peaks, under an explicit
/// head-room and granularity: the coupled serving path provisions with
/// availability-adjusted head-room, the plain path with the policy's own —
/// both quantize through this one function so the two cannot drift apart.
pub(crate) fn first_target(peaks: &[f64], headroom: f64, granularity: u64) -> Throughput {
    quantize_target(peaks.first().copied().unwrap_or(0.0), headroom, granularity)
}

/// The provisioning target a tenant's **initial** plan is solved for: its
/// first epoch's demand (what a cold-started system sees), quantized.
pub fn initial_target(policy: &FleetPolicy, instance: &Instance, trace: &WorkloadTrace) -> u64 {
    first_target(
        &trace.epoch_peaks(policy.epoch),
        policy.headroom,
        instance.throughput_granularity(),
    )
}

/// The fractional (LP) lower bound on any plan's hourly cost per unit of
/// provisioning target: `min_j Σ_q n_jq c_q / r_q`. Machine-count ceilings
/// only push real plans above it, so `target × min_unit_cost` is a sound
/// probe reference before the target has ever been solved.
pub(crate) fn min_unit_cost(instance: &Instance) -> f64 {
    let demand = instance.application().demand();
    let platform = instance.platform();
    (0..instance.num_recipes())
        .map(|j| {
            (0..instance.num_types())
                .map(|q| {
                    demand.count(RecipeId(j), TypeId(q)) as f64 * platform.cost(TypeId(q)) as f64
                        / (platform.throughput(TypeId(q)).max(1)) as f64
                })
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The machines of a fleet given by per-type counts, as the `(hourly cost,
/// utilisation)` pairs a [`HorizonCache`] is built from: type by type,
/// `fleet[q]` machines of cost `c_q`, each carrying `load_each[q]` of its
/// throughput `r_q`. Fixed-mix fleets are projected over the remaining
/// horizon from these like any solver plan.
fn fleet_machines<'a>(
    instance: &'a Instance,
    fleet: &'a [u64],
    load_each: &'a [f64],
) -> impl Iterator<Item = (u64, f64)> + 'a {
    let platform = instance.platform();
    fleet.iter().enumerate().flat_map(move |(q, &count)| {
        let type_id = TypeId(q);
        let utilisation = load_each[q] / platform.throughput(type_id) as f64;
        std::iter::repeat_n((platform.cost(type_id), utilisation), count as usize)
    })
}

/// A memoized "keep" projection: the fixed-mix rescale of the tenant's
/// current mix at one quantized target ρ', split into the machines that are
/// **continued** (also part of the nominal fleet at the currently solved
/// target — their committed billing terms are already running, so only the
/// marginal charge past the elapsed rental time applies) and the machines the
/// rescale would rent **fresh** (scale-up — new commitments, billed from
/// hour zero). Under linear billing the two parts sum to exactly the whole
/// fleet's remaining-horizon bill. Memoized per tenant, or held in its
/// request's probe table ([`Derived::build_probe_table`]).
pub(crate) struct ProbeEntry {
    pub(crate) continued: HorizonCache,
    pub(crate) fresh: HorizonCache,
}

impl ProbeEntry {
    pub(crate) fn new(
        instance: &Instance,
        scaler: &FixedMixScaler,
        solved_target: Throughput,
        target: Throughput,
        billing: &(dyn SegmentedBilling + Send + Sync),
    ) -> Self {
        // The rescaled fleet splits in place into what the current fleet
        // continues and what is rented fresh; each of its machines carries
        // an equal share of its type's demand.
        let mut continued = scaler.required_for_target(solved_target as f64);
        let mut fresh = scaler.required_for_target(target as f64);
        let mut load_each = scaler.demand_at(target as f64);
        for (load, &n) in load_each.iter_mut().zip(&fresh) {
            *load = if n == 0 { 0.0 } else { *load / n as f64 };
        }
        for (kept, grown) in continued.iter_mut().zip(&mut fresh) {
            *kept = (*kept).min(*grown);
            *grown -= *kept;
        }
        let cache = |fleet: &[u64]| {
            HorizonCache::from_machines(fleet_machines(instance, fleet, &load_each), billing)
        };
        ProbeEntry {
            continued: cache(&continued),
            fresh: cache(&fresh),
        }
    }
}

/// A solved target the tenant remembers: the outcome plus the horizon cache
/// of its plan. Probes use it as a sharp reference and adoption decisions
/// reuse it without re-solving when the workload revisits the target.
/// Immutable once learned, so the tenants of one initial request share
/// their initial plan.
pub(crate) struct KnownPlan {
    pub(crate) outcome: SolverOutcome,
    pub(crate) cache: HorizonCache,
}

/// The derived state a tenant's state reaches through: the initial plan's
/// target and recipe mix, the baseline scaler of that mix, the instance's
/// constants, and a fresh run's initial plan and its probe table. Pure
/// functions of the instance, the plan and the run's policy, so a fresh run
/// builds one per distinct initial request and its tenants share it; a
/// resumed run builds one per tenant, without a plan (the restored plan log
/// holds it) or a probe table. The scaler of the mix a tenant serves is the
/// tenant's own, so a tenant that moved on from the initial mix releases
/// it.
pub(crate) struct Derived {
    pub(crate) initial_target: Throughput,
    pub(crate) initial_fractions: Arc<[f64]>,
    /// A fresh run's initial plan, at the head of each tenant's plan log.
    pub(crate) initial_plan: Option<(Throughput, Arc<KnownPlan>)>,
    /// Scaler of the initial mix under the baseline policy.
    pub(crate) baseline: FixedMixScaler,
    /// The availability the static-headroom baseline is sized for, under
    /// failures.
    pub(crate) headroom_availability: Option<f64>,
    pub(crate) granularity: u64,
    pub(crate) min_unit_cost: f64,
    /// The initial plan's keep projections, by ascending target, at every
    /// target its tenants would probe while they keep it (see
    /// [`Derived::build_probe_table`]); empty unless the request has two or
    /// more tenants.
    probes: Box<[(Throughput, ProbeEntry)]>,
}

impl Derived {
    /// The derived state of `instance` serving under `env`, started from the
    /// `initial` plan's `(target, recipe mix)`.
    pub(crate) fn new(
        instance: &Instance,
        env: &RunEnv,
        (initial_target, initial_fractions): (Throughput, Vec<f64>),
    ) -> Self {
        Derived {
            initial_target,
            baseline: FixedMixScaler::new(instance, &initial_fractions, &env.baseline_scaling),
            initial_fractions: initial_fractions.into(),
            headroom_availability: env.failures_enabled.then_some(env.availability),
            granularity: instance.throughput_granularity(),
            min_unit_cost: min_unit_cost(instance),
            initial_plan: None,
            probes: Box::default(),
        }
    }

    /// Fills the probe table of a fresh run's request from its tenants'
    /// epoch `peaks`: the keep projection of the initial plan, whose mix
    /// serves through `scaler`, at every target one of them would probe
    /// while it keeps the plan — an epoch with horizon left whose target,
    /// quantized under the serving head-room, is nonzero and [`shifted`]
    /// from the initial target. These are the probe pass's own predicates,
    /// and an entry is a pure function of the plan, the target and the
    /// billing model, so reading the table decides exactly what a
    /// per-tenant memo would. A mix that carries nothing is never probed
    /// (its tenants re-solve), so it gets none.
    pub(crate) fn build_probe_table<'p>(
        &mut self,
        instance: &Instance,
        scaler: &FixedMixScaler,
        peaks: impl IntoIterator<Item = &'p [f64]>,
        env: &RunEnv,
        policy: &FleetPolicy,
        billing: &(dyn SegmentedBilling + Send + Sync),
    ) {
        if !self.initial_fractions.iter().any(|&f| f > 0.0) {
            return;
        }
        let solved = self.initial_target;
        // A handful of distinct targets among many probes: a list beats
        // sorting every probe.
        let mut targets = Vec::new();
        for peaks in peaks {
            // A tenant's epochs repeat a few rates (plateaus, daily cycles):
            // its last few distinct rates are remembered, and a repeated
            // rate, whose target was already classified, is not quantized
            // again. Quantizing divides by the granularity; skipping the
            // repeats more than halves the scan of a scale-style fleet.
            let mut recent = [f64::NAN; 4];
            let mut distinct = 0;
            // An epoch has horizon left while it is not the tenant's last.
            for &rate in peaks.iter().take(peaks.len().saturating_sub(1)) {
                if recent.contains(&rate) {
                    continue;
                }
                recent[distinct % recent.len()] = rate;
                distinct += 1;
                let rho = quantize_target(rate, env.serve_headroom, self.granularity);
                let probed = rho != 0 && shifted(rho, solved, policy.shift_threshold);
                if probed && !targets.contains(&rho) {
                    targets.push(rho);
                }
            }
        }
        targets.sort_unstable();
        self.probes = (targets.into_iter())
            .map(|rho| {
                let entry = ProbeEntry::new(instance, scaler, solved, rho, billing);
                (rho, entry)
            })
            .collect();
    }

    /// The probe table's keep projection at target `rho`, if it holds one.
    fn probe(&self, rho: Throughput) -> Option<&ProbeEntry> {
        let probes = &self.probes;
        let k = probes
            .binary_search_by_key(&rho, |&(target, _)| target)
            .ok()?;
        Some(&probes[k].1)
    }
}

/// A tenant's decision state: everything besides its running totals and
/// learned plans that a resumed run cannot re-derive from its configuration.
/// [`crate::persist`] checkpoints it as is.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TenantCore {
    /// The current recipe mix (the initial one is shared with the request's
    /// other tenants).
    pub(crate) fractions: Arc<[f64]>,
    /// The fleet rented under the current mix, with its scale-down
    /// hysteresis.
    pub(crate) mix: FixedMixState,
    pub(crate) solved_target: Throughput,
    /// Epoch at which the current mix was adopted (0 for the initial plan):
    /// keep-side projections bill the **marginal** remaining-horizon charge
    /// past the rental time already elapsed, so committed billing terms the
    /// current plan has already paid are sunk, not re-billed.
    pub(crate) adopted_epoch: usize,
    /// The warm-start prior of the next re-solve (the initial one is shared
    /// with the request's other tenants).
    pub(crate) prior: Option<Arc<SweepPrior>>,
    /// The `(target, effective caps)` of the last failure re-solve: while an
    /// outage situation is unchanged, re-solving it again cannot produce a
    /// different answer, so the violated epochs are only counted.
    pub(crate) last_failure_solve: Option<(Throughput, Vec<u64>)>,
    /// First epoch at which a deferred tenant may re-solve again; epochs
    /// before it keep the current plan (counted as deferred re-solves).
    pub(crate) deferred_until: usize,
    /// Current backoff step (epochs); doubles per consecutive exhaustion up
    /// to [`BACKOFF_CAP`], resets on a successful re-solve.
    pub(crate) backoff: usize,
}

/// A tenant's running totals: the counters and sums of its
/// [`TenantReport`] row, baselines aside.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Tally {
    pub(crate) rental_cost: f64,
    pub(crate) switching_cost: f64,
    pub(crate) probes: usize,
    pub(crate) resolves: usize,
    pub(crate) adoptions: usize,
    /// Deterministic solver-effort counters (solves, nodes, LP iterations).
    pub(crate) effort: SolverEffort,
    pub(crate) slo_violations: usize,
    pub(crate) failure_resolves: usize,
    pub(crate) degraded_resolves: usize,
    pub(crate) deferred_resolves: usize,
    pub(crate) budget_exhausted_epochs: usize,
    pub(crate) incumbent_adoptions: usize,
    pub(crate) resolve_retries: usize,
}

/// The baselines a tenant's report compares against, all on the initial
/// mix (whose scaler is the request's [`Derived::baseline`]): the fixed-mix
/// autoscaler — the frozen controller, advanced epoch by epoch inside the
/// sharded pass, so its bill is exactly an [`Autoscaler::run`] — and the
/// static-peak and (under failures) static-headroom fleets, closed forms of
/// the trace. Derived state: a resumed run replays the autoscaler from the
/// trace.
pub(crate) struct Baselines {
    mix: FixedMixState,
    fixed_mix_cost: f64,
    /// The initial mix provisioned statically for `peak / availability`
    /// (failure-coupled runs only).
    headroom_fleet: Vec<u64>,
}

impl Baselines {
    fn new(spec: &TenantSpec, derived: &Derived) -> Self {
        let headroom_fleet = match derived.headroom_availability {
            Some(availability) => {
                (derived.baseline).required_for(spec.trace.peak_rate() / availability)
            }
            None => Vec::new(),
        };
        Baselines {
            mix: FixedMixState::new(spec.instance.num_types()),
            fixed_mix_cost: 0.0,
            headroom_fleet,
        }
    }

    /// Advances the fixed-mix autoscaler, on the request's baseline
    /// `scaler`, through one epoch at demand `rate`.
    pub(crate) fn advance(&mut self, scaler: &FixedMixScaler, rate: f64, policy: &AutoscalePolicy) {
        let fleet = self.mix.step(scaler, rate, policy.scale_down_patience);
        self.fixed_mix_cost += scaler.cost_rate(fleet) * policy.epoch;
    }
}

/// Mutable per-tenant state of a run: the persisted decision state and
/// totals plus the caches derived from them. What the tenants of one
/// initial request have in common is not copied: the initial mix, the
/// baseline scaler, the initial plan and its probe table are reached
/// through the shared [`Derived`], and the initial prior and the serving
/// scaler's rates are shared handles until the tenant moves on. What each
/// tenant changes is its own and inline.
pub(crate) struct TenantState<'a> {
    pub(crate) spec: &'a TenantSpec,
    /// What the tenant shares with its initial request's other tenants.
    pub(crate) derived: Arc<Derived>,
    /// The epoch peaks, in the run's one buffer of them.
    pub(crate) peaks: &'a [f64],
    /// Scaler of the current mix.
    pub(crate) scaler: FixedMixScaler,
    pub(crate) baselines: Baselines,
    pub(crate) core: TenantCore,
    pub(crate) tally: Tally,
    pub(crate) epoch_costs: Vec<f64>,
    /// The probe memo: one keep projection per target probed since the
    /// current mix was adopted and missing from the probe table — a
    /// handful, so a list beats a hash map.
    pub(crate) probe_cache: Vec<(Throughput, ProbeEntry)>,
    /// Every plan learned, oldest first, after the request's initial plan
    /// ([`TenantState::plan_log`] is the whole log). A target re-solved
    /// under tighter caps is learned again, and the newest plan for a target
    /// shadows the older ones. Append-only, so a checkpoint serializes the
    /// log as is and a journal record carries exactly the plans learned
    /// since the previous record — replacements included.
    pub(crate) plans: Vec<(Throughput, Arc<KnownPlan>)>,
}

impl<'a> TenantState<'a> {
    /// Builds a tenant's state around its `derived` state, the `scaler` of
    /// its current mix, its epoch peaks and its persisted (or freshly
    /// initialised) decision state, running totals and plan log.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: &'a TenantSpec,
        derived: Arc<Derived>,
        scaler: FixedMixScaler,
        peaks: &'a [f64],
        core: TenantCore,
        tally: Tally,
        epoch_costs: Vec<f64>,
        plans: Vec<(Throughput, Arc<KnownPlan>)>,
    ) -> Self {
        TenantState {
            spec,
            peaks,
            scaler,
            baselines: Baselines::new(spec, &derived),
            derived,
            core,
            tally,
            epoch_costs,
            probe_cache: Vec::new(),
            plans,
        }
    }

    pub(crate) fn mix_carries_demand(&self) -> bool {
        self.core.fractions.iter().any(|&f| f > 0.0)
    }

    /// The plan log, oldest first: a fresh run's initial plan, shared with
    /// the request's other tenants, then every plan the tenant learned.
    pub(crate) fn plan_log(
        &self,
    ) -> impl DoubleEndedIterator<Item = &(Throughput, Arc<KnownPlan>)> {
        self.derived.initial_plan.iter().chain(&self.plans)
    }

    /// The length of [`TenantState::plan_log`].
    pub(crate) fn plan_count(&self) -> usize {
        usize::from(self.derived.initial_plan.is_some()) + self.plans.len()
    }

    /// The newest plan learned for target `rho`, if any.
    pub(crate) fn known(&self, rho: Throughput) -> Option<&KnownPlan> {
        (self.plan_log().rev())
            .find(|(target, _)| *target == rho)
            .map(|(_, plan)| &**plan)
    }

    /// Records a freshly learned plan at `rho`, shadowing any older one.
    pub(crate) fn learn(&mut self, rho: Throughput, plan: KnownPlan) {
        self.plans.push((rho, Arc::new(plan)));
    }

    /// The keep projection of the current mix at target `rho`: read off the
    /// request's probe table while the tenant keeps its initial plan (it
    /// has adopted nothing, so its adoption epoch is still 0), else
    /// memoized, built on first use.
    pub(crate) fn probe_entry(
        &mut self,
        rho: Throughput,
        billing: &(dyn SegmentedBilling + Send + Sync),
    ) -> &ProbeEntry {
        if self.core.adopted_epoch == 0 {
            if let Some(entry) = self.derived.probe(rho) {
                return entry;
            }
        }
        let k = match self
            .probe_cache
            .iter()
            .position(|(target, _)| *target == rho)
        {
            Some(k) => k,
            None => {
                let solved = self.core.solved_target;
                let entry =
                    ProbeEntry::new(&self.spec.instance, &self.scaler, solved, rho, billing);
                self.probe_cache.push((rho, entry));
                self.probe_cache.len() - 1
            }
        };
        &self.probe_cache[k].1
    }

    /// The warm-started solve of this tenant's instance at `target`, under
    /// `caps` when a quota constrains it.
    pub(crate) fn item<'s>(
        &'s self,
        target: Throughput,
        caps: Option<&'s [u64]>,
    ) -> WarmBatchItem<'s> {
        WarmBatchItem {
            instance: &self.spec.instance,
            target,
            caps,
            prior: self.core.prior.as_deref(),
        }
    }

    /// Bills one epoch of the tenant's rented fleet.
    pub(crate) fn rent(&mut self, cost: f64) {
        self.tally.rental_cost += cost;
        self.epoch_costs.push(cost);
    }

    /// Folds a successful re-solve into the tenant's accounting and closes
    /// an open backoff window. A `forced` adoption of an exhausted incumbent
    /// counts as an anytime adoption right away.
    pub(crate) fn solved(&mut self, outcome: &SolverOutcome, forced: bool) {
        self.tally.effort.record(outcome);
        if outcome.exhausted {
            self.tally.budget_exhausted_epochs += 1;
            if forced {
                self.tally.incumbent_adoptions += 1;
            }
        }
        if self.core.backoff > 0 {
            self.tally.resolve_retries += 1;
            self.core.backoff = 0;
            self.core.deferred_until = 0;
        }
    }

    /// Defers a tenant whose re-solve produced no usable plan (exhausted
    /// without an incumbent, or infeasible): it keeps its current plan and
    /// sits out a capped-exponential backoff window before the next attempt
    /// — deferred, never dropped. Any other error is a real failure and
    /// propagates.
    pub(crate) fn defer(&mut self, err: SolveError, epoch: usize) -> SolveResult<()> {
        match err {
            SolveError::BudgetExhausted { .. } => self.tally.budget_exhausted_epochs += 1,
            SolveError::NoSolutionFound { .. } => {}
            err => return Err(err),
        }
        self.tally.deferred_resolves += 1;
        self.core.backoff = next_backoff(self.core.backoff);
        self.core.deferred_until = epoch + 1 + self.core.backoff;
        Ok(())
    }

    /// Switches to `solution`'s recipe mix, solved for `target`, paying
    /// `charge`; the new mix rents from the next epoch on.
    pub(crate) fn switch_to(
        &mut self,
        solution: &Solution,
        target: Throughput,
        charge: f64,
        epoch: usize,
        scaling: &AutoscalePolicy,
    ) {
        self.tally.adoptions += 1;
        self.tally.switching_cost += charge;
        self.core.fractions = Autoscaler::split_fractions(solution).into();
        self.scaler = FixedMixScaler::new(&self.spec.instance, &self.core.fractions, scaling);
        self.core.solved_target = target;
        self.core.adopted_epoch = epoch + 1;
        self.probe_cache.clear();
    }

    /// Epochs in which the static-headroom fleet, suffering the tenant's
    /// outages, cannot carry the demand: one walk of its trace's cursor.
    pub(crate) fn headroom_violations(&self, outages: &mut TenantCoupling, epoch: f64) -> usize {
        let (scaler, b) = (&self.derived.baseline, &self.baselines);
        (self.peaks.iter().enumerate())
            .filter(|&(e, &rate)| {
                let start = e as f64 * epoch;
                let up = outages.surviving(&b.headroom_fleet, start, start + epoch);
                scaler.violates(rate, up)
            })
            .count()
    }

    /// The tenant's report row: the fixed-mix total accumulated epoch by
    /// epoch, the static baselines as closed forms of the initial mix and
    /// the trace, and the `headroom_violations` of the static-headroom fleet.
    /// The epoch costs move into the row.
    pub(crate) fn report(&mut self, env: &RunEnv, headroom_violations: usize) -> TenantReport {
        let (epoch, epochs) = (env.baseline_scaling.epoch, self.peaks.len() as f64);
        let (scaler, b) = (&self.derived.baseline, &self.baselines);
        let static_peak_cost =
            scaler.rescale_cost_rate(self.spec.trace.peak_rate()) * epoch * epochs;
        let static_headroom_cost = if env.failures_enabled {
            scaler.cost_rate(&b.headroom_fleet) * epoch * epochs
        } else {
            static_peak_cost
        };
        let t = &self.tally;
        TenantReport {
            name: self.spec.name.clone(),
            initial_target: self.derived.initial_target,
            rental_cost: t.rental_cost,
            switching_cost: t.switching_cost,
            epoch_costs: std::mem::take(&mut self.epoch_costs),
            probes: t.probes,
            resolves: t.resolves,
            adoptions: t.adoptions,
            effort: t.effort,
            static_peak_cost,
            fixed_mix_cost: b.fixed_mix_cost,
            static_headroom_cost,
            static_headroom_violations: headroom_violations,
            slo_violation_epochs: t.slo_violations,
            failure_resolves: t.failure_resolves,
            degraded_resolves: t.degraded_resolves,
            deferred_resolves: t.deferred_resolves,
            budget_exhausted_epochs: t.budget_exhausted_epochs,
            incumbent_adoptions: t.incumbent_adoptions,
            resolve_retries: t.resolve_retries,
        }
    }
}

/// Certifies an adopted (or memoized) plan against the independent integer
/// checker in `rental_solvers::certify` — debug builds only. A violation is
/// a controller or solver bug, never a recoverable runtime condition, so it
/// panics like any failed debug assertion.
pub(crate) fn debug_certify(instance: &Instance, solution: &Solution, caps: Option<&[u64]>) {
    if cfg!(debug_assertions) {
        if let Err(err) = rental_solvers::certify_plan(instance, solution, caps) {
            panic!("plan failed independent certification: {err}");
        }
    }
}

/// Mutable coupling state over a run: the quota ledger and each tenant's
/// side of the coupling, sharded alongside the tenant states.
pub(crate) struct CouplingState {
    pub(crate) pool: CapacityPool,
    pub(crate) tenants: Vec<TenantCoupling>,
}

/// One tenant's side of the capacity coupling: its outage trace, with the
/// trace's fingerprint (taken once per run) and the cursor the epoch clock
/// walks it with, and the buffers the bill fills every epoch, allocated
/// once per run.
pub(crate) struct TenantCoupling {
    trace: FailureTrace,
    pub(crate) fingerprint: u64,
    cursor: OutageCursor,
    /// The fleet the tenant asks the pool for this epoch.
    pub(crate) desired: Vec<u64>,
    /// The granted machines that stay up through this epoch.
    surviving: Vec<u64>,
    /// The caps a failure re-solve of this epoch would respect.
    pub(crate) caps: Vec<u64>,
}

impl TenantCoupling {
    pub(crate) fn new(trace: FailureTrace, num_types: usize) -> Self {
        TenantCoupling {
            fingerprint: trace.fingerprint(),
            cursor: OutageCursor::default(),
            trace,
            desired: vec![0; num_types],
            surviving: vec![0; num_types],
            caps: vec![0; num_types],
        }
    }

    /// Machines of type `q` among the first `first_n` down at `t`.
    pub(crate) fn down_at(&mut self, q: usize, first_n: u64, t: f64) -> u64 {
        (self.cursor).machines_down_among(&self.trace, TypeId(q), first_n, t)
    }

    /// Machines of `fleet` (per type) that stay up through the whole window
    /// `[start, end)`.
    pub(crate) fn surviving(&mut self, fleet: &[u64], start: f64, end: f64) -> &[u64] {
        for (q, (up, &count)) in self.surviving.iter_mut().zip(fleet).enumerate() {
            let down = (self.cursor).peak_down_among(&self.trace, TypeId(q), count, start, end);
            *up = count.saturating_sub(down);
        }
        &self.surviving
    }
}

/// The serving knobs of one run, resolved once from the policy and the
/// optional capacity coupling (see [`FleetController::run_env`]). Pure
/// derived data: a resumed run recomputes it instead of persisting it.
pub(crate) struct RunEnv {
    pub(crate) failures_enabled: bool,
    pub(crate) availability: f64,
    pub(crate) serve_headroom: f64,
    pub(crate) scaling: AutoscalePolicy,
    pub(crate) baseline_scaling: AutoscalePolicy,
}

/// Worst-case per-type fleet bound of one tenant: the machines its **worst
/// single-recipe** mix would need at a provisioned rate (granularity
/// rounding folded into the rate). No real mix can demand more of any type.
/// Shared by the outage-trace slot sizing below and the quota sizing of
/// [`crate::scenario::failure_coupled_fleet`], so the two cannot drift.
pub(crate) fn worst_case_fleet(instance: &Instance, provisioned_rate: f64) -> Vec<u64> {
    let demand = instance.application().demand();
    let platform = instance.platform();
    (0..instance.num_types())
        .map(|q| {
            let worst = (0..instance.num_recipes())
                .map(|j| demand.count(RecipeId(j), TypeId(q)))
                .max()
                .unwrap_or(0) as f64;
            (provisioned_rate * worst / platform.throughput(TypeId(q)).max(1) as f64).ceil() as u64
        })
        .collect()
}

/// The provisioned rate the worst-case fleet bound is evaluated at: the
/// trace peak under the serving head-room, padded by one granularity step
/// (targets are rounded up to granularity multiples).
pub(crate) fn worst_case_rate(instance: &Instance, trace: &WorkloadTrace, headroom: f64) -> f64 {
    trace.peak_rate() * headroom + instance.throughput_granularity().max(1) as f64
}

/// Upper bound on how many machines of each type a tenant could ever rent,
/// used to size its outage-trace slot pool: the worst-case fleet at the
/// provisioned peak, plus redundancy, doubled so outage replacements stay
/// inside the sampled slots.
fn failure_slots(
    instance: &Instance,
    trace: &WorkloadTrace,
    headroom: f64,
    redundancy: u64,
) -> Vec<u64> {
    worst_case_fleet(instance, worst_case_rate(instance, trace, headroom))
        .into_iter()
        .map(|base| 2 * (base + redundancy) + 4)
        .collect()
}

/// The multi-tenant streaming re-optimization controller.
pub struct FleetController {
    /// Controller parameters.
    pub policy: FleetPolicy,
    pub(crate) billing: Arc<dyn SegmentedBilling + Send + Sync>,
    /// Telemetry receiver for spans, per-epoch metrics and flight-recorder
    /// events. Defaults to [`NoopSink`] (zero-cost); all events are emitted
    /// from the sequential controller sites only, so an instrumented run's
    /// event sequence is deterministic.
    pub(crate) telemetry: Arc<dyn TelemetrySink>,
    /// Optional alert rules, evaluated once per epoch at the sequential
    /// barrier (see [`FleetController::with_alerts`]). `None` skips the
    /// engine entirely.
    pub(crate) alerts: Option<AlertPolicy>,
}

impl FleetController {
    /// Creates a controller billing on-demand by the hour.
    pub fn new(policy: FleetPolicy) -> Self {
        FleetController {
            policy,
            billing: Arc::new(OnDemand::hourly()),
            telemetry: Arc::new(NoopSink),
            alerts: None,
        }
    }

    /// Replaces the billing model used for remaining-horizon projections.
    pub fn with_billing(mut self, billing: Arc<dyn SegmentedBilling + Send + Sync>) -> Self {
        self.billing = billing;
        self
    }

    /// Attaches a telemetry sink (e.g. [`rental_obs::Recorder`]). Telemetry
    /// is pure copy-out — it never feeds a decision — so a run under any
    /// sink is bit-identical to the default [`NoopSink`] run.
    pub fn with_telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = sink;
        self
    }

    /// Enables the [`rental_obs::AlertEngine`] with `policy`: burn-rate /
    /// streak / exhaustion / checkpoint-lag rules evaluated once per epoch
    /// at the sequential barrier. Alerts are pure telemetry — transitions
    /// become flight-recorder events and gauges, never controller decisions
    /// — so an alerted run stays bit-identical to an unalerted one (modulo
    /// [`FleetReport::epoch_timing`]). The engine evaluates epoch-indexed
    /// cumulative totals only (no wall-clock), so a seeded run fires and
    /// resolves the same alerts at the same epochs every time.
    pub fn with_alerts(mut self, policy: AlertPolicy) -> Self {
        self.alerts = Some(policy);
        self
    }

    /// Runs the fleet over the shared epoch clock.
    ///
    /// # Errors
    ///
    /// Propagates the first solver error (initial solves or re-solves); the
    /// analytical scaling itself cannot fail.
    pub fn run<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
    ) -> SolveResult<FleetReport> {
        self.serve(solver, tenants, None, None)
            .map(|(report, _)| report)
    }

    /// Runs the fleet under a shared capacity pool with failure coupling:
    /// per-epoch fleets are granted by the pool's deterministic arbitration,
    /// outages erode the granted capacity, throughput-violated epochs are
    /// counted as SLO violations and trigger capacity-constrained
    /// re-solve-on-failure (probe first, batched, with a degraded-mode
    /// fallback when the quota cannot carry the target).
    ///
    /// With [`CapacityConfig::unconstrained`] — infinite quotas, failures
    /// disabled — this is **bit-identical** to [`FleetController::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first solver error, like [`FleetController::run`].
    ///
    /// # Panics
    ///
    /// Panics when the tenants do not share one platform type space (the
    /// pool arbitrates per machine type), or when the configured quota
    /// vector has the wrong arity.
    pub fn run_with_capacity<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: &CapacityConfig,
    ) -> SolveResult<FleetReport> {
        self.serve(solver, tenants, Some(config), None)
            .map(|(report, _)| report)
    }

    /// The shared driver without a store: such a run neither crashes nor
    /// touches the disk, so only solver errors can surface.
    pub(crate) fn serve<S: CapacitySolver + Sync>(
        &self,
        solver: &S,
        tenants: &[TenantSpec],
        config: Option<&CapacityConfig>,
        chaos: Option<ChaosConfig>,
    ) -> SolveResult<(FleetReport, ChaosStats)> {
        match self.drive(solver, tenants, config, chaos, None) {
            Ok((RunOutcome::Completed(report), stats)) => Ok((report, stats)),
            Err(PersistError::Solve(err)) => Err(err),
            _ => unreachable!("a run without a store neither crashes nor does I/O"),
        }
    }

    /// Resolves the serving knobs of a run from the policy and the optional
    /// capacity coupling. Pure — recomputed identically on resume, so the
    /// environment is never persisted.
    pub(crate) fn run_env(&self, caps_config: Option<&CapacityConfig>) -> RunEnv {
        let policy = &self.policy;
        // Serving knobs under failure coupling: provision `1/availability`
        // head-room plus N+k redundancy so expected outages do not
        // immediately violate the demand. Without failures everything
        // collapses to the plain policy, keeping the unconstrained path
        // bit-identical.
        let (failures_enabled, availability, failure_redundancy) = match caps_config {
            Some(config) if !config.failures.is_disabled() => {
                (true, config.availability(), config.failure_redundancy)
            }
            _ => (false, 1.0, 0),
        };
        let serve_headroom = if failures_enabled {
            policy.headroom / availability
        } else {
            policy.headroom
        };
        let scaling = AutoscalePolicy {
            headroom: serve_headroom,
            redundancy: failure_redundancy,
            ..policy.autoscale_policy()
        };
        RunEnv {
            failures_enabled,
            availability,
            serve_headroom,
            scaling,
            baseline_scaling: policy.autoscale_policy(),
        }
    }

    /// Coupling state: the quota ledger plus one outage trace per tenant,
    /// sub-seeded from the fleet seed so tenant i's outages are stable no
    /// matter how many co-tenants exist, generated and fingerprinted in one
    /// parallel pass. Deterministic for a fixed config — a resumed run
    /// regenerates the same traces (validated by fingerprint) and restores
    /// only the pool ledger from the checkpoint.
    pub(crate) fn init_coupling(
        &self,
        tenants: &[TenantSpec],
        caps_config: Option<&CapacityConfig>,
        env: &RunEnv,
    ) -> Option<CouplingState> {
        let config = caps_config?;
        let num_types = tenants.first().map(|t| t.instance.num_types()).unwrap_or(0);
        assert!(
            tenants.iter().all(|t| t.instance.num_types() == num_types),
            "capacity-coupled fleets must share one platform type space"
        );
        let coupled = rayon::parallel_map_indexed(tenants.len(), self.policy.threads, |i| {
            let t = &tenants[i];
            let slots = failure_slots(
                &t.instance,
                &t.trace,
                env.serve_headroom,
                config.failure_redundancy,
            );
            let trace = (config.tenant_failure_model(i)).generate(&slots, t.trace.duration());
            TenantCoupling::new(trace, num_types)
        });
        Some(CouplingState {
            pool: CapacityPool::new(config.quota_vector(num_types), tenants.len()),
            tenants: coupled,
        })
    }

    /// Builds the horizon cache of a solver plan.
    pub(crate) fn plan_cache(
        &self,
        instance: &Instance,
        solution: &Solution,
    ) -> SolveResult<HorizonCache> {
        let plan = ProvisioningPlan::build(instance, solution)?;
        Ok(HorizonCache::new(&plan, self.billing.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;
    use rental_pricing::RentalHorizon;
    use rental_solvers::exact::IlpSolver;
    use rental_solvers::solver::WarmStartSolver;
    use rental_solvers::MinCostSolver;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn diurnal_tenant() -> TenantSpec {
        TenantSpec::new(
            "diurnal",
            illustrating_example(),
            rental_stream::WorkloadTrace::diurnal(20.0, 160.0, 12.0, 3),
        )
    }

    #[test]
    fn quantize_rounds_up_to_the_granularity() {
        assert_eq!(quantize_target(0.0, 1.0, 10), 0);
        assert_eq!(quantize_target(-3.0, 1.0, 10), 0);
        assert_eq!(quantize_target(61.0, 1.0, 10), 70);
        assert_eq!(quantize_target(70.0, 1.0, 10), 70);
        assert_eq!(quantize_target(70.0, 1.2, 10), 90);
        assert_eq!(quantize_target(1.5, 1.0, 1), 2);
    }

    #[test]
    fn min_unit_cost_bounds_the_optimum_from_below() {
        let instance = illustrating_example();
        let bound = min_unit_cost(&instance);
        assert!(bound > 0.0);
        for &(rho, optimal) in &[(10u64, 28u64), (70, 124), (200, 333)] {
            assert!(
                rho as f64 * bound <= optimal as f64 + 1e-9,
                "bound violated at rho = {rho}"
            );
        }
    }

    #[test]
    fn fixed_mix_plan_matches_the_solution_plan_at_the_solved_target() {
        // With the mix taken from a solution at its own target, the fixed-mix
        // rescale reproduces exactly that solution's machines and cost.
        let instance = illustrating_example();
        let solution = instance
            .solution(70, rental_core::ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let fractions = Autoscaler::split_fractions(&solution);
        let scaler = FixedMixScaler::new(&instance, &fractions, &AutoscalePolicy::default());
        let fleet = scaler.required_for_target(70.0);
        let demand = scaler.demand_at(70.0);
        let load_each: Vec<f64> = fleet
            .iter()
            .zip(&demand)
            .map(|(&n, &d)| if n == 0 { 0.0 } else { d / n as f64 })
            .collect();
        let mut costs: Vec<u64> = (fleet_machines(&instance, &fleet, &load_each))
            .map(|(cost, _)| cost)
            .collect();
        costs.sort_unstable();
        let plan = ProvisioningPlan::build(&instance, &solution).unwrap();
        let mut plan_costs: Vec<u64> = plan.machines.iter().map(|m| m.hourly_cost).collect();
        plan_costs.sort_unstable();
        assert_eq!(costs, plan_costs);
        assert_eq!(costs.len(), 7);
        assert_eq!(costs.iter().sum::<u64>(), 124);
    }

    #[test]
    fn probe_entries_split_continued_and_fresh_machines() {
        // At the solved target itself every machine is continued; at a much
        // larger target the growth is fresh.
        let instance = illustrating_example();
        let solution = instance
            .solution(70, rental_core::ThroughputSplit::new(vec![10, 30, 30]))
            .unwrap();
        let fractions = Autoscaler::split_fractions(&solution);
        let scaler = FixedMixScaler::new(&instance, &fractions, &AutoscalePolicy::default());
        let billing = rental_pricing::OnDemand::hourly();
        let same = ProbeEntry::new(&instance, &scaler, 70, 70, &billing);
        let hour = RentalHorizon::hours(1.0);
        assert!((same.continued.total(hour) - 124.0).abs() < 1e-9);
        assert_eq!(same.fresh.total(hour), 0.0);
        // Doubling the target: continued stays the old fleet, fresh carries
        // the growth, and together they bill the whole rescaled fleet.
        let grown = ProbeEntry::new(&instance, &scaler, 70, 140, &billing);
        assert!((grown.continued.total(hour) - 124.0).abs() < 1e-9);
        assert!(grown.fresh.total(hour) > 0.0);
        let whole = scaler.required_for_target(140.0);
        assert!(
            (grown.continued.total(hour) + grown.fresh.total(hour) - scaler.cost_rate(&whole))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn resolving_fleet_beats_the_frozen_mix_on_a_wide_diurnal_swing() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 5.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        // The initial plan is solved for the low phase; the high phase shifts
        // the optimal mix, so re-solving must pay off.
        assert!(report.tenants[0].resolves >= 1);
        assert!(report.tenants[0].adoptions >= 1);
        assert!(
            report.total_cost() < report.fixed_mix_cost(),
            "fleet {} vs fixed mix {}",
            report.total_cost(),
            report.fixed_mix_cost()
        );
        assert!(report.total_cost() < report.static_peak_cost());
        // Probes keep re-solves to a minority of tenant-epochs.
        assert!(report.resolve_fraction() < 0.5);
        // Memoization: the diurnal trace revisits each phase three times but
        // each distinct target is solved at most once.
        assert!(report.tenants[0].resolves <= 2);
    }

    #[test]
    fn adoption_records_are_consistent_with_the_hysteresis() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 3.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert!(!report.adoptions.is_empty());
        for record in &report.adoptions {
            assert!(!record.forced());
            assert_eq!(
                record.adopted,
                record.projected_switch + record.switching_cost < record.projected_keep.unwrap()
            );
        }
    }

    #[test]
    fn prohibitive_switching_cost_freezes_the_initial_mix() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 1e9,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].adoptions, 0);
        // Never adopting means the rental bill equals the fixed-mix baseline.
        assert!((report.tenants[0].rental_cost - report.tenants[0].fixed_mix_cost).abs() < 1e-9);
        // The prohibitive hysteresis is also an effective probe filter: the
        // switching-cost term of the probe suppresses futile re-solves.
        assert_eq!(report.tenants[0].resolves, 0);
    }

    #[test]
    fn committed_terms_are_sunk_on_scale_down_keep_projections() {
        // The trace starts at its peak, so every later shift only *shrinks*
        // the fleet. Under a reserved term longer than the whole horizon the
        // already-committed machines cost nothing at the margin, so keeping
        // is free and the controller must never probe a re-solve.
        let trace = rental_stream::WorkloadTrace::diurnal(160.0, 20.0, 12.0, 3);
        let tenants = vec![TenantSpec::new("peak-first", illustrating_example(), trace)];
        let policy = FleetPolicy {
            switching_cost: 1.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .with_billing(Arc::new(rental_pricing::Reserved::with_term(10_000.0, 0.4)))
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].resolves, 0);
        assert_eq!(report.tenants[0].adoptions, 0);
        assert!(report.adoptions.is_empty());
    }

    #[test]
    fn scale_up_machines_bill_fresh_commitments_in_keep_projections() {
        // Growth is not sunk: when the demand rises past the solved target,
        // the keep side must charge new commitments for the added machines,
        // so the probe fires — and every decision still respects the
        // hysteresis invariant.
        let tenants = vec![diurnal_tenant()]; // starts low, shifts up to 160
        let policy = FleetPolicy {
            switching_cost: 1.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .with_billing(Arc::new(rental_pricing::Reserved::with_term(10_000.0, 0.4)))
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert!(report.tenants[0].resolves >= 1);
        for record in &report.adoptions {
            let keep = record.projected_keep.expect("no forced switches here");
            assert!(keep > 0.0);
            assert_eq!(
                record.adopted,
                record.projected_switch + record.switching_cost < keep
            );
        }
    }

    #[test]
    fn disabled_resolving_runs_pure_fixed_mix() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            resolve: false,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].probes, 0);
        assert_eq!(report.tenants[0].resolves, 0);
        assert!((report.tenants[0].rental_cost - report.tenants[0].fixed_mix_cost).abs() < 1e-9);
    }

    #[test]
    fn short_tenants_project_over_their_own_horizon_only() {
        // A tenant whose trace ends soon must not adopt for savings projected
        // over a longer co-tenant's horizon: at its late shift only one of
        // its own epochs remains, which cannot recoup the switching charge.
        let short_trace = rental_stream::WorkloadTrace::new(vec![
            rental_stream::TraceSegment {
                duration: 10.0,
                rate: 20.0,
            },
            rental_stream::TraceSegment {
                duration: 2.0,
                rate: 160.0,
            },
        ]);
        let long_trace = rental_stream::WorkloadTrace::constant(20.0, 96.0);
        let tenants = vec![
            TenantSpec::new("short", illustrating_example(), short_trace),
            TenantSpec::new("long", illustrating_example(), long_trace),
        ];
        let policy = FleetPolicy {
            switching_cost: 50.0,
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let short = &report.tenants[0];
        // Billed only over its own 12 epochs, counted the same way.
        assert_eq!(short.epoch_costs.len(), 12);
        assert_eq!(report.tenant_epochs(), 12 + 96);
        // One remaining epoch of savings cannot beat the charge: no adoption
        // (and the probe's switching-cost term filters the solve, too).
        assert_eq!(short.adoptions, 0);
        assert_eq!(short.resolves, 0);
        assert!((short.rental_cost - short.fixed_mix_cost).abs() < 1e-9);
    }

    #[test]
    fn empty_fleet_is_harmless() {
        let report = FleetController::new(FleetPolicy::default())
            .run(&IlpSolver::new(), &[])
            .unwrap();
        assert_eq!(report.epochs, 0);
        assert_eq!(report.total_cost(), 0.0);
        assert_eq!(report.resolve_fraction(), 0.0);
        let coupled = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &[], &CapacityConfig::unconstrained())
            .unwrap();
        // Even an empty run times its start and finish.
        assert!(coupled.matches_modulo_timing(&report));
        assert!(coupled.epoch_timing.is_empty() && report.epoch_timing.is_empty());
    }

    #[test]
    fn unconstrained_capacity_run_is_bit_identical_to_the_plain_run() {
        let tenants = vec![
            diurnal_tenant(),
            TenantSpec::new(
                "spiky",
                illustrating_example(),
                rental_stream::WorkloadTrace::spike(30.0, 150.0, 48.0, 4, 2.0, 7),
            ),
        ];
        let policy = FleetPolicy {
            switching_cost: 4.0,
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let coupled = FleetController::new(policy)
            .run_with_capacity(
                &IlpSolver::new(),
                &tenants,
                &CapacityConfig::unconstrained(),
            )
            .unwrap();
        // Everything except wall-clock timings must agree exactly.
        assert_eq!(plain.adoptions, coupled.adoptions);
        assert_eq!(plain.epochs, coupled.epochs);
        assert_eq!(plain.quota_utilization, coupled.quota_utilization);
        for (a, b) in plain.tenants.iter().zip(&coupled.tenants) {
            assert_eq!(a.epoch_costs, b.epoch_costs);
            assert_eq!(a.rental_cost, b.rental_cost);
            assert_eq!(a.switching_cost, b.switching_cost);
            assert_eq!(a.resolves, b.resolves);
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.adoptions, b.adoptions);
            assert_eq!(a.static_peak_cost, b.static_peak_cost);
            assert_eq!(a.fixed_mix_cost, b.fixed_mix_cost);
            assert_eq!(a.static_headroom_cost, b.static_headroom_cost);
            assert_eq!(a.slo_violation_epochs, 0);
            assert_eq!(b.slo_violation_epochs, 0);
            assert_eq!(b.failure_resolves, 0);
            assert_eq!(b.degraded_resolves, 0);
        }
    }

    #[test]
    fn transient_outages_under_unlimited_quota_do_not_churn_resolves() {
        // With no quota, a capped re-solve can never beat the plan already
        // running: outages must be absorbed by replacement renting and show
        // up as SLO violations only — zero futile re-solves.
        let tenants = vec![TenantSpec::new(
            "steady",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 96.0),
        )];
        let config = CapacityConfig::unconstrained()
            .with_failures(rental_stream::FailureModel::new(12.0, 3.0, 42));
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(tenant.slo_violation_epochs > 0, "outages must violate");
        assert_eq!(tenant.failure_resolves, 0, "no quota, nothing to re-solve");
        assert!(tenant.static_headroom_cost >= tenant.static_peak_cost);
        // The serving fleet rents outage head-room and replacements, so it
        // outspends the failure-free static peak but keeps serving.
        assert!(tenant.rental_cost > tenant.static_peak_cost);
    }

    #[test]
    fn quota_bound_outages_trigger_capacity_constrained_resolves() {
        // Finite quotas: machines lost to outages erode the caps a re-solve
        // may use, so violations now genuinely re-solve (spilling demand to
        // types with remaining quota), recorded as forced failure adoptions.
        let tenants = vec![TenantSpec::new(
            "steady",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 96.0),
        )];
        let config = CapacityConfig::unconstrained()
            .with_quotas(vec![5, 4, 3, 3])
            .with_failures(rental_stream::FailureModel::new(12.0, 6.0, 42));
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(tenant.slo_violation_epochs > 0, "outages must violate");
        assert!(
            tenant.failure_resolves > 0,
            "eroded caps must trigger re-solves"
        );
        assert!(tenant.static_headroom_cost > tenant.static_peak_cost);
        // Failure adoptions are recorded as forced, failure-triggered.
        let failure_records: Vec<_> = report
            .adoptions
            .iter()
            .filter(|r| r.failure_triggered)
            .collect();
        assert!(!failure_records.is_empty());
        for record in failure_records {
            assert!(record.forced());
            assert!(record.adopted);
        }
        assert!(!report.quota_utilization.is_empty());
    }

    #[test]
    fn tight_quotas_degrade_instead_of_crashing() {
        // A quota far below what rho = 70 needs: the tenant must fall back
        // to a degraded plan (or run unserved), never error out, and the
        // pool utilisation must be reported as saturated.
        let tenants = vec![TenantSpec::new(
            "capped",
            illustrating_example(),
            rental_stream::WorkloadTrace::constant(70.0, 24.0),
        )];
        let config = CapacityConfig::unconstrained().with_quotas(vec![1, 1, 1, 1]);
        let report = FleetController::new(FleetPolicy::default())
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap();
        let tenant = &report.tenants[0];
        assert!(
            tenant.slo_violation_epochs > 0,
            "the quota starves the demand"
        );
        assert!(!report.quota_utilization.is_empty());
        assert!(report.quota_utilization.iter().any(|&u| u >= 1.0 - 1e-9));
        // The degraded fallback kicked in at most once per outage episode
        // (the memo suppresses re-solving an unchanged situation).
        assert!(tenant.degraded_resolves <= 2);
        // Costs never exceed what the quota can rent.
        assert!(tenant.rental_cost > 0.0);
    }

    #[test]
    fn next_backoff_doubles_and_clamps() {
        assert_eq!(next_backoff(0), 1);
        assert_eq!(next_backoff(1), 2);
        assert_eq!(next_backoff(4), 8);
        assert_eq!(next_backoff(8), 8);
    }

    #[test]
    fn unlimited_epoch_budget_is_bit_identical_to_no_budget() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 4.0,
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let budgeted = FleetController::new(FleetPolicy {
            epoch_budget: Some(SolveBudget::unlimited()),
            ..policy
        })
        .run(&IlpSolver::new(), &tenants)
        .unwrap();
        assert_eq!(plain.adoptions, budgeted.adoptions);
        for (a, b) in plain.tenants.iter().zip(&budgeted.tenants) {
            assert_eq!(a.epoch_costs, b.epoch_costs);
            assert_eq!(a.rental_cost, b.rental_cost);
            assert_eq!(a.switching_cost, b.switching_cost);
            assert_eq!(a.resolves, b.resolves);
            assert_eq!(a.probes, b.probes);
            assert_eq!(a.adoptions, b.adoptions);
            assert_eq!(b.deferred_resolves, 0);
            assert_eq!(b.budget_exhausted_epochs, 0);
            assert_eq!(b.incumbent_adoptions, 0);
            assert_eq!(b.resolve_retries, 0);
        }
    }

    /// Delegates to the ILP solver but fails the first `failures` *budgeted*
    /// warm solves with [`SolveError::BudgetExhausted`] — a deterministic
    /// stand-in for an epoch budget too tight to find any incumbent.
    struct ExhaustingSolver {
        inner: IlpSolver,
        failures: AtomicUsize,
    }

    impl MinCostSolver for ExhaustingSolver {
        fn name(&self) -> &str {
            "exhausting"
        }

        fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
            self.inner.solve(instance, target)
        }
    }

    impl WarmStartSolver for ExhaustingSolver {
        fn solve_with_prior(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_prior(instance, target, prior)
        }

        fn solve_with_prior_budgeted(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
            budget: &SolveBudget,
        ) -> SolveResult<SolverOutcome> {
            if self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(SolveError::BudgetExhausted {
                    solver: "exhausting".to_string(),
                });
            }
            self.inner
                .solve_with_prior_budgeted(instance, target, prior, budget)
        }
    }

    /// Capped solves delegate untouched: these doubles only shape the
    /// warm-start path, and no test here runs them under a finite pool.
    impl CapacitySolver for ExhaustingSolver {
        fn solve_with_caps(
            &self,
            instance: &Instance,
            target: Throughput,
            caps: &[u64],
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_caps(instance, target, caps, prior)
        }
    }

    #[test]
    fn exhausted_resolves_defer_with_backoff_and_retry() {
        let tenants = vec![diurnal_tenant()];
        let solver = ExhaustingSolver {
            inner: IlpSolver::new(),
            failures: AtomicUsize::new(1),
        };
        let policy = FleetPolicy {
            epoch_budget: Some(SolveBudget::unlimited()),
            ..FleetPolicy::default()
        };
        let report = FleetController::new(policy).run(&solver, &tenants).unwrap();
        let tenant = &report.tenants[0];
        // The first budgeted re-solve was exhausted without an incumbent:
        // the tenant kept its plan, sat out a backoff window, and succeeded
        // on the retry — never dropped, never an error.
        assert!(tenant.budget_exhausted_epochs >= 1);
        assert!(tenant.deferred_resolves >= 1);
        assert_eq!(tenant.resolve_retries, 1);
        assert!(tenant.resolves >= 1);
        assert!(tenant.adoptions >= 1);
        // Every epoch is still billed: deferral keeps serving on the
        // current plan.
        assert_eq!(tenant.epoch_costs.len(), report.epochs);
        assert_eq!(report.deferred_resolves(), tenant.deferred_resolves);
        assert_eq!(report.resolve_retries(), 1);
    }

    /// Delegates to the ILP solver but reports every budgeted outcome as a
    /// budget-exhausted incumbent (feasible, not proven optimal) — the
    /// anytime contract's happy path.
    struct AnytimeSolver {
        inner: IlpSolver,
    }

    impl MinCostSolver for AnytimeSolver {
        fn name(&self) -> &str {
            "anytime"
        }

        fn solve(&self, instance: &Instance, target: Throughput) -> SolveResult<SolverOutcome> {
            self.inner.solve(instance, target)
        }
    }

    impl WarmStartSolver for AnytimeSolver {
        fn solve_with_prior(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_prior(instance, target, prior)
        }

        fn solve_with_prior_budgeted(
            &self,
            instance: &Instance,
            target: Throughput,
            prior: Option<&SweepPrior>,
            budget: &SolveBudget,
        ) -> SolveResult<SolverOutcome> {
            let mut outcome = self
                .inner
                .solve_with_prior_budgeted(instance, target, prior, budget)?;
            outcome.exhausted = true;
            outcome.proven_optimal = false;
            outcome.lower_bound = None;
            Ok(outcome)
        }
    }

    /// Capped solves delegate untouched: these doubles only shape the
    /// warm-start path, and no test here runs them under a finite pool.
    impl CapacitySolver for AnytimeSolver {
        fn solve_with_caps(
            &self,
            instance: &Instance,
            target: Throughput,
            caps: &[u64],
            prior: Option<&SweepPrior>,
        ) -> SolveResult<SolverOutcome> {
            self.inner.solve_with_caps(instance, target, caps, prior)
        }
    }

    #[test]
    fn budget_exhausted_incumbents_are_adopted_as_anytime_plans() {
        let tenants = vec![diurnal_tenant()];
        let policy = FleetPolicy {
            switching_cost: 5.0,
            epoch_budget: Some(SolveBudget::unlimited()),
            ..FleetPolicy::default()
        };
        let plain = FleetController::new(policy)
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        let anytime = FleetController::new(policy)
            .run(
                &AnytimeSolver {
                    inner: IlpSolver::new(),
                },
                &tenants,
            )
            .unwrap();
        let tenant = &anytime.tenants[0];
        assert!(tenant.adoptions >= 1);
        // Every adoption of a *freshly solved* plan was an anytime
        // incumbent (re-adoptions of the unbudgeted initial plan are not),
        // and every successful budgeted solve counted one budget-exhausted
        // epoch.
        assert!(tenant.incumbent_adoptions >= 1);
        assert!(tenant.incumbent_adoptions <= tenant.adoptions);
        assert_eq!(tenant.budget_exhausted_epochs, tenant.resolves);
        assert_eq!(anytime.incumbent_adoptions(), tenant.incumbent_adoptions);
        // The incumbents here are secretly optimal, so the economics match
        // the plain run exactly.
        assert_eq!(plain.tenants[0].rental_cost, tenant.rental_cost);
        assert_eq!(plain.tenants[0].switching_cost, tenant.switching_cost);
    }

    #[test]
    fn zero_rate_prefix_forces_a_resolve_when_demand_arrives() {
        // The tenant starts idle: the initial plan is empty, and the first
        // nonzero epoch must force a re-solve (an empty mix carries nothing).
        let trace = rental_stream::WorkloadTrace::new(vec![
            rental_stream::TraceSegment {
                duration: 3.0,
                rate: 0.0,
            },
            rental_stream::TraceSegment {
                duration: 6.0,
                rate: 70.0,
            },
        ]);
        let tenants = vec![TenantSpec::new("cold", illustrating_example(), trace)];
        let report = FleetController::new(FleetPolicy::default())
            .run(&IlpSolver::new(), &tenants)
            .unwrap();
        assert_eq!(report.tenants[0].initial_target, 0);
        assert_eq!(report.tenants[0].resolves, 1);
        assert_eq!(report.tenants[0].adoptions, 1);
        // The switch away from the empty mix is recorded as forced, not as a
        // hysteresis win over an infinite keep cost.
        assert!(report.adoptions[0].forced());
        assert!(report.adoptions[0].adopted);
        // Once adopted, the optimal rho = 70 plan is rented: 124 per epoch.
        assert!(report.tenants[0].rental_cost > 0.0);
        let last = *report.tenants[0].epoch_costs.last().unwrap();
        assert!((last - 124.0).abs() < 1e-9);
    }
}
