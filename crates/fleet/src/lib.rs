//! # rental-fleet
//!
//! Multi-tenant **streaming re-optimization** on top of the MinCost kernel:
//! the subsystem that turns the batch solver and warm-started sweeps into the
//! many-tenants serving scenario the ROADMAP targets.
//!
//! §I of the paper assumes one stream application provisioned once for a
//! constant target throughput ρ. A serving platform instead hosts **fleets**
//! of such applications (tenants), each with its own instance, its own
//! time-varying workload trace and its own current plan. This crate manages
//! them over a shared epoch clock with a **probe / solve / adopt** loop:
//!
//! 1. **Probe** — every epoch, each tenant's demand rate is re-read from its
//!    trace. When the rate has shifted away from the target the tenant's plan
//!    was solved for, a cheap what-if probe asks whether the *fixed-mix
//!    rescale* of the current plan at the new rate is still within ε of the
//!    best cost achievable there (a fractional lower bound, sharpened by any
//!    previously solved target). The probe projects costs over the
//!    **remaining horizon** through a memoized
//!    [`rental_pricing::HorizonCache`] instead of re-billing the plan — one
//!    `O(log segments)` query per probe.
//! 2. **Solve** — all tenants whose probes demand a re-solve are batched into
//!    a single [`rental_solvers::solve_warm_batch`] fan-out on the shared
//!    worker pool, each unit warm-started from that tenant's previous
//!    incumbent and proven bound ([`rental_solvers::SweepPrior`]). Tenants
//!    asking the same request (equal instance, target, caps and prior) share
//!    one solve; the initial plans come from the same kind of batch.
//! 3. **Adopt** — a freshly solved plan is adopted only when its projected
//!    savings over the remaining horizon exceed a configurable
//!    switching/migration cost (hysteresis); rejected solves still sharpen
//!    the tenant's probe memo and warm-start prior, so a target is never
//!    solved twice.
//!
//! The run emits a [`FleetReport`]: per-tenant rental and switching cost,
//! re-solve and adoption counts, one trace tree of stage times per epoch
//! (the probe-vs-solve split is [`FleetReport::probe_seconds`] against
//! [`FleetReport::solve_seconds`], summed over the epochs), and savings
//! against both the **static peak** provisioning of the paper and the
//! **fixed-mix autoscaler** of `rental-stream` (which rescales machine counts
//! but never re-solves the recipe mix).
//!
//! ## One driver behind every entry point
//!
//! [`FleetController::run`], [`FleetController::run_with_capacity`],
//! [`FleetController::run_with_chaos`], [`FleetController::run_resumable`]
//! and [`FleetController::resume_from`] are thin constructors of one epoch
//! loop: a run owns its tenant states, capacity coupling, adoption ledger
//! and alert engine, and steps each epoch through the same phases — bill
//! (and arbitrate), repair failures, probe shifts, one batched re-solve,
//! adopt — with an optional chaos clock and an optional durability hook.
//! The fixed-mix baseline advances inside the same sharded per-tenant pass
//! (it *is* the frozen controller), and the static-peak and static-headroom
//! baselines are closed forms of the trace, so the report is assembled from
//! running totals instead of replaying every trace.
//!
//! ## Shared derived state
//!
//! Tenants of one scenario often serve the same instance: the scaling
//! fleet cycles 32 instances over 16,000 tenants. An
//! [`rental_core::Instance`] keeps its recipes, demand counts and machines
//! in shared storage, so each tenant's clone costs a few reference counts,
//! and requests group by that storage before one instance per distinct
//! storage is hashed by value. A fresh run derives what the tenants of one
//! initial request — one instance at one initial target — have in common
//! once, and each tenant's state reaches it instead of copying it: the
//! initial plan with its horizon cache and warm-start prior, the recipe
//! mix, the fixed-mix scalers' per-type rates and the instance's constants
//! (granularity, the fractional unit-cost bound). A request of two or more
//! tenants also gets one immutable **probe table**: the initial plan's keep
//! projection at every target its tenants would probe while they keep it,
//! built in the run's parallel per-request derivation and only read by the
//! probe pass. What a tenant changes — its fleet, hysteresis counters,
//! running totals, learned plans and, once it switches plans (or when its
//! request is its own, or the run resumed), its probe memo — stays its own
//! and inline. Sharing is invisible to decisions: a table entry is a pure
//! function of the plan, the target and the billing model, and the report
//! is the same whether the instances share storage or were each rebuilt
//! from their parts, and whether a tenant runs in its fleet or alone.
//!
//! ## Capacity- and failure-coupled serving
//!
//! [`FleetController::run_with_capacity`] layers the `rental-capacity`
//! subsystem underneath the loop: per-epoch fleets are granted by a shared
//! [`rental_capacity::CapacityPool`] (per-type quotas, deterministic
//! proportional arbitration), machine outages sampled per tenant from
//! [`rental_stream::FailureModel`] erode the granted capacity, and epochs
//! whose surviving machines cannot carry the demand are counted as **SLO
//! violations** and trigger **capacity-constrained re-solve-on-failure**: a
//! cheap fractional coverage probe, then one batched capped MILP fan-out,
//! then a degraded-mode fallback to the largest quota-feasible target. The
//! report grows quota-utilization, SLO-violation and failure-re-solve
//! counters plus a **static-headroom** baseline (provisioning the initial
//! mix for `peak / availability`). With
//! [`rental_capacity::CapacityConfig::unconstrained`] the coupled path is
//! bit-identical to [`FleetController::run`].
//!
//! ## Sharded epoch pipelines
//!
//! The per-tenant epoch work — trace advancement, billing, the baseline,
//! shift detection, memoized what-if probes — is embarrassingly parallel.
//! [`FleetPolicy::shards`] partitions the tenants into contiguous shards that
//! run it concurrently on the shared rayon pool and meet at a **single
//! deterministic barrier per epoch**, where everything cross-tenant happens
//! sequentially in tenant order: pool arbitration, the batched ILP fan-outs,
//! adoption and flight-recorder events. The report at *every* shard count is
//! therefore bit-identical (modulo the wall-clock timing family) to the
//! sequential loop — `shards: Some(1)` *is* the sequential loop — which the
//! `fleet_sharding` property tests pin for every entry point.
//!
//! ## Deadlines, anytime incumbents and the degradation ladder
//!
//! [`FleetPolicy::epoch_budget`] caps the solving work spent per epoch: the
//! budget (wall-clock deadline, branch-and-bound node cap, simplex
//! iteration cap — any subset) is split across the epoch's batched
//! re-solves. Exhausted solves are **anytime**: an incumbent at exhaustion
//! is adopted like any other candidate ([`TenantReport::incumbent_adoptions`]);
//! without one the tenant **keeps its current plan** and the re-solve is
//! deferred under capped exponential backoff
//! (1, 2, 4, then 8 epochs; [`TenantReport::deferred_resolves`]). The
//! ladder, from healthiest to last resort: full solve → anytime incumbent →
//! keep current plan + backoff → the fixed-mix rescale every tenant can
//! always fall back to. The [`chaos`] module stress-tests exactly this
//! ladder with deterministic seeded fault injection via
//! [`FleetController::run_with_chaos`].
//!
//! ## Crash safety
//!
//! [`FleetController::run_resumable`] makes the loop **durable**: every
//! completed epoch appends one CRC-framed record to a write-ahead journal in
//! a [`rental_persist::Store`], and every [`PersistOptions::snapshot_every`]
//! epochs a snapshot is written. The journal logs decisions, not state: a
//! record carries the epoch's solver outcomes (injected faults among them)
//! and a digest of the state the epoch left — everything else an epoch does
//! is a deterministic function of its inputs. The snapshots form a chain
//! (format 6): each is a link carrying the history appended since the link
//! before it — epoch costs, learned plans, adoption records — plus the
//! mutable decision state, encoded straight from the running state, so
//! history is written once. No wall-clock value reaches the store, solver
//! seconds included, so two runs of one seed write byte-identical files.
//! [`FleetController::resume_from`] climbs the recovery ladder documented in
//! [`persist`]: replay by re-execution (the newest complete chain, then
//! every journaled epoch through the same epoch step, its solves served from
//! the journal, certified and checked against the requests and the
//! digests), the valid prefix of the journal followed by live epochs, cold
//! restart. A broken link falls back to an older complete chain first.
//! Every rung lands on a report bit-identical (modulo wall-clock timing, see
//! [`FleetReport::matches_modulo_timing`]) to the uninterrupted run.
//!
//! ## Telemetry and the operational plane
//!
//! The controller reports through the [`rental_obs::TelemetrySink`] handed
//! to [`FleetController::with_telemetry`] (default [`rental_obs::NoopSink`]).
//! Every epoch is split into five stages — probe / arbitrate / solve / adopt
//! / persist ([`rental_obs::Stage`]) — and its one record of time is a
//! causal [`rental_obs::TraceTree`], built where the work happens: one
//! timer per phase (the bill pass, each re-solve batch and degraded
//! fallback, each forced repair adoption, adopt, persist) adds its wall
//! seconds into its stage's span under the epoch's root, and repair's
//! triage and the probe fan-out (one span per shard and its barrier wait)
//! go under `probe`, so the five stages sum to at most the epoch's wall.
//! Two stages are split into back-to-back parts that partition them: a
//! coupled bill into `desired`, `grant` and `violations` under
//! `arbitrate`, and a durable commit into `digest`, `encode`, `append` and,
//! on snapshot epochs, `snapshot` under `persist`.
//! The end-of-epoch barrier emits the `fleet.span.*` samples from the tree,
//! once per epoch, and files it in [`FleetReport::epoch_timing`]. The trees
//! are the report's only time and the **single masked field family** of
//! [`FleetReport::matches_modulo_timing`]; no tenant row, checkpoint or
//! journal record carries time. The run's start and end have a tree each,
//! [`FleetReport::init_timing`] (the initial solve batch among its phases)
//! and [`FleetReport::finish_timing`], masked alike. Deterministic solver
//! effort ([`TenantReport::effort`]) is not
//! masked and survives resume. Counters, gauges and flight-recorder events
//! are emitted only from sequential barrier sites,
//! and [`FleetController::with_alerts`] evaluates an
//! [`rental_obs::AlertEngine`] there on epoch-indexed data; an
//! [`rental_obs::Exporter`] attached to the same [`rental_obs::Recorder`]
//! serves `/metrics`, `/health` and `/events` while the run goes on. None
//! of it feeds a decision, so a fully instrumented run is bit-identical
//! (modulo timing) to an untelemetered one. The metric catalogue lives in
//! `METRICS.md` at the workspace root.
//!
//! ```
//! use rental_fleet::{FleetController, FleetPolicy, TenantSpec};
//! use rental_solvers::exact::IlpSolver;
//! use rental_core::examples::illustrating_example;
//! use rental_stream::WorkloadTrace;
//!
//! let tenants = vec![TenantSpec::new(
//!     "video",
//!     illustrating_example(),
//!     WorkloadTrace::diurnal(20.0, 120.0, 12.0, 2),
//! )];
//! let report = FleetController::new(FleetPolicy::default())
//!     .run(&IlpSolver::new(), &tenants)
//!     .unwrap();
//! assert!(report.total_cost() <= report.fixed_mix_cost());
//! ```

pub mod chaos;
pub mod controller;
mod journal;
pub mod persist;
pub mod report;
mod run;
pub mod scenario;
pub mod tenant;

pub use chaos::{ChaosConfig, ChaosStats, CorruptionFault, CorruptionKind, CrashPlan, CrashPoint};
pub use controller::{initial_target, FleetController, FleetPolicy};
pub use persist::{PersistError, PersistOptions, PersistResult, RunOutcome};
pub use rental_capacity::CapacityConfig;
pub use rental_obs::{AlertPolicy, AlertRule};
pub use report::{AdoptionRecord, FleetReport, SolverEffort, TenantReport};
pub use scenario::{
    diurnal_spike_fleet, failure_coupled_fleet, fleet_instance_config, scaling_fleet,
    scaling_instance_config, FleetScenario, ACCEPTANCE_SEED, SCALING_EPOCHS,
};
pub use tenant::TenantSpec;
