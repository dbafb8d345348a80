//! # rental-experiments
//!
//! Experiment harness reproducing the evaluation of *"Minimizing Rental Cost
//! for Multiple Recipe Applications in the Cloud"* (Hanna et al., IPDPSW
//! 2016):
//!
//! * [`table3`] — the illustrating example of §VII (Table II platform,
//!   Figure 2 recipes) solved by the ILP and every heuristic for
//!   ρ = 10..200, i.e. Table III;
//! * [`runner`] — the randomized experiments of §VIII: batches of generated
//!   `(application, cloud)` configurations solved by the full suite, with
//!   normalised-cost (Figures 3, 6, 7), win-count (Figure 4) and timing
//!   (Figures 5, 8) aggregation, processed in parallel across configurations;
//! * [`report`] — the renderer: every lane's JSON Lines rows are its only
//!   hand-written output, and CSV and Markdown are derived from them (Table
//!   III's Markdown and the figure pivots keep the paper's own layouts);
//! * [`stats`] — the aggregation helpers;
//! * [`ablation`] — the δ-step, escape-mechanism and recipe-similarity
//!   ablation studies (extensions beyond the paper; the `repro ablation-*`
//!   lanes);
//! * [`fleet`] — the multi-tenant streaming re-optimization lane: the
//!   `rental-fleet` probe/solve/adopt controller on the diurnal+spike
//!   scenario, versus the static-peak and fixed-mix baselines;
//! * [`fleet_failure`] — the capacity/outage lane: the same fleet under
//!   finite quotas and machine failures (MTBF sweep), fleet-with-repair vs
//!   the static-headroom baseline on cost and SLO-violation epochs;
//! * [`fleet_deadline`] — the anytime/graceful-degradation lane: the same
//!   fleet under a per-epoch solve budget (node-cap sweep), measuring what
//!   anytime incumbents, deferred re-solves and capped exponential backoff
//!   cost against the proven-optimal (unlimited) run;
//! * [`fleet_recovery`] — the crash-safety lane: the failure-coupled fleet
//!   made durable through the `rental-persist` checkpoint/WAL store
//!   (snapshot-cadence sweep), measuring persistence overhead and on-disk
//!   footprint, then killed mid-run and restarted from disk with the resumed
//!   report held bit-for-bit against the uninterrupted run;
//! * [`fleet_scale`] — the scaling lane: the plateau-shift scaling fleet at
//!   10³–10⁴ tenants, sequential loop vs sharded epoch pipelines
//!   (`FleetPolicy::shards`), reporting tenant-epochs/sec, speedup and the
//!   bit-identity of the sharded report;
//! * [`fleet_obs`] — the observability lane: the chaos-wrapped
//!   failure-coupled fleet served with the `rental-obs` recorder installed
//!   at every layer, reporting the per-stage epoch breakdown, the top-k
//!   tenants by solver effort, the metric catalogue and the flight
//!   recorder's event tail;
//! * [`lp_large`] — the LP substrate scaling lane: sparse Markowitz LU vs
//!   the retained dense LU (refactorization and end-to-end revised-simplex
//!   timing, fill-in, hyper-sparse hit rate) on wide-platform MinCost
//!   relaxations with m = 256..1024 rows.
//!
//! The `repro` binary glues these together:
//!
//! ```text
//! cargo run --release -p rental-experiments --bin repro -- table3
//! cargo run --release -p rental-experiments --bin repro -- fig3 --configs 100
//! cargo run --release -p rental-experiments --bin repro -- all --configs 20 --seed 1
//! ```

pub mod ablation;
pub mod fleet;
pub mod fleet_deadline;
pub mod fleet_failure;
pub mod fleet_obs;
pub mod fleet_recovery;
pub mod fleet_scale;
pub mod lp_large;
pub mod report;
pub mod runner;
pub mod stats;
pub mod table3;

pub use ablation::{
    ablation_rows, delta_sweep, escape_mechanisms, mutation_sweep, AblationResults, AblationRow,
    AblationSpec,
};
pub use fleet::{fleet_rows, run_fleet_experiment, FleetExperimentSpec, FleetTable};
pub use fleet_deadline::{
    fleet_deadline_rows, run_fleet_deadline_experiment, FleetDeadlineRow, FleetDeadlineSpec,
    FleetDeadlineTable,
};
pub use fleet_failure::{
    failure_sweep_solver, fleet_failure_rows, run_fleet_failure_experiment, FleetFailureRow,
    FleetFailureSpec, FleetFailureTable,
};
pub use fleet_obs::{
    fleet_obs_markdown, fleet_obs_rows, run_fleet_obs_experiment, run_fleet_obs_experiment_with,
    ChaosSummary, FleetObsSpec, FleetObsTable,
};
pub use fleet_recovery::{
    fleet_recovery_rows, run_fleet_recovery_experiment, FleetRecoveryRow, FleetRecoverySpec,
    FleetRecoveryTable,
};
pub use fleet_scale::{
    fleet_scale_rows, run_fleet_scale_experiment, FleetScaleRow, FleetScaleSpec, FleetScaleTable,
    LoopTiming,
};
pub use lp_large::{lp_large_rows, run_lp_large, LpLargeRow, LpLargeSpec};
pub use report::{
    figure_markdown, figure_rows, rows_csv, rows_jsonl, rows_markdown, summary_rows,
    table3_markdown, table3_rows, write_artifact, Metric, MARKDOWN_ROWS,
};
pub use runner::{presets, run_experiment, CellResult, ExperimentResults, ExperimentSpec};
pub use table3::{run_table3, table3_targets, Table3Row, PAPER_TABLE3_H1, PAPER_TABLE3_OPTIMAL};
