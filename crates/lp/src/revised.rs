//! Revised simplex on a sparse Markowitz-factorized basis.
//!
//! Where the dense tableau ([`crate::simplex::dense`]) re-eliminates the whole
//! `m × (n + m)` tableau on every pivot, the revised simplex keeps three much
//! smaller objects and derives everything else on demand:
//!
//! * the constraint matrix `A` in **sparse column and row** form, built once;
//! * a **sparse Markowitz LU** of the basis matrix `B` taken at the last
//!   refactorization ([`crate::factor::SparseLu`]): pivots chosen by minimum
//!   fill-in under a stability threshold, `L` stored as eta-like column
//!   factors, `U` as a sparse row/column structure. MinCost standard forms
//!   carry a handful of nonzeros per column, so the factors stay near the
//!   size of `B` itself instead of the dense O(m³)/O(m²) sweeps;
//! * an **eta file**: the product-form updates accumulated since then. After a
//!   pivot that replaces basis row `r` with column `q`, the new basis is
//!   `B' = B · E` where `E` is the identity with column `r` replaced by
//!   `w = B⁻¹ a_q`. Only the sparse `w` is stored; `B'⁻¹` is never formed.
//!
//! `FTRAN` (solve `B x = v`) and `BTRAN` (solve `Bᵀ y = v`) are
//! **hyper-sparse**: right-hand sides travel as indexed sparse vectors
//! ([`crate::factor::SparseVector`]), the triangular sweeps visit only the
//! nonzeros reachable from the input's support (depth-first over the factor
//! graph), and etas whose pivot is off-support are skipped outright. The
//! downstream loops — ratio tests, basic-value updates, eta construction —
//! iterate the support too, so one iteration costs O(entries touched). Every
//! `REFACTOR_EVERY` (48) pivots the eta file is folded into a fresh LU, bounding
//! per-iteration cost and floating-point drift. The pre-rewrite dense LU
//! remains available as a differential oracle via [`SimplexOptions::dense_lu`]
//! (or the `dense-lu` crate feature).
//!
//! Pricing is **partial with a rotating candidate section**: each primal
//! iteration scans a section of the nonbasic columns (Dantzig within the
//! section) and only walks further sections when the current one has no
//! violating column, so wide models stop paying O(n · nnz) per pivot; a full
//! wrap with no candidate proves optimality, and Bland's rule (after
//! `bland_after` pivots) reverts to a full lowest-index scan, keeping the
//! anti-cycling argument intact.
//!
//! Variable bounds are handled **natively**: each column carries `[l, u]` and
//! a nonbasic status (at lower, at upper, or free at zero), so general bounds
//! cost nothing extra — no shifting, no splitting of free variables, and no
//! explicit upper-bound rows. Phase 1 uses one fixed artificial column per row
//! whose bounds are temporarily relaxed to cover the initial residual; at a
//! zero phase-1 optimum the artificials are pinned back to `[0, 0]` and phase
//! 2 prices the real objective.
//!
//! The second entry point, [`RevisedLp::solve_node`], is what makes branch &
//! bound cheap: given the **optimal basis of a parent node** and a tightened
//! variable bound, it restores the basis (one sparse refactorization), which
//! is still dual feasible, and runs the **dual simplex** on the handful of
//! rows the bound change made primal infeasible. When the warm path hits
//! numerical trouble it falls back to a cold primal solve, so warm starts are
//! purely a performance optimization, never a correctness risk.
//!
//! The paper's MILP has `1 + Q` rows, so a node's LP is tiny and its cost is
//! set-up, not linear algebra. Branch and bound therefore keeps one
//! `NodeWorkspace` per worker thread, from node to node and tree to tree
//! (see [`crate::mip`]), and rebuilds each tree's standard form into the
//! same buffers (`RevisedLp::rebuild`). The workspace holds the node and
//! working bounds, the column statuses, the basis and `x_B`, the five
//! sparse scratch vectors and the dual ratio test's lists, the
//! [`Factorization`](crate::factor) with both LU backends and its pooled
//! eta file, and the node's extracted values. A solve works in those
//! buffers in place, clearing or overwriting each before use and resetting
//! the factorization's counters, so reuse never changes a bit, and a node
//! allocates nothing: its values and final basis stay in the workspace for
//! the caller to read.
//!
//! A warm start restores its basis in one of three ways, each giving the
//! same factors and `x_B` bit for bit:
//!
//! * when the workspace's LU already factors exactly that basis (the second
//!   child of a parent, popped right after its sibling), it keeps the LU and
//!   drops the eta file;
//! * when, in addition, the statuses and every nonbasic column's bounds
//!   equal those of the last restore on that LU (the siblings differ only in
//!   the branched variable, which is basic), it copies that restore's `x_B`
//!   instead of recomputing it;
//! * otherwise it refactorizes and recomputes `x_B`.
//!
//! The same holds one step further: while the eta file is empty, the first
//! dual pivot's `ρ` (a row of `B⁻¹`), `y = B⁻ᵀ c_B` and pivot row `α` depend
//! only on the LU and the leaving row, and the siblings' leaving row is the
//! branched variable's, so the second sibling takes its twin's. The kept LU
//! counts as `lu_reuses`, not a refactorization, and each kept FTRAN or
//! BTRAN result as a `solve_reuses`, not a solve ([`FactorStats`]).
//! [`RevisedLp::solve_node`] runs the same code on an empty workspace and
//! copies the values and basis out.

// The pivot kernels are written index-first to mirror the textbook linear
// algebra (parallel walks of `w`/`xb`/`basis`); iterator rewrites obscure the
// math for no performance gain.
#![allow(clippy::needless_range_loop)]

use std::mem;
use std::sync::Arc;

use crate::error::LpResult;
use crate::factor::{FactorStats, Factorization, SparseVector, MIN_PIVOT};
use crate::model::{Model, Relation, Sense, VarId};
use crate::simplex::SimplexOptions;
use crate::solution::LpStatus;

/// Number of eta updates accumulated before the basis is refactorized.
const REFACTOR_EVERY: usize = 48;
/// Coefficients below this magnitude are dropped when merging duplicate
/// standard-form terms. (Exact `== 0.0` filtering would keep numerically
/// meaningless residues like `1e-300` from cancelling inputs in the matrix.)
const COEFF_EPS: f64 = 1e-12;
/// Row-residual drift above which extraction refactorizes before reading the
/// point, and the floor of the phase-1 infeasibility verdict.
const DRIFT_TOL: f64 = 1e-7;
/// Dual ratio test: pivot coefficients at or below this are ineligible.
const DUAL_ALPHA_TOL: f64 = 1e-9;
/// Tie window of the dual min-ratio comparison (kept tighter than the primal
/// tolerance so index tie-breaks stay deterministic).
const DUAL_RATIO_TIE: f64 = 1e-12;
/// Minimum pivot magnitude for a column replacing a basic artificial.
const ARTIFICIAL_PIVOT_TOL: f64 = 1e-7;
/// Partial pricing: smallest section of nonbasic columns scanned per
/// iteration...
const PRICING_MIN_SECTION: usize = 64;
/// ...and the divisor deriving the section from the column count (a section
/// is `max(PRICING_MIN_SECTION, n / PRICING_SECTIONS)`).
const PRICING_SECTIONS: usize = 8;
/// Below this many columns the full Dantzig scan is cheap and picks globally
/// best entering columns; partial sections only pay off on wide models.
const PRICING_FULL_SCAN_BELOW: usize = 512;
/// Relative magnitude of the anti-stall cost perturbation: each column's cost
/// is nudged by at most this fraction of `1 + max |c_j|`. Large enough to
/// split a degenerate plateau apart under Dantzig pricing, small enough that
/// the perturbed pivots still head towards the true optimum.
const PERTURB_SCALE: f64 = 1e-7;

/// Deterministic unit-interval noise for one column index (the SplitMix64
/// finalizer): the anti-stall perturbation must be reproducible run-to-run,
/// so it hashes the column index instead of sampling.
fn unit_noise(j: usize) -> f64 {
    let mut z = (j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The bounded deterministic cost perturbation of the anti-stall ladder:
/// `c_j + scale · noise(j)` with `scale = PERTURB_SCALE · (1 + max |c_j|)`.
/// Strictly positive per-column offsets (lexicographic-style) break the exact
/// ties that let degenerate vertices trap the pricing rule.
fn perturbed_costs(cost: &[f64]) -> Vec<f64> {
    let max_abs = cost.iter().fold(0.0_f64, |acc, &c| acc.max(c.abs()));
    let scale = PERTURB_SCALE * (1.0 + max_abs);
    cost.iter()
        .enumerate()
        .map(|(j, &c)| c + scale * (0.5 + 0.5 * unit_noise(j)))
        .collect()
}

/// Empties `len` sparse lists for refilling, keeping each list's buffer.
fn clear_lists(lists: &mut Vec<Vec<(usize, f64)>>, len: usize) {
    lists.truncate(len);
    for list in lists.iter_mut() {
        list.clear();
    }
    lists.resize_with(len, Vec::new);
}

/// Nonbasic / basic status of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// The column is basic (its row is recorded in the basis vector).
    Basic,
    /// Nonbasic at its (finite) lower bound.
    AtLower,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    Free,
}

/// A snapshot of a simplex basis, sufficient to warm-start a related solve.
///
/// It stores only the basic column per row and the status of every column;
/// branch and bound keeps one per branching node in a reused slot that both
/// children read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasisSnapshot {
    basis: Vec<usize>,
    status: Vec<ColStatus>,
}

impl BasisSnapshot {
    /// The basic column (standard-form index) of each row.
    pub fn basic_columns(&self) -> &[usize] {
        &self.basis
    }
}

/// Outcome of one revised-simplex solve, in the model's variable space.
#[derive(Debug, Clone)]
pub struct RevisedOutcome {
    /// Solve status (same meaning as [`LpStatus`] for the whole model).
    pub status: LpStatus,
    /// Values of the model variables (only meaningful when `Optimal`).
    pub values: Vec<f64>,
    /// Simplex pivots performed (primal + dual).
    pub iterations: usize,
    /// Dual-simplex **bound flips**: entering candidates whose ratio-test
    /// step overshot their own range and were flipped to the opposite bound
    /// instead of pivoted (no basis change, no eta). Each flip replaces what
    /// would otherwise be a full dual pivot on box-heavy models.
    pub bound_flips: usize,
    /// Factorization counters: refactorizations, LU fill-in at the last
    /// refactorization, and the hyper-sparse FTRAN/BTRAN hit rate.
    pub factor_stats: FactorStats,
    /// Anti-stall escalations, first rung: bounded deterministic cost
    /// perturbations applied after a degenerate plateau.
    pub stall_perturbations: usize,
    /// Anti-stall escalations, last rung: switches to Bland's (provably
    /// finite) rule after a second stall in the same phase.
    pub bland_escalations: usize,
    /// Optimal basis, reusable for warm-started re-solves.
    pub basis: Option<Arc<BasisSnapshot>>,
}

/// What one solve on a [`NodeWorkspace`] reports: the counters of a
/// [`RevisedOutcome`]. An optimal solve leaves its values and final basis
/// in the workspace ([`NodeWorkspace::values`],
/// [`NodeWorkspace::snapshot_into`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeOutcome {
    pub(crate) status: LpStatus,
    pub(crate) iterations: usize,
    pub(crate) bound_flips: usize,
    pub(crate) factor_stats: FactorStats,
    pub(crate) stall_perturbations: usize,
    pub(crate) bland_escalations: usize,
}

impl NodeOutcome {
    /// The public outcome: these counters plus, when optimal, copies of the
    /// values and basis the solve left in `ws`.
    fn into_outcome(self, ws: &NodeWorkspace) -> RevisedOutcome {
        let optimal = self.status == LpStatus::Optimal;
        RevisedOutcome {
            status: self.status,
            values: if optimal { ws.values.clone() } else { vec![] },
            iterations: self.iterations,
            bound_flips: self.bound_flips,
            factor_stats: self.factor_stats,
            stall_perturbations: self.stall_perturbations,
            bland_escalations: self.bland_escalations,
            basis: optimal.then(|| {
                let mut snapshot = BasisSnapshot::default();
                ws.snapshot_into(&mut snapshot);
                Arc::new(snapshot)
            }),
        }
    }
}

/// The `lp.*` counters, in [`LpCounters`] order.
const LP_COUNTERS: [&str; 11] = [
    "lp.solves",
    "lp.iterations",
    "lp.bound_flips",
    "lp.refactorizations",
    "lp.fill_nnz",
    "lp.factor_solves",
    "lp.hyper_sparse_solves",
    "lp.stall_perturbations",
    "lp.bland_escalations",
    "lp.lu_reuses",
    "lp.solve_reuses",
];

/// The `lp.*` counters of one or more solves, summed, so that they reach
/// the ambient telemetry sink once per LP call — or once per
/// branch-and-bound tree, whose nodes [`crate::mip::MipSolver`] adds up.
/// Telemetry is a pure copy of the outcomes; it never feeds back into
/// pivoting.
#[derive(Default)]
pub(crate) struct LpCounters([u64; 11]);

impl LpCounters {
    /// Adds one solve's counters.
    pub(crate) fn add(&mut self, outcome: &NodeOutcome) {
        let stats = &outcome.factor_stats;
        let solve = [
            1,
            outcome.iterations,
            outcome.bound_flips,
            stats.refactorizations,
            stats.fill_nnz,
            stats.solves,
            stats.hyper_sparse_solves,
            outcome.stall_perturbations,
            outcome.bland_escalations,
            stats.lu_reuses,
            stats.solve_reuses,
        ];
        for (sum, n) in self.0.iter_mut().zip(solve) {
            *sum += n as u64;
        }
    }

    /// Emits the sums (nothing when no solve was added; one relaxed atomic
    /// load when no sink is installed — see `rental-obs`).
    pub(crate) fn emit(&self) {
        if self.0[0] == 0 {
            return;
        }
        rental_obs::with_sink(|sink| {
            for (name, &sum) in LP_COUNTERS.iter().zip(&self.0) {
                sink.counter(name, sum);
            }
        });
    }
}

/// The fixed, sparse standard form of one model:
/// `minimize c·x  s.t.  A x = b,  l ≤ x ≤ u`.
///
/// Columns are laid out as `[model variables | one slack per row | one
/// artificial per row]`; the model's variables keep their indices, so no
/// variable mapping is needed to recover a solution. Only *bounds* vary
/// between branch-and-bound nodes — the matrix, costs and right-hand side are
/// shared by every solve on the same model.
#[derive(Debug, Clone, Default)]
pub struct RevisedLp {
    m: usize,
    n_struct: usize,
    /// Total columns including slacks and artificials (`n_struct + 2 m`).
    n_total: usize,
    cols: Vec<Vec<(usize, f64)>>,
    /// Row-wise mirror of `cols` (`rows[r]` lists `(col, coeff)`): the dual
    /// simplex prices candidates by walking only the rows in the BTRAN
    /// image's support instead of dotting every column.
    rows: Vec<Vec<(usize, f64)>>,
    /// Phase-2 costs in minimize space (zeros on slacks and artificials).
    cost: Vec<f64>,
    base_lower: Vec<f64>,
    base_upper: Vec<f64>,
    rhs: Vec<f64>,
}

/// Which bound a leaving variable lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaveTo {
    Lower,
    Upper,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerStatus {
    Optimal,
    Unbounded,
    Infeasible,
    IterationLimit,
    /// Numerical trouble the caller should recover from (cold restart).
    Unstable,
}

impl RevisedLp {
    /// Builds the sparse standard form of a model.
    ///
    /// # Errors
    ///
    /// Returns a model-validation error if the model is structurally invalid.
    pub fn new(model: &Model) -> LpResult<Self> {
        let mut lp = RevisedLp::default();
        lp.rebuild(model)?;
        Ok(lp)
    }

    /// Rebuilds the standard form of another model into this one's buffers,
    /// which then allocate only to grow: what [`Self::new`] builds, bit for
    /// bit.
    pub(crate) fn rebuild(&mut self, model: &Model) -> LpResult<()> {
        model.validate()?;
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let n_total = n_struct + 2 * m;
        let minimize = model.sense() == Sense::Minimize;
        self.m = m;
        self.n_struct = n_struct;
        self.n_total = n_total;
        let RevisedLp {
            cols,
            rows,
            cost,
            base_lower,
            base_upper,
            rhs,
            ..
        } = self;

        clear_lists(cols, n_total);
        // Structural columns in one pass over the constraint terms; duplicate
        // (row, var) terms are merged in place after a per-column sort.
        for (r, constraint) in model.constraints().iter().enumerate() {
            for &(var, coeff) in &constraint.terms {
                cols[var.index()].push((r, coeff));
            }
        }
        for col in cols.iter_mut().take(n_struct) {
            col.sort_unstable_by_key(|&(row, _)| row);
            let mut merged = 0;
            for read in 0..col.len() {
                let (row, coeff) = col[read];
                if merged > 0 && col[merged - 1].0 == row {
                    col[merged - 1].1 += coeff;
                } else {
                    col[merged] = (row, coeff);
                    merged += 1;
                }
            }
            col.truncate(merged);
            col.retain(|&(_, coeff)| coeff.abs() > COEFF_EPS);
        }

        cost.clear();
        cost.resize(n_total, 0.0);
        for (j, &c) in model.objective().iter().enumerate() {
            cost[j] = if minimize { c } else { -c };
        }
        base_lower.clear();
        base_lower.resize(n_total, 0.0);
        base_upper.clear();
        base_upper.resize(n_total, 0.0);
        for (j, var) in model.variables().iter().enumerate() {
            base_lower[j] = var.lower;
            base_upper[j] = var.upper;
        }
        rhs.clear();
        rhs.resize(m, 0.0);
        for (r, constraint) in model.constraints().iter().enumerate() {
            rhs[r] = constraint.rhs;
            // Slack column: A x + s = b with bounds encoding the relation.
            let slack = n_struct + r;
            cols[slack].push((r, 1.0));
            let (sl, su) = match constraint.relation {
                Relation::LessEq => (0.0, f64::INFINITY),
                Relation::GreaterEq => (f64::NEG_INFINITY, 0.0),
                Relation::Equal => (0.0, 0.0),
            };
            base_lower[slack] = sl;
            base_upper[slack] = su;
            // Artificial column: pinned to zero except while phase 1 runs.
            let art = n_struct + m + r;
            cols[art].push((r, 1.0));
            base_lower[art] = 0.0;
            base_upper[art] = 0.0;
        }

        clear_lists(rows, m);
        for (j, col) in cols.iter().enumerate() {
            for &(r, a) in col {
                rows[r].push((j, a));
            }
        }
        Ok(())
    }

    /// Number of constraint rows of the standard form.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// The sparse standard-form columns, `[model vars | slacks |
    /// artificials]`. Together with [`BasisSnapshot::basic_columns`] this is
    /// everything a factorization backend needs, which is how the
    /// differential suite and the `lp_large` bench drive
    /// [`crate::factor::SparseLu`] / [`crate::factor::DenseLu`] directly.
    pub fn standard_form_columns(&self) -> &[Vec<(usize, f64)>] {
        &self.cols
    }

    /// Solves the LP with the model's own bounds (a cold, two-phase primal
    /// solve).
    pub fn solve(&self, options: &SimplexOptions) -> RevisedOutcome {
        self.solve_node(&[], None, options)
    }

    /// Solves the LP with per-variable bound tightenings, optionally warm
    /// starting from a related basis.
    ///
    /// With a warm basis the solver restores it and runs the **dual simplex**
    /// on the bound changes; on any numerical trouble (or without a warm
    /// basis) it falls back to the cold two-phase primal, so the result is
    /// exact either way.
    pub fn solve_node(
        &self,
        tighten: &[(VarId, f64, f64)],
        warm: Option<&BasisSnapshot>,
        options: &SimplexOptions,
    ) -> RevisedOutcome {
        let mut ws = NodeWorkspace::default();
        let outcome = self.solve_node_in(&mut ws, tighten, warm, options);
        let mut counters = LpCounters::default();
        counters.add(&outcome);
        counters.emit();
        outcome.into_outcome(&ws)
    }

    /// [`Self::solve_node`] on a caller-held workspace, which branch and
    /// bound keeps from node to node and tree to tree, so that a node reuses
    /// the buffers — and, when it can, the LU, `x_B` and first pricing
    /// vectors — of the nodes before it. Same outcome, bit for bit, except
    /// that the work a kept LU or solve result saves shows as
    /// `lu_reuses`/`solve_reuses` instead of a refactorization or a solve;
    /// an optimal solve leaves its values and basis in `ws`. The workspace must have been told of every change of
    /// model ([`NodeWorkspace::forget`]). Emits no telemetry (the tree emits
    /// its nodes' sum).
    pub(crate) fn solve_node_in(
        &self,
        ws: &mut NodeWorkspace,
        tighten: &[(VarId, f64, f64)],
        warm: Option<&BasisSnapshot>,
        options: &SimplexOptions,
    ) -> NodeOutcome {
        let (lower, upper) = self.reset_node_bounds(ws);
        for &(var, lo, up) in tighten {
            let j = var.index();
            lower[j] = lower[j].max(lo);
            upper[j] = upper[j].min(up);
        }
        self.solve_bounded(ws, warm, options)
    }

    /// Sets the workspace's node bounds to the model's own and returns them
    /// (`[model vars | slacks | artificials]`) for the caller to tighten
    /// before [`Self::solve_bounded`].
    pub(crate) fn reset_node_bounds<'w>(
        &self,
        ws: &'w mut NodeWorkspace,
    ) -> (&'w mut [f64], &'w mut [f64]) {
        let (lower, upper) = (&mut ws.node_lower, &mut ws.node_upper);
        lower.clear();
        lower.extend_from_slice(&self.base_lower);
        upper.clear();
        upper.extend_from_slice(&self.base_upper);
        (lower, upper)
    }

    /// [`Self::solve_node_in`] under the node bounds the caller left in the
    /// workspace ([`Self::reset_node_bounds`]).
    pub(crate) fn solve_bounded(
        &self,
        ws: &mut NodeWorkspace,
        warm: Option<&BasisSnapshot>,
        options: &SimplexOptions,
    ) -> NodeOutcome {
        let (lower, upper) = (&ws.node_lower, &mut ws.node_upper);
        for j in 0..self.n_struct {
            if lower[j] > upper[j] + options.tol {
                return NodeOutcome {
                    status: LpStatus::Infeasible,
                    iterations: 0,
                    bound_flips: 0,
                    factor_stats: FactorStats::default(),
                    stall_perturbations: 0,
                    bland_escalations: 0,
                };
            }
            // A tightened pair may cross by a hair (floor/ceil of an almost
            // integral value); collapse it so the bound stays consistent.
            if lower[j] > upper[j] {
                upper[j] = lower[j];
            }
        }

        if let Some(snapshot) = warm {
            if let Some(mut state) = SolverState::from_snapshot(self, ws, snapshot, options) {
                match state.dual_simplex() {
                    InnerStatus::Optimal => return self.extract(state, LpStatus::Optimal),
                    InnerStatus::Infeasible => return state.finish(LpStatus::Infeasible),
                    // Unbounded cannot arise from a dual-feasible start with
                    // unchanged costs; treat it, limits and instability as a
                    // reason to re-solve cold.
                    _ => {}
                }
            }
        }
        self.cold_solve(ws, options)
    }

    /// Cold two-phase primal solve under the given working bounds, with a
    /// **singular-refactorization recovery ladder**. A singular basis is a
    /// pivot-path artifact (an unlucky eta sequence the threshold-Markowitz
    /// factorization cannot reorder around), not a property of the model, so
    /// before giving up the solve is retried along a different path:
    ///
    /// 1. normal cold solve (partial pricing, sparse LU);
    /// 2. on singularity, a from-scratch retry under Bland pricing — the
    ///    lowest-index pivot sequence routes around the basis that broke;
    /// 3. on a second singularity, a retry on the dense-LU backend, whose
    ///    partial pivoting factorizes bases the sparse threshold rejects.
    ///
    /// Only when every rung fails does the solve surface as the recoverable
    /// [`LpStatus::IterationLimit`]; numerical failure is an outcome, never a
    /// panic. Each rung is bounded by `options.max_iterations`, so the ladder
    /// multiplies the worst-case pivot count by at most three.
    fn cold_solve(&self, ws: &mut NodeWorkspace, options: &SimplexOptions) -> NodeOutcome {
        let (outcome, singular) = self.cold_attempt(ws, options);
        if !singular {
            return outcome;
        }
        let retry = SimplexOptions {
            bland_after: 0,
            ..*options
        };
        let (outcome, singular) = self.cold_attempt(ws, &retry);
        if !singular || options.dense_lu {
            return outcome;
        }
        let dense = SimplexOptions {
            bland_after: 0,
            dense_lu: true,
            ..*options
        };
        self.cold_attempt(ws, &dense).0
    }

    /// One rung of [`cold_solve`](Self::cold_solve): a two-phase primal
    /// attempt. The second component is `true` iff the attempt died on a
    /// singular refactorization (the recoverable case the ladder retries);
    /// conclusive outcomes and plain iteration exhaustion return `false`.
    fn cold_attempt(
        &self,
        ws: &mut NodeWorkspace,
        options: &SimplexOptions,
    ) -> (NodeOutcome, bool) {
        let mut state = SolverState::cold(self, ws, options);
        if state.needs_phase1 {
            let phase1_cost = mem::take(&mut state.ws.phase1_cost);
            let phase1 = state.primal_simplex(&phase1_cost);
            let infeasibility = state.phase1_infeasibility(&phase1_cost);
            state.ws.phase1_cost = phase1_cost;
            match phase1 {
                InnerStatus::Optimal => {}
                InnerStatus::Unstable => return (state.finish(LpStatus::IterationLimit), true),
                // Phase 1 minimizes a sum of absolute values, which is
                // bounded below, so anything else here is an iteration cap;
                // it surfaces as the recoverable IterationLimit.
                _ => return (state.finish(LpStatus::IterationLimit), false),
            }
            if infeasibility > options.tol.max(DRIFT_TOL) {
                return (state.finish(LpStatus::Infeasible), false);
            }
            if !state.retire_artificials() {
                // The factorization is unusable (singular refactorization);
                // abandon the attempt rather than running phase 2 on
                // corrupted factors.
                return (state.finish(LpStatus::IterationLimit), true);
            }
        }
        match state.primal_simplex(&self.cost) {
            InnerStatus::Optimal => (self.extract(state, LpStatus::Optimal), false),
            InnerStatus::Unbounded => (state.finish(LpStatus::Unbounded), false),
            InnerStatus::Infeasible => (state.finish(LpStatus::Infeasible), false),
            InnerStatus::IterationLimit => (state.finish(LpStatus::IterationLimit), false),
            InnerStatus::Unstable => (state.finish(LpStatus::IterationLimit), true),
        }
    }

    /// Recovers the model-space values of an optimal state into the
    /// workspace, where its final basis and statuses also stay for a
    /// snapshot.
    fn extract(&self, mut state: SolverState<'_>, status: LpStatus) -> NodeOutcome {
        // Guard against eta-file drift: check the row residuals `A x − b` in
        // O(nnz) and only pay the refactorization + recompute when the point
        // actually drifted. The differential suite against the dense tableau
        // pins the resulting tolerance.
        if state.max_residual() > DRIFT_TOL
            && state
                .ws
                .factor
                .refactorize(self.m, &self.cols, &state.ws.basis)
        {
            state.compute_xb();
        }
        let ws = &mut *state.ws;
        ws.values.clear();
        for j in 0..self.n_struct {
            let value = ws.column_value(j);
            ws.values.push(value);
        }
        for (r, &col) in ws.basis.iter().enumerate() {
            if col < self.n_struct {
                ws.values[col] = ws.xb[r];
            }
        }
        state.finish(status)
    }
}

/// The buffers of a node solve, held between solves (see the module docs).
/// A [`SolverState`] works in them for one solve and leaves them behind;
/// every buffer is sized by the solve that uses it, so one workspace serves
/// LPs of any shape, as long as it is told when the model changes
/// ([`Self::forget`]).
#[derive(Debug, Default)]
pub(crate) struct NodeWorkspace {
    /// The node's bounds: the model's own, tightened by the branch.
    node_lower: Vec<f64>,
    node_upper: Vec<f64>,
    /// The model-space values of the last optimal solve.
    values: Vec<f64>,
    /// The inputs and result of the last restore's `x_B` computation.
    restored: Restore,
    /// The last pure-LU dual pivot's pricing vectors.
    pricing: Pricing,
    // The solve's working state: bounds (the node's, relaxed by phase 1),
    // statuses, basis, `x_B`, phase-1 costs and row residuals, the hoisted
    // sparse scratch of the pivot loops (reset to its dimension before every
    // use), the ratio test's lists and the factorization.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    phase1_cost: Vec<f64>,
    residual: Vec<f64>,
    y: SparseVector,
    w: SparseVector,
    rho: SparseVector,
    alpha: SparseVector,
    aux: SparseVector,
    lists: RatioLists,
    factor: Factorization,
}

impl NodeWorkspace {
    /// Starts a new model: the LU and the basic values and pricing vectors
    /// computed on it belong to the previous one, whose basis indices name
    /// other columns.
    pub(crate) fn forget(&mut self) {
        self.factor.forget();
        self.restored.generation = None;
        self.pricing.key = None;
    }

    /// The model-space values of the last optimal solve.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Current value of a column: basic values live in `xb`, nonbasic ones on
    /// their bound.
    fn column_value(&self, j: usize) -> f64 {
        match self.status[j] {
            // Callers that need basic values look them up through `xb`
            // directly; this path is only used for nonbasic columns and the
            // final extraction, where basic columns are overwritten.
            ColStatus::Basic | ColStatus::Free => 0.0,
            ColStatus::AtLower => self.lower[j],
            ColStatus::AtUpper => self.upper[j],
        }
    }

    /// Writes the last optimal solve's basis into `snapshot`, reusing its
    /// buffers.
    pub(crate) fn snapshot_into(&self, snapshot: &mut BasisSnapshot) {
        snapshot.basis.clone_from(&self.basis);
        snapshot.status.clone_from(&self.status);
    }
}

/// What the last restore computed `x_B` from, and the result. A restore on
/// the same LU (same generation) whose statuses and nonbasic bounds match
/// would compute the same `x_B` bit for bit, so it copies `xb` instead.
#[derive(Debug, Default)]
struct Restore {
    /// The LU generation `xb` was computed on; `None` when there is none.
    generation: Option<u64>,
    status: Vec<ColStatus>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    xb: Vec<f64>,
}

impl Restore {
    /// Whether `x_B` computed on LU `generation` under these statuses and
    /// bounds is `self.xb`: `x_B = B⁻¹ (b − N x_N)` reads the basic columns
    /// and each nonbasic column's value, which its status picks from its
    /// bounds.
    fn matches(&self, generation: u64, status: &[ColStatus], lower: &[f64], upper: &[f64]) -> bool {
        self.generation == Some(generation)
            && self.status == status
            && status.iter().enumerate().all(|(j, &s)| {
                s == ColStatus::Basic
                    || (lower[j].to_bits() == self.lower[j].to_bits()
                        && upper[j].to_bits() == self.upper[j].to_bits())
            })
    }

    /// Records a restore computed on LU `generation`.
    fn record(
        &mut self,
        generation: u64,
        status: &[ColStatus],
        lower: &[f64],
        upper: &[f64],
        xb: &[f64],
    ) {
        self.generation = Some(generation);
        self.status.clear();
        self.status.extend_from_slice(status);
        self.lower.clear();
        self.lower.extend_from_slice(lower);
        self.upper.clear();
        self.upper.extend_from_slice(upper);
        self.xb.clear();
        self.xb.extend_from_slice(xb);
    }
}

/// The pricing vectors of the last dual pivot taken on an LU with an empty
/// eta file: `ρ` (row `row` of `B⁻¹`), `y = B⁻ᵀ c_B` and the pivot row `α`.
/// They depend on nothing but that LU (its generation), its basis — the one
/// the LU factors, since no eta changed it — and the row, so a pivot on the
/// same generation and row copies them.
#[derive(Debug, Default)]
struct Pricing {
    /// `(generation, row)` the vectors were computed for.
    key: Option<(u64, usize)>,
    rho: SparseVector,
    y: SparseVector,
    alpha: SparseVector,
}

/// The dual ratio test's lists, reused across pivots and solves.
#[derive(Debug, Default)]
struct RatioLists {
    /// Eligible entering columns: `(column, alpha, ratio)`.
    candidates: Vec<(usize, f64, f64)>,
    /// The pivot row's support in ascending column order (Bland's rule).
    bland_order: Vec<usize>,
    /// Columns flipped to their opposite bound ahead of the pivot.
    flips: Vec<(usize, f64)>,
}

/// One solve in a [`NodeWorkspace`]: the workspace's buffers hold its
/// working bounds, statuses, basis, `x_B`, factorization and scratch, and
/// the state adds the solve's counters.
struct SolverState<'a> {
    lp: &'a RevisedLp,
    options: &'a SimplexOptions,
    ws: &'a mut NodeWorkspace,
    iterations: usize,
    flips: usize,
    /// Anti-stall perturbations applied (see the primal loop's ladder).
    stall_perturbations: usize,
    /// Escalations to Bland's rule after the perturbation rung was spent.
    bland_escalations: usize,
    needs_phase1: bool,
    /// Rotating partial-pricing cursor (persists across iterations so
    /// sections take turns).
    price_cursor: usize,
}

impl<'a> SolverState<'a> {
    /// Starts a solve in the workspace: the working bounds are copied from
    /// the node bounds, `x_B` is zeroed, the statuses, basis and phase-1
    /// costs are left empty for the caller to fill, and the factorization
    /// keeps its buffers and LU but restarts its counters and eta file (it
    /// switches backend, forgetting the LU, when the solve asks for the
    /// other one).
    fn new(
        lp: &'a RevisedLp,
        ws: &'a mut NodeWorkspace,
        options: &'a SimplexOptions,
    ) -> SolverState<'a> {
        ws.factor.reset(options.dense_lu);
        ws.lower.clone_from(&ws.node_lower);
        ws.upper.clone_from(&ws.node_upper);
        ws.status.clear();
        ws.basis.clear();
        ws.phase1_cost.clear();
        ws.xb.clear();
        ws.xb.resize(lp.m, 0.0);
        SolverState {
            lp,
            options,
            ws,
            iterations: 0,
            flips: 0,
            stall_perturbations: 0,
            bland_escalations: 0,
            needs_phase1: false,
            price_cursor: 0,
        }
    }

    /// Builds the initial all-slack / artificial basis for a cold solve
    /// under the workspace's node bounds.
    fn cold(
        lp: &'a RevisedLp,
        ws: &'a mut NodeWorkspace,
        options: &'a SimplexOptions,
    ) -> SolverState<'a> {
        let m = lp.m;
        let mut state = SolverState::new(lp, ws, options);
        state.ws.status.resize(lp.n_total, ColStatus::AtLower);
        state.ws.basis.resize(m, 0);
        state.ws.phase1_cost.resize(lp.n_total, 0.0);
        // Nonbasic structural variables rest on a finite bound (or zero).
        for j in 0..lp.n_total {
            state.ws.status[j] = if state.ws.lower[j].is_finite() {
                ColStatus::AtLower
            } else if state.ws.upper[j].is_finite() {
                ColStatus::AtUpper
            } else {
                ColStatus::Free
            };
        }
        // Row residuals with every column nonbasic.
        let mut residual = mem::take(&mut state.ws.residual);
        residual.clear();
        residual.extend_from_slice(&lp.rhs);
        for j in 0..lp.n_struct {
            let value = state.column_value(j);
            if value != 0.0 {
                for &(r, a) in &lp.cols[j] {
                    residual[r] -= a * value;
                }
            }
        }
        for r in 0..m {
            let slack = lp.n_struct + r;
            let art = lp.n_struct + m + r;
            let (sl, su) = (state.ws.lower[slack], state.ws.upper[slack]);
            if residual[r] >= sl - options.tol && residual[r] <= su + options.tol {
                state.ws.basis[r] = slack;
                state.ws.status[slack] = ColStatus::Basic;
                state.ws.xb[r] = residual[r];
            } else {
                // Park the slack on its nearest bound and let the artificial
                // absorb what is left; phase 1 will drive it back to zero.
                let parked = if residual[r] > su { su } else { sl };
                state.ws.status[slack] = if parked == su {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                let leftover = residual[r] - parked;
                state.ws.lower[art] = leftover.min(0.0);
                state.ws.upper[art] = leftover.max(0.0);
                state.ws.phase1_cost[art] = if leftover >= 0.0 { 1.0 } else { -1.0 };
                state.ws.basis[r] = art;
                state.ws.status[art] = ColStatus::Basic;
                state.ws.xb[r] = leftover;
                state.needs_phase1 = true;
            }
        }
        state.ws.residual = residual;
        // The initial basis is a signed permutation of unit columns, which
        // both backends factorize trivially (zero fill).
        let ok = state.ws.factor.refactorize(m, &lp.cols, &state.ws.basis);
        debug_assert!(ok, "unit-column start basis cannot be singular");
        state
    }

    /// Restores a snapshot taken on a related solve (same matrix, different
    /// bounds) under the workspace's node bounds, keeping the workspace's LU
    /// and last `x_B` when they are what the restore would recompute (see
    /// the module docs). Returns `None` when the snapshot has another shape
    /// or its basis is singular under refactorization — the caller then
    /// solves cold.
    fn from_snapshot(
        lp: &'a RevisedLp,
        ws: &'a mut NodeWorkspace,
        snapshot: &BasisSnapshot,
        options: &'a SimplexOptions,
    ) -> Option<SolverState<'a>> {
        if snapshot.basis.len() != lp.m || snapshot.status.len() != lp.n_total {
            return None;
        }
        let mut state = SolverState::new(lp, ws, options);
        state.ws.status.extend_from_slice(&snapshot.status);
        state.ws.basis.extend_from_slice(&snapshot.basis);
        // Re-anchor nonbasic statuses onto the (possibly moved) bounds.
        for j in 0..lp.n_total {
            match state.ws.status[j] {
                ColStatus::Basic => {}
                ColStatus::AtLower if !state.ws.lower[j].is_finite() => {
                    state.ws.status[j] = if state.ws.upper[j].is_finite() {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::Free
                    };
                }
                ColStatus::AtUpper if !state.ws.upper[j].is_finite() => {
                    state.ws.status[j] = if state.ws.lower[j].is_finite() {
                        ColStatus::AtLower
                    } else {
                        ColStatus::Free
                    };
                }
                _ => {}
            }
        }
        let ws = &mut *state.ws;
        let kept = ws.factor.keep_for(&ws.basis);
        if !kept && !ws.factor.refactorize(lp.m, &lp.cols, &ws.basis) {
            return None;
        }
        let generation = ws.factor.generation();
        if kept
            && ws
                .restored
                .matches(generation, &ws.status, &ws.lower, &ws.upper)
        {
            ws.xb.copy_from_slice(&ws.restored.xb);
            ws.factor.stats.solve_reuses += 1;
        } else {
            state.compute_xb();
            let ws = &mut *state.ws;
            ws.restored
                .record(generation, &ws.status, &ws.lower, &ws.upper, &ws.xb);
        }
        Some(state)
    }

    /// The outcome of this state's solve, carrying its iteration and
    /// factorization counters.
    fn finish(self, status: LpStatus) -> NodeOutcome {
        NodeOutcome {
            status,
            iterations: self.iterations,
            bound_flips: self.flips,
            factor_stats: self.ws.factor.stats,
            stall_perturbations: self.stall_perturbations,
            bland_escalations: self.bland_escalations,
        }
    }

    /// Current value of a column: basic values live in `xb`, nonbasic ones on
    /// their bound.
    fn column_value(&self, j: usize) -> f64 {
        self.ws.column_value(j)
    }

    /// Recomputes the basic values `x_B = B⁻¹ (b − N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut v = mem::take(&mut self.ws.aux);
        v.reset(self.lp.m);
        for (r, &b) in self.lp.rhs.iter().enumerate() {
            if b != 0.0 {
                v.set(r, b);
            }
        }
        for j in 0..self.lp.n_total {
            if self.ws.status[j] == ColStatus::Basic {
                continue;
            }
            let value = self.column_value(j);
            if value != 0.0 {
                for &(r, a) in &self.lp.cols[j] {
                    v.add(r, -a * value);
                }
            }
        }
        self.ws.factor.ftran(&mut v);
        for i in 0..self.lp.m {
            self.ws.xb[i] = v.get(i);
        }
        self.ws.aux = v;
    }

    /// Largest row residual `|A x − b|` of the current point, in O(nnz).
    fn max_residual(&mut self) -> f64 {
        let mut residual = mem::take(&mut self.ws.residual);
        residual.clear();
        residual.extend(self.lp.rhs.iter().map(|&b| -b));
        for j in 0..self.lp.n_total {
            let value = match self.ws.status[j] {
                ColStatus::Basic => continue,
                _ => self.column_value(j),
            };
            if value != 0.0 {
                for &(r, a) in &self.lp.cols[j] {
                    residual[r] += a * value;
                }
            }
        }
        for (r, &col) in self.ws.basis.iter().enumerate() {
            let value = self.ws.xb[r];
            if value != 0.0 {
                for &(row, a) in &self.lp.cols[col] {
                    residual[row] += a * value;
                }
            }
        }
        let max = residual.iter().fold(0.0_f64, |acc, &r| acc.max(r.abs()));
        self.ws.residual = residual;
        max
    }

    /// Refactorizes (folding the eta file) and recomputes the basic values.
    /// Returns `false` on a singular basis.
    fn refresh_factorization(&mut self) -> bool {
        let ws = &mut *self.ws;
        if !ws.factor.refactorize(self.lp.m, &self.lp.cols, &ws.basis) {
            return false;
        }
        self.compute_xb();
        true
    }

    /// Reduced cost of column `j` given the BTRAN image `y` of `c_B`.
    fn reduced_cost(&self, cost: &[f64], y: &SparseVector, j: usize) -> f64 {
        let mut d = cost[j];
        for &(r, a) in &self.lp.cols[j] {
            d -= y.get(r) * a;
        }
        d
    }

    /// Phase-1 objective value (total residual infeasibility).
    fn phase1_infeasibility(&self, phase1_cost: &[f64]) -> f64 {
        let mut total = 0.0;
        for (r, &col) in self.ws.basis.iter().enumerate() {
            total += phase1_cost[col] * self.ws.xb[r];
        }
        for j in 0..self.lp.n_total {
            if self.ws.status[j] != ColStatus::Basic && phase1_cost[j] != 0.0 {
                total += phase1_cost[j] * self.column_value(j);
            }
        }
        total
    }

    /// Pins every artificial back to `[0, 0]` after a successful phase 1 and
    /// tries to pivot basic artificials out on a numerically safe column.
    /// Returns `false` when a refactorization found the basis singular — the
    /// factorization is then unusable and the caller must abandon the solve.
    fn retire_artificials(&mut self) -> bool {
        let mut rho = mem::take(&mut self.ws.rho);
        let mut w = mem::take(&mut self.ws.w);
        let mut alpha = mem::take(&mut self.ws.alpha);
        let ok = self.retire_artificials_inner(&mut rho, &mut w, &mut alpha);
        self.ws.rho = rho;
        self.ws.w = w;
        self.ws.alpha = alpha;
        ok
    }

    fn retire_artificials_inner(
        &mut self,
        rho: &mut SparseVector,
        w: &mut SparseVector,
        alpha: &mut SparseVector,
    ) -> bool {
        let art_start = self.lp.n_struct + self.lp.m;
        for j in art_start..self.lp.n_total {
            self.ws.lower[j] = 0.0;
            self.ws.upper[j] = 0.0;
            if self.ws.status[j] != ColStatus::Basic {
                self.ws.status[j] = ColStatus::AtLower;
            }
        }
        for r in 0..self.lp.m {
            if self.ws.basis[r] < art_start {
                continue;
            }
            // Row r of B⁻¹, then α_j = ρᵀ a_j accumulated row-wise over ρ's
            // support (same kernel as the dual ratio test): the smallest
            // nonbasic real column with a usable pivot replaces the
            // artificial.
            rho.reset(self.lp.m);
            rho.set(r, 1.0);
            self.ws.factor.btran(rho);
            alpha.reset(self.lp.n_total);
            for &row in rho.nonzeros() {
                let x = rho.get(row);
                if x == 0.0 {
                    continue;
                }
                for &(j, a) in &self.lp.rows[row] {
                    if j < art_start {
                        alpha.add(j, x * a);
                    }
                }
            }
            let mut replacement: Option<usize> = None;
            for &j in alpha.nonzeros() {
                if self.ws.status[j] == ColStatus::Basic {
                    continue;
                }
                if alpha.get(j).abs() > ARTIFICIAL_PIVOT_TOL
                    && replacement.is_none_or(|best| j < best)
                {
                    replacement = Some(j);
                }
            }
            let Some(q) = replacement else {
                // Redundant row: the artificial stays basic at zero.
                continue;
            };
            w.reset(self.lp.m);
            for &(i, a) in &self.lp.cols[q] {
                w.set(i, a);
            }
            self.ws.factor.ftran(w);
            if w.get(r).abs() < MIN_PIVOT {
                continue;
            }
            // Degenerate swap: the artificial sits exactly at zero, so the
            // entering column keeps its bound value.
            let art = self.ws.basis[r];
            let entering_value = self.column_value(q);
            self.ws.status[art] = ColStatus::AtLower;
            self.ws.basis[r] = q;
            self.ws.status[q] = ColStatus::Basic;
            self.ws.xb[r] = entering_value;
            self.ws.factor.push_eta(r, w);
            if self.ws.factor.eta_count() >= REFACTOR_EVERY && !self.refresh_factorization() {
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Pricing.
    // ------------------------------------------------------------------

    /// Reduced-cost check of one nonbasic column: `Some((j, score,
    /// increase))` when it violates dual feasibility.
    fn price_one(
        &self,
        cost: &[f64],
        y: &SparseVector,
        j: usize,
        tol: f64,
    ) -> Option<(usize, f64, bool)> {
        let eligible_dir = match self.ws.status[j] {
            ColStatus::Basic => return None,
            // Fixed columns can never move.
            _ if self.ws.lower[j] == self.ws.upper[j] && self.ws.status[j] != ColStatus::Free => {
                return None
            }
            ColStatus::AtLower => Some(true),
            ColStatus::AtUpper => Some(false),
            ColStatus::Free => None,
        };
        let d = self.reduced_cost(cost, y, j);
        let (violates, increase, score) = match eligible_dir {
            Some(true) => (d < -tol, true, -d),
            Some(false) => (d > tol, false, d),
            None => (d.abs() > tol, d < 0.0, d.abs()),
        };
        if violates {
            Some((j, score, increase))
        } else {
            None
        }
    }

    /// Entering-column selection. Under Bland's rule this is a full
    /// lowest-index scan (anti-cycling); otherwise **partial pricing**: scan
    /// a rotating section of the columns and take the section's Dantzig
    /// winner, walking further sections only while the current one is dry. A
    /// full wrap without a violating column proves optimality.
    fn price_entering(
        &mut self,
        cost: &[f64],
        y: &SparseVector,
        use_bland: bool,
    ) -> Option<(usize, f64, bool)> {
        let n = self.lp.n_total;
        let tol = self.options.tol;
        if use_bland {
            for j in 0..n {
                if let Some(candidate) = self.price_one(cost, y, j, tol) {
                    return Some(candidate);
                }
            }
            return None;
        }
        let section = if n < PRICING_FULL_SCAN_BELOW {
            n // one section = the classic full Dantzig scan
        } else {
            (n / PRICING_SECTIONS).max(PRICING_MIN_SECTION)
        };
        let mut best: Option<(usize, f64, bool)> = None;
        let mut scanned = 0;
        while scanned < n {
            let len = section.min(n - scanned);
            for offset in 0..len {
                let mut j = self.price_cursor + offset;
                if j >= n {
                    j -= n;
                }
                if let Some((j, score, increase)) = self.price_one(cost, y, j, tol) {
                    if best.is_none_or(|(_, s, _)| score > s) {
                        best = Some((j, score, increase));
                    }
                }
            }
            self.price_cursor += len;
            if self.price_cursor >= n {
                self.price_cursor -= n;
            }
            scanned += len;
            if best.is_some() {
                break;
            }
        }
        best
    }

    // ------------------------------------------------------------------
    // Primal simplex (bounded variables).
    // ------------------------------------------------------------------
    fn primal_simplex(&mut self, cost: &[f64]) -> InnerStatus {
        let mut y = mem::take(&mut self.ws.y);
        let mut w = mem::take(&mut self.ws.w);
        let status = self.primal_simplex_inner(cost, &mut y, &mut w);
        self.ws.y = y;
        self.ws.w = w;
        status
    }

    fn primal_simplex_inner(
        &mut self,
        cost: &[f64],
        y: &mut SparseVector,
        w: &mut SparseVector,
    ) -> InnerStatus {
        let m = self.lp.m;
        // Anti-stall ladder: consecutive zero-step pivots are the signature
        // of stalling (and the precondition of cycling). After `stall_after`
        // of them the objective is perturbed by a bounded deterministic
        // amount — degenerate vertices split apart and Dantzig pricing walks
        // off the plateau — and when the *perturbed* problem prices out, the
        // true costs are restored and iteration continues, so optimality is
        // only ever proved against the real objective. A second stall drops
        // the perturbation and forces Bland's rule (provably finite) for the
        // remainder of the phase.
        let mut degenerate_streak = 0usize;
        let mut perturbed: Option<Vec<f64>> = None;
        let mut perturbation_spent = false;
        let mut force_bland = false;
        for local_iter in 0..self.options.max_iterations {
            if self.ws.factor.eta_count() >= REFACTOR_EVERY && !self.refresh_factorization() {
                return InnerStatus::Unstable;
            }
            if degenerate_streak >= self.options.stall_after.max(1) {
                degenerate_streak = 0;
                if perturbation_spent {
                    perturbed = None;
                    force_bland = true;
                    self.bland_escalations += 1;
                } else {
                    perturbation_spent = true;
                    perturbed = Some(perturbed_costs(cost));
                    self.stall_perturbations += 1;
                }
            }
            let use_bland = force_bland || local_iter >= self.options.bland_after;
            let active_cost: &[f64] = perturbed.as_deref().unwrap_or(cost);

            // Pricing: y = B⁻ᵀ c_B, then reduced costs of nonbasic columns.
            y.reset(m);
            for (r, &col) in self.ws.basis.iter().enumerate() {
                let c = active_cost[col];
                if c != 0.0 {
                    y.set(r, c);
                }
            }
            self.ws.factor.btran(y);

            let tol = self.options.tol;
            let Some((q, _, increase)) = self.price_entering(active_cost, y, use_bland) else {
                if perturbed.take().is_some() {
                    // Optimal for the perturbed objective only: restore the
                    // true costs and keep pivoting from this (primal
                    // feasible, plateau-free) basis.
                    degenerate_streak = 0;
                    continue;
                }
                return InnerStatus::Optimal;
            };
            let dir = if increase { 1.0 } else { -1.0 };

            // FTRAN of the entering column (hyper-sparse: the ratio test and
            // the updates below walk only the support of w).
            w.reset(m);
            for &(r, a) in &self.lp.cols[q] {
                w.set(r, a);
            }
            self.ws.factor.ftran(w);

            // Ratio test: the entering column moves by t ≥ 0 in direction
            // `dir`; basic values change by −dir · w · t.
            let range = self.ws.upper[q] - self.ws.lower[q]; // may be +inf
            let mut best_t = if range.is_finite() {
                range
            } else {
                f64::INFINITY
            };
            let mut leaving: Option<(usize, LeaveTo)> = None;
            for &i in w.nonzeros() {
                let g = dir * w.get(i);
                if g.abs() <= tol {
                    continue;
                }
                let col = self.ws.basis[i];
                let (limit, to) = if g > 0.0 {
                    // Basic value decreases towards its lower bound.
                    if !self.ws.lower[col].is_finite() {
                        continue;
                    }
                    ((self.ws.xb[i] - self.ws.lower[col]) / g, LeaveTo::Lower)
                } else {
                    if !self.ws.upper[col].is_finite() {
                        continue;
                    }
                    ((self.ws.xb[i] - self.ws.upper[col]) / g, LeaveTo::Upper)
                };
                let limit = limit.max(0.0);
                let take = match leaving {
                    // Against the pure bound-flip limit a strictly smaller
                    // ratio wins; ties keep the flip (no eta needed).
                    None => limit < best_t,
                    // Between rows, ties break on the smallest basis column
                    // (Bland-style, mirroring the dense tableau).
                    Some((current, _)) => {
                        limit < best_t - tol
                            || ((limit - best_t).abs() <= tol
                                && self.ws.basis[i] < self.ws.basis[current])
                    }
                };
                if take {
                    best_t = limit;
                    leaving = Some((i, to));
                }
            }

            match leaving {
                None if best_t.is_infinite() => {
                    if perturbed.take().is_some() {
                        // A perturbed reduced cost can open a ray that the
                        // true objective is flat along; an unbounded verdict
                        // under perturbation proves nothing about the real
                        // problem. Drop the perturbation and re-price.
                        degenerate_streak = 0;
                        continue;
                    }
                    return InnerStatus::Unbounded;
                }
                None => {
                    // Bound flip: the entering column crosses its whole range.
                    let t = best_t;
                    for &i in w.nonzeros() {
                        let g = dir * w.get(i);
                        if g != 0.0 {
                            self.ws.xb[i] -= g * t;
                        }
                    }
                    self.ws.status[q] = if increase {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    };
                    self.iterations += 1;
                    if t <= tol {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                }
                Some((r, to)) => {
                    if w.get(r).abs() < MIN_PIVOT {
                        // Numerically unsafe pivot: fold the eta file and
                        // retry this iteration with fresh arithmetic.
                        if !self.refresh_factorization() {
                            return InnerStatus::Unstable;
                        }
                        continue;
                    }
                    let t = best_t;
                    let entering_value = self.column_value(q) + dir * t;
                    for &i in w.nonzeros() {
                        let g = dir * w.get(i);
                        if g != 0.0 {
                            self.ws.xb[i] -= g * t;
                        }
                    }
                    let leaving_col = self.ws.basis[r];
                    self.ws.status[leaving_col] = match to {
                        LeaveTo::Lower => ColStatus::AtLower,
                        LeaveTo::Upper => ColStatus::AtUpper,
                    };
                    self.ws.basis[r] = q;
                    self.ws.status[q] = ColStatus::Basic;
                    self.ws.xb[r] = entering_value;
                    self.ws.factor.push_eta(r, w);
                    self.iterations += 1;
                    if t <= tol {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                }
            }
        }
        InnerStatus::IterationLimit
    }

    // ------------------------------------------------------------------
    // Dual simplex (warm re-solve after a bound change).
    // ------------------------------------------------------------------
    fn dual_simplex(&mut self) -> InnerStatus {
        let mut y = mem::take(&mut self.ws.y);
        let mut w = mem::take(&mut self.ws.w);
        let mut rho = mem::take(&mut self.ws.rho);
        let mut alpha = mem::take(&mut self.ws.alpha);
        let mut lists = mem::take(&mut self.ws.lists);
        let status = self.dual_simplex_inner(&mut y, &mut w, &mut rho, &mut alpha, &mut lists);
        self.ws.y = y;
        self.ws.w = w;
        self.ws.rho = rho;
        self.ws.alpha = alpha;
        self.ws.lists = lists;
        status
    }

    /// The dual pivot's pricing vectors for leaving row `r`: `ρ`, row `r` of
    /// `B⁻¹` (a hyper-sparse BTRAN of a unit vector), the reduced-cost prices
    /// `y = B⁻ᵀ c_B`, and the pivot-row coefficients `α_j = ρᵀ a_j`,
    /// accumulated row-wise over `ρ`'s support so untouched columns are
    /// never visited.
    fn price_row(
        &mut self,
        r: usize,
        rho: &mut SparseVector,
        y: &mut SparseVector,
        alpha: &mut SparseVector,
    ) {
        let m = self.lp.m;
        rho.reset(m);
        rho.set(r, 1.0);
        self.ws.factor.btran(rho);
        y.reset(m);
        for (i, &col) in self.ws.basis.iter().enumerate() {
            let c = self.lp.cost[col];
            if c != 0.0 {
                y.set(i, c);
            }
        }
        self.ws.factor.btran(y);
        alpha.reset(self.lp.n_total);
        for &row in rho.nonzeros() {
            let x = rho.get(row);
            if x == 0.0 {
                continue;
            }
            for &(j, a) in &self.lp.rows[row] {
                alpha.add(j, x * a);
            }
        }
    }

    fn dual_simplex_inner(
        &mut self,
        y: &mut SparseVector,
        w: &mut SparseVector,
        rho: &mut SparseVector,
        alpha: &mut SparseVector,
        lists: &mut RatioLists,
    ) -> InnerStatus {
        let m = self.lp.m;
        let tol = self.options.tol;
        let cost = &self.lp.cost;
        let RatioLists {
            candidates,
            bland_order,
            flips,
        } = lists;
        for local_iter in 0..self.options.max_iterations {
            if self.ws.factor.eta_count() >= REFACTOR_EVERY && !self.refresh_factorization() {
                return InnerStatus::Unstable;
            }
            let use_bland = local_iter >= self.options.bland_after;

            // Leaving row: the basic variable most outside its bounds.
            let mut leaving: Option<(usize, f64, LeaveTo)> = None;
            for i in 0..m {
                let col = self.ws.basis[i];
                let below = self.ws.lower[col] - self.ws.xb[i];
                let above = self.ws.xb[i] - self.ws.upper[col];
                let (viol, to) = if below > above {
                    (below, LeaveTo::Lower)
                } else {
                    (above, LeaveTo::Upper)
                };
                if viol > tol {
                    if use_bland {
                        if leaving.is_none() {
                            leaving = Some((i, viol, to));
                        }
                    } else if leaving.is_none_or(|(_, best, _)| viol > best) {
                        leaving = Some((i, viol, to));
                    }
                }
            }
            let Some((r, _, to)) = leaving else {
                return InnerStatus::Optimal;
            };

            // On an LU with an empty eta file the pricing vectors are a
            // function of the LU and the row: the second of two siblings
            // (same kept LU, same violated row) takes its twin's.
            let key = (self.ws.factor.eta_count() == 0).then(|| (self.ws.factor.generation(), r));
            if key.is_some() && key == self.ws.pricing.key {
                rho.copy_from(&self.ws.pricing.rho);
                y.copy_from(&self.ws.pricing.y);
                alpha.copy_from(&self.ws.pricing.alpha);
                self.ws.factor.stats.solve_reuses += 2;
            } else {
                self.price_row(r, rho, y, alpha);
                if key.is_some() {
                    self.ws.pricing.key = key;
                    self.ws.pricing.rho.copy_from(rho);
                    self.ws.pricing.y.copy_from(y);
                    self.ws.pricing.alpha.copy_from(alpha);
                }
            }

            // Dual ratio test: keep reduced costs sign-feasible. Bland's rule
            // needs the candidates in ascending column order; the Dantzig
            // path is order-independent (strict tie-breaks on the index).
            candidates.clear();
            let mut entering: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            let columns: &[usize] = if use_bland {
                bland_order.clear();
                bland_order.extend_from_slice(alpha.nonzeros());
                bland_order.sort_unstable();
                bland_order
            } else {
                alpha.nonzeros()
            };
            for &j in columns {
                if self.ws.status[j] == ColStatus::Basic {
                    continue;
                }
                if self.ws.lower[j] == self.ws.upper[j] && self.ws.status[j] != ColStatus::Free {
                    continue; // fixed columns cannot absorb the change
                }
                let alpha_j = alpha.get(j);
                if alpha_j.abs() <= DUAL_ALPHA_TOL {
                    continue;
                }
                let ok = match (to, self.ws.status[j]) {
                    // x_B(r) must increase back to its lower bound.
                    (LeaveTo::Lower, ColStatus::AtLower) => alpha_j < 0.0,
                    (LeaveTo::Lower, ColStatus::AtUpper) => alpha_j > 0.0,
                    // x_B(r) must decrease back to its upper bound.
                    (LeaveTo::Upper, ColStatus::AtLower) => alpha_j > 0.0,
                    (LeaveTo::Upper, ColStatus::AtUpper) => alpha_j < 0.0,
                    (_, ColStatus::Free) => true,
                    (_, ColStatus::Basic) => unreachable!(),
                };
                if !ok {
                    continue;
                }
                let d = self.reduced_cost(cost, y, j);
                let ratio = d.abs() / alpha_j.abs();
                if !use_bland {
                    // Only the (rare) overshoot branch consumes the candidate
                    // list, and flips are disabled under Bland's rule.
                    candidates.push((j, alpha_j, ratio));
                }
                let better = match entering {
                    None => true,
                    Some((best_j, best_ratio, _)) => {
                        if use_bland {
                            ratio < best_ratio - tol
                        } else {
                            ratio < best_ratio - DUAL_RATIO_TIE
                                || (ratio <= best_ratio + DUAL_RATIO_TIE && j < best_j)
                        }
                    }
                };
                if better {
                    entering = Some((j, ratio, alpha_j));
                }
            }
            let Some((q, _, alpha_q)) = entering else {
                // The violated row cannot be repaired: primal infeasible.
                return InnerStatus::Infeasible;
            };

            // Step length target: x_B(r) must land exactly on its violated
            // bound; the entering variable's step is the remaining residual
            // over its pivot coefficient.
            let target = match to {
                LeaveTo::Lower => self.ws.lower[self.ws.basis[r]],
                LeaveTo::Upper => self.ws.upper[self.ws.basis[r]],
            };
            let mut residual = self.ws.xb[r] - target;

            // Bound-flipping ratio test: when the min-ratio column's own step
            // would overshoot its opposite bound, flip it there (no pivot, no
            // eta) and let the next breakpoint enter instead. Each flip
            // absorbs `|α| × range` of the residual without crossing zero
            // (the overshoot condition is exactly `|residual| > |α| × range`),
            // and the eventual pivot's dual step dominates every flipped
            // ratio, so the flipped columns are sign-feasible at their new
            // bounds. Disabled under Bland's rule, whose anti-cycling
            // argument assumes plain min-ratio pivots.
            let fits = |state: &Self, j: usize, alpha: f64, residual: f64| -> bool {
                let range = state.ws.upper[j] - state.ws.lower[j];
                !range.is_finite() || residual.abs() <= range * alpha.abs() + tol
            };
            flips.clear();
            let mut q = q;
            if !use_bland && !fits(self, q, alpha_q, residual) {
                // Non-finite ratios mean the pricing vectors have drifted
                // (eta-file noise, near-singular factors): surface Unstable
                // so the caller re-solves cold instead of sorting garbage.
                if candidates.iter().any(|&(_, _, ratio)| !ratio.is_finite()) {
                    return InnerStatus::Unstable;
                }
                candidates.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
                let mut chosen = None;
                for &(j, alpha_j, _) in candidates.iter() {
                    if fits(self, j, alpha_j, residual) {
                        chosen = Some(j);
                        break;
                    }
                    let range = self.ws.upper[j] - self.ws.lower[j];
                    let flip_delta = (residual / alpha_j).signum() * range;
                    flips.push((j, flip_delta));
                    residual -= alpha_j * flip_delta;
                }
                let Some(c) = chosen else {
                    // Every candidate flipped and the row is still out of
                    // bounds. In exact arithmetic this proves the dual ray
                    // improves forever (primal infeasible), but the candidate
                    // filter dropped columns with |α| ≤ DUAL_ALPHA_TOL whose
                    // huge bound ranges could in principle still absorb the
                    // residual — so surface Unstable and let the caller prove
                    // the verdict with a cold solve instead of pruning a
                    // possibly-feasible subtree.
                    return InnerStatus::Unstable;
                };
                q = c;
            }

            w.reset(m);
            for &(i, a) in &self.lp.cols[q] {
                w.set(i, a);
            }
            self.ws.factor.ftran(w);
            if w.get(r).abs() < MIN_PIVOT {
                // With flips pending, retrying would double-apply them; a
                // cold restart by the caller is the safe recovery. Without
                // flips, fold the eta file and retry as before.
                if !flips.is_empty()
                    || self.ws.factor.eta_count() == 0
                    || !self.refresh_factorization()
                {
                    return InnerStatus::Unstable;
                }
                continue;
            }

            // Apply the recorded flips: each moves a nonbasic column across
            // its whole range. B⁻¹ is linear, so the combined shift of the
            // basic values is one FTRAN of the accumulated column sum, not
            // one FTRAN per flipped column. ρ is spent once α is formed, so
            // its buffer carries the sum.
            if !flips.is_empty() {
                let wf = &mut *rho;
                wf.reset(m);
                for &(j, flip_delta) in flips.iter() {
                    for &(i, a) in &self.lp.cols[j] {
                        wf.add(i, a * flip_delta);
                    }
                    self.ws.status[j] = match self.ws.status[j] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        other => other, // free columns never flip
                    };
                    self.flips += 1;
                }
                self.ws.factor.ftran(wf);
                for &i in wf.nonzeros() {
                    let shift = wf.get(i);
                    if shift != 0.0 {
                        self.ws.xb[i] -= shift;
                    }
                }
            }

            let delta_q = (self.ws.xb[r] - target) / w.get(r);
            let entering_value = self.column_value(q) + delta_q;
            for &i in w.nonzeros() {
                let g = w.get(i);
                if g != 0.0 {
                    self.ws.xb[i] -= g * delta_q;
                }
            }
            let leaving_col = self.ws.basis[r];
            self.ws.status[leaving_col] = match to {
                LeaveTo::Lower => ColStatus::AtLower,
                LeaveTo::Upper => ColStatus::AtUpper,
            };
            self.ws.basis[r] = q;
            self.ws.status[q] = ColStatus::Basic;
            self.ws.xb[r] = entering_value;
            self.ws.factor.push_eta(r, w);
            self.iterations += 1;
        }
        InnerStatus::IterationLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation};

    fn solve_model(model: &Model) -> RevisedOutcome {
        RevisedLp::new(model)
            .unwrap()
            .solve(&SimplexOptions::default())
    }

    fn objective(model: &Model, outcome: &RevisedOutcome) -> f64 {
        model.objective_value(&outcome.values)
    }

    #[test]
    fn slack_only_maximization() {
        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 5.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        model.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        model.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let out = solve_model(&model);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((objective(&model, &out) - 36.0).abs() < 1e-6);
    }

    #[test]
    fn phase1_handles_cover_constraints() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 2.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 3.0);
        let out = solve_model(&model);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((objective(&model, &out) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn native_bounds_without_extra_rows() {
        // minimize x + y with x in [2, 5], y >= 1, x + y >= 7 -> objective 7.
        let mut model = Model::minimize();
        let x = model.add_var("x", 1.0, 2.0, 5.0);
        let y = model.add_var("y", 1.0, 1.0, f64::INFINITY);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 7.0);
        let lp = RevisedLp::new(&model).unwrap();
        // No explicit upper-bound row: just the one model constraint.
        assert_eq!(lp.num_rows(), 1);
        let out = lp.solve(&SimplexOptions::default());
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((objective(&model, &out) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn free_variables_are_native() {
        let mut model = Model::minimize();
        let x = model.add_var("x", 1.0, f64::NEG_INFINITY, f64::INFINITY);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, -5.0);
        let out = solve_model(&model);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.values[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_and_unbounded_are_detected() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        assert_eq!(solve_model(&model).status, LpStatus::Infeasible);

        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 0.0);
        assert_eq!(solve_model(&model).status, LpStatus::Unbounded);
    }

    #[test]
    fn dual_simplex_resolves_a_tightened_bound() {
        // minimize x + 2y, x + y >= 4, both nonneg: optimum x = 4, y = 0.
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        let y = model.add_nonneg_var("y", 2.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 4.0);
        let lp = RevisedLp::new(&model).unwrap();
        let root = lp.solve(&SimplexOptions::default());
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        // Tighten x <= 1: the parent basis becomes primal infeasible; dual
        // simplex must land on x = 1, y = 3 with objective 7.
        let child = lp.solve_node(
            &[(VarId(0), f64::NEG_INFINITY, 1.0)],
            Some(&basis),
            &SimplexOptions::default(),
        );
        assert_eq!(child.status, LpStatus::Optimal);
        assert!((model.objective_value(&child.values) - 7.0).abs() < 1e-6);
        assert!(child.values[0] <= 1.0 + 1e-6);
    }

    #[test]
    fn dual_simplex_detects_child_infeasibility() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 5.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.0);
        let lp = RevisedLp::new(&model).unwrap();
        let root = lp.solve(&SimplexOptions::default());
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        let child = lp.solve_node(
            &[(VarId(0), f64::NEG_INFINITY, 1.0)],
            Some(&basis),
            &SimplexOptions::default(),
        );
        assert_eq!(child.status, LpStatus::Infeasible);
    }

    #[test]
    fn dual_bound_flip_absorbs_an_overshoot() {
        // minimize 2·x0 + x1 + 1.5·x2 + 4·x3 with x0 ∈ [0, 2], x1 ∈ [0, 2],
        // subject to x0 + x1 + x2 + x3 ≥ 10. Parent optimum: x1 = 2, x2 = 8.
        // Tightening x2 ≤ 3 leaves a deficit of 5; the min-ratio entering
        // column is x0 (reduced cost 0.5) whose whole range is only 2 — the
        // dual simplex must *flip* x0 to its upper bound and pivot x3 in for
        // the remaining 3, landing on x = (2, 2, 3, 3) with objective 22.5.
        let mut model = Model::minimize();
        let x0 = model.add_var("x0", 2.0, 0.0, 2.0);
        let x1 = model.add_var("x1", 1.0, 0.0, 2.0);
        let x2 = model.add_nonneg_var("x2", 1.5);
        let x3 = model.add_nonneg_var("x3", 4.0);
        model.add_constraint(
            vec![(x0, 1.0), (x1, 1.0), (x2, 1.0), (x3, 1.0)],
            Relation::GreaterEq,
            10.0,
        );
        let lp = RevisedLp::new(&model).unwrap();
        let root = lp.solve(&SimplexOptions::default());
        assert_eq!(root.status, LpStatus::Optimal);
        assert!((objective(&model, &root) - 14.0).abs() < 1e-6);
        let basis = root.basis.clone().unwrap();

        let child = lp.solve_node(
            &[(x2, f64::NEG_INFINITY, 3.0)],
            Some(&basis),
            &SimplexOptions::default(),
        );
        assert_eq!(child.status, LpStatus::Optimal);
        assert!((model.objective_value(&child.values) - 22.5).abs() < 1e-6);
        assert!((child.values[0] - 2.0).abs() < 1e-6, "x0 flipped to upper");
        assert!((child.values[3] - 3.0).abs() < 1e-6, "x3 entered");
        assert!(
            child.bound_flips >= 1,
            "the overshoot must be absorbed by a flip, not a pivot chain"
        );
        // A cold solve of the same child agrees (flips are a shortcut, never
        // a different answer).
        let cold = lp.solve_node(
            &[(x2, f64::NEG_INFINITY, 3.0)],
            None,
            &SimplexOptions::default(),
        );
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!((model.objective_value(&cold.values) - 22.5).abs() < 1e-6);
    }

    #[test]
    fn dual_bound_flips_cascade_through_several_small_ranges() {
        // Same shape but the deficit must cross *two* small-range columns
        // before an unbounded one can close the row.
        let mut model = Model::minimize();
        let x0 = model.add_var("x0", 2.0, 0.0, 2.0);
        let x1 = model.add_var("x1", 2.5, 0.0, 2.0);
        let x2 = model.add_nonneg_var("x2", 1.0);
        let x3 = model.add_nonneg_var("x3", 9.0);
        model.add_constraint(
            vec![(x0, 1.0), (x1, 1.0), (x2, 1.0), (x3, 1.0)],
            Relation::GreaterEq,
            12.0,
        );
        let lp = RevisedLp::new(&model).unwrap();
        let root = lp.solve(&SimplexOptions::default());
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = root.basis.clone().unwrap();
        // Root: x2 = 12. Tighten x2 ≤ 1: deficit 11 → flip x0 (2), flip x1
        // (2), pivot x3 in for 7.
        let child = lp.solve_node(
            &[(x2, f64::NEG_INFINITY, 1.0)],
            Some(&basis),
            &SimplexOptions::default(),
        );
        assert_eq!(child.status, LpStatus::Optimal);
        let expected = 2.0 * 2.0 + 2.5 * 2.0 + 1.0 + 9.0 * 7.0;
        assert!((model.objective_value(&child.values) - expected).abs() < 1e-6);
        assert!(child.bound_flips >= 2);
    }

    #[test]
    fn eta_refactorization_keeps_long_solves_exact() {
        // A chain model long enough to force several refactorizations.
        let mut model = Model::minimize();
        let n = 40;
        let vars: Vec<_> = (0..n)
            .map(|i| model.add_nonneg_var(format!("x{i}"), 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n {
            let mut terms = vec![(vars[i], 1.0)];
            if i + 1 < n {
                terms.push((vars[i + 1], 1.0));
            }
            model.add_constraint(terms, Relation::GreaterEq, 3.0 + (i % 5) as f64);
        }
        let out = solve_model(&model);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(model.is_feasible(
            &out.values.iter().map(|v| v.max(0.0)).collect::<Vec<_>>(),
            1e-5
        ));
    }

    #[test]
    fn dense_lu_option_matches_the_sparse_default() {
        let mut model = Model::minimize();
        let n = 24;
        let vars: Vec<_> = (0..n)
            .map(|i| model.add_nonneg_var(format!("x{i}"), 1.0 + (i % 5) as f64))
            .collect();
        for i in 0..n {
            let mut terms = vec![(vars[i], 2.0)];
            terms.push((vars[(i + 3) % n], 1.0));
            model.add_constraint(terms, Relation::GreaterEq, 2.0 + (i % 4) as f64);
        }
        let lp = RevisedLp::new(&model).unwrap();
        let sparse = lp.solve(&SimplexOptions {
            dense_lu: false,
            ..SimplexOptions::default()
        });
        let dense = lp.solve(&SimplexOptions {
            dense_lu: true,
            ..SimplexOptions::default()
        });
        assert_eq!(sparse.status, LpStatus::Optimal);
        assert_eq!(dense.status, LpStatus::Optimal);
        assert!((objective(&model, &sparse) - objective(&model, &dense)).abs() < 1e-6);
        assert!(
            sparse.factor_stats.fill_nnz > 0,
            "sparse backend tracks fill"
        );
    }

    /// Beale's cycling example: Dantzig pricing with naive tie-breaks loops
    /// forever on this LP. With Bland disabled until far past the pivot
    /// budget, termination at the true optimum (-1/20) is owed entirely to
    /// the anti-stall ladder (perturbation, then forced Bland).
    fn beale_cycling_model() -> Model {
        let mut model = Model::minimize();
        let x1 = model.add_nonneg_var("x1", -0.75);
        let x2 = model.add_nonneg_var("x2", 150.0);
        let x3 = model.add_nonneg_var("x3", -0.02);
        let x4 = model.add_nonneg_var("x4", 6.0);
        model.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::LessEq,
            0.0,
        );
        model.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::LessEq,
            0.0,
        );
        model.add_constraint(vec![(x3, 1.0)], Relation::LessEq, 1.0);
        model
    }

    #[test]
    fn stall_ladder_solves_beales_cycling_example_without_bland_after() {
        let model = beale_cycling_model();
        let out = RevisedLp::new(&model).unwrap().solve(&SimplexOptions {
            bland_after: usize::MAX,
            stall_after: 8,
            max_iterations: 2_000,
            ..SimplexOptions::default()
        });
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((objective(&model, &out) - (-0.05)).abs() < 1e-9);
    }

    #[test]
    fn aggressive_stall_ladder_never_changes_the_optimum() {
        // stall_after = 1 fires the perturbation (and then Bland) almost
        // immediately; the answer must match the default path exactly.
        let model = beale_cycling_model();
        let lp = RevisedLp::new(&model).unwrap();
        let default = lp.solve(&SimplexOptions::default());
        let aggressive = lp.solve(&SimplexOptions {
            stall_after: 1,
            ..SimplexOptions::default()
        });
        assert_eq!(default.status, LpStatus::Optimal);
        assert_eq!(aggressive.status, LpStatus::Optimal);
        assert!((objective(&model, &default) - objective(&model, &aggressive)).abs() < 1e-9);
    }

    #[test]
    fn perturbation_noise_is_deterministic_and_bounded() {
        let cost = vec![1.0, -3.0, 0.0, 250.0];
        let a = perturbed_costs(&cost);
        let b = perturbed_costs(&cost);
        assert_eq!(a, b, "anti-stall perturbation must be reproducible");
        let scale = PERTURB_SCALE * (1.0 + 250.0);
        for (j, (&p, &c)) in a.iter().zip(cost.iter()).enumerate() {
            let delta = p - c;
            assert!(
                delta > 0.0 && delta <= scale,
                "column {j}: perturbation {delta} outside (0, {scale}]"
            );
        }
    }

    /// Asserts two outcomes are the same bit for bit: status, values,
    /// every counter and the basis. The factorization counters differ by
    /// exactly the work the reused workspace kept: each kept LU is one
    /// refactorization fewer and each kept FTRAN or BTRAN result one solve
    /// fewer (never a hyper-sparse one: these models have fewer rows than
    /// the hyper-sparse threshold), and a fresh workspace keeps nothing.
    fn assert_identical(reused: &RevisedOutcome, fresh: &RevisedOutcome, solve: usize) {
        let bits = |o: &RevisedOutcome| o.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(reused.status, fresh.status, "solve {solve}: status");
        assert_eq!(bits(reused), bits(fresh), "solve {solve}: values");
        assert_eq!(reused.iterations, fresh.iterations, "solve {solve}");
        assert_eq!(reused.bound_flips, fresh.bound_flips, "solve {solve}");
        let (kept, all) = (reused.factor_stats, fresh.factor_stats);
        assert!(kept.lu_reuses <= 1 && kept.solve_reuses <= 3 * kept.lu_reuses);
        let redone = FactorStats {
            refactorizations: kept.refactorizations + kept.lu_reuses,
            solves: kept.solves + kept.solve_reuses,
            lu_reuses: 0,
            solve_reuses: 0,
            ..kept
        };
        assert_eq!(redone, all, "solve {solve}: factor stats");
        assert_eq!(
            reused.stall_perturbations, fresh.stall_perturbations,
            "solve {solve}"
        );
        assert_eq!(
            reused.bland_escalations, fresh.bland_escalations,
            "solve {solve}"
        );
        assert_eq!(
            reused.basis.as_deref(),
            fresh.basis.as_deref(),
            "solve {solve}: basis"
        );
    }

    /// A random MILP shaped like the paper's §V-C model: `J` recipe shares
    /// `ρ_j ∈ [0, target]` and `Q` machine counts `x_q ≥ 0` at cost `c_q`,
    /// with `Σ ρ_j ≥ target` and `r_q x_q − Σ_j n_jq ρ_j ≥ 0` per type.
    fn section_vc_model(draw: &mut impl FnMut(u64, u64) -> u64) -> Model {
        let (recipes, types) = (draw(2, 6) as usize, draw(2, 5) as usize);
        let target = draw(20, 300) as f64;
        let mut model = Model::minimize();
        let rho: Vec<_> = (0..recipes)
            .map(|j| model.add_int_var(format!("rho{j}"), 0.0, 0.0, target))
            .collect();
        let x: Vec<_> = (0..types)
            .map(|q| model.add_nonneg_int_var(format!("x{q}"), draw(1, 100) as f64))
            .collect();
        model.add_constraint(
            rho.iter().map(|&v| (v, 1.0)).collect(),
            Relation::GreaterEq,
            target,
        );
        for (q, &x_q) in x.iter().enumerate() {
            let mut terms = vec![(x_q, draw(10, 100) as f64)];
            for (j, &rho_j) in rho.iter().enumerate() {
                // Every recipe needs at least its own type.
                let tasks = draw(0, 3).max(u64::from(j % types == q));
                if tasks > 0 {
                    terms.push((rho_j, -(tasks as f64)));
                }
            }
            model.add_constraint(terms, Relation::GreaterEq, 0.0);
        }
        model
    }

    /// An open branch: its bound tightenings and its parent's basis.
    type OpenNode = (Vec<(VarId, f64, f64)>, Option<Arc<BasisSnapshot>>);

    /// The two children of a node whose relaxation put `var` at `value`,
    /// down first.
    fn children(
        bounds: &[(VarId, f64, f64)],
        var: VarId,
        value: f64,
    ) -> [Vec<(VarId, f64, f64)>; 2] {
        [
            (f64::NEG_INFINITY, value.floor()),
            (value.ceil(), f64::INFINITY),
        ]
        .map(|(lower, upper)| {
            let mut child = bounds.to_vec();
            child.push((var, lower, upper));
            child
        })
    }

    #[test]
    fn a_reused_workspace_matches_fresh_solves_bit_for_bit() {
        let mut counter = 0;
        let mut draw = |lo: u64, hi: u64| {
            counter += 1;
            lo + (unit_noise(counter) * (hi - lo + 1) as f64) as u64
        };
        let base = SimplexOptions::default();
        let switched = SimplexOptions {
            dense_lu: !base.dense_lu,
            ..base
        };
        // One workspace for every solve of every model, as branch and bound
        // keeps it, each outcome held to a fresh `solve_node`.
        let mut ws = NodeWorkspace::default();
        let (mut solves, mut kept_lu, mut kept_solves) = (0, 0, 0);
        let mut check = |lp: &RevisedLp,
                         ws: &mut NodeWorkspace,
                         tighten: &[(VarId, f64, f64)],
                         warm: Option<&BasisSnapshot>,
                         options: &SimplexOptions| {
            let reused = lp
                .solve_node_in(ws, tighten, warm, options)
                .into_outcome(ws);
            assert_identical(&reused, &lp.solve_node(tighten, warm, options), solves);
            solves += 1;
            kept_lu += reused.factor_stats.lu_reuses;
            kept_solves += reused.factor_stats.solve_reuses;
            reused
        };
        for _ in 0..8 {
            let model = section_vc_model(&mut draw);
            let lp = RevisedLp::new(&model).unwrap();
            // A new model: the LU the workspace holds factors another matrix.
            ws.forget();
            let integer = model.integer_vars();
            let fractional = |values: &[f64]| {
                integer
                    .iter()
                    .find(|v| values[v.index()].fract().abs() > 1e-6)
                    .map(|&var| (var, values[var.index()]))
            };
            // Depth-first branching on the first fractional variable; every
            // fifth node runs on the other factorization backend. Children
            // warm-start from their parent's basis, which is often not the
            // outcome solved just before; a child that does not branch is
            // followed by its sibling.
            let mut open: Vec<OpenNode> = vec![(Vec::new(), None)];
            let mut root = None;
            for explored in 0..12 {
                let Some((bounds, warm)) = open.pop() else {
                    break;
                };
                let options = if explored % 5 == 4 { &switched } else { &base };
                let out = check(&lp, &mut ws, &bounds, warm.as_deref(), options);
                let Some(basis) = out.basis else {
                    continue;
                };
                let Some((var, value)) = fractional(&out.values) else {
                    continue;
                };
                let [down, up] = children(&bounds, var, value);
                root.get_or_insert_with(|| (Arc::clone(&basis), down.clone(), up.clone()));
                open.push((down, Some(Arc::clone(&basis))));
                open.push((up, Some(basis)));
            }
            let (basis, down, up) = root.expect("the root relaxation branches");
            // The root's children back to back, twice: the second of each
            // pair keeps its sibling's LU and x_B; then on the other backend,
            // whose switch drops the LU.
            for options in [&base, &base, &switched] {
                check(&lp, &mut ws, &down, Some(&basis), options);
                check(&lp, &mut ws, &up, Some(&basis), options);
            }
            let rho0 = VarId(0);
            // Crossed bounds: infeasible, and crossing by less than the
            // tolerance (collapsed onto the lower bound).
            let out = check(&lp, &mut ws, &[(rho0, 5.0, 2.0)], Some(&basis), &base);
            assert_eq!(out.status, LpStatus::Infeasible);
            let hair = 3.0 - base.tol / 2.0;
            check(&lp, &mut ws, &[(rho0, 3.0, hair)], Some(&basis), &switched);
            // A snapshot of the wrong shape and a singular one both fall
            // back to a cold solve.
            let short = BasisSnapshot {
                basis: basis.basis[1..].to_vec(),
                status: basis.status.clone(),
            };
            check(&lp, &mut ws, &[(rho0, 0.0, 1.0)], Some(&short), &base);
            let mut singular = (*basis).clone();
            singular.basis[1] = singular.basis[0];
            check(&lp, &mut ws, &[], Some(&singular), &switched);
            check(&lp, &mut ws, &[], Some(&singular), &base);
        }
        assert!(solves >= 90, "only {solves} node solves");
        assert!(
            kept_lu > 0 && kept_solves > kept_lu,
            "{kept_lu} kept LUs, {kept_solves} kept solves over {solves} solves"
        );
    }

    #[test]
    fn iteration_limit_is_a_recoverable_outcome() {
        // A pivot budget of zero cannot panic: the solve reports the
        // recoverable IterationLimit with no values.
        let model = beale_cycling_model();
        let out = RevisedLp::new(&model).unwrap().solve(&SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        });
        assert_eq!(out.status, LpStatus::IterationLimit);
        assert!(out.values.is_empty());
        assert!(out.basis.is_none());
    }
}
