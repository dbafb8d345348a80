//! Branch-and-bound mixed-integer solver on top of the simplex relaxation.
//!
//! This is the replacement for the Gurobi ILP solver used by the paper. The
//! MinCost MILP of §V-C has `J + Q` variables and `1 + Q` constraints, so a
//! textbook best-first branch-and-bound with an LP-rounding primal heuristic
//! proves optimality quickly on the paper's small and medium instances, and —
//! like Gurobi in §VIII-E — returns its best incumbent when the configured
//! time limit is reached on the very large ones.
//!
//! The relaxations run on the revised simplex ([`crate::revised`]): the
//! sparse standard form is built **once** per solve, and every child node
//! re-solves **from its parent's optimal basis** with the dual simplex —
//! branching changes a single variable bound, which leaves the parent basis
//! dual feasible, so a handful of dual pivots usually restore optimality
//! where the old dense path re-ran two full phases on a cloned model. Warm
//! children inherit the **sparse Markowitz factorization** transparently:
//! restoring a parent basis is one sparse refactorization
//! ([`crate::factor::SparseLu`], O(nnz + fill) instead of O(m³)) and the
//! dual pivots run on hyper-sparse FTRAN/BTRAN, so deep dives on wide
//! models no longer pay dense linear algebra per node. The second child of
//! a parent, popped right after its sibling, does not even pay that: the
//! workspace still holds the parent basis's LU, `x_B` and first pricing
//! vectors, and keeps them. Set [`SimplexOptions::dense_lu`] in
//! [`MipSolver::simplex_options`] to pin a whole branch-and-bound run to the
//! dense oracle backend.
//!
//! The paper's MILP gives node LPs of a handful of rows, so a node's cost is
//! set-up, not arithmetic, and the fleet solves thousands of such trees per
//! run. Each thread therefore keeps one scratch from tree to tree: the
//! standard form (rebuilt into the same buffers), the node workspace
//! (bounds, statuses, basis, values, scratch vectors and factorization —
//! see [`crate::revised`]), the rounding point and the incumbent, the open
//! heap and an arena of slots. A branching node writes its bounds on the
//! model variables and its optimal basis once, into a slot that both
//! children name by index and that is freed when both have been popped; a
//! child's bounds are that slot's bounds with its own branching bound
//! applied, the root-to-leaf fold of every branching bound above it,
//! operation for operation. Every buffer only grows, so once a thread has
//! solved a tree of a given size a node allocates nothing, and a solve
//! allocates only the values it returns. A minimization model is read in
//! place; a maximization model is read with its objective negated on the
//! fly, never copied.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;
use std::time::{Duration, Instant};

use crate::error::LpResult;
use crate::model::{Model, Sense, VarId};
use crate::revised::{BasisSnapshot, LpCounters, NodeWorkspace, RevisedLp};
use crate::simplex::{self, SimplexOptions};
use crate::solution::{LpStatus, MipSolution, MipStatus};

/// Limits and tolerances of the branch-and-bound search.
#[derive(Debug, Clone, Copy)]
pub struct SolveLimits {
    /// Wall-clock limit; `None` means unlimited. The paper uses 100 s for the
    /// Figure-8 experiment.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes; `None` means unlimited.
    pub node_limit: Option<usize>,
    /// Maximum number of **simplex iterations summed over all node
    /// relaxations**; `None` means unlimited. Unlike the wall-clock limit
    /// this cap is deterministic (the same instance stops at the same node on
    /// every machine), which is what epoch-budgeted fleet re-solves and CI
    /// pin against.
    pub lp_iteration_limit: Option<usize>,
    /// Stop as soon as the relative gap between incumbent and best bound is
    /// below this value. 0 proves optimality.
    pub gap_tolerance: f64,
    /// Tolerance under which a fractional value counts as integral.
    pub integrality_tol: f64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            time_limit: None,
            node_limit: None,
            lp_iteration_limit: None,
            gap_tolerance: 0.0,
            integrality_tol: 1e-6,
        }
    }
}

impl SolveLimits {
    /// Limits with a wall-clock budget, as used for the Figure-8 experiment.
    pub fn with_time_limit(seconds: f64) -> Self {
        SolveLimits {
            time_limit: Some(Duration::from_secs_f64(seconds)),
            ..SolveLimits::default()
        }
    }
}

/// Branch-and-bound MILP solver.
#[derive(Debug, Clone, Default)]
pub struct MipSolver {
    /// Limits applied to the search.
    pub limits: SolveLimits,
    /// Options forwarded to the simplex relaxation solver.
    pub simplex_options: SimplexOptions,
}

/// No parent slot: the root solves cold under the model's own bounds.
const ROOT: usize = usize::MAX;

/// An open node of the search tree.
struct Node {
    /// LP bound of the parent (used for best-first ordering before the node's
    /// own relaxation is solved).
    bound: f64,
    /// Depth in the tree, used to favour diving on ties.
    depth: usize,
    /// The slot in [`TreeScratch::slots`] holding the parent's bounds and
    /// optimal basis, the dual-simplex warm start for this node's
    /// relaxation ([`ROOT`] at the root).
    parent: usize,
    /// The branching bound `lower ≤ var ≤ upper` this node adds to its
    /// parent's bounds.
    var: VarId,
    lower: f64,
    upper: f64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.depth == other.depth
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first
        // (minimization), breaking ties in favour of deeper nodes (diving).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.depth.cmp(&other.depth))
    }
}

/// What a branching node hands its two children: its bounds on the model
/// variables, its optimal basis, and how many of the children are still
/// open.
#[derive(Default)]
struct Slot {
    lower: Vec<f64>,
    upper: Vec<f64>,
    snapshot: BasisSnapshot,
    open_children: usize,
}

/// What branch and bound keeps from tree to tree on one thread (see the
/// module docs). Every field is cleared or overwritten before use.
#[derive(Default)]
struct TreeScratch {
    relaxation: RevisedLp,
    workspace: NodeWorkspace,
    integer_vars: Vec<VarId>,
    rounded: Vec<f64>,
    /// The incumbent's point.
    incumbent: Vec<f64>,
    open: BinaryHeap<Node>,
    /// The popped node's bounds on the model variables, before the node
    /// solve reconciles a pair crossed by a hair: what its children tighten.
    lower: Vec<f64>,
    upper: Vec<f64>,
    slots: Vec<Slot>,
    free_slots: Vec<usize>,
}

thread_local! {
    static SCRATCH: Cell<TreeScratch> = Cell::new(TreeScratch::default());
}

impl TreeScratch {
    /// Runs `f` on this thread's scratch. A solve nested inside `f` would
    /// find the cell empty and grow a scratch of its own.
    fn with<T>(f: impl FnOnce(&mut TreeScratch) -> T) -> T {
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        let result = f(&mut scratch);
        let _ = SCRATCH.try_with(|cell| cell.set(scratch));
        result
    }

    /// Starts a tree on `model`: its standard form replaces the last tree's,
    /// whose LU and basic values the workspace forgets, and the heap and
    /// slots empty.
    fn start(&mut self, model: &Model) -> LpResult<()> {
        self.relaxation.rebuild(model)?;
        self.workspace.forget();
        self.lower.clear();
        self.lower.resize(model.num_vars(), 0.0);
        self.upper.clear();
        self.upper.resize(model.num_vars(), 0.0);
        self.integer_vars.clear();
        self.integer_vars.extend(
            model
                .variables()
                .iter()
                .enumerate()
                .filter(|(_, var)| var.integer)
                .map(|(j, _)| VarId(j)),
        );
        self.open.clear();
        self.free_slots.clear();
        self.free_slots.extend(0..self.slots.len());
        Ok(())
    }

    /// Sets the workspace's node bounds for `node`: its parent's bounds on
    /// the model variables with the node's branching bound applied, which
    /// is the root-to-leaf fold of every branching bound above it, operation
    /// for operation. The result is kept for the node's children.
    fn node_bounds(&mut self, node: &Node) {
        let (lower, upper) = self.relaxation.reset_node_bounds(&mut self.workspace);
        let vars = self.lower.len();
        if node.parent != ROOT {
            let parent = &self.slots[node.parent];
            lower[..vars].copy_from_slice(&parent.lower);
            upper[..vars].copy_from_slice(&parent.upper);
            let j = node.var.index();
            lower[j] = lower[j].max(node.lower);
            upper[j] = upper[j].min(node.upper);
        }
        self.lower.copy_from_slice(&lower[..vars]);
        self.upper.copy_from_slice(&upper[..vars]);
    }

    /// Drops a popped node's claim on its parent's slot (solved or pruned
    /// alike); the last child frees the slot.
    fn release(&mut self, slot: usize) {
        if slot == ROOT {
            return;
        }
        let open_children = &mut self.slots[slot].open_children;
        *open_children -= 1;
        if *open_children == 0 {
            self.free_slots.push(slot);
        }
    }

    /// Opens the two children of `node`, whose relaxation (bound `bound`)
    /// put `var` at the fractional `value`: down first, then up. The node's
    /// bounds and its optimal basis, still in the workspace, go to one slot
    /// both read.
    fn branch(&mut self, node: &Node, bound: f64, var: VarId, value: f64) {
        let index = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() - 1
        });
        let slot = &mut self.slots[index];
        slot.lower.clone_from(&self.lower);
        slot.upper.clone_from(&self.upper);
        self.workspace.snapshot_into(&mut slot.snapshot);
        slot.open_children = 2;
        for (lower, upper) in [
            (f64::NEG_INFINITY, value.floor()),
            (value.ceil(), f64::INFINITY),
        ] {
            self.open.push(Node {
                bound,
                depth: node.depth + 1,
                parent: index,
                var,
                lower,
                upper,
            });
        }
    }
}

impl MipSolver {
    /// Creates a solver with default (unlimited) limits.
    pub fn new() -> Self {
        MipSolver::default()
    }

    /// Creates a solver with the given limits.
    pub fn with_limits(limits: SolveLimits) -> Self {
        MipSolver {
            limits,
            simplex_options: SimplexOptions::default(),
        }
    }

    /// Solves a mixed-integer program.
    ///
    /// Maximization models are handled by negating the objective internally,
    /// so `objective`/`best_bound` are always reported in the original sense.
    ///
    /// # Errors
    ///
    /// Returns a model-validation error if the model is structurally invalid.
    pub fn solve(&self, model: &Model) -> LpResult<MipSolution> {
        self.solve_with_start(model, None)
    }

    /// Solves a mixed-integer program, optionally seeding the search with a
    /// known feasible point (a *warm start*). A good warm start — e.g. the
    /// solution of a cheap heuristic — lets branch-and-bound prune aggressively
    /// from the first node, which matters on the larger MinCost instances.
    ///
    /// The warm start is checked for feasibility and integrality; an invalid
    /// warm start is silently ignored.
    ///
    /// # Errors
    ///
    /// Returns a model-validation error if the model is structurally invalid.
    pub fn solve_with_start(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
    ) -> LpResult<MipSolution> {
        self.solve_with_hints(model, warm_start, None)
    }

    /// [`Self::solve_with_start`] with an additional **objective floor**: an
    /// externally proven bound on the optimal objective (a lower bound when
    /// minimizing, an upper bound when maximizing).
    ///
    /// The floor is *never* added to the LP (objective cuts degrade branching
    /// badly); it is used for pruning only: every subtree's integer points are
    /// feasible for the whole problem, so `max(subtree LP bound, floor)` is a
    /// valid subtree bound. When an incumbent comes within the improvement
    /// step of the floor, the entire remaining tree prunes — on target sweeps
    /// whose optimal cost plateaus between neighbouring targets (ubiquitous at
    /// fine granularity, because machine capacity is quantized) this collapses
    /// the search to a handful of nodes.
    ///
    /// An unsound floor (one exceeding the true optimum) voids the optimality
    /// guarantee; callers must only pass proven bounds.
    ///
    /// # Errors
    ///
    /// Returns a model-validation error if the model is structurally invalid.
    pub fn solve_with_hints(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
        objective_floor: Option<f64>,
    ) -> LpResult<MipSolution> {
        let mut counters = LpCounters::default();
        let result = self.solve_with_hints_inner(model, warm_start, objective_floor, &mut counters);
        // Pure copy-out to the ambient sink; never feeds the search. The
        // tree's node relaxations report their `lp.*` counters once, summed.
        counters.emit();
        if let Ok(solution) = &result {
            rental_obs::with_sink(|sink| {
                sink.counter("mip.solves", 1);
                sink.counter("mip.nodes", solution.nodes as u64);
                sink.counter("mip.lp_iterations", solution.lp_iterations as u64);
                sink.observe("mip.nodes_per_solve", solution.nodes as u64);
            });
        }
        result
    }

    fn solve_with_hints_inner(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
        objective_floor: Option<f64>,
        counters: &mut LpCounters,
    ) -> LpResult<MipSolution> {
        let start = Instant::now();
        model.validate()?;
        let minimize = model.sense() == Sense::Minimize;

        // Plain LP: just solve the relaxation.
        if !model.has_integer_vars() {
            let lp = simplex::solve_with(model, &self.simplex_options)?;
            return Ok(match lp.status {
                LpStatus::Optimal => MipSolution {
                    status: MipStatus::Optimal,
                    objective: lp.objective,
                    best_bound: lp.objective,
                    values: lp.values,
                    nodes: 1,
                    lp_iterations: lp.iterations,
                    elapsed_seconds: start.elapsed().as_secs_f64(),
                },
                LpStatus::Infeasible => infeasible_solution(start, 1, lp.iterations),
                LpStatus::Unbounded => MipSolution {
                    status: MipStatus::Unbounded,
                    objective: if minimize {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    },
                    best_bound: f64::NEG_INFINITY,
                    values: vec![],
                    nodes: 1,
                    lp_iterations: lp.iterations,
                    elapsed_seconds: start.elapsed().as_secs_f64(),
                },
                LpStatus::IterationLimit => limit_solution(start, 1, lp.iterations),
            });
        }

        TreeScratch::with(|scratch| {
            self.branch_and_bound(model, warm_start, objective_floor, counters, start, scratch)
        })
    }

    /// The search proper, in minimize space, on this thread's scratch.
    fn branch_and_bound(
        &self,
        model: &Model,
        warm_start: Option<&[f64]>,
        objective_floor: Option<f64>,
        counters: &mut LpCounters,
        start: Instant,
        scratch: &mut TreeScratch,
    ) -> LpResult<MipSolution> {
        let minimize = model.sense() == Sense::Minimize;
        // The sparse standard form is shared by every node; only bounds vary.
        scratch.start(model)?;

        let mut nodes_explored = 0usize;
        let mut lp_iterations = 0usize;
        // The incumbent's objective; its point is `scratch.incumbent`.
        let mut incumbent: Option<f64> = None;
        // Warm start: adopt the caller-provided point if it is integral and feasible.
        if let Some(point) = warm_start {
            let integral = scratch.integer_vars.iter().all(|&v| {
                point
                    .get(v.index())
                    .is_some_and(|x| (x - x.round()).abs() < 1e-6)
            });
            if integral && model.is_feasible(point, 1e-6) {
                incumbent = Some(objective(model, minimize, point));
                scratch.incumbent.clear();
                scratch.incumbent.extend_from_slice(point);
            }
        }
        // When every integer-feasible point has an integral objective (integer
        // costs on integer variables, zero cost on continuous ones), a node can
        // only improve on the incumbent by at least 1; prune accordingly.
        let improvement_step = if model
            .variables()
            .iter()
            .zip(model.objective())
            .all(|(var, &c)| c.fract() == 0.0 && (var.integer || c == 0.0))
        {
            1.0 - 1e-6
        } else {
            1e-9
        };
        // The externally proven floor, in minimize space.
        let floor = objective_floor
            .map(|f| if minimize { f } else { -f })
            .unwrap_or(f64::NEG_INFINITY);
        let mut best_bound = floor.max(f64::NEG_INFINITY);
        scratch.open.push(Node {
            bound: f64::NEG_INFINITY,
            depth: 0,
            parent: ROOT,
            var: VarId(0),
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
        });
        let mut hit_limit = false;
        let mut root_infeasible = false;
        let mut root_unbounded = false;
        // Subtrees discarded because their relaxation was inconclusive
        // (iteration limit / numerical trouble) still bound the optimum by
        // their parent's bound; folding that in keeps the reported
        // `best_bound` — and any sweep floor derived from it — sound.
        let mut dropped_bound = f64::INFINITY;

        while let Some(node) = scratch.open.pop() {
            if let Some(limit) = self.limits.time_limit {
                if start.elapsed() >= limit {
                    hit_limit = true;
                    break;
                }
            }
            if let Some(limit) = self.limits.node_limit {
                if nodes_explored >= limit {
                    hit_limit = true;
                    break;
                }
            }
            if let Some(limit) = self.limits.lp_iteration_limit {
                if lp_iterations >= limit {
                    hit_limit = true;
                    break;
                }
            }
            // Bound-based pruning against the incumbent.
            if let Some(best_obj) = incumbent {
                if node.bound > best_obj - improvement_step {
                    scratch.release(node.parent);
                    continue;
                }
            }

            nodes_explored += 1;
            scratch.node_bounds(&node);
            let warm = (node.parent != ROOT).then(|| &scratch.slots[node.parent].snapshot);
            let lp = scratch.relaxation.solve_bounded(
                &mut scratch.workspace,
                warm,
                &self.simplex_options,
            );
            scratch.release(node.parent);
            counters.add(&lp);
            lp_iterations += lp.iterations;
            match lp.status {
                LpStatus::Infeasible => {
                    if node.depth == 0 {
                        root_infeasible = true;
                    }
                    continue;
                }
                LpStatus::Unbounded => {
                    if node.depth == 0 {
                        root_unbounded = true;
                        break;
                    }
                    continue;
                }
                LpStatus::IterationLimit => {
                    hit_limit = true;
                    dropped_bound = dropped_bound.min(node.bound.max(floor));
                    continue;
                }
                LpStatus::Optimal => {}
            }
            // Every subtree's integer points are feasible for the whole
            // problem, so the external floor is a valid subtree bound too.
            let values = scratch.workspace.values();
            let node_bound = objective(model, minimize, values).max(floor);
            if node.depth == 0 {
                best_bound = node_bound;
            }
            if let Some(best_obj) = incumbent {
                if node_bound > best_obj - improvement_step {
                    continue;
                }
            }

            // Primal heuristic: round the relaxation up/down and keep it if
            // feasible. For covering-style problems (like MinCost) rounding up
            // usually yields a feasible incumbent immediately; running it at
            // every node keeps the incumbent tight and the tree small.
            if round_feasibly(model, &scratch.integer_vars, values, &mut scratch.rounded) {
                let obj = objective(model, minimize, &scratch.rounded);
                if improves(incumbent, obj) {
                    incumbent = Some(obj);
                    mem::swap(&mut scratch.incumbent, &mut scratch.rounded);
                }
            }
            // The rounding may have tightened the incumbent enough to close
            // this node without branching.
            if let Some(best_obj) = incumbent {
                if node_bound > best_obj - improvement_step {
                    continue;
                }
            }

            // Branching: pick the integer variable whose value is most fractional.
            match most_fractional(&scratch.integer_vars, values, self.limits.integrality_tol) {
                None => {
                    // Integer feasible: candidate incumbent.
                    if improves(incumbent, node_bound) {
                        incumbent = Some(node_bound);
                        scratch.incumbent.clear();
                        scratch.incumbent.extend_from_slice(values);
                    }
                }
                Some((var, value)) => scratch.branch(&node, node_bound, var, value),
            }

            // Gap-based early stop.
            if let Some(best_obj) = incumbent {
                let bound_now = open_bound(&scratch.open, dropped_bound).max(best_bound);
                let denom = best_obj.abs().max(1e-9);
                if (best_obj - bound_now).abs() / denom <= self.limits.gap_tolerance {
                    best_bound = bound_now.min(best_obj);
                    break;
                }
            }
        }

        // The proven bound is the minimum over the remaining open nodes and
        // any dropped inconclusive subtrees (they might still contain better
        // solutions), or the incumbent if the tree was exhausted.
        let open_bound = open_bound(&scratch.open, dropped_bound);
        let elapsed = start.elapsed().as_secs_f64();

        if root_unbounded {
            return Ok(MipSolution {
                status: MipStatus::Unbounded,
                objective: if minimize {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                best_bound: f64::NEG_INFINITY,
                values: vec![],
                nodes: nodes_explored,
                lp_iterations,
                elapsed_seconds: elapsed,
            });
        }

        let solution = match incumbent {
            Some(obj) => {
                let exhausted = scratch.open.is_empty() && !hit_limit;
                let proven_bound = if exhausted {
                    obj
                } else {
                    open_bound.min(obj).max(best_bound)
                };
                let denom = obj.abs().max(1e-9);
                let gap = (obj - proven_bound).abs() / denom;
                let status = if exhausted || gap <= self.limits.gap_tolerance + 1e-12 {
                    MipStatus::Optimal
                } else {
                    MipStatus::Feasible
                };
                let (objective, bound) = if minimize {
                    (obj, proven_bound)
                } else {
                    (-obj, -proven_bound)
                };
                MipSolution {
                    status,
                    objective,
                    best_bound: bound,
                    values: scratch.incumbent.clone(),
                    nodes: nodes_explored,
                    lp_iterations,
                    elapsed_seconds: elapsed,
                }
            }
            None => {
                if root_infeasible || (scratch.open.is_empty() && !hit_limit) {
                    infeasible_solution(start, nodes_explored, lp_iterations)
                } else {
                    limit_solution(start, nodes_explored, lp_iterations)
                }
            }
        };
        Ok(solution)
    }
}

fn infeasible_solution(start: Instant, nodes: usize, lp_iterations: usize) -> MipSolution {
    MipSolution {
        status: MipStatus::Infeasible,
        objective: f64::INFINITY,
        best_bound: f64::INFINITY,
        values: vec![],
        nodes,
        lp_iterations,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

fn limit_solution(start: Instant, nodes: usize, lp_iterations: usize) -> MipSolution {
    MipSolution {
        status: MipStatus::LimitReached,
        objective: f64::INFINITY,
        best_bound: f64::NEG_INFINITY,
        values: vec![],
        nodes,
        lp_iterations,
        elapsed_seconds: start.elapsed().as_secs_f64(),
    }
}

/// The objective at `x` in minimize space. A maximization model's terms
/// are negated one by one, which is exactly how the model with negated costs
/// would evaluate them, so the search runs on the model as given.
fn objective(model: &Model, minimize: bool, x: &[f64]) -> f64 {
    if minimize {
        model.objective_value(x)
    } else {
        model.objective().iter().zip(x).map(|(c, v)| -c * v).sum()
    }
}

fn most_fractional(integer_vars: &[VarId], values: &[f64], tol: f64) -> Option<(VarId, f64)> {
    let mut best: Option<(VarId, f64, f64)> = None;
    for &var in integer_vars {
        let value = values[var.index()];
        let frac = (value - value.round()).abs();
        if frac > tol {
            let distance_to_half = (value.fract().abs() - 0.5).abs();
            match best {
                None => best = Some((var, value, distance_to_half)),
                Some((_, _, best_distance)) if distance_to_half < best_distance => {
                    best = Some((var, value, distance_to_half));
                }
                _ => {}
            }
        }
    }
    best.map(|(var, value, _)| (var, value))
}

/// The smallest bound among the open nodes and the dropped subtrees. The
/// heap is ordered by bound (smallest on top) and bounds are never NaN, so
/// its top holds the open minimum.
fn open_bound(open: &BinaryHeap<Node>, dropped_bound: f64) -> f64 {
    open.peek()
        .map_or(dropped_bound, |top| dropped_bound.min(top.bound))
}

/// Rounds the integer variables of an LP point into `point`, up first
/// (which suits covering constraints) and to nearest second, and reports
/// whether either rounding is feasible; `point` then holds that one.
fn round_feasibly(
    model: &Model,
    integer_vars: &[VarId],
    values: &[f64],
    point: &mut Vec<f64>,
) -> bool {
    for rounding in [f64::ceil, f64::round] {
        point.clear();
        point.extend_from_slice(values);
        for &var in integer_vars {
            point[var.index()] = rounding(point[var.index()]);
        }
        if model.is_feasible(point, 1e-6) {
            return true;
        }
    }
    false
}

/// Whether a point of objective `objective` would replace the incumbent.
fn improves(incumbent: Option<f64>, objective: f64) -> bool {
    !matches!(incumbent, Some(best) if objective >= best - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Relation;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.5);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 2.5);
    }

    #[test]
    fn integer_covering_rounds_up() {
        // minimize x, x integer, x >= 2.3 -> 3.
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 2.3);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 3.0);
        assert_eq!(sol.rounded_values(), vec![3]);
    }

    #[test]
    fn knapsack_milp_optimum() {
        // maximize 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d <= 14, binary.
        // Optimum: a + b + d? 5+7+3=15 > 14. b + c + d = 7+4+3 = 14 -> 21.
        // a + b = 12 -> 19; a + c + d = 12 -> 18. So optimum 21.
        let mut model = Model::maximize();
        let vars: Vec<_> = [8.0, 11.0, 6.0, 4.0]
            .iter()
            .enumerate()
            .map(|(i, &p)| model.add_int_var(format!("x{i}"), p, 0.0, 1.0))
            .collect();
        let weights = [5.0, 7.0, 4.0, 3.0];
        model.add_constraint(
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            Relation::LessEq,
            14.0,
        );
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 21.0);
        assert_eq!(sol.rounded_values(), vec![0, 1, 1, 1]);
    }

    #[test]
    fn infeasible_integer_program() {
        // 0 <= x <= 1 integer with 2x = 1 has no integer solution... actually
        // x = 0.5 is LP feasible but no integer point exists.
        let mut model = Model::minimize();
        let x = model.add_int_var("x", 1.0, 0.0, 1.0);
        model.add_constraint(vec![(x, 2.0)], Relation::Equal, 1.0);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Infeasible);
        assert!(!sol.has_incumbent());
    }

    #[test]
    fn lp_infeasible_root_is_reported() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Infeasible);
    }

    #[test]
    fn unbounded_milp_is_reported() {
        let mut model = Model::maximize();
        let x = model.add_nonneg_int_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 0.0);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Unbounded);
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // minimize 3x + y with x integer, x + y >= 2.5, y <= 0.4
        // -> y = 0.4, x >= 2.1 -> x = 3? cost 9.4; or x=2? 2+0.4=2.4 < 2.5 infeasible.
        // x = 3, y can be 0 then? x + y = 3 >= 2.5 -> y = 0 cheaper: cost 9.
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 3.0);
        let y = model.add_nonneg_var("y", 1.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 2.5);
        model.add_constraint(vec![(y, 1.0)], Relation::LessEq, 0.4);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 9.0);
        assert_close(sol.values[x.index()], 3.0);
    }

    #[test]
    fn node_limit_produces_feasible_or_limit_status() {
        // A slightly larger covering MILP with a tight node limit.
        let mut model = Model::minimize();
        let vars: Vec<_> = (0..6)
            .map(|i| model.add_nonneg_int_var(format!("x{i}"), (i + 1) as f64))
            .collect();
        for k in 0..6 {
            let terms = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 3 + 1) as f64))
                .collect();
            model.add_constraint(terms, Relation::GreaterEq, 7.0 + k as f64);
        }
        let limits = SolveLimits {
            node_limit: Some(1),
            ..SolveLimits::default()
        };
        let sol = MipSolver::with_limits(limits).solve(&model).unwrap();
        assert!(matches!(
            sol.status,
            MipStatus::Feasible | MipStatus::Optimal | MipStatus::LimitReached
        ));
        // With unlimited nodes the solver must prove optimality.
        let sol_full = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol_full.status, MipStatus::Optimal);
        if sol.has_incumbent() {
            assert!(sol.objective >= sol_full.objective - 1e-9);
        }
    }

    #[test]
    fn lp_iteration_limit_stops_deterministically_with_an_incumbent() {
        // Same covering MILP as the node-limit test; capping total simplex
        // iterations at 1 stops right after the root relaxation, where the
        // rounding heuristic has already produced an incumbent — the anytime
        // contract (best incumbent, Feasible status) instead of a failure.
        let mut model = Model::minimize();
        let vars: Vec<_> = (0..6)
            .map(|i| model.add_nonneg_int_var(format!("x{i}"), (i + 1) as f64))
            .collect();
        for k in 0..6 {
            let terms = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + k) % 3 + 1) as f64))
                .collect();
            model.add_constraint(terms, Relation::GreaterEq, 7.0 + k as f64);
        }
        let limits = SolveLimits {
            lp_iteration_limit: Some(1),
            ..SolveLimits::default()
        };
        let first = MipSolver::with_limits(limits).solve(&model).unwrap();
        let second = MipSolver::with_limits(limits).solve(&model).unwrap();
        assert!(first.has_incumbent());
        assert_eq!(first.status, MipStatus::Feasible);
        assert_eq!(first.nodes, second.nodes, "iteration cap is deterministic");
        assert_close(first.objective, second.objective);
        let full = MipSolver::new().solve(&model).unwrap();
        assert!(first.objective >= full.objective - 1e-9);
    }

    #[test]
    fn gap_tolerance_stops_early_but_reports_bound() {
        let mut model = Model::minimize();
        let vars: Vec<_> = (0..5)
            .map(|i| model.add_nonneg_int_var(format!("x{i}"), 2.0 + i as f64))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 3.0)).collect();
        model.add_constraint(terms, Relation::GreaterEq, 10.0);
        let limits = SolveLimits {
            gap_tolerance: 0.5,
            ..SolveLimits::default()
        };
        let sol = MipSolver::with_limits(limits).solve(&model).unwrap();
        assert!(sol.has_incumbent());
        assert!(sol.gap() <= 0.5 + 1e-9);
    }

    #[test]
    fn maximization_milp_reports_original_sense() {
        // maximize 5x + 4y, 6x + 4y <= 24, x + 2y <= 6, integers -> optimum 21? Let's
        // check: LP optimum at (3, 1.5) = 21; integer: (3,1)=19, (2,2)=18, (4,0) infeasible
        // (24<=24 ok! x=4,y=0: 6*4=24<=24, 4<=6) = 20. (3,1): 6*3+4=22<=24 -> 19.
        // So best is 20 at (4, 0).
        let mut model = Model::maximize();
        let x = model.add_nonneg_int_var("x", 5.0);
        let y = model.add_nonneg_int_var("y", 4.0);
        model.add_constraint(vec![(x, 6.0), (y, 4.0)], Relation::LessEq, 24.0);
        model.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::LessEq, 6.0);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert_close(sol.objective, 20.0);
        assert_eq!(sol.rounded_values(), vec![4, 0]);
    }

    #[test]
    fn warm_start_is_adopted_and_proven_optimal() {
        // minimize 10x + 18y, x + y >= 3.5, integers -> optimum 40 at (4, 0).
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 10.0);
        let y = model.add_nonneg_int_var("y", 18.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 3.5);
        // Feasible but sub-optimal warm start (0, 4): cost 72.
        let warm = MipSolver::new()
            .solve_with_start(&model, Some(&[0.0, 4.0]))
            .unwrap();
        assert_eq!(warm.status, MipStatus::Optimal);
        assert_close(warm.objective, 40.0);
        assert_eq!(warm.rounded_values(), vec![4, 0]);
        // An infeasible warm start is ignored.
        let ignored = MipSolver::new()
            .solve_with_start(&model, Some(&[0.0, 0.0]))
            .unwrap();
        assert_eq!(ignored.status, MipStatus::Optimal);
        assert_close(ignored.objective, 40.0);
        // A fractional warm start is ignored as well.
        let fractional = MipSolver::new()
            .solve_with_start(&model, Some(&[3.5, 0.0]))
            .unwrap();
        assert_close(fractional.objective, 40.0);
    }

    #[test]
    fn objective_floor_prunes_without_changing_the_optimum() {
        // minimize 10x + 18y, x + y >= 3.5, integers -> optimum 40 at (4, 0).
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 10.0);
        let y = model.add_nonneg_int_var("y", 18.0);
        model.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::GreaterEq, 3.5);
        let solver = MipSolver::new();
        let plain = solver.solve(&model).unwrap();
        assert_close(plain.objective, 40.0);
        // A loose (but sound) floor changes nothing.
        let loose = solver.solve_with_hints(&model, None, Some(20.0)).unwrap();
        assert_eq!(loose.status, MipStatus::Optimal);
        assert_close(loose.objective, 40.0);
        // A tight floor plus a matching warm start collapses the tree: the
        // incumbent meets the floor, so every further node prunes.
        let tight = solver
            .solve_with_hints(&model, Some(&[4.0, 0.0]), Some(40.0))
            .unwrap();
        assert_eq!(tight.status, MipStatus::Optimal);
        assert_close(tight.objective, 40.0);
        assert!(tight.nodes <= 1, "tree must collapse, saw {}", tight.nodes);
        assert!(tight.nodes < plain.nodes);
        assert_close(tight.best_bound, 40.0);
    }

    #[test]
    fn best_bound_never_exceeds_objective_for_minimization() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_int_var("x", 7.0);
        let y = model.add_nonneg_int_var("y", 5.0);
        model.add_constraint(vec![(x, 2.0), (y, 3.0)], Relation::GreaterEq, 12.0);
        let sol = MipSolver::new().solve(&model).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(sol.best_bound <= sol.objective + 1e-9);
        assert_close(sol.objective, 20.0); // y = 4 costs 20, alternatives cost more.
    }
}
