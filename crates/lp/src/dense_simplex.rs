//! The retained dense two-phase tableau simplex.
//!
//! This is the original LP engine of the workspace, kept verbatim as the
//! *oracle* for the revised simplex ([`crate::revised`]): the
//! `revised_vs_dense` property suite solves every random model with both and
//! demands identical statuses and matching objectives. It is also the
//! baseline side of the `lp_speedup` benchmark.
//!
//! The tableau re-eliminates all `m x (n + m)` entries on every pivot and
//! handles general bounds by presolve transformations:
//!
//! * a finite lower bound `l <= x` is shifted away (`x = l + y`, `y >= 0`);
//! * a free variable is split into the difference of two non-negative ones;
//! * a finite upper bound becomes an explicit `<=` row.
//!
//! Production callers should use [`crate::simplex::solve`], which runs the
//! revised simplex.

use crate::error::LpResult;
use crate::model::{Model, Relation, Sense};
use crate::simplex::SimplexOptions;
use crate::solution::{LpSolution, LpStatus};

/// How an original model variable maps onto the non-negative standard-form
/// variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = shift + y[col]`
    Shifted { col: usize, shift: f64 },
    /// `x = y[pos] - y[neg]` (free variable).
    Split { pos: usize, neg: usize },
}

/// A constraint row in standard form (`Σ a_i y_i (≤|≥|=) b` over non-negative
/// `y`), before sign normalisation.
struct StdRow {
    coeffs: Vec<f64>,
    relation: Relation,
    rhs: f64,
}

/// Solves a linear program (ignoring integrality flags) with explicit options.
///
/// # Errors
///
/// Returns a model-validation error if the model is structurally invalid.
pub fn solve_with(model: &Model, options: &SimplexOptions) -> LpResult<LpSolution> {
    model.validate()?;

    // ------------------------------------------------------------------
    // 1. Standard-form conversion: non-negative variables only.
    // ------------------------------------------------------------------
    let n_orig = model.num_vars();
    let mut var_map = Vec::with_capacity(n_orig);
    let mut n_std = 0usize;
    for var in model.variables() {
        if var.lower.is_finite() {
            var_map.push(VarMap::Shifted {
                col: n_std,
                shift: var.lower,
            });
            n_std += 1;
        } else {
            var_map.push(VarMap::Split {
                pos: n_std,
                neg: n_std + 1,
            });
            n_std += 2;
        }
    }

    // Objective over standard variables (constant offset recovered later by
    // re-evaluating the objective on the recovered point).
    let minimize = model.sense() == Sense::Minimize;
    let mut costs = vec![0.0; n_std];
    for (i, &c) in model.objective().iter().enumerate() {
        let c = if minimize { c } else { -c };
        match var_map[i] {
            VarMap::Shifted { col, .. } => costs[col] += c,
            VarMap::Split { pos, neg } => {
                costs[pos] += c;
                costs[neg] -= c;
            }
        }
    }

    // Constraint rows: model constraints plus finite upper bounds.
    let mut rows: Vec<StdRow> = Vec::new();
    for constraint in model.constraints() {
        let mut coeffs = vec![0.0; n_std];
        let mut rhs = constraint.rhs;
        for &(var, coeff) in &constraint.terms {
            match var_map[var.index()] {
                VarMap::Shifted { col, shift } => {
                    coeffs[col] += coeff;
                    rhs -= coeff * shift;
                }
                VarMap::Split { pos, neg } => {
                    coeffs[pos] += coeff;
                    coeffs[neg] -= coeff;
                }
            }
        }
        rows.push(StdRow {
            coeffs,
            relation: constraint.relation,
            rhs,
        });
    }
    for (i, var) in model.variables().iter().enumerate() {
        if var.upper.is_finite() {
            match var_map[i] {
                VarMap::Shifted { col, shift } => {
                    // y_col <= upper - lower
                    let mut coeffs = vec![0.0; n_std];
                    coeffs[col] = 1.0;
                    rows.push(StdRow {
                        coeffs,
                        relation: Relation::LessEq,
                        rhs: var.upper - shift,
                    });
                }
                VarMap::Split { pos, neg } => {
                    let mut coeffs = vec![0.0; n_std];
                    coeffs[pos] = 1.0;
                    coeffs[neg] = -1.0;
                    rows.push(StdRow {
                        coeffs,
                        relation: Relation::LessEq,
                        rhs: var.upper,
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // 2. Tableau construction with slack / surplus / artificial columns.
    // ------------------------------------------------------------------
    let m = rows.len();
    // Count extra columns.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for row in &rows {
        let rhs_negative = row.rhs < 0.0;
        let relation = effective_relation(row.relation, rhs_negative);
        match relation {
            Relation::LessEq => n_slack += 1,
            Relation::GreaterEq => {
                n_slack += 1;
                n_art += 1;
            }
            Relation::Equal => n_art += 1,
        }
    }
    let total = n_std + n_slack + n_art;
    let rhs_col = total;

    let mut tableau = vec![vec![0.0; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificial_cols = Vec::with_capacity(n_art);
    let mut slack_cursor = n_std;
    let mut art_cursor = n_std + n_slack;

    for (r, row) in rows.iter().enumerate() {
        let negate = row.rhs < 0.0;
        let sign = if negate { -1.0 } else { 1.0 };
        for (c, &a) in row.coeffs.iter().enumerate() {
            tableau[r][c] = sign * a;
        }
        tableau[r][rhs_col] = sign * row.rhs;
        match effective_relation(row.relation, negate) {
            Relation::LessEq => {
                tableau[r][slack_cursor] = 1.0;
                basis[r] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::GreaterEq => {
                tableau[r][slack_cursor] = -1.0; // surplus
                slack_cursor += 1;
                tableau[r][art_cursor] = 1.0;
                basis[r] = art_cursor;
                artificial_cols.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Equal => {
                tableau[r][art_cursor] = 1.0;
                basis[r] = art_cursor;
                artificial_cols.push(art_cursor);
                art_cursor += 1;
            }
        }
    }

    let mut iterations = 0usize;

    // ------------------------------------------------------------------
    // 3. Phase 1: drive artificial variables to zero.
    // ------------------------------------------------------------------
    if !artificial_cols.is_empty() {
        let mut phase1_costs = vec![0.0; total];
        for &col in &artificial_cols {
            phase1_costs[col] = 1.0;
        }
        let mut z_row = build_z_row(&tableau, &basis, &phase1_costs, total);
        let status = run_pivots(
            &mut tableau,
            &mut z_row,
            &mut basis,
            total,
            options,
            &mut iterations,
            Some(&artificial_cols),
        );
        if status == InnerStatus::IterationLimit {
            return Ok(LpSolution {
                status: LpStatus::IterationLimit,
                objective: f64::NAN,
                values: vec![],
                iterations,
            });
        }
        // Phase-1 objective value is -z_row[rhs].
        let phase1_value = -z_row[rhs_col];
        if phase1_value > options.tol.max(1e-7) {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::NAN,
                values: vec![],
                iterations,
            });
        }
        // Drive any basic artificial out of the basis when possible.
        for r in 0..m {
            if artificial_cols.contains(&basis[r]) {
                // Find a non-artificial column with a non-zero entry.
                if let Some(col) = (0..n_std + n_slack)
                    .find(|&c| tableau[r][c].abs() > options.tol && !artificial_cols.contains(&c))
                {
                    pivot(&mut tableau, &mut None, &mut basis, r, col);
                } // else: redundant row; artificial stays basic at zero.
            }
        }
    }

    // ------------------------------------------------------------------
    // 4. Phase 2: optimize the real objective. Artificial columns are
    //    blocked from entering the basis.
    // ------------------------------------------------------------------
    let mut phase2_costs = vec![0.0; total];
    phase2_costs[..n_std].copy_from_slice(&costs);
    let mut z_row = build_z_row(&tableau, &basis, &phase2_costs, total);
    let status = run_pivots(
        &mut tableau,
        &mut z_row,
        &mut basis,
        total,
        options,
        &mut iterations,
        if artificial_cols.is_empty() {
            None
        } else {
            Some(&artificial_cols)
        },
    );
    match status {
        InnerStatus::IterationLimit => {
            return Ok(LpSolution {
                status: LpStatus::IterationLimit,
                objective: f64::NAN,
                values: vec![],
                iterations,
            })
        }
        InnerStatus::Unbounded => {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                objective: if minimize {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                values: vec![],
                iterations,
            })
        }
        InnerStatus::Optimal => {}
    }

    // ------------------------------------------------------------------
    // 5. Recover the solution in the original variable space.
    // ------------------------------------------------------------------
    let mut std_values = vec![0.0; total];
    for (r, &b) in basis.iter().enumerate() {
        if b < total {
            std_values[b] = tableau[r][rhs_col];
        }
    }
    let mut values = vec![0.0; n_orig];
    for (i, map) in var_map.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { col, shift } => shift + std_values[col],
            VarMap::Split { pos, neg } => std_values[pos] - std_values[neg],
        };
    }
    let objective = model.objective_value(&values);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
        iterations,
    })
}

/// When a row's right-hand side is negative the whole row is negated, which
/// flips inequality directions.
fn effective_relation(relation: Relation, negated: bool) -> Relation {
    if !negated {
        return relation;
    }
    match relation {
        Relation::LessEq => Relation::GreaterEq,
        Relation::GreaterEq => Relation::LessEq,
        Relation::Equal => Relation::Equal,
    }
}

/// Builds the reduced-cost row for the given basis: `z_j = c_j - c_B B⁻¹ A_j`
/// stored as `c_j` priced out by the basic rows, with the negated objective
/// value in the last entry.
fn build_z_row(tableau: &[Vec<f64>], basis: &[usize], costs: &[f64], total: usize) -> Vec<f64> {
    let mut z = vec![0.0; total + 1];
    z[..total].copy_from_slice(costs);
    for (r, &b) in basis.iter().enumerate() {
        let cb = costs[b];
        if cb != 0.0 {
            for c in 0..=total {
                z[c] -= cb * tableau[r][c];
            }
        }
    }
    z
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerStatus {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Runs primal simplex pivots until optimality, unboundedness or the
/// iteration limit. `blocked` columns (artificials in phase 2) never enter
/// the basis.
fn run_pivots(
    tableau: &mut [Vec<f64>],
    z_row: &mut Vec<f64>,
    basis: &mut [usize],
    total: usize,
    options: &SimplexOptions,
    iterations: &mut usize,
    blocked: Option<&[usize]>,
) -> InnerStatus {
    let m = tableau.len();
    let rhs_col = total;
    for local_iter in 0..options.max_iterations {
        let use_bland = local_iter >= options.bland_after;
        // Entering column: most negative reduced cost (Dantzig) or first
        // negative (Bland).
        let mut entering = None;
        let mut best = -options.tol;
        for (c, &rc) in z_row.iter().enumerate().take(total) {
            if let Some(blocked_cols) = blocked {
                if blocked_cols.contains(&c) {
                    continue;
                }
            }
            if rc < -options.tol {
                if use_bland {
                    entering = Some(c);
                    break;
                }
                if rc < best {
                    best = rc;
                    entering = Some(c);
                }
            }
        }
        let Some(col) = entering else {
            return InnerStatus::Optimal;
        };

        // Leaving row: minimum ratio test, breaking ties on the smallest basis
        // index (Bland-style) to avoid cycling.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = tableau[r][col];
            if a > options.tol {
                let ratio = tableau[r][rhs_col] / a;
                match leaving {
                    None => {
                        leaving = Some(r);
                        best_ratio = ratio;
                    }
                    Some(current) => {
                        if ratio < best_ratio - options.tol {
                            leaving = Some(r);
                            best_ratio = ratio;
                        } else if (ratio - best_ratio).abs() <= options.tol
                            && basis[r] < basis[current]
                        {
                            leaving = Some(r);
                        }
                    }
                }
            }
        }
        let Some(row) = leaving else {
            return InnerStatus::Unbounded;
        };

        pivot(tableau, &mut Some(z_row), basis, row, col);
        *iterations += 1;
    }
    InnerStatus::IterationLimit
}

/// Performs one pivot on (`row`, `col`), updating the tableau, the optional
/// reduced-cost row and the basis.
fn pivot(
    tableau: &mut [Vec<f64>],
    z_row: &mut Option<&mut Vec<f64>>,
    basis: &mut [usize],
    row: usize,
    col: usize,
) {
    let m = tableau.len();
    let width = tableau[0].len();
    let pivot_value = tableau[row][col];
    debug_assert!(pivot_value.abs() > 0.0, "pivot on a zero element");
    // Normalise the pivot row.
    for value in tableau[row].iter_mut().take(width) {
        *value /= pivot_value;
    }
    // Eliminate the pivot column from the other rows. A copy of the
    // normalised pivot row sidesteps the aliasing between `tableau[r]` and
    // `tableau[row]` (and keeps the inner loop a straight zip).
    let pivot_row = tableau[row].clone();
    for (r, current_row) in tableau.iter_mut().enumerate().take(m) {
        if r != row {
            let factor = current_row[col];
            if factor != 0.0 {
                for (value, &pivot_entry) in current_row.iter_mut().zip(&pivot_row) {
                    *value -= factor * pivot_entry;
                }
            }
        }
    }
    if let Some(z) = z_row.as_deref_mut() {
        let factor = z[col];
        if factor != 0.0 {
            for c in 0..width {
                z[c] -= factor * tableau[row][c];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation};

    fn solve(model: &Model) -> LpResult<LpSolution> {
        solve_with(model, &SimplexOptions::default())
    }

    #[test]
    fn dense_oracle_solves_the_reference_fixtures() {
        // maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36.
        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 3.0);
        let y = model.add_nonneg_var("y", 5.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 4.0);
        model.add_constraint(vec![(y, 2.0)], Relation::LessEq, 12.0);
        model.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::LessEq, 18.0);
        let sol = solve(&model).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn dense_oracle_detects_infeasibility_and_unboundedness() {
        let mut model = Model::minimize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::LessEq, 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 3.0);
        assert_eq!(solve(&model).unwrap().status, LpStatus::Infeasible);

        let mut model = Model::maximize();
        let x = model.add_nonneg_var("x", 1.0);
        model.add_constraint(vec![(x, 1.0)], Relation::GreaterEq, 0.0);
        assert_eq!(solve(&model).unwrap().status, LpStatus::Unbounded);
    }
}
