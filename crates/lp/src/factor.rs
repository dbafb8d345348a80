//! Basis factorization backends for the revised simplex.
//!
//! The revised simplex never forms `B⁻¹`; everything it needs is two linear
//! solves per pivot — `FTRAN` (`B x = v`) and `BTRAN` (`Bᵀ y = v`) — against a
//! factorization of the basis matrix taken at the last refactorization, plus
//! the product-form **eta file** accumulated since. This module provides two
//! interchangeable backends behind one crate-private `Factorization` wrapper:
//!
//! * [`SparseLu`] (the default): a **sparse Markowitz LU**. Pivots are chosen
//!   by minimum fill-in (`(nnz(col) − 1) · (nnz(row) − 1)`) subject to a
//!   relative stability threshold, so the handful-of-nonzeros-per-column bases
//!   of MinCost standard forms factorize with near-zero fill instead of the
//!   dense O(m³) sweep. `L` is stored as eta-like column factors and `U` as a
//!   sparse row *and* column structure, which makes all four triangular
//!   sweeps **hyper-sparse**: a depth-first reachability pass over the factor
//!   graph visits only the nonzeros a sparse right-hand side can touch, so an
//!   FTRAN of an entering column (or a BTRAN of a unit row vector) costs
//!   O(entries touched), not O(m²).
//! * [`DenseLu`]: the original dense partial-pivoting LU, kept as the
//!   differential oracle and benchmark baseline. Select it per solve with
//!   [`crate::simplex::SimplexOptions::dense_lu`], or flip the crate feature
//!   `dense-lu` to make it the default for an entire differential run.
//!
//! Solves run on [`SparseVector`]s — a dense value array plus an explicit
//! nonzero index list — so the simplex loops above can iterate only the
//! touched entries (ratio tests, basic-value updates, eta construction).
//!
//! A `Factorization` outlives the solve that built it: branch and bound
//! keeps one per worker thread, from node to node and tree to tree,
//! resetting only its counters and eta file. [`SparseLu::factorize`] and
//! [`DenseLu::factorize`] refill their factors and elimination buffers in
//! place, so a refactorization allocates only while the first bases grow
//! those buffers; the solve scratch (`work`, kept all-zero between solves,
//! and the generation-stamped reachability marks) is recycled the same way,
//! and every eta's entries go to one pooled list, so a pivot allocates
//! nothing either.
//!
//! The wrapper also records the basis its LU factors. A node whose warm
//! basis is exactly that basis — the second child of a parent, popped right
//! after its sibling — keeps the LU and drops only the eta file, which is
//! what refactorizing the same basis would rebuild bit for bit. The record
//! is the LU's own, so every event that changes the factors (a periodic or
//! recovery refactorization, a cold start, a singular basis, a switch of
//! backend, a new model) also changes or clears it.

// The factorization kernels are written index-first to mirror the textbook
// linear algebra (triangular sweeps over `lu[r * m + k]`, permutation
// scatter/gather); iterator rewrites obscure the math for no performance
// gain.
#![allow(clippy::needless_range_loop)]

use std::mem;

/// Smallest pivot magnitude accepted during elimination / basis changes.
pub(crate) const MIN_PIVOT: f64 = 1e-9;
/// Entries below this magnitude are treated as numerical zero.
pub(crate) const ZERO_TOL: f64 = 1e-11;
/// Relative stability threshold of the Markowitz pivot search: within a
/// column, only entries within this factor of the column's largest magnitude
/// are pivot candidates. Classic threshold partial pivoting — small enough to
/// let the min-fill criterion steer, large enough to bound element growth.
const MARKOWITZ_STABILITY: f64 = 0.1;
/// A right-hand side is solved hyper-sparsely when its support is below
/// `m / HYPER_SPARSE_DENSITY`; denser inputs skip the reachability pass and
/// sweep the factors directly (still O(nnz(L) + nnz(U)), never O(m²)).
const HYPER_SPARSE_DENSITY: usize = 8;
/// Below this dimension the depth-first bookkeeping costs more than the
/// plain O(m + nnz) sweep it avoids; small systems always sweep densely.
const HYPER_SPARSE_MIN_DIM: usize = 128;

/// An indexed sparse vector: dense value storage plus an explicit support
/// list. Entries **not** listed in the support are exactly `0.0`; listed
/// entries may hold any value (including a cancelled zero).
#[derive(Debug, Clone, Default)]
pub struct SparseVector {
    values: Vec<f64>,
    nz: Vec<usize>,
    marked: Vec<bool>,
}

impl SparseVector {
    /// An empty vector of dimension `m`.
    pub fn with_dim(m: usize) -> Self {
        SparseVector {
            values: vec![0.0; m],
            nz: Vec::new(),
            marked: vec![false; m],
        }
    }

    /// Clears the support and sets the dimension to `m`, keeping the
    /// allocation, so one vector can serve systems of any size.
    pub fn reset(&mut self, m: usize) {
        self.clear();
        self.values.resize(m, 0.0);
        self.marked.resize(m, false);
    }

    /// Clears the support in O(nnz).
    pub fn clear(&mut self) {
        for &i in &self.nz {
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.nz.clear();
    }

    /// The support indices, in no particular order.
    pub fn nonzeros(&self) -> &[usize] {
        &self.nz
    }

    /// The dense value array (zeros off-support).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at `i` (0.0 off-support).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Whether `i` is in the support.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.marked[i]
    }

    /// Sets entry `i`, adding it to the support if needed.
    #[inline]
    pub fn set(&mut self, i: usize, value: f64) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.nz.push(i);
        }
        self.values[i] = value;
    }

    /// Adds `delta` to entry `i`, adding it to the support if needed.
    #[inline]
    pub fn add(&mut self, i: usize, delta: f64) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.nz.push(i);
        }
        self.values[i] += delta;
    }

    /// Makes this vector a copy of `other`, support order included, reusing
    /// the buffers.
    pub(crate) fn copy_from(&mut self, other: &SparseVector) {
        self.values.clone_from(&other.values);
        self.nz.clone_from(&other.nz);
        self.marked.clone_from(&other.marked);
    }

    /// Rebuilds the support by scanning the dense values (used after a dense
    /// backend wrote arbitrary entries). O(m). A zero the backend computed
    /// (`-0.0` included) is stored as `+0.0`, so every entry off the support
    /// is exactly what a fresh vector holds and a reused one solves alike.
    fn rescan_support(&mut self) {
        for &i in &self.nz {
            self.marked[i] = false;
        }
        self.nz.clear();
        for i in 0..self.values.len() {
            if self.values[i] != 0.0 {
                self.marked[i] = true;
                self.nz.push(i);
            } else {
                self.values[i] = 0.0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse Markowitz LU.
// ---------------------------------------------------------------------------

/// Sparse LU factorization with Markowitz (minimum-fill) pivoting and
/// threshold stability control.
///
/// The factorization is `P B Q = L U` with row permutation `P`
/// (`row_perm[k]` = original row of pivot `k`) and column permutation `Q`
/// (`col_perm[k]` = basis slot of pivot `k`). `L` is unit lower triangular,
/// stored both column-wise (for forward solves) and row-wise (for transpose
/// solves); `U`'s off-diagonal part is likewise stored by rows and by
/// columns, with the diagonal split out. All four triangular sweeps are
/// **push-style**, so each one's adjacency is exactly one of the stored
/// structures and sparse right-hand sides can be solved by depth-first
/// reachability over only the entries they can touch.
#[derive(Debug, Clone, Default)]
pub struct SparseLu {
    m: usize,
    /// `L` by columns: `l_cols[k]` holds `(i, L[i][k])` with `i > k`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `L` by rows: `l_rows[k]` holds `(j, L[k][j])` with `j < k`.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// `U` off-diagonal by columns: `u_cols[k]` holds `(i, U[i][k])`, `i < k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// `U` off-diagonal by rows: `u_rows[k]` holds `(j, U[k][j])`, `j > k`.
    u_rows: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    row_perm: Vec<usize>,
    col_perm: Vec<usize>,
    row_pos: Vec<usize>,
    col_pos: Vec<usize>,
    // --- factorization workspace (recycled between refactorizations) ---
    /// Active submatrix by columns, original row indices.
    acol: Vec<Vec<(usize, f64)>>,
    /// For each original row, candidate column slots (lazily pruned).
    rows_of: Vec<Vec<usize>>,
    row_count: Vec<usize>,
    row_pivoted: Vec<bool>,
    col_pivoted: Vec<bool>,
    /// Scatter marker: original row → 1 + index into the column being updated.
    slot_of_row: Vec<u32>,
    // --- solve scratch (recycled between solves) ---
    /// Dense pivot-order accumulator; every solve leaves it all-zero.
    work: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    visit: Vec<u32>,
    visit_generation: u32,
    touched: Vec<usize>,
    order: Vec<usize>,
    stack: Vec<(usize, usize)>,
    // --- stats ---
    fill_nnz: usize,
    basis_nnz: usize,
}

impl SparseLu {
    /// Factorizes the basis given by `basis` (column indices into `cols`).
    /// Returns `false` when the basis is numerically singular.
    pub fn factorize(&mut self, m: usize, cols: &[Vec<(usize, f64)>], basis: &[usize]) -> bool {
        self.m = m;
        if m == 0 {
            self.fill_nnz = 0;
            self.basis_nnz = 0;
            return true;
        }
        // Fast path: a basis of unit columns (the cold all-slack/artificial
        // start) is a signed permutation — no elimination, no fill, and no
        // Markowitz workspace to load.
        if self.try_unit_factorization(m, cols, basis) {
            return true;
        }
        self.reset_workspace(m);
        // Load the active submatrix.
        let mut basis_nnz = 0;
        for (j, &col) in basis.iter().enumerate() {
            self.acol[j].extend_from_slice(&cols[col]);
            basis_nnz += cols[col].len();
            for &(r, _) in &cols[col] {
                self.rows_of[r].push(j);
                self.row_count[r] += 1;
            }
        }
        self.basis_nnz = basis_nnz;

        for k in 0..m {
            let Some((r, c)) = self.select_pivot() else {
                return false;
            };
            self.eliminate(k, r, c);
        }

        self.finalize();
        true
    }

    /// Detects a basis made purely of unit columns and fills the trivial
    /// permutation factorization directly (empty `L`/`U` off-diagonals, the
    /// entries on the diagonal). Returns `false` when the basis is general;
    /// partially written permutation state is then rebuilt by the full path.
    fn try_unit_factorization(
        &mut self,
        m: usize,
        cols: &[Vec<(usize, f64)>],
        basis: &[usize],
    ) -> bool {
        self.row_pos.clear();
        self.row_pos.resize(m, usize::MAX);
        self.row_perm.resize(m, 0);
        self.col_perm.resize(m, 0);
        self.col_pos.resize(m, 0);
        self.u_diag.resize(m, 0.0);
        for (k, &col) in basis.iter().enumerate() {
            let [(row, value)] = cols[col][..] else {
                return false;
            };
            if value.abs() < MIN_PIVOT || self.row_pos[row] != usize::MAX {
                return false;
            }
            self.row_pos[row] = k;
            self.row_perm[k] = row;
            self.col_perm[k] = k;
            self.col_pos[k] = k;
            self.u_diag[k] = value;
        }
        for factor in [
            &mut self.l_cols,
            &mut self.l_rows,
            &mut self.u_cols,
            &mut self.u_rows,
        ] {
            for entries in factor.iter_mut() {
                entries.clear();
            }
            factor.resize(m, Vec::new());
        }
        self.work.resize(m, 0.0);
        self.stamp.resize(m, 0);
        self.visit.resize(m, 0);
        self.fill_nnz = m;
        self.basis_nnz = m;
        true
    }

    /// Clears and resizes every factorization buffer.
    fn reset_workspace(&mut self, m: usize) {
        for col in &mut self.acol {
            col.clear();
        }
        self.acol.resize(m, Vec::new());
        for rows in &mut self.rows_of {
            rows.clear();
        }
        self.rows_of.resize(m, Vec::new());
        self.row_count.clear();
        self.row_count.resize(m, 0);
        self.row_pivoted.clear();
        self.row_pivoted.resize(m, false);
        self.col_pivoted.clear();
        self.col_pivoted.resize(m, false);
        self.slot_of_row.clear();
        self.slot_of_row.resize(m, 0);
        for col in &mut self.l_cols {
            col.clear();
        }
        self.l_cols.resize(m, Vec::new());
        for row in &mut self.u_rows {
            row.clear();
        }
        self.u_rows.resize(m, Vec::new());
        self.u_diag.clear();
        self.u_diag.resize(m, 0.0);
        self.row_perm.clear();
        self.row_perm.resize(m, 0);
        self.col_perm.clear();
        self.col_perm.resize(m, 0);
        self.row_pos.clear();
        self.row_pos.resize(m, 0);
        self.col_pos.clear();
        self.col_pos.resize(m, 0);
        self.work.resize(m, 0.0);
        self.stamp.resize(m, 0);
        self.visit.resize(m, 0);
    }

    /// Markowitz pivot selection: minimum `(nnz(col)−1)·(nnz(row)−1)` over
    /// entries within [`MARKOWITZ_STABILITY`] of their column's magnitude,
    /// ties broken on the larger magnitude. Returns `(row, col)` or `None`
    /// when no numerically acceptable pivot remains (singular basis).
    fn select_pivot(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, f64, usize)> = None; // (r, c, |a|, cost)
        for c in 0..self.m {
            if self.col_pivoted[c] || self.acol[c].is_empty() {
                continue;
            }
            let col = &self.acol[c];
            let colmax = col.iter().fold(0.0f64, |acc, e| acc.max(e.1.abs()));
            if colmax < MIN_PIVOT {
                continue;
            }
            let threshold = (colmax * MARKOWITZ_STABILITY).max(MIN_PIVOT);
            let col_cost = col.len() - 1;
            for &(r, a) in col {
                let mag = a.abs();
                if mag < threshold {
                    continue;
                }
                let cost = col_cost * (self.row_count[r] - 1);
                let better = match best {
                    None => true,
                    Some((_, _, best_mag, best_cost)) => {
                        cost < best_cost || (cost == best_cost && mag > best_mag)
                    }
                };
                if better {
                    best = Some((r, c, mag, cost));
                }
            }
            // A singleton column is a perfect pivot (zero fill, no
            // multipliers, so stability is moot): take it immediately.
            if let Some((_, _, _, 0)) = best {
                if col_cost == 0 {
                    break;
                }
            }
        }
        best.map(|(r, c, _, _)| (r, c))
    }

    /// Eliminates pivot `(r, c)` as step `k`: records the `L` column and `U`
    /// row, and applies the rank-one update to the active submatrix.
    fn eliminate(&mut self, k: usize, r: usize, c: usize) {
        self.row_pivoted[r] = true;
        self.col_pivoted[c] = true;
        self.row_perm[k] = r;
        self.col_perm[k] = c;

        // L multipliers from the pivot column (removed from the active set;
        // its emptied buffer goes back for the next factorization). The
        // `L` column and `U` row are filled in the buffers `reset_workspace`
        // cleared, so no step allocates once they have grown.
        let mut col = mem::take(&mut self.acol[c]);
        let pivot = col
            .iter()
            .find(|&&(i, _)| i == r)
            .expect("selected pivot entry exists")
            .1;
        self.u_diag[k] = pivot;
        let mut lfac = mem::take(&mut self.l_cols[k]);
        for &(i, a) in &col {
            if i != r {
                self.row_count[i] -= 1;
                if a != 0.0 {
                    lfac.push((i, a / pivot));
                }
            }
        }
        col.clear();
        self.acol[c] = col;

        // U row from the pivot row's remaining entries (removed column-wise).
        let columns_of_r = mem::take(&mut self.rows_of[r]);
        let mut urow = mem::take(&mut self.u_rows[k]);
        for &j in &columns_of_r {
            if self.col_pivoted[j] {
                continue; // stale: that column was pivoted earlier
            }
            if let Some(idx) = self.acol[j].iter().position(|&(i, _)| i == r) {
                let (_, v) = self.acol[j].swap_remove(idx);
                if v != 0.0 {
                    urow.push((j, v));
                }
            }
        }
        self.rows_of[r] = columns_of_r; // hand the allocation back
        self.rows_of[r].clear();
        self.row_count[r] = 0;

        // Rank-one update: A ← A − l · u, column by column with a scatter
        // marker so each (i, j) combination costs O(1).
        for &(j, urj) in &urow {
            if lfac.is_empty() {
                break;
            }
            let colj = &mut self.acol[j];
            for (idx, &(i, _)) in colj.iter().enumerate() {
                self.slot_of_row[i] = idx as u32 + 1;
            }
            for &(i, l) in &lfac {
                let delta = -l * urj;
                let slot = self.slot_of_row[i];
                if slot != 0 {
                    colj[slot as usize - 1].1 += delta;
                } else {
                    colj.push((i, delta));
                    self.slot_of_row[i] = colj.len() as u32;
                    self.rows_of[i].push(j);
                    self.row_count[i] += 1;
                }
            }
            for &(i, _) in colj.iter() {
                self.slot_of_row[i] = 0;
            }
        }

        self.l_cols[k] = lfac; // original row indices; remapped in finalize()
        self.u_rows[k] = urow; // basis slots; remapped in finalize()
    }

    /// Remaps stored indices into pivot order and builds the transposed
    /// structures used by the BTRAN sweeps.
    fn finalize(&mut self) {
        let m = self.m;
        for k in 0..m {
            self.row_pos[self.row_perm[k]] = k;
            self.col_pos[self.col_perm[k]] = k;
        }
        let mut fill = m; // diagonal
        for k in 0..m {
            for entry in &mut self.l_cols[k] {
                entry.0 = self.row_pos[entry.0];
            }
            for entry in &mut self.u_rows[k] {
                entry.0 = self.col_pos[entry.0];
            }
            fill += self.l_cols[k].len() + self.u_rows[k].len();
        }
        self.fill_nnz = fill;
        for row in &mut self.l_rows {
            row.clear();
        }
        self.l_rows.resize(m, Vec::new());
        for col in &mut self.u_cols {
            col.clear();
        }
        self.u_cols.resize(m, Vec::new());
        for k in 0..m {
            for &(i, v) in &self.l_cols[k] {
                self.l_rows[i].push((k, v));
            }
            for &(j, v) in &self.u_rows[k] {
                self.u_cols[j].push((k, v));
            }
        }
    }

    /// Nonzeros of `L + U` (diagonal included) at the last factorization.
    pub fn fill_nnz(&self) -> usize {
        self.fill_nnz
    }

    /// Nonzeros of the basis matrix at the last factorization.
    pub fn basis_nnz(&self) -> usize {
        self.basis_nnz
    }

    /// FTRAN: overwrites `v` with `B⁻¹ v`. Returns `true` when the
    /// hyper-sparse (reachability-driven) path was taken.
    pub fn ftran(&mut self, v: &mut SparseVector) -> bool {
        let m = self.m;
        if m == 0 {
            return true;
        }
        let hyper = m >= HYPER_SPARSE_MIN_DIM && v.nonzeros().len() * HYPER_SPARSE_DENSITY < m;
        let gen = self.next_generation();
        self.touched.clear();
        if hyper {
            for &r in v.nonzeros() {
                let k = self.row_pos[r];
                self.work[k] = v.get(r);
                self.stamp[k] = gen;
                self.touched.push(k);
            }
            v.clear();
            self.hyper_stage(Adjacency::LCols, false);
            self.hyper_stage(Adjacency::UCols, true);
            for idx in 0..self.touched.len() {
                let k = self.touched[idx];
                let value = self.work[k];
                if value != 0.0 {
                    v.set(self.col_perm[k], value);
                }
                self.work[k] = 0.0;
            }
        } else {
            // `work` is all-zero between solves: scatter the support only.
            for &r in v.nonzeros() {
                self.work[self.row_pos[r]] = v.get(r);
            }
            v.clear();
            // Forward L sweep, then backward U sweep, both push-style.
            for k in 0..m {
                let x = self.work[k];
                if x != 0.0 {
                    for &(i, a) in &self.l_cols[k] {
                        self.work[i] -= a * x;
                    }
                }
            }
            for k in (0..m).rev() {
                let x = self.work[k] / self.u_diag[k];
                self.work[k] = x;
                if x != 0.0 {
                    for &(i, a) in &self.u_cols[k] {
                        self.work[i] -= a * x;
                    }
                }
            }
            for k in 0..m {
                let value = self.work[k];
                if value != 0.0 {
                    v.set(self.col_perm[k], value);
                }
                self.work[k] = 0.0;
            }
        }
        hyper
    }

    /// BTRAN: overwrites `v` with `B⁻ᵀ v`. Returns `true` when the
    /// hyper-sparse path was taken.
    pub fn btran(&mut self, v: &mut SparseVector) -> bool {
        let m = self.m;
        if m == 0 {
            return true;
        }
        let hyper = m >= HYPER_SPARSE_MIN_DIM && v.nonzeros().len() * HYPER_SPARSE_DENSITY < m;
        let gen = self.next_generation();
        self.touched.clear();
        if hyper {
            for &slot in v.nonzeros() {
                let k = self.col_pos[slot];
                self.work[k] = v.get(slot);
                self.stamp[k] = gen;
                self.touched.push(k);
            }
            v.clear();
            self.hyper_stage(Adjacency::URows, true);
            self.hyper_stage(Adjacency::LRows, false);
            for idx in 0..self.touched.len() {
                let k = self.touched[idx];
                let value = self.work[k];
                if value != 0.0 {
                    v.set(self.row_perm[k], value);
                }
                self.work[k] = 0.0;
            }
        } else {
            for &slot in v.nonzeros() {
                self.work[self.col_pos[slot]] = v.get(slot);
            }
            v.clear();
            // Forward Uᵀ sweep, then backward Lᵀ sweep, both push-style.
            for k in 0..m {
                let x = self.work[k] / self.u_diag[k];
                self.work[k] = x;
                if x != 0.0 {
                    for &(j, a) in &self.u_rows[k] {
                        self.work[j] -= a * x;
                    }
                }
            }
            for k in (0..m).rev() {
                let x = self.work[k];
                if x != 0.0 {
                    for &(j, a) in &self.l_rows[k] {
                        self.work[j] -= a * x;
                    }
                }
            }
            for k in 0..m {
                let value = self.work[k];
                if value != 0.0 {
                    v.set(self.row_perm[k], value);
                }
                self.work[k] = 0.0;
            }
        }
        hyper
    }

    /// Bumps the support generation, clearing the stamp array on the (in
    /// practice unreachable) wraparound so stale stamps can never alias.
    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.generation
    }

    /// One hyper-sparse triangular stage: depth-first reachability from the
    /// current support over the chosen adjacency, then the numeric push
    /// sweep in topological (reverse-postorder) order. `divide` applies the
    /// `U` diagonal. The support (`touched` under the current generation) is
    /// extended with every reached node, and `work` is zero-initialized on
    /// first touch, so stale values from earlier solves are never read.
    fn hyper_stage(&mut self, adjacency: Adjacency, divide: bool) {
        let gen = self.generation;
        self.visit_generation = self.visit_generation.wrapping_add(1);
        if self.visit_generation == 0 {
            self.visit.fill(0);
            self.visit_generation = 1;
        }
        let vgen = self.visit_generation;
        let SparseLu {
            l_cols,
            l_rows,
            u_cols,
            u_rows,
            u_diag,
            work,
            stamp,
            visit,
            touched,
            order,
            stack,
            ..
        } = self;
        let adj: &[Vec<(usize, f64)>] = match adjacency {
            Adjacency::LCols => l_cols,
            Adjacency::LRows => l_rows,
            Adjacency::UCols => u_cols,
            Adjacency::URows => u_rows,
        };
        order.clear();
        stack.clear();
        let sources = touched.len();
        for idx in 0..sources {
            let s = touched[idx];
            if visit[s] == vgen {
                continue;
            }
            visit[s] = vgen;
            stack.push((s, 0));
            while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
                if *cursor < adj[node].len() {
                    let next = adj[node][*cursor].0;
                    *cursor += 1;
                    if visit[next] != vgen {
                        visit[next] = vgen;
                        if stamp[next] != gen {
                            stamp[next] = gen;
                            work[next] = 0.0;
                            touched.push(next);
                        }
                        stack.push((next, 0));
                    }
                } else {
                    stack.pop();
                    order.push(node);
                }
            }
        }
        // Reverse postorder = topological order: every node is finalized
        // before any node it pushes into. Every push target was explored by
        // the DFS, so its `work` entry is already initialized.
        for &k in order.iter().rev() {
            let mut x = work[k];
            if divide {
                x /= u_diag[k];
                work[k] = x;
            }
            if x != 0.0 {
                for &(i, a) in &adj[k] {
                    work[i] -= a * x;
                }
            }
        }
    }
}

/// Which stored factor structure a hyper-sparse stage traverses.
#[derive(Debug, Clone, Copy)]
enum Adjacency {
    LCols,
    LRows,
    UCols,
    URows,
}

// ---------------------------------------------------------------------------
// Dense LU (the pre-sparse backend, retained as oracle and baseline).
// ---------------------------------------------------------------------------

/// Dense LU factors with partial pivoting, stored physically permuted (row
/// `k` of `lu` is the `k`-th pivot row) so the triangular solves stream
/// through memory contiguously. A basis of unit columns short-circuits to a
/// diagonal factor.
#[derive(Debug, Clone, Default)]
pub struct DenseLu {
    m: usize,
    /// Combined `L` (unit diagonal, strictly below) and `U` (on/above),
    /// row-major in pivot order. Empty when `unit` is set.
    lu: Vec<f64>,
    /// Diagonal fast path: a basis of unit columns is a signed permutation,
    /// factored to the unit entries in `diag`.
    unit: bool,
    diag: Vec<f64>,
    /// `row_perm[k]` is the original row index selected as the `k`-th pivot.
    row_perm: Vec<usize>,
    scratch: Vec<f64>,
    // --- factorization workspace (recycled between refactorizations) ---
    /// The factors in original row order, before they are stored permuted.
    unpermuted: Vec<f64>,
    /// Rows already claimed by a unit column.
    claimed: Vec<bool>,
}

impl DenseLu {
    /// Factorizes the basis matrix given by `basis` (column indices into
    /// `cols`). Returns `false` when the basis is numerically singular.
    pub fn factorize(&mut self, m: usize, cols: &[Vec<(usize, f64)>], basis: &[usize]) -> bool {
        self.m = m;
        self.scratch.resize(m, 0.0);
        self.unit = false;
        if m == 0 {
            self.lu.clear();
            self.row_perm.clear();
            return true;
        }
        if self.try_unit_factorization(m, cols, basis) {
            return true;
        }
        // Eliminate in `unpermuted`, then store the rows in pivot order in
        // `lu`; the two buffers trade places every refactorization.
        let mut lu = mem::take(&mut self.unpermuted);
        lu.clear();
        lu.resize(m * m, 0.0);
        let mut perm = mem::take(&mut self.row_perm);
        perm.clear();
        perm.extend(0..m);
        let ok = Self::eliminate(m, cols, basis, &mut lu, &mut perm);
        if ok {
            // Store the factors physically in pivot order so the hot solves
            // are contiguous; only the RHS needs permuting from here on.
            self.lu.clear();
            for &row in &perm {
                self.lu.extend_from_slice(&lu[row * m..(row + 1) * m]);
            }
        }
        self.unpermuted = lu;
        self.row_perm = perm;
        ok
    }

    /// Plain dense LU with partial pivoting of the basis into `lu` (rows in
    /// original order, `perm` the pivot sequence). Returns `false` when the
    /// basis is numerically singular.
    fn eliminate(
        m: usize,
        cols: &[Vec<(usize, f64)>],
        basis: &[usize],
        lu: &mut [f64],
        perm: &mut [usize],
    ) -> bool {
        for (k, &col) in basis.iter().enumerate() {
            for &(row, value) in &cols[col] {
                lu[row * m + k] = value;
            }
        }
        for k in 0..m {
            let mut best_row = k;
            let mut best_mag = lu[perm[k] * m + k].abs();
            for r in k + 1..m {
                let mag = lu[perm[r] * m + k].abs();
                if mag > best_mag {
                    best_mag = mag;
                    best_row = r;
                }
            }
            if best_mag < MIN_PIVOT {
                return false;
            }
            perm.swap(k, best_row);
            let pivot_row = perm[k];
            let pivot = lu[pivot_row * m + k];
            for r in k + 1..m {
                let row = perm[r];
                let factor = lu[row * m + k] / pivot;
                if factor != 0.0 {
                    lu[row * m + k] = factor;
                    for c in k + 1..m {
                        lu[row * m + c] -= factor * lu[pivot_row * m + c];
                    }
                } else {
                    lu[row * m + k] = 0.0;
                }
            }
        }
        true
    }

    /// Detects a basis made purely of unit columns and fills the trivial
    /// diagonal factorization directly. Returns `false` when the basis is
    /// general; the partly written permutation is then rebuilt by the full
    /// path.
    fn try_unit_factorization(
        &mut self,
        m: usize,
        cols: &[Vec<(usize, f64)>],
        basis: &[usize],
    ) -> bool {
        // Pivot order -> original row.
        self.row_perm.clear();
        self.row_perm.resize(m, usize::MAX);
        self.diag.clear();
        self.diag.resize(m, 0.0);
        self.claimed.clear();
        self.claimed.resize(m, false);
        for (k, &col) in basis.iter().enumerate() {
            let [(row, value)] = cols[col][..] else {
                return false;
            };
            if self.claimed[row] || value.abs() < MIN_PIVOT {
                return false;
            }
            self.claimed[row] = true;
            self.row_perm[k] = row;
            self.diag[k] = value;
        }
        self.lu.clear();
        self.unit = true;
        true
    }

    /// FTRAN on a dense slice: overwrites `v` with `B⁻¹ v`.
    pub fn ftran_dense(&mut self, v: &mut [f64]) {
        let m = self.m;
        if m == 0 {
            return;
        }
        let w = &mut self.scratch;
        if self.unit {
            for k in 0..m {
                w[k] = v[self.row_perm[k]] / self.diag[k];
            }
        } else {
            for k in 0..m {
                w[k] = v[self.row_perm[k]];
            }
            for k in 0..m {
                let wk = w[k];
                if wk != 0.0 {
                    for r in k + 1..m {
                        let l = self.lu[r * m + k];
                        if l != 0.0 {
                            w[r] -= l * wk;
                        }
                    }
                }
            }
            for k in (0..m).rev() {
                let row = &self.lu[k * m..(k + 1) * m];
                let mut s = w[k];
                for (c, &u) in row.iter().enumerate().skip(k + 1) {
                    if u != 0.0 {
                        s -= u * w[c];
                    }
                }
                w[k] = s / row[k];
            }
        }
        v.copy_from_slice(w);
    }

    /// BTRAN on a dense slice: overwrites `v` with `B⁻ᵀ v`.
    pub fn btran_dense(&mut self, v: &mut [f64]) {
        let m = self.m;
        if m == 0 {
            return;
        }
        let z = &mut self.scratch;
        if self.unit {
            for k in 0..m {
                z[k] = v[k] / self.diag[k];
            }
        } else {
            // Forward solve Uᵀ z = v (Uᵀ is lower triangular).
            for k in 0..m {
                let mut s = v[k];
                for (c, zc) in z.iter().enumerate().take(k) {
                    let u = self.lu[c * m + k];
                    if u != 0.0 {
                        s -= u * zc;
                    }
                }
                z[k] = s / self.lu[k * m + k];
            }
            // Back solve Lᵀ t = z (unit diagonal), in place in z.
            for k in (0..m).rev() {
                let zk = z[k];
                if zk != 0.0 {
                    let row = &self.lu[k * m..(k + 1) * m];
                    for (c, &l) in row.iter().enumerate().take(k) {
                        if l != 0.0 {
                            z[c] -= l * zk;
                        }
                    }
                }
            }
        }
        for k in 0..m {
            v[self.row_perm[k]] = z[k];
        }
    }

    /// FTRAN on a [`SparseVector`] (dense sweep; support rebuilt by scan).
    pub fn ftran(&mut self, v: &mut SparseVector) {
        for &i in &v.nz {
            v.marked[i] = false;
        }
        v.nz.clear();
        self.ftran_dense(&mut v.values);
        v.rescan_support();
    }

    /// BTRAN on a [`SparseVector`] (dense sweep; support rebuilt by scan).
    pub fn btran(&mut self, v: &mut SparseVector) {
        for &i in &v.nz {
            v.marked[i] = false;
        }
        v.nz.clear();
        self.btran_dense(&mut v.values);
        v.rescan_support();
    }
}

// ---------------------------------------------------------------------------
// Eta file + backend wrapper.
// ---------------------------------------------------------------------------

/// One product-form update: basis column `pivot` was replaced by the column
/// whose FTRAN image is `w`; `w[pivot]` is stored separately as `pivot_value`.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    pivot: usize,
    pivot_value: f64,
    /// The sparse off-pivot entries of `w`: this range of the
    /// factorization's pooled entry list.
    entries: std::ops::Range<usize>,
}

/// Counters describing the factorization work of one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Basis refactorizations performed (eta-file folds).
    pub refactorizations: usize,
    /// Nonzeros of `L + U` of the most recent factorization, refactorized
    /// or kept (0 on the dense backend, which does not track fill).
    pub fill_nnz: usize,
    /// Nonzeros of the basis matrix of the most recent factorization.
    pub basis_nnz: usize,
    /// FTRAN/BTRAN solves performed.
    pub solves: usize,
    /// Solves that took the hyper-sparse reachability path.
    pub hyper_sparse_solves: usize,
    /// Warm starts that kept the LU already factored for their basis
    /// instead of refactorizing it (each one a refactorization not done).
    pub lu_reuses: usize,
    /// FTRAN/BTRAN results kept from an earlier solve on the same LU
    /// instead of recomputed: a restore's basic values when the statuses and
    /// nonbasic bounds are unchanged (one FTRAN), and the first dual pivot's
    /// `ρ` and `y` when the leaving row is too (two BTRANs).
    pub solve_reuses: usize,
}

impl FactorStats {
    /// Fraction of solves that ran hyper-sparsely (0.0 when no solve ran).
    pub fn hyper_sparse_rate(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.hyper_sparse_solves as f64 / self.solves as f64
        }
    }
}

/// LU factors of the basis at the last refactorization, the eta file
/// accumulated since, and the solve/fill counters — the only interface the
/// simplex loops talk to. Both backends are held, so a solve that asks for
/// the other one switches without allocating; each refactorization rebuilds
/// its factors from the basis alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct Factorization {
    sparse: SparseLu,
    dense: DenseLu,
    /// Whether the dense backend is the one in use.
    dense_lu: bool,
    etas: Vec<Eta>,
    /// Every eta's off-pivot entries, in eta order.
    eta_entries: Vec<(usize, f64)>,
    pub(crate) stats: FactorStats,
    /// The basis the LU factors; meaningful only while `holds_basis`.
    basis: Vec<usize>,
    holds_basis: bool,
    /// Bumped whenever the LU changes or is forgotten, so values computed
    /// on one LU can be told apart from values computed on another.
    generation: u64,
}

impl Factorization {
    /// Factorizes the basis, clearing the eta file. Returns `false` when the
    /// basis is numerically singular.
    pub(crate) fn refactorize(
        &mut self,
        m: usize,
        cols: &[Vec<(usize, f64)>],
        basis: &[usize],
    ) -> bool {
        self.clear_etas();
        self.stats.refactorizations += 1;
        self.generation += 1;
        let ok = if self.dense_lu {
            self.dense.factorize(m, cols, basis)
        } else {
            self.sparse.factorize(m, cols, basis)
        };
        self.holds_basis = ok;
        if ok {
            self.basis.clear();
            self.basis.extend_from_slice(basis);
            self.count_fill();
        } else if self.dense_lu {
            // The dense backend does not track fill; zero the counters so
            // stale sparse numbers cannot leak into its outcomes.
            self.count_fill();
        }
        ok
    }

    /// Keeps the LU when it factors exactly `basis` — no refactorization
    /// or loss of the factors since it did — dropping only the eta file.
    /// The factors are then what refactorizing `basis` would rebuild, bit
    /// for bit. Returns `false` when `basis` must be refactorized.
    pub(crate) fn keep_for(&mut self, basis: &[usize]) -> bool {
        if !self.holds_basis || self.basis != basis {
            return false;
        }
        self.clear_etas();
        self.stats.lu_reuses += 1;
        self.count_fill();
        true
    }

    /// The fill counters of the factorization in use.
    fn count_fill(&mut self) {
        (self.stats.fill_nnz, self.stats.basis_nnz) = if self.dense_lu {
            (0, 0)
        } else {
            (self.sparse.fill_nnz(), self.sparse.basis_nnz())
        };
    }

    /// The LU's generation: equal generations mean the same factors.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Forgets which basis the LU factors, for a workspace that moves on to
    /// another model: the same basis indices name other columns there.
    pub(crate) fn forget(&mut self) {
        self.holds_basis = false;
        self.generation += 1;
    }

    /// Prepares the factorization for the next solve: clears the eta file
    /// and zeroes the counters, keeping every buffer and the LU, so the
    /// solve reports its own work alone. A solve that asks for the other
    /// backend switches to it, and the LU is forgotten.
    pub(crate) fn reset(&mut self, dense_lu: bool) {
        if self.dense_lu != dense_lu {
            self.dense_lu = dense_lu;
            self.forget();
        }
        self.clear_etas();
        self.stats = FactorStats::default();
    }

    fn clear_etas(&mut self) {
        self.etas.clear();
        self.eta_entries.clear();
    }

    /// Number of eta updates accumulated since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// FTRAN: overwrites `v` with `B⁻¹ v` (LU solve, then the eta file oldest
    /// first). Etas whose pivot is off-support are skipped entirely.
    pub(crate) fn ftran(&mut self, v: &mut SparseVector) {
        self.stats.solves += 1;
        if self.dense_lu {
            self.dense.ftran(v);
        } else if self.sparse.ftran(v) {
            self.stats.hyper_sparse_solves += 1;
        }
        for eta in &self.etas {
            if !v.contains(eta.pivot) {
                continue;
            }
            let t = v.get(eta.pivot) / eta.pivot_value;
            v.set(eta.pivot, t);
            if t != 0.0 {
                for &(row, value) in &self.eta_entries[eta.entries.clone()] {
                    v.add(row, -value * t);
                }
            }
        }
    }

    /// BTRAN: overwrites `v` with `B⁻ᵀ v` (eta transposes newest first, then
    /// the LU transpose solve). Etas disjoint from the support are skipped.
    pub(crate) fn btran(&mut self, v: &mut SparseVector) {
        self.stats.solves += 1;
        for eta in self.etas.iter().rev() {
            let mut s = v.get(eta.pivot);
            let mut touched = v.contains(eta.pivot);
            for &(row, value) in &self.eta_entries[eta.entries.clone()] {
                let x = v.get(row);
                if x != 0.0 {
                    s -= value * x;
                    touched = true;
                }
            }
            if touched {
                v.set(eta.pivot, s / eta.pivot_value);
            }
        }
        if self.dense_lu {
            self.dense.btran(v);
        } else if self.sparse.btran(v) {
            self.stats.hyper_sparse_solves += 1;
        }
    }

    /// Appends the product-form update for a pivot on `row` with FTRAN image
    /// `w` of the entering column, its entries to the pooled list. O(nnz(w)).
    pub(crate) fn push_eta(&mut self, row: usize, w: &SparseVector) {
        let start = self.eta_entries.len();
        for &i in w.nonzeros() {
            let value = w.get(i);
            if i != row && value.abs() > ZERO_TOL {
                self.eta_entries.push((i, value));
            }
        }
        self.etas.push(Eta {
            pivot: row,
            pivot_value: w.get(row),
            entries: start..self.eta_entries.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×3 example with fill-in potential; exact solution known.
    fn small_cols() -> Vec<Vec<(usize, f64)>> {
        // B = [[2, 0, 1], [1, 3, 0], [0, 1, 4]] stored by columns.
        vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 3.0), (2, 1.0)],
            vec![(0, 1.0), (2, 4.0)],
        ]
    }

    fn dense_of(v: &SparseVector, m: usize) -> Vec<f64> {
        (0..m).map(|i| v.get(i)).collect()
    }

    #[test]
    fn sparse_and_dense_backends_agree_on_a_small_matrix() {
        let cols = small_cols();
        let basis = [0, 1, 2];
        let mut sparse = SparseLu::default();
        let mut dense = DenseLu::default();
        assert!(sparse.factorize(3, &cols, &basis));
        assert!(dense.factorize(3, &cols, &basis));
        for rhs in [[1.0, 0.0, 0.0], [0.5, -2.0, 3.0], [0.0, 0.0, 1.0]] {
            let mut a = SparseVector::with_dim(3);
            let mut b = SparseVector::with_dim(3);
            for i in 0..3 {
                if rhs[i] != 0.0 {
                    a.set(i, rhs[i]);
                    b.set(i, rhs[i]);
                }
            }
            sparse.ftran(&mut a);
            dense.ftran(&mut b);
            for i in 0..3 {
                assert!((a.get(i) - b.get(i)).abs() < 1e-10, "ftran entry {i}");
            }
            let mut a = SparseVector::with_dim(3);
            let mut b = SparseVector::with_dim(3);
            for i in 0..3 {
                if rhs[i] != 0.0 {
                    a.set(i, rhs[i]);
                    b.set(i, rhs[i]);
                }
            }
            sparse.btran(&mut a);
            dense.btran(&mut b);
            for i in 0..3 {
                assert!((a.get(i) - b.get(i)).abs() < 1e-10, "btran entry {i}");
            }
        }
    }

    #[test]
    fn ftran_solves_the_system_exactly() {
        let cols = small_cols();
        let basis = [0, 1, 2];
        let mut lu = SparseLu::default();
        assert!(lu.factorize(3, &cols, &basis));
        let mut v = SparseVector::with_dim(3);
        v.set(0, 5.0);
        v.set(1, 1.0);
        v.set(2, 9.0);
        lu.ftran(&mut v);
        let x = dense_of(&v, 3);
        // Check B x = rhs by re-multiplying through the columns.
        let mut recomposed = [0.0; 3];
        for (slot, col) in cols.iter().enumerate() {
            for &(r, a) in col {
                recomposed[r] += a * x[slot];
            }
        }
        for (i, &expected) in [5.0, 1.0, 9.0].iter().enumerate() {
            assert!((recomposed[i] - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn duplicate_basis_columns_are_singular_in_both_backends() {
        let cols = small_cols();
        let basis = [0, 0, 2];
        let mut sparse = SparseLu::default();
        let mut dense = DenseLu::default();
        assert!(!sparse.factorize(3, &cols, &basis));
        assert!(!dense.factorize(3, &cols, &basis));
    }

    #[test]
    fn unit_basis_has_zero_fill() {
        let cols = vec![vec![(2, 1.0)], vec![(0, -1.0)], vec![(1, 1.0)]];
        let basis = [0, 1, 2];
        let mut lu = SparseLu::default();
        assert!(lu.factorize(3, &cols, &basis));
        assert_eq!(lu.fill_nnz(), 3, "a permutation factorizes to its diagonal");
        let mut v = SparseVector::with_dim(3);
        v.set(2, 4.0);
        lu.ftran(&mut v);
        assert!((v.get(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hyper_sparse_and_dense_paths_agree() {
        // A larger bidiagonal-ish system where a unit RHS stays sparse.
        let m = 256;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        for j in 0..m {
            let mut col = vec![(j, 3.0)];
            if j + 1 < m {
                col.push((j + 1, 1.0));
            }
            cols.push(col);
        }
        let basis: Vec<usize> = (0..m).collect();
        let mut lu = SparseLu::default();
        assert!(lu.factorize(m, &cols, &basis));

        let mut sparse_rhs = SparseVector::with_dim(m);
        sparse_rhs.set(0, 1.0);
        let took_hyper = lu.ftran(&mut sparse_rhs);
        assert!(took_hyper, "a unit RHS must take the reachability path");

        let mut dense_rhs = SparseVector::with_dim(m);
        for i in 0..m {
            dense_rhs.set(i, if i == 0 { 1.0 } else { 0.0 });
        }
        let took_hyper = lu.ftran(&mut dense_rhs);
        assert!(!took_hyper, "a full-support RHS sweeps densely");
        for i in 0..m {
            assert!(
                (sparse_rhs.get(i) - dense_rhs.get(i)).abs() < 1e-12,
                "entry {i}"
            );
        }
    }

    #[test]
    fn sparse_vector_support_tracks_writes() {
        let mut v = SparseVector::with_dim(4);
        v.set(2, 1.5);
        v.add(2, -1.5);
        v.add(0, 3.0);
        assert!(v.contains(2), "cancelled entries stay in the support");
        assert_eq!(v.get(2), 0.0);
        assert_eq!(v.get(1), 0.0);
        assert!(!v.contains(1));
        v.clear();
        assert_eq!(v.nonzeros().len(), 0);
        assert_eq!(v.get(0), 0.0);
    }
}
