//! The `lp-large` lane: dense-LU vs sparse-Markowitz-LU scaling study.
//!
//! Where [`crate::runner`] reproduces the paper's tables, this lane measures
//! the LP substrate itself on **wide-platform MinCost relaxations**
//! ([`GeneratorConfig::wide_platform`]): `m = 1 + Q` constraint rows with a
//! handful of nonzeros per column — the regime the sparse factorization
//! ([`rental_lp::SparseLu`]) was built for. Two quantities are compared
//! against the retained dense LU ([`rental_lp::DenseLu`]) on identical
//! instances and identical optimal bases:
//!
//! * **refactorization**: one `factorize` call on the solver's own optimal
//!   basis (the dense backend pays O(m³), the sparse one O(nnz + fill));
//! * **end-to-end solve**: a full cold revised-simplex run, differing only
//!   in [`rental_lp::SimplexOptions::dense_lu`].
//!
//! Both engines are asserted to agree on status and objective before any
//! timing is recorded, so the table can never report a speedup over a wrong
//! answer. The `lp_large` bench writes these rows to `BENCH_lp_large.json`
//! and enforces a conservative speedup floor in CI; `repro lp-large` prints
//! the same rows as a Markdown table.

use std::time::Instant;

use rental_lp::model::Model;
use rental_lp::revised::RevisedLp;
use rental_lp::{DenseLu, LpStatus, SimplexOptions, SparseLu};
use rental_simgen::{GeneratorConfig, InstanceGenerator};
use rental_solvers::exact::IlpSolver;

/// Parameters of the lp-large scaling study.
#[derive(Debug, Clone)]
pub struct LpLargeSpec {
    /// Instance sizes as `(num_types, num_recipes)`; the standard form has
    /// `m = 1 + num_types` rows.
    pub sizes: Vec<(usize, usize)>,
    /// Throughput target of the MinCost relaxation.
    pub target: u64,
    /// Instance seed.
    pub seed: u64,
    /// Timing rounds per measurement (the median is reported).
    pub rounds: usize,
}

impl Default for LpLargeSpec {
    fn default() -> Self {
        LpLargeSpec {
            sizes: vec![(255, 32), (511, 48)],
            target: 500,
            seed: 0xD1CE,
            rounds: 3,
        }
    }
}

/// One measured instance size.
#[derive(Debug, Clone, Copy)]
pub struct LpLargeRow {
    /// Constraint rows `m` of the standard form.
    pub rows: usize,
    /// Nonzeros of the optimal basis matrix.
    pub basis_nnz: usize,
    /// Nonzeros of `L + U` produced by the sparse Markowitz factorization.
    pub fill_nnz: usize,
    /// Median seconds of one sparse refactorization of the optimal basis.
    pub sparse_refactor_secs: f64,
    /// Median seconds of one dense refactorization of the same basis.
    pub dense_refactor_secs: f64,
    /// `dense_refactor_secs / sparse_refactor_secs`.
    pub refactor_speedup: f64,
    /// Median seconds of a cold revised-simplex solve on the sparse backend.
    pub sparse_solve_secs: f64,
    /// Median seconds of the same solve on the dense-LU backend.
    pub dense_solve_secs: f64,
    /// `dense_solve_secs / sparse_solve_secs`.
    pub solve_speedup: f64,
    /// Pivots of the sparse solve.
    pub sparse_pivots: usize,
    /// Pivots of the dense-LU solve.
    pub dense_pivots: usize,
    /// Fraction of the sparse solve's FTRAN/BTRAN calls that took the
    /// hyper-sparse reachability path.
    pub hyper_sparse_rate: f64,
}

/// The wide-platform MinCost relaxation model for one size.
fn relaxation(num_types: usize, num_recipes: usize, target: u64, seed: u64) -> Model {
    let config = GeneratorConfig::wide_platform(num_types, num_recipes);
    let instance = InstanceGenerator::new(config, seed).generate_instance();
    IlpSolver::build_model(&instance, target)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Times `run` for `rounds` rounds and returns the median seconds per call.
fn measure(mut run: impl FnMut(), rounds: usize) -> f64 {
    let mut samples = Vec::with_capacity(rounds.max(1));
    for _ in 0..rounds.max(1) {
        let start = Instant::now();
        run();
        samples.push(start.elapsed().as_secs_f64());
    }
    median(&mut samples)
}

/// Runs the scaling study.
///
/// # Panics
///
/// Panics when the two backends disagree on status or objective — a speedup
/// over a wrong answer must never make it into a table.
pub fn run_lp_large(spec: &LpLargeSpec) -> Vec<LpLargeRow> {
    let sparse_options = SimplexOptions {
        dense_lu: false,
        ..SimplexOptions::default()
    };
    let dense_options = SimplexOptions {
        dense_lu: true,
        ..SimplexOptions::default()
    };
    spec.sizes
        .iter()
        .map(|&(num_types, num_recipes)| {
            let model = relaxation(num_types, num_recipes, spec.target, spec.seed);
            let lp = RevisedLp::new(&model).expect("generated relaxations are valid");
            let m = lp.num_rows();

            // Differential gate before any timing.
            let sparse = lp.solve(&sparse_options);
            let dense = lp.solve(&dense_options);
            assert_eq!(sparse.status, LpStatus::Optimal, "sparse solve at m = {m}");
            assert_eq!(dense.status, LpStatus::Optimal, "dense solve at m = {m}");
            let sparse_objective = model.objective_value(&sparse.values);
            let dense_objective = model.objective_value(&dense.values);
            assert!(
                (sparse_objective - dense_objective).abs()
                    <= 1e-6 * (1.0 + dense_objective.abs()),
                "objective divergence at m = {m}: sparse {sparse_objective} vs dense {dense_objective}"
            );

            // Refactorization of the solver's own optimal basis.
            let snapshot = sparse.basis.as_ref().expect("optimal solves carry a basis");
            let basis = snapshot.basic_columns();
            let cols = lp.standard_form_columns();
            // Both backends are measured with the same round count and the
            // same median so neither side gets a statistical edge.
            let mut sparse_lu = SparseLu::default();
            let mut dense_lu = DenseLu::default();
            let sparse_refactor_secs =
                measure(|| assert!(sparse_lu.factorize(m, cols, basis)), spec.rounds);
            let dense_refactor_secs =
                measure(|| assert!(dense_lu.factorize(m, cols, basis)), spec.rounds);

            // End-to-end cold solves.
            let sparse_solve_secs = measure(
                || {
                    lp.solve(&sparse_options);
                },
                spec.rounds,
            );
            let dense_solve_secs = measure(
                || {
                    lp.solve(&dense_options);
                },
                spec.rounds,
            );

            LpLargeRow {
                rows: m,
                basis_nnz: sparse_lu.basis_nnz(),
                fill_nnz: sparse_lu.fill_nnz(),
                sparse_refactor_secs,
                dense_refactor_secs,
                refactor_speedup: dense_refactor_secs / sparse_refactor_secs,
                sparse_solve_secs,
                dense_solve_secs,
                solve_speedup: dense_solve_secs / sparse_solve_secs,
                sparse_pivots: sparse.iterations,
                dense_pivots: dense.iterations,
                hyper_sparse_rate: sparse.factor_stats.hyper_sparse_rate(),
            }
        })
        .collect()
}

/// Renders the rows as a Markdown table (dense-LU vs sparse-LU timing/fill).
pub fn lp_large_markdown(rows: &[LpLargeRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| m | basis nnz | LU fill | refactor dense (ms) | refactor sparse (ms) | refactor speedup \
         | solve dense (ms) | solve sparse (ms) | solve speedup | hyper-sparse rate |\n",
    );
    out.push_str(
        "|--:|----------:|--------:|--------------------:|---------------------:|-----------------:\
         |-----------------:|------------------:|--------------:|------------------:|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.1}x | {:.2} | {:.2} | {:.1}x | {:.0}% |\n",
            row.rows,
            row.basis_nnz,
            row.fill_nnz,
            row.dense_refactor_secs * 1e3,
            row.sparse_refactor_secs * 1e3,
            row.refactor_speedup,
            row.dense_solve_secs * 1e3,
            row.sparse_solve_secs * 1e3,
            row.solve_speedup,
            row.hyper_sparse_rate * 100.0,
        ));
    }
    out
}

/// Renders the rows as JSON lines, one object per instance size: the
/// `repro lp-large --json` output and the rows of `BENCH_lp_large.json`.
pub fn lp_large_rows_json(rows: &[LpLargeRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(
            &rental_obs::json::JsonRow::new()
                .str("record", "lp_large")
                .usize("rows", row.rows)
                .usize("basis_nnz", row.basis_nnz)
                .usize("fill_nnz", row.fill_nnz)
                .f64("refactor_dense_secs", row.dense_refactor_secs)
                .f64("refactor_sparse_secs", row.sparse_refactor_secs)
                .f64("refactor_speedup", row.refactor_speedup)
                .f64("solve_dense_secs", row.dense_solve_secs)
                .f64("solve_sparse_secs", row.sparse_solve_secs)
                .f64("solve_speedup", row.solve_speedup)
                .usize("sparse_pivots", row.sparse_pivots)
                .usize("dense_pivots", row.dense_pivots)
                .f64("hyper_sparse_rate", row.hyper_sparse_rate)
                .finish(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_wide_platform_rows_are_consistent() {
        let spec = LpLargeSpec {
            sizes: vec![(63, 12)],
            target: 200,
            seed: 7,
            rounds: 1,
        };
        let rows = run_lp_large(&spec);
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert_eq!(row.rows, 64);
        assert!(row.basis_nnz > 0 && row.fill_nnz > 0);
        assert!(row.sparse_refactor_secs > 0.0 && row.dense_refactor_secs > 0.0);
        let markdown = lp_large_markdown(&rows);
        assert!(markdown.contains("| 64 |"));
        let json = lp_large_rows_json(&rows);
        assert!(json.contains("\"rows\":64"));
    }
}
