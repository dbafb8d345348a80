//! Steepest-descent candidate scans over the sparse kernel.
//!
//! H32-style searches ("evaluate **all** ordered `δ`-transfers, apply the
//! best") and tabu search share the same inner loop: for every ordered recipe
//! pair, cost the candidate transfer with
//! [`IncrementalEvaluator::cost_after_transfer`] and keep the admissible
//! candidate with the lowest cost. [`best_transfer`] centralises that loop
//! and, for large recipe counts, fans the per-`from` row scans out across
//! worker threads — each row only reads the evaluator, which is `Sync`.
//!
//! Determinism: ties are broken towards the lexicographically smallest
//! `(from, to)` pair, in both the sequential and the parallel path, so a
//! parallel scan returns bit-identical moves to the sequential double loop
//! (and therefore identical final solutions for fixed seeds).

use crate::cost::IncrementalEvaluator;
use crate::error::ModelResult;
use crate::types::{Cost, RecipeId, Throughput};

/// Recipe count from which [`best_transfer`] scans rows in parallel.
///
/// A scan costs `O(J² · |diff|)`; below this threshold the work is cheaper
/// than fanning it out (job hand-off to the shared worker pool), above it the
/// quadratic candidate count dominates. At the threshold a scan examines
/// ~4k pairs. Scans dispatched from inside a batch solve share the batch
/// engine's pool — the rayon shim runs every fan-out on one process-wide
/// worker set, with the calling thread always participating — so nested
/// parallelism is bounded by the core count instead of multiplying.
const PARALLEL_SCAN_MIN_RECIPES: usize = 64;

/// Estimated per-row scan work (candidate count × mean pair-diff length)
/// from which [`best_transfer`] splits a **single** `from`-row's candidate
/// scan across the worker pool even though the recipe count is below
/// [`PARALLEL_SCAN_MIN_RECIPES`].
///
/// A candidate evaluation walks the sparse pair-diff of `(from, to)`, whose
/// length scales with the number of machine types the two recipes disagree
/// on. With few recipes but a huge type count Q, a row has only `J − 1`
/// candidates yet each one is expensive — the regime where splitting the row
/// (not the row *set*) is the only parallelism available.
const PARALLEL_SCAN_MIN_ROW_WORK: usize = 4096;

/// The best admissible `δ`-transfer, over all ordered recipe pairs.
///
/// A candidate `(from, to)` is considered when `from` currently carries
/// throughput, the clamped move is non-empty, and
/// `admissible(from, to, candidate_cost)` returns true; among those the
/// lowest-cost candidate is returned (ties towards the smallest pair).
/// Returns `Ok(None)` when no candidate is admissible — e.g. at a local
/// minimum when `admissible` demands strict improvement.
///
/// Parallelism picks the widest profitable axis: across `from`-rows when the
/// recipe count is large, across the candidates *within* each row when the
/// recipe count is small but the per-candidate diff walks are heavy (large
/// Q). Both paths return bit-identical moves to the sequential double loop.
///
/// # Errors
///
/// Propagates evaluation errors (overflow on absurd instances).
pub fn best_transfer<F>(
    evaluator: &IncrementalEvaluator<'_>,
    delta: Throughput,
    admissible: &F,
) -> ModelResult<Option<(RecipeId, RecipeId, Cost)>>
where
    F: Fn(RecipeId, RecipeId, Cost) -> bool + Sync,
{
    let num_recipes = evaluator.split().len();
    let rows: Vec<ModelResult<Option<(RecipeId, Cost)>>> =
        if num_recipes >= PARALLEL_SCAN_MIN_RECIPES {
            rayon::parallel_map_indexed(num_recipes, None, |from| {
                scan_row(evaluator, RecipeId(from), delta, admissible)
            })
        } else if num_recipes > 2 && row_scan_work(evaluator) >= PARALLEL_SCAN_MIN_ROW_WORK {
            (0..num_recipes)
                .map(|from| scan_row_split(evaluator, RecipeId(from), delta, admissible))
                .collect()
        } else {
            (0..num_recipes)
                .map(|from| scan_row(evaluator, RecipeId(from), delta, admissible))
                .collect()
        };
    let mut best: Option<(RecipeId, RecipeId, Cost)> = None;
    for (from, row) in rows.into_iter().enumerate() {
        if let Some((to, cost)) = row? {
            if best.is_none_or(|(_, _, best_cost)| cost < best_cost) {
                best = Some((RecipeId(from), to, cost));
            }
        }
    }
    Ok(best)
}

/// Estimated cost of scanning one `from`-row: candidates × mean diff length.
fn row_scan_work(evaluator: &IncrementalEvaluator<'_>) -> usize {
    let candidates = evaluator.split().len().saturating_sub(1);
    (candidates as f64 * evaluator.diff_table().mean_pair_diff_len()) as usize
}

/// Scans all transfers out of `from`, returning the best admissible
/// destination (ties towards the smallest `to`).
fn scan_row<F>(
    evaluator: &IncrementalEvaluator<'_>,
    from: RecipeId,
    delta: Throughput,
    admissible: &F,
) -> ModelResult<Option<(RecipeId, Cost)>>
where
    F: Fn(RecipeId, RecipeId, Cost) -> bool + Sync,
{
    scan_row_range(
        evaluator,
        from,
        delta,
        admissible,
        0,
        evaluator.split().len(),
    )
}

/// Scans the transfers out of `from` into destinations `to_start..to_end`
/// (ties towards the smallest `to` in the range).
fn scan_row_range<F>(
    evaluator: &IncrementalEvaluator<'_>,
    from: RecipeId,
    delta: Throughput,
    admissible: &F,
    to_start: usize,
    to_end: usize,
) -> ModelResult<Option<(RecipeId, Cost)>>
where
    F: Fn(RecipeId, RecipeId, Cost) -> bool + Sync,
{
    if evaluator.split().share(from) == 0 {
        return Ok(None);
    }
    let mut best: Option<(RecipeId, Cost)> = None;
    for to in to_start..to_end {
        let to = RecipeId(to);
        if to == from {
            continue;
        }
        let (moved, cost) = evaluator.cost_after_transfer(from, to, delta)?;
        if moved == 0 || !admissible(from, to, cost) {
            continue;
        }
        if best.is_none_or(|(_, best_cost)| cost < best_cost) {
            best = Some((to, cost));
        }
    }
    Ok(best)
}

/// [`scan_row`], with the row's candidates split into contiguous chunks
/// fanned out over the shared worker pool. Chunks are merged in destination
/// order with strict-improvement ties, so the result is identical to the
/// sequential scan.
fn scan_row_split<F>(
    evaluator: &IncrementalEvaluator<'_>,
    from: RecipeId,
    delta: Throughput,
    admissible: &F,
) -> ModelResult<Option<(RecipeId, Cost)>>
where
    F: Fn(RecipeId, RecipeId, Cost) -> bool + Sync,
{
    if evaluator.split().share(from) == 0 {
        return Ok(None);
    }
    let num_recipes = evaluator.split().len();
    let chunks = rayon::current_num_threads().clamp(1, num_recipes);
    let chunk_size = num_recipes.div_ceil(chunks);
    let partials = rayon::parallel_map_indexed(chunks, None, |chunk| {
        let to_start = chunk * chunk_size;
        let to_end = ((chunk + 1) * chunk_size).min(num_recipes);
        scan_row_range(evaluator, from, delta, admissible, to_start, to_end)
    });
    let mut best: Option<(RecipeId, Cost)> = None;
    for partial in partials {
        if let Some((to, cost)) = partial? {
            if best.is_none_or(|(_, best_cost)| cost < best_cost) {
                best = Some((to, cost));
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::ThroughputSplit;
    use crate::examples::illustrating_example;
    use crate::instance::Instance;
    use crate::platform::Platform;
    use crate::recipe::Recipe;
    use crate::types::TypeId;

    #[test]
    fn best_transfer_matches_a_naive_double_loop() {
        let instance = illustrating_example();
        let evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(vec![70, 0, 0]),
        )
        .unwrap();
        let current = evaluator.cost();
        // delta = 30 admits improving moves from (70, 0, 0), e.g. moving 30
        // onto recipe 2 reaches (40, 30, 0) at cost 127 < 138.
        let found = best_transfer(&evaluator, 30, &|_, _, cost| cost < current)
            .unwrap()
            .expect("an improving 30-transfer exists from the all-on-one split");

        let mut naive: Option<(RecipeId, RecipeId, u64)> = None;
        for from in 0..3 {
            let from = RecipeId(from);
            if evaluator.split().share(from) == 0 {
                continue;
            }
            for to in 0..3 {
                let to = RecipeId(to);
                if to == from {
                    continue;
                }
                let (moved, cost) = evaluator.cost_after_transfer(from, to, 30).unwrap();
                if moved == 0 || cost >= current {
                    continue;
                }
                if naive.is_none_or(|(_, _, best)| cost < best) {
                    naive = Some((from, to, cost));
                }
            }
        }
        assert_eq!(Some(found), naive);
    }

    #[test]
    fn local_minima_yield_no_move() {
        let instance = illustrating_example();
        // (10, 30, 30) is the ILP optimum for rho = 70 (Table III), so no
        // single 10-transfer can improve it.
        let evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(vec![10, 30, 30]),
        )
        .unwrap();
        let current = evaluator.cost();
        assert_eq!(
            best_transfer(&evaluator, 10, &|_, _, cost| cost < current).unwrap(),
            None
        );
    }

    /// A wide instance: few recipes, each touching a large disjoint block of
    /// machine types, so a single row's candidate scan is heavy while the
    /// recipe count stays far below [`PARALLEL_SCAN_MIN_RECIPES`].
    fn wide_instance(num_recipes: usize, types_per_recipe: usize) -> Instance {
        let num_types = num_recipes * types_per_recipe;
        let pairs: Vec<(u64, u64)> = (0..num_types)
            .map(|q| (10 + (q % 4) as u64 * 10, 1 + (q * q % 13) as u64))
            .collect();
        let platform = Platform::from_pairs(&pairs).unwrap();
        let recipes: Vec<Recipe> = (0..num_recipes)
            .map(|j| {
                let types: Vec<TypeId> = (0..types_per_recipe)
                    .map(|t| TypeId(j * types_per_recipe + t))
                    .collect();
                Recipe::independent_tasks(RecipeId(j), &types).unwrap()
            })
            .collect();
        Instance::new(recipes, platform).unwrap()
    }

    #[test]
    fn row_split_path_matches_the_naive_double_loop() {
        let instance = wide_instance(6, 900);
        let evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(vec![40, 20, 0, 10, 0, 0]),
        )
        .unwrap();
        // The test must actually exercise the row-splitting branch.
        assert!(instance.num_recipes() < PARALLEL_SCAN_MIN_RECIPES);
        assert!(row_scan_work(&evaluator) >= PARALLEL_SCAN_MIN_ROW_WORK);

        let current = evaluator.cost();
        let found = best_transfer(&evaluator, 10, &|_, _, cost| cost < current).unwrap();

        let mut naive: Option<(RecipeId, RecipeId, u64)> = None;
        for from in 0..instance.num_recipes() {
            let from = RecipeId(from);
            if evaluator.split().share(from) == 0 {
                continue;
            }
            for to in 0..instance.num_recipes() {
                let to = RecipeId(to);
                if to == from {
                    continue;
                }
                let (moved, cost) = evaluator.cost_after_transfer(from, to, 10).unwrap();
                if moved == 0 || cost >= current {
                    continue;
                }
                if naive.is_none_or(|(_, _, best)| cost < best) {
                    naive = Some((from, to, cost));
                }
            }
        }
        assert_eq!(found, naive);

        // And with an unconstrained filter the two paths still agree on the
        // exact winning pair (tie-breaking included).
        let unconstrained = best_transfer(&evaluator, 10, &|_, _, _| true).unwrap();
        let mut naive_any: Option<(RecipeId, RecipeId, u64)> = None;
        for from in 0..instance.num_recipes() {
            let from = RecipeId(from);
            if evaluator.split().share(from) == 0 {
                continue;
            }
            for to in 0..instance.num_recipes() {
                let to = RecipeId(to);
                if to == from {
                    continue;
                }
                let (moved, cost) = evaluator.cost_after_transfer(from, to, 10).unwrap();
                if moved == 0 {
                    continue;
                }
                if naive_any.is_none_or(|(_, _, best)| cost < best) {
                    naive_any = Some((from, to, cost));
                }
            }
        }
        assert_eq!(unconstrained, naive_any);
    }

    #[test]
    fn narrow_instances_stay_on_the_sequential_path() {
        // The illustrating example is tiny on both axes: neither parallel
        // branch may trigger, and the scan still works.
        let instance = illustrating_example();
        let evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(vec![70, 0, 0]),
        )
        .unwrap();
        assert!(row_scan_work(&evaluator) < PARALLEL_SCAN_MIN_ROW_WORK);
        assert!(best_transfer(&evaluator, 30, &|_, _, _| true)
            .unwrap()
            .is_some());
    }

    #[test]
    fn admissibility_filter_is_respected() {
        let instance = illustrating_example();
        let evaluator = IncrementalEvaluator::new(
            instance.application().demand(),
            instance.platform(),
            ThroughputSplit::new(vec![70, 0, 0]),
        )
        .unwrap();
        // Forbid every pair: no move may be returned even though improving
        // transfers exist.
        assert_eq!(
            best_transfer(&evaluator, 10, &|_, _, _| false).unwrap(),
            None
        );
        // Allow only moves into recipe 3 (index 2).
        let restricted = best_transfer(&evaluator, 10, &|_, to, _| to == RecipeId(2))
            .unwrap()
            .unwrap();
        assert_eq!(restricted.1, RecipeId(2));
    }
}
