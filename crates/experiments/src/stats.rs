//! Small statistics helpers used when aggregating experiment results.

/// Arithmetic mean of a slice; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator); 0.0 for fewer than two values.
fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Minimum of a slice; `None` when empty.
fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Maximum of a slice; `None` when empty.
fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

/// Cost normalisation used in the paper's Figures 3, 6 and 7: the optimal
/// (reference) cost divided by the solver's cost, so that the reference sits
/// at 1.0 and worse solvers fall below 1.0. Returns 1.0 when both costs are
/// zero (a zero-throughput experiment) and 0.0 when only the solver cost is
/// infinite/absent.
pub fn normalised_cost(reference: f64, cost: f64) -> f64 {
    if reference == 0.0 && cost == 0.0 {
        1.0
    } else if cost <= 0.0 || !cost.is_finite() {
        0.0
    } else {
        (reference / cost).min(1.0)
    }
}

/// Aggregate of one series of observations (per solver and target throughput).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Aggregate {
    /// Mean value of the series.
    pub mean: f64,
    /// Sample standard deviation of the series.
    pub std_dev: f64,
    /// Minimum of the series.
    pub min: f64,
    /// Maximum of the series.
    pub max: f64,
    /// Number of observations.
    pub count: usize,
}

impl Aggregate {
    /// Builds an aggregate from raw observations.
    pub fn from_values(values: &[f64]) -> Self {
        Aggregate {
            mean: mean(values),
            std_dev: std_dev(values),
            min: min(values).unwrap_or(0.0),
            max: max(values).unwrap_or(0.0),
            count: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev_of_known_series() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&values) - 5.0).abs() < 1e-12);
        assert!((std_dev(&values) - 2.138089935299395).abs() < 1e-9);
    }

    #[test]
    fn empty_series_are_harmless() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        let agg = Aggregate::from_values(&[]);
        assert_eq!(agg.count, 0);
    }

    #[test]
    fn normalisation_matches_paper_convention() {
        // Optimal cost 100, heuristic cost 106 -> ~0.943 (about 6% away).
        assert!((normalised_cost(100.0, 106.0) - 0.9433962264150944).abs() < 1e-12);
        // A heuristic can never be better than the optimum; the ratio is capped at 1.
        assert_eq!(normalised_cost(100.0, 100.0), 1.0);
        assert_eq!(normalised_cost(100.0, 90.0), 1.0);
        assert_eq!(normalised_cost(0.0, 0.0), 1.0);
        assert_eq!(normalised_cost(10.0, f64::INFINITY), 0.0);
    }

    #[test]
    fn aggregate_reports_extremes() {
        let agg = Aggregate::from_values(&[1.0, 3.0, 2.0]);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 3.0);
        assert_eq!(agg.count, 3);
        assert!((agg.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_std_dev() {
        let agg = Aggregate::from_values(&[5.0]);
        assert_eq!(agg.std_dev, 0.0);
        assert_eq!(agg.mean, 5.0);
    }
}
