//! Configuration of a capacity- and failure-coupled fleet run.

use rental_stream::FailureModel;

use crate::UNLIMITED_CAP;

/// What a capacity-coupled fleet run needs beyond the tenant specs: the
/// shared quotas, the failure substrate and the serving policy around it.
///
/// [`CapacityConfig::unconstrained`] — infinite quotas, failures disabled —
/// is the identity configuration: a controller run under it must behave
/// **bit-identically** to the uncoupled probe/solve/adopt path.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityConfig {
    /// Per-type machine quotas of the shared pool ([`UNLIMITED_CAP`] entries
    /// disable a type's quota); `None` leaves every type quota-free.
    pub quotas: Option<Vec<u64>>,
    /// Failure characteristics of the rented machines. One outage trace is
    /// sampled **per tenant**, from a sub-seed derived off this model's seed,
    /// so adding tenants never reshuffles existing tenants' outages.
    pub failures: FailureModel,
    /// Extra machines rented per *used* type while failures are enabled
    /// (N+k redundancy); ignored when `failures` is disabled. While failures
    /// are enabled, provisioning targets are also derated by the machines'
    /// steady-state availability (the fleet rents `1/availability`
    /// head-room), and throughput-violated epochs trigger
    /// capacity-constrained re-solves.
    pub failure_redundancy: u64,
}

impl CapacityConfig {
    /// The identity configuration: infinite quotas, no failures.
    pub fn unconstrained() -> Self {
        CapacityConfig {
            quotas: None,
            failures: FailureModel::none(),
            failure_redundancy: 0,
        }
    }

    /// Sets the per-type quotas.
    pub fn with_quotas(mut self, quotas: Vec<u64>) -> Self {
        self.quotas = Some(quotas);
        self
    }

    /// Sets the failure model.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Sets the per-used-type failure redundancy.
    pub fn with_redundancy(mut self, redundancy: u64) -> Self {
        self.failure_redundancy = redundancy;
        self
    }

    /// True when the configuration adds nothing over the uncoupled path
    /// (quota-free pool, failures disabled).
    pub fn is_unconstrained(&self) -> bool {
        self.failures.is_disabled()
            && self
                .quotas
                .as_ref()
                .is_none_or(|quotas| quotas.iter().all(|&quota| quota == UNLIMITED_CAP))
    }

    /// Steady-state availability of one machine under the failure model.
    pub fn availability(&self) -> f64 {
        self.failures.availability()
    }

    /// The quota vector for a platform with `num_types` machine types
    /// (filling quota-free configurations with [`UNLIMITED_CAP`]).
    ///
    /// # Panics
    ///
    /// Panics when explicit quotas were configured with the wrong arity.
    pub fn quota_vector(&self, num_types: usize) -> Vec<u64> {
        match &self.quotas {
            Some(quotas) => {
                assert_eq!(
                    quotas.len(),
                    num_types,
                    "one quota per machine type is required"
                );
                quotas.clone()
            }
            None => vec![UNLIMITED_CAP; num_types],
        }
    }

    /// The failure model of one tenant: the shared characteristics with a
    /// per-tenant sub-seed (SplitMix64-style avalanche of the fleet seed), so
    /// each tenant samples an independent, stable outage trace.
    pub fn tenant_failure_model(&self, tenant: usize) -> FailureModel {
        if self.failures.is_disabled() {
            return self.failures;
        }
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        FailureModel {
            seed: mix(self
                .failures
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_mul(tenant as u64 + 1)),
            ..self.failures
        }
    }
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig::unconstrained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_is_the_identity_configuration() {
        let config = CapacityConfig::unconstrained();
        assert!(config.is_unconstrained());
        assert_eq!(config.availability(), 1.0);
        assert_eq!(config.quota_vector(3), vec![UNLIMITED_CAP; 3]);
        assert_eq!(CapacityConfig::default(), config);
        // All-unlimited explicit quotas are still unconstrained.
        let explicit = CapacityConfig::unconstrained().with_quotas(vec![UNLIMITED_CAP; 2]);
        assert!(explicit.is_unconstrained());
    }

    #[test]
    fn quotas_or_failures_make_it_constrained() {
        let quota = CapacityConfig::unconstrained().with_quotas(vec![5, UNLIMITED_CAP]);
        assert!(!quota.is_unconstrained());
        let failing =
            CapacityConfig::unconstrained().with_failures(FailureModel::new(100.0, 4.0, 1));
        assert!(!failing.is_unconstrained());
        assert!(failing.availability() < 1.0);
    }

    #[test]
    fn tenant_failure_models_have_distinct_stable_seeds() {
        let config =
            CapacityConfig::unconstrained().with_failures(FailureModel::new(100.0, 4.0, 9));
        let a = config.tenant_failure_model(0);
        let b = config.tenant_failure_model(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, config.tenant_failure_model(0));
        assert_eq!(a.mtbf, config.failures.mtbf);
        // Disabled models pass through untouched.
        let none = CapacityConfig::unconstrained();
        assert_eq!(none.tenant_failure_model(3), FailureModel::none());
    }

    #[test]
    #[should_panic(expected = "one quota per machine type")]
    fn wrong_quota_arity_panics() {
        CapacityConfig::unconstrained()
            .with_quotas(vec![1, 2])
            .quota_vector(3);
    }
}
