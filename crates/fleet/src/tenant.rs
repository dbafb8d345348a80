//! Tenant descriptions: what the fleet controller is asked to serve.

use rental_core::Instance;
use rental_stream::WorkloadTrace;

/// One tenant of the fleet: a MinCost instance (its application and the cloud
/// catalogue it rents from) plus the workload trace it will serve.
///
/// Tenants of one instance hold clones of it, and a clone shares the
/// instance's storage (see [`Instance`]), so a fleet of many tenants over a
/// few instances stores each instance once.
///
/// The tenant's *current plan* is controller state, not part of the spec —
/// the controller solves each tenant cold for its first epoch's demand and
/// re-solves on workload shifts from there.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Human-readable tenant name, used in reports.
    pub name: String,
    /// The tenant's MinCost instance.
    pub instance: Instance,
    /// The demand trace the tenant must be provisioned for.
    pub trace: WorkloadTrace,
}

impl TenantSpec {
    /// Creates a tenant spec.
    pub fn new(name: impl Into<String>, instance: Instance, trace: WorkloadTrace) -> Self {
        TenantSpec {
            name: name.into(),
            instance,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rental_core::examples::illustrating_example;

    #[test]
    fn specs_carry_their_parts() {
        let spec = TenantSpec::new(
            "t0",
            illustrating_example(),
            WorkloadTrace::constant(70.0, 24.0),
        );
        assert_eq!(spec.name, "t0");
        assert_eq!(spec.instance.num_recipes(), 3);
        assert_eq!(spec.trace.duration(), 24.0);
    }
}
