//! A steady-state failure-coupled epoch allocates nothing per tenant.
//!
//! Every epoch, the coupled bill asks the shared pool for each tenant's
//! desired fleet, grants it and checks the tenant's surviving capacity
//! against its outage trace; at the end of the run each tenant's
//! static-headroom fleet is checked against its whole trace. The desired
//! fleets, the grants and the surviving capacity live in buffers the run
//! allocates once, and each trace is read through a cursor that keeps its
//! own sweep buffer, so an epoch allocates only per epoch — its trace tree,
//! the barrier's result vectors — never per tenant.
//!
//! A counting global allocator holds the run to at most [`BUDGET`]
//! allocations per steady-state tenant-epoch: two runs that differ only in
//! their traces' length are counted, and their difference is divided by the
//! tenant-epochs the longer one adds, so the fleet's set-up, the initial
//! solve and the report cancel out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rental_capacity::CapacityConfig;
use rental_core::examples::illustrating_example;
use rental_fleet::{FleetController, FleetPolicy, TenantSpec};
use rental_solvers::exact::IlpSolver;
use rental_stream::{FailureModel, WorkloadTrace};

/// The system allocator, counting every allocation of the process. This
/// file holds a single test, so nothing else allocates while it counts.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations allowed per steady-state tenant-epoch.
const BUDGET: f64 = 0.1;

const TENANTS: usize = 256;

/// Daily cycles of the short and the long run's traces (12 epochs each):
/// far apart, so the few doublings of a tenant's growing vectors — its
/// outage list, its cursor's sweep buffer — spread thin over the epochs.
const CYCLES: [usize; 2] = [2, 32];

/// Allocations of one failure-coupled run whose tenants' traces last
/// `cycles` diurnal cycles, and the run's tenant-epochs.
fn counted_run(cycles: usize) -> (u64, usize) {
    let instance = illustrating_example();
    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|i| {
            let trace = WorkloadTrace::diurnal(20.0, 120.0, 6.0, cycles);
            TenantSpec::new(format!("tenant-{i}"), instance.clone(), trace)
        })
        .collect();
    // Finite quotas below the fleet's peak demand, so arbitration splits
    // types, and outages that violate epochs.
    let config = CapacityConfig::unconstrained()
        .with_quotas(vec![300, 250, 200, 150])
        .with_failures(FailureModel::new(24.0, 3.0, 7))
        .with_redundancy(1);
    let controller = FleetController::new(FleetPolicy {
        resolve: false,
        threads: Some(1),
        ..FleetPolicy::default()
    });
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = controller
        .run_with_capacity(&IlpSolver::new(), &tenants, &config)
        .unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.slo_violation_epochs() > 0, "outages must violate");
    assert!(
        report.quota_utilization.iter().any(|&u| u >= 1.0 - 1e-9),
        "the quotas must bind"
    );
    (allocations, report.tenant_epochs())
}

#[test]
fn a_steady_state_coupled_epoch_allocates_nothing_per_tenant() {
    let (short, short_epochs) = counted_run(CYCLES[0]);
    let (long, long_epochs) = counted_run(CYCLES[1]);
    let added = (long_epochs - short_epochs) as f64;
    let per_tenant_epoch = long.saturating_sub(short) as f64 / added;
    assert!(
        per_tenant_epoch <= BUDGET,
        "{per_tenant_epoch:.3} allocations per steady-state tenant-epoch \
         ({short} over {short_epochs} tenant-epochs, {long} over {long_epochs})"
    );
}
