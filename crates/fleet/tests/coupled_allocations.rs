//! A steady-state epoch allocates nothing per tenant, failure-coupled or
//! not.
//!
//! Every epoch, the coupled bill asks the shared pool for each tenant's
//! desired fleet, grants it and checks the tenant's surviving capacity
//! against its outage trace; at the end of the run each tenant's
//! static-headroom fleet is checked against its whole trace. The desired
//! fleets, the grants and the surviving capacity live in buffers the run
//! allocates once, and each trace is read through a cursor that keeps its
//! own sweep buffer, so an epoch allocates only per epoch — its trace tree,
//! the barrier's result vectors — never per tenant. An uncoupled run's
//! epoch (trace advancement, shift detection, what-if probes, the bill)
//! does not allocate per tenant either.
//!
//! A counting global allocator holds each run to at most [`BUDGET`]
//! allocations per steady-state tenant-epoch: two runs that differ only in
//! their traces' length are counted, and their difference is divided by the
//! tenant-epochs the longer one adds, so the fleet's set-up, the initial
//! solve and the report cancel out.
//!
//! What those cancel out is held apart: a tenant that repeats a request of
//! its fleet shares the request's plan, derived state and probe table, so
//! over a whole run — set-up, first probes and report included — it costs
//! at most [`MARGINAL_BUDGET`] allocations: two fleets of the same requests
//! that differ only in their number of tenants are counted, and their
//! difference is divided by the tenants the larger one adds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use rental_capacity::CapacityConfig;
use rental_core::examples::illustrating_example;
use rental_fleet::scenario::scaling_instance_config;
use rental_fleet::{FleetController, FleetPolicy, FleetReport, TenantSpec};
use rental_simgen::InstanceGenerator;
use rental_solvers::exact::IlpSolver;
use rental_stream::{FailureModel, TraceSegment, WorkloadTrace};

/// The system allocator, counting every allocation of the process. The
/// tests take [`COUNTING`] for their runs, so nothing else of theirs
/// allocates while one counts.
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

/// Held by a test while it counts: the counter is process-wide. It guards
/// no data, so a test that panicked holding it leaves nothing to repair.
static COUNTING: Mutex<()> = Mutex::new(());

/// Allocations allowed per steady-state tenant-epoch.
const BUDGET: f64 = 0.1;

/// The allocations of one run and its report.
fn counted(run: impl FnOnce() -> FleetReport) -> (u64, FleetReport) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, report)
}

/// Asserts the budget on a short and a long run's allocations and
/// tenant-epochs.
fn assert_within_budget((short, short_epochs): (u64, usize), (long, long_epochs): (u64, usize)) {
    let added = (long_epochs - short_epochs) as f64;
    let per_tenant_epoch = long.saturating_sub(short) as f64 / added;
    assert!(
        per_tenant_epoch <= BUDGET,
        "{per_tenant_epoch:.3} allocations per steady-state tenant-epoch \
         ({short} over {short_epochs} tenant-epochs, {long} over {long_epochs})"
    );
}

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
    let (allocations, report) = counted(|| {
        controller
            .run_with_capacity(&IlpSolver::new(), &tenants, &config)
            .unwrap()
    });
    assert!(report.slo_violation_epochs() > 0, "outages must violate");
    assert!(
        report.quota_utilization.iter().any(|&u| u >= 1.0 - 1e-9),
        "the quotas must bind"
    );
    (allocations, report.tenant_epochs())
}

#[test]
fn a_steady_state_coupled_epoch_allocates_nothing_per_tenant() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    assert_within_budget(counted_run(CYCLES[0]), counted_run(CYCLES[1]));
}

/// Epochs of the short and the long uncoupled run.
const EPOCHS: [usize; 2] = [24, 384];

/// Allocations of one plain run of a scaling-style fleet of `tenants`
/// tenants — tiny instances, demand cycling over three plateaus every epoch
/// under a prohibitive switching cost, so every tenant probes every epoch
/// and never re-solves — whose traces last `epochs` one-hour epochs, and the
/// run's tenant-epochs. Tenant `i` runs instance `i % 8` from base rate
/// `40 + i % 40`, so whatever its size the fleet asks at most 40 distinct
/// initial requests.
fn counted_plain_run(tenants: usize, epochs: usize) -> (u64, usize) {
    let instances: Vec<_> = (0..8u64)
        .map(|k| InstanceGenerator::new(scaling_instance_config(), 0x5CA1E ^ k).generate_instance())
        .collect();
    let tenants: Vec<TenantSpec> = (0..tenants)
        .map(|i| {
            let base = 40.0 + (i % 40) as f64;
            let plateaus = [base, base * 1.5, base * 2.0];
            let segments = (0..epochs)
                .map(|h| TraceSegment {
                    duration: 1.0,
                    rate: plateaus[h % plateaus.len()],
                })
                .collect();
            TenantSpec::new(
                format!("scale-{i}"),
                instances[i % instances.len()].clone(),
                WorkloadTrace::new(segments),
            )
        })
        .collect();
    let controller = FleetController::new(FleetPolicy {
        epoch: 1.0,
        switching_cost: 1e12,
        threads: Some(1),
        ..FleetPolicy::default()
    });
    let (allocations, report) = counted(|| controller.run(&IlpSolver::new(), &tenants).unwrap());
    assert!(
        report.tenants.iter().all(|t| t.adoptions == 0),
        "the switching cost must keep every plan"
    );
    (allocations, report.tenant_epochs())
}

#[test]
fn a_steady_state_uncoupled_epoch_allocates_nothing_per_tenant() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    assert_within_budget(
        counted_plain_run(TENANTS, EPOCHS[0]),
        counted_plain_run(TENANTS, EPOCHS[1]),
    );
}

/// Allocations allowed per tenant that repeats a request of its fleet, over
/// a whole run.
const MARGINAL_BUDGET: f64 = 12.0;

/// Tenants of the smaller and the larger fleet of the marginal-tenant
/// budget: both ask the same (at most 40) requests.
const FLEETS: [usize; 2] = [TENANTS, 4 * TENANTS];

#[test]
fn a_tenant_of_a_shared_request_costs_a_few_allocations_per_run() {
    let _counting = COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let (small, _) = counted_plain_run(FLEETS[0], EPOCHS[0]);
    let (large, _) = counted_plain_run(FLEETS[1], EPOCHS[0]);
    let per_tenant = large.saturating_sub(small) as f64 / (FLEETS[1] - FLEETS[0]) as f64;
    assert!(
        per_tenant <= MARGINAL_BUDGET,
        "{per_tenant:.2} allocations per added tenant over a {}-epoch run \
         ({small} for {} tenants, {large} for {})",
        EPOCHS[0],
        FLEETS[0],
        FLEETS[1]
    );
}
