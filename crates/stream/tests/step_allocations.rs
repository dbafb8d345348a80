//! A fixed-mix step allocates nothing.
//!
//! The fleet controller steps two [`FixedMixState`]s per tenant and epoch
//! (the tenant's own fleet and its fixed-mix baseline), so a step that
//! allocated would allocate twice per tenant-epoch. A counting global
//! allocator holds [`FixedMixState::step`] to zero allocations over a
//! demand trace that scales up, holds, and scales down past the patience.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rental_core::examples::illustrating_example;
use rental_core::ThroughputSplit;
use rental_stream::{AutoscalePolicy, Autoscaler, FixedMixScaler, FixedMixState};

/// The system allocator, counting the allocations each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_fixed_mix_step_allocates_nothing() {
    let instance = illustrating_example();
    let solution = instance
        .solution(70, ThroughputSplit::new(vec![10, 30, 30]))
        .unwrap();
    let fractions = Autoscaler::split_fractions(&solution);
    let policy = AutoscalePolicy {
        redundancy: 1,
        ..AutoscalePolicy::default()
    };
    let scaler = FixedMixScaler::new(&instance, &fractions, &policy);
    let mut state = FixedMixState::new(instance.num_types());
    let rates = [
        0.0, 40.0, 120.0, 120.0, 30.0, 30.0, 30.0, 200.0, 0.0, 0.0, 0.0,
    ];
    let before = ALLOCATIONS.with(Cell::get);
    let mut rented = 0;
    for &rate in &rates {
        let fleet = state.step(&scaler, rate, policy.scale_down_patience);
        rented += fleet.iter().sum::<u64>();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(rented > 0);
    assert_eq!(allocations, 0, "{} steps allocated", rates.len());
    // The same fleets as `required_for` with the hysteresis applied: the
    // last epochs scale everything down after the patience.
    assert_eq!(state.fleet(), &scaler.required_for(0.0)[..]);
}
