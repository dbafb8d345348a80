//! `Store::recover` on hostile files: arbitrary bytes, and single-byte
//! mutations of a valid journal and snapshot. Recovery must never panic,
//! must salvage only what was really written (a prefix of the journal, a
//! snapshot that was written), and must never allocate more than the files
//! on disk allow — a corrupted length prefix is not an allocation request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rental_persist::{Recovery, Store};

/// The system allocator, recording the largest single allocation each
/// thread asks for.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn track(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Allowance for the directory walk and path buffers on top of the file
/// bytes themselves.
const SLACK: usize = 16 << 10;

fn scratch_store(tag: &str) -> Store {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "rental-persist-hostile-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

/// Recovers `store`, checking that no single allocation outgrew the files.
fn recover_bounded(store: &Store) -> Recovery {
    let on_disk = store.journal_len().unwrap() + store.snapshots_len().unwrap();
    LARGEST.with(|largest| largest.set(0));
    let recovery = store.recover().unwrap();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= on_disk as usize + SLACK,
        "recovery allocated {largest} B at once from {on_disk} B of files"
    );
    recovery
}

/// A valid store: two snapshots and a journal of records of mixed sizes.
fn valid_store(tag: &str) -> (Store, Vec<Vec<u8>>) {
    let store = scratch_store(tag);
    store.write_snapshot(2, b"older snapshot").unwrap();
    store.write_snapshot(4, b"newer snapshot payload").unwrap();
    let records: Vec<Vec<u8>> = (0..6u8).map(|k| vec![k; 3 + 5 * k as usize]).collect();
    for record in &records {
        store.append_journal(record).unwrap();
    }
    (store, records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn recovery_is_total_on_arbitrary_files(
        journal in proptest::collection::vec(any::<u8>(), 0..4096),
        snapshot in proptest::collection::vec(any::<u8>(), 0..4096),
        epoch in 0u64..100,
    ) {
        let store = scratch_store("arbitrary");
        fs::write(store.journal_path(), &journal).unwrap();
        fs::write(store.dir().join(format!("snap-{epoch:010}.rps")), &snapshot).unwrap();
        let recovery = recover_bounded(&store);
        let salvaged: usize = recovery.journal.iter().map(|r| r.len() + 8).sum();
        prop_assert!(salvaged as u64 + recovery.discarded_journal_bytes == journal.len() as u64);
        prop_assert!(store.journal_len().unwrap() == salvaged as u64, "not truncated to the valid prefix");
        let _ = fs::remove_dir_all(store.dir());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn recovery_is_total_on_single_byte_mutations(flip in 1u8..=255) {
        let (store, records) = valid_store("mutated");
        let journal = fs::read(store.journal_path()).unwrap();
        let snapshot_path = store.dir().join("snap-0000000004.rps");
        let snapshot = fs::read(&snapshot_path).unwrap();
        for index in 0..journal.len() {
            let mut bytes = journal.clone();
            bytes[index] ^= flip;
            fs::write(store.journal_path(), &bytes).unwrap();
            let recovery = recover_bounded(&store);
            prop_assert!(
                records.starts_with(&recovery.journal),
                "a mutation at byte {index} salvaged a record that was never written"
            );
            prop_assert!(recovery.journal.len() < records.len(), "mutation at {index} undetected");
        }
        fs::write(store.journal_path(), &journal).unwrap();
        for index in 0..snapshot.len() {
            let mut bytes = snapshot.clone();
            bytes[index] ^= flip;
            fs::write(&snapshot_path, &bytes).unwrap();
            let recovery = recover_bounded(&store);
            let restored = recovery.snapshot.expect("the older snapshot survives");
            prop_assert_eq!((restored.epoch, restored.payload), (2, b"older snapshot".to_vec()));
            prop_assert_eq!(&recovery.journal, &records);
        }
        let _ = fs::remove_dir_all(store.dir());
    }
}
