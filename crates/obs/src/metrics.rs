//! Named counters, gauges and log-bucketed histograms with thread-local
//! sharding.
//!
//! Hot-path emissions (counters, histogram samples) land in a per-thread
//! [`MetricsShard`] — found through a thread-local cache, so the common case
//! is one uncontended `Mutex` lock on memory only this thread touches. A
//! shard keys its metrics by the address of the name's `'static` text,
//! which is cheaper to hash and compare than the text; the snapshot merges
//! by name.
//! Aggregation is **explicit**: [`MetricsRegistry::snapshot`] merges every
//! shard into one [`MetricsSnapshot`]. Gauges are last-write-wins and
//! low-frequency, so they live directly on the registry instead of being
//! sharded (sharded last-write-wins has no well-defined merge).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonRow;

/// Number of power-of-two buckets: bucket 0 holds the value 0, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, up to bucket 64 for values
/// with the top bit set.
pub const NUM_BUCKETS: usize = 65;

/// An HDR-style log-bucketed histogram over `u64` samples: power-of-two
/// buckets, exact count/sum/min/max. Merging two histograms is associative
/// and lossless for counts and sums — each bucket, the total count and the
/// total sum simply add.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    /// `u128` so that merging many near-`u64::MAX` samples cannot overflow.
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// The bucket a value lands in: 0 for the value 0, otherwise
    /// `64 - leading_zeros(v)`, i.e. `v` in `[2^(i-1), 2^i)` maps to `i`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` covered by bucket `index`
    /// (bucket 64's upper end saturates at `u64::MAX`).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
        if index == 0 {
            (0, 1)
        } else {
            let lo = 1u64 << (index - 1);
            let hi = if index == 64 { u64::MAX } else { 1u64 << index };
            (lo, hi)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Adds every sample of `other` into `self` (associative, lossless for
    /// counts and sums).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Recorded sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// An upper bound on the `q`-quantile (`q` in `[0, 1]`): the exclusive
    /// upper edge of the bucket where the cumulative count crosses
    /// `ceil(q * count)`. Resolution is the power-of-two bucket width.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                let (_, hi) = Self::bucket_bounds(index);
                return if index == 0 { 0 } else { hi - 1 };
            }
        }
        self.max
    }

    /// An estimate of the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation of the rank inside the bucket where the cumulative
    /// count crosses it, clamped to the recorded `[min, max]`.
    ///
    /// **Error bound**: the true quantile lies in the same power-of-two
    /// bucket `[2^(i-1), 2^i)` as the estimate, so the absolute error is
    /// below the bucket width `2^(i-1)` and the relative error is below
    /// 100% (in practice far less — the estimate assumes samples spread
    /// uniformly across the bucket).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let before = seen;
            seen += bucket;
            if (seen as f64) >= rank {
                let (lo, hi) = Self::bucket_bounds(index);
                let fraction = (rank - before as f64) / bucket as f64;
                let estimate = lo as f64 + fraction * (hi - lo) as f64;
                return estimate.clamp(self.min() as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

/// A metric name keyed by the address of its `'static` text. The same text
/// at two addresses is two keys; [`MetricsRegistry::snapshot`] merges them
/// by name.
#[derive(Clone, Copy, Debug)]
struct Name(&'static str);

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
    }
}

/// Fibonacci hashing of a [`Name`]'s address. The keys are the program's
/// own literals, never outside input, so no collision resistance is needed.
#[derive(Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_usize(&mut self, address: usize) {
        self.write_u64(address as u64);
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type ByName<V> = HashMap<Name, V, BuildHasherDefault<AddressHasher>>;

/// One thread's private slice of a registry: counters and histograms only
/// (gauges are registry-global).
#[derive(Default, Debug)]
pub struct MetricsShard {
    counters: ByName<u64>,
    histograms: ByName<Histogram>,
}

impl MetricsShard {
    fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(Name(name)).or_insert(0) += delta;
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(Name(name)).or_default().record(value);
    }
}

/// Monotonic registry ids so a thread's shard cache can tell registries
/// apart across the process lifetime.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(registry id, shard)` pairs this thread has written to. Tiny in
    /// practice (one long-lived registry per process), scanned linearly.
    /// The cache holds each shard like its registry does, so a write needs
    /// no reference count; a shard only the cache still holds belongs to a
    /// dropped registry and is pruned on the next miss.
    static LOCAL_SHARDS: RefCell<Vec<(u64, Arc<Mutex<MetricsShard>>)>> =
        const { RefCell::new(Vec::new()) };
}

/// A registry of named counters, gauges and [`Histogram`]s with per-thread
/// sharding and explicit merge — see the module docs.
pub struct MetricsRegistry {
    id: u64,
    shards: Mutex<Vec<Arc<Mutex<MetricsShard>>>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            shards: Mutex::new(Vec::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` on this thread's shard of this registry, created and
    /// registered on first use. Cache entries of dropped registries are
    /// pruned on that slow path.
    fn with_local_shard(&self, f: impl FnOnce(&mut MetricsShard)) {
        LOCAL_SHARDS.with(|cache| {
            let mut cache = cache.borrow_mut();
            let k = match cache.iter().position(|(id, _)| *id == self.id) {
                Some(k) => k,
                None => {
                    cache.retain(|(_, shard)| Arc::strong_count(shard) > 1);
                    let shard = Arc::new(Mutex::new(MetricsShard::default()));
                    self.shards
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(shard.clone());
                    cache.push((self.id, shard));
                    cache.len() - 1
                }
            };
            f(&mut cache[k].1.lock().unwrap_or_else(|e| e.into_inner()));
        });
    }

    /// Adds `delta` to the named counter (thread-local shard, uncontended).
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        self.with_local_shard(|shard| shard.add_counter(name, delta));
    }

    /// Records one histogram sample (thread-local shard, uncontended).
    pub fn observe(&self, name: &'static str, value: u64) {
        self.with_local_shard(|shard| shard.observe(name, value));
    }

    /// Sets the named gauge (registry-global, last write wins).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name, value);
    }

    /// Number of thread shards registered so far.
    pub fn shard_count(&self) -> usize {
        self.shards.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Merges every shard (and the gauges) into one snapshot. Counters and
    /// histogram counts/sums merge losslessly; the result is independent of
    /// shard order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        for shard in self.shards.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (name, &value) in &shard.counters {
                *snapshot.counters.entry(name.0.to_string()).or_insert(0) += value;
            }
            for (name, histogram) in &shard.histograms {
                snapshot
                    .histograms
                    .entry(name.0.to_string())
                    .or_default()
                    .merge(histogram);
            }
        }
        for (&name, &value) in self.gauges.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            snapshot.gauges.insert(name.to_string(), value);
        }
        snapshot
    }
}

/// A merged, ordered view of a [`MetricsRegistry`] at one instant. Sorted
/// maps so rendered output (JSONL, tables) is deterministic.
#[derive(Default, Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The snapshot as rows: one `{"metric": ..., ...}` object per counter,
    /// gauge and histogram, in sorted name order.
    pub fn rows(&self) -> Vec<JsonRow> {
        let counters = self.counters.iter().map(|(name, &value)| {
            JsonRow::new()
                .str("metric", name)
                .str("type", "counter")
                .u64("value", value)
        });
        let gauges = self.gauges.iter().map(|(name, &value)| {
            JsonRow::new()
                .str("metric", name)
                .str("type", "gauge")
                .f64("value", value)
        });
        let histograms = self.histograms.iter().map(|(name, histogram)| {
            JsonRow::new()
                .str("metric", name)
                .str("type", "histogram")
                .u64("count", histogram.count())
                .u64("sum", histogram.sum() as u64)
                .u64("min", histogram.min())
                .u64("max", histogram.max())
                .f64("mean", histogram.mean())
                .f64("p50", histogram.quantile(0.50))
                .f64("p95", histogram.quantile(0.95))
                .f64("p99", histogram.quantile(0.99))
                .u64("p99_upper", histogram.quantile_upper_bound(0.99))
        });
        counters.chain(gauges).chain(histograms).collect()
    }

    /// Renders the snapshot's [`MetricsSnapshot::rows`] as JSON lines.
    pub fn to_jsonl(&self) -> String {
        crate::json::lines(&self.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for index in 0..NUM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(index);
            assert!(lo < hi.max(1), "bucket {index} bounds inverted");
            assert_eq!(Histogram::bucket_index(lo), index);
        }
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [3u64, 0, 17, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 29);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 17);
        assert!((h.mean() - 7.25).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates_within_the_crossing_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // The estimate must share a bucket with the exact quantile: the
        // documented error bound.
        for (q, exact) in [(0.50, 50u64), (0.95, 95), (0.99, 99)] {
            let estimate = h.quantile(q);
            let bucket = Histogram::bucket_index(exact);
            let (lo, hi) = Histogram::bucket_bounds(bucket);
            assert!(
                estimate >= lo as f64 && estimate <= hi as f64,
                "q={q}: estimate {estimate} outside bucket [{lo}, {hi})"
            );
        }
        // Estimates are clamped to the observed range and ordered.
        assert!(h.quantile(0.0) >= 1.0);
        assert!(h.quantile(1.0) <= 100.0);
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn registry_merges_counters_across_threads() {
        let registry = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let registry = registry.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        registry.add_counter("test.threaded", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        registry.add_counter("test.threaded", 1);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["test.threaded"], 4001);
        assert!(registry.shard_count() >= 2);
    }

    #[test]
    fn equal_names_at_different_addresses_merge_by_name() {
        let registry = MetricsRegistry::new();
        let copy: &'static str = Box::leak(String::from("lp.solves").into_boxed_str());
        assert!(!std::ptr::eq(copy, "lp.solves"));
        registry.add_counter("lp.solves", 2);
        registry.add_counter(copy, 3);
        registry.observe("test.samples_per_run", 4);
        registry.observe(
            Box::leak(String::from("test.samples_per_run").into_boxed_str()),
            8,
        );
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters.len(), 1);
        assert_eq!(snapshot.counters["lp.solves"], 5);
        let histogram = &snapshot.histograms["test.samples_per_run"];
        assert_eq!((histogram.count(), histogram.sum()), (2, 12));
    }

    #[test]
    fn a_new_registry_on_a_thread_starts_from_zero() {
        for round in 1..=3u64 {
            let registry = MetricsRegistry::new();
            registry.add_counter("fleet.epochs", round);
            assert_eq!(registry.snapshot().counters["fleet.epochs"], round);
            assert_eq!(registry.shard_count(), 1);
        }
        // The cache keeps only the shards of live registries.
        let live = MetricsRegistry::new();
        live.add_counter("fleet.epochs", 1);
        LOCAL_SHARDS.with(|cache| assert_eq!(cache.borrow().len(), 1));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let registry = MetricsRegistry::new();
        registry.set_gauge("test.gauge", 1.0);
        registry.set_gauge("test.gauge", 0.25);
        assert_eq!(registry.snapshot().gauges["test.gauge"], 0.25);
    }

    #[test]
    fn jsonl_rendering_is_deterministic_and_parsable_shaped() {
        let registry = MetricsRegistry::new();
        registry.add_counter("b.counter", 2);
        registry.add_counter("a.counter", 1);
        registry.set_gauge("g.gauge", 0.5);
        registry.observe("h.hist", 100);
        let jsonl = registry.snapshot().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"metric\":\"a.counter\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
