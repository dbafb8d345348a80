//! Machine failure injection.
//!
//! The paper assumes perfectly reliable instances; related work on streaming
//! applications (Benoit et al., cited in §II) shows that failures matter on
//! long-running platforms. This module generates reproducible outage traces
//! — each rented machine alternates exponentially-distributed up-times with a
//! fixed repair time — so that the autoscaling controller and the validation
//! experiments can measure how much head-room an allocation needs to survive
//! realistic failure rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rental_core::TypeId;

use crate::event::SimTime;

/// Failure characteristics of the rented machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures of one machine, in time units.
    /// `f64::INFINITY` disables failures.
    pub mtbf: f64,
    /// Time to bring a failed machine back, in time units.
    pub repair_time: f64,
    /// Seed of the outage sampling.
    pub seed: u64,
}

impl FailureModel {
    /// No failures at all (the paper's implicit assumption).
    pub fn none() -> Self {
        FailureModel {
            mtbf: f64::INFINITY,
            repair_time: 0.0,
            seed: 0,
        }
    }

    /// Failures with the given mean time between failures and repair time.
    pub fn new(mtbf: f64, repair_time: f64, seed: u64) -> Self {
        FailureModel {
            mtbf: mtbf.max(f64::MIN_POSITIVE),
            repair_time: repair_time.max(0.0),
            seed,
        }
    }

    /// True when the model never produces outages.
    pub fn is_disabled(&self) -> bool {
        !self.mtbf.is_finite()
    }

    /// Steady-state availability of one machine under this model
    /// (`mtbf / (mtbf + repair_time)`).
    pub fn availability(&self) -> f64 {
        if self.is_disabled() {
            1.0
        } else {
            self.mtbf / (self.mtbf + self.repair_time)
        }
    }

    /// Samples the outages of `machine_counts[q]` machines of every type over
    /// `horizon` time units. The result is deterministic for a fixed seed,
    /// and — because every `(type, machine)` slot draws from its own derived
    /// sub-seed — each machine's outages are **stable under fleet scaling**:
    /// adding machines (of any type) never reshuffles the outages of the
    /// machines that were already there. Controllers that rent a growing or
    /// shrinking prefix of a slot pool therefore see consistent histories.
    pub fn generate(&self, machine_counts: &[u64], horizon: SimTime) -> FailureTrace {
        let mut outages = Vec::new();
        if !self.is_disabled() && horizon > 0.0 {
            for (q, &count) in machine_counts.iter().enumerate() {
                for machine in 0..count {
                    let mut rng = StdRng::seed_from_u64(machine_sub_seed(self.seed, q, machine));
                    let mut t = 0.0;
                    loop {
                        // Exponential up-time with mean `mtbf`, sampled by
                        // inverse transform so only `random::<f64>` is needed.
                        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                        let uptime = -self.mtbf * u.ln();
                        t += uptime;
                        if t >= horizon {
                            break;
                        }
                        let end = (t + self.repair_time).min(horizon);
                        outages.push(Outage {
                            type_id: TypeId(q),
                            machine,
                            start: t,
                            end,
                        });
                        t = end;
                        if t >= horizon {
                            break;
                        }
                    }
                }
            }
        }
        FailureTrace::new(outages, horizon)
    }
}

/// Derives the RNG sub-seed of one `(type, machine)` slot from the model
/// seed: two rounds of 64-bit avalanche mixing (the SplitMix64 finalizer) so
/// neighbouring slots land on unrelated streams. Keyed sequentially — type
/// first, then machine — so no `(type, machine)` pair aliases another.
fn machine_sub_seed(seed: u64, q: usize, machine: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(seed ^ (q as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ machine)
}

/// One outage of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Machine type of the failed instance.
    pub type_id: TypeId,
    /// Index of the machine within its type's pool.
    pub machine: u64,
    /// Time the machine goes down.
    pub start: SimTime,
    /// Time the machine is back up.
    pub end: SimTime,
}

impl Outage {
    /// Duration of the outage.
    fn duration(&self) -> SimTime {
        (self.end - self.start).max(0.0)
    }
}

/// All outages over a horizon, sorted by start time, indexed by type.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureTrace {
    outages: Vec<Outage>,
    horizon: SimTime,
    /// Entry `q`: the index of type `q`'s outages.
    by_type: Vec<TypeIndex>,
}

/// One type's outages: their positions in the trace, in start order, and
/// the running maximum of their ends — the exact form of the longest-outage
/// bound: no outage before the first whose running end passes `t` can still
/// be down at `t`, so a query at `t` scans only the outages that started in
/// the last longest-outage span before it.
#[derive(Debug, Clone, Default, PartialEq)]
struct TypeIndex {
    at: Vec<u32>,
    reach: Vec<SimTime>,
}

/// Bounds of one type's query window in its [`TypeIndex`]: the window is
/// `at[first..last]`.
type Bounds = (usize, usize);

/// `items.partition_point(pred)` for a predicate that holds on a prefix of
/// `items`, searched from `hint`: by bisection below `hint` when the prefix
/// ends before it, else by galloping forward from it, so the search costs
/// O(1) when the prefix grew by little since the hint was taken and
/// O(log n) from any hint.
fn seek<T>(items: &[T], hint: usize, pred: impl Fn(&T) -> bool) -> usize {
    let hint = hint.min(items.len());
    if hint > 0 && !pred(&items[hint - 1]) {
        return items[..hint].partition_point(pred);
    }
    let (mut lo, mut step) = (hint, 1);
    while lo < items.len() {
        let hi = (lo + step).min(items.len());
        if !pred(&items[hi - 1]) {
            return lo + items[lo..hi - 1].partition_point(pred);
        }
        lo = hi;
        step *= 2;
    }
    lo
}

/// A reader of one [`FailureTrace`] that walks forward with the clock.
///
/// It answers the trace's own outage queries exactly, but each type's window
/// is found from where that type's previous query left it: queries whose
/// times never go back — a controller's epoch clock asking at a window's
/// start, over the window, then at its end — cost O(1) per window bound
/// instead of two binary searches. A query earlier than the cursor re-seeks
/// by bisection, so any sequence of queries is answered exactly. A new
/// cursor (`OutageCursor::default()`) is at the start of any trace. The
/// cursor also keeps the event list of its peak sweeps, so a walk through
/// the trace allocates only while that list grows to its largest window
/// and its bounds to the types it is asked about.
#[derive(Debug, Clone, Default)]
pub struct OutageCursor {
    /// Per type: the bounds of its previous query's window (a type not yet
    /// asked about is at the start).
    bounds: Vec<Bounds>,
    events: Vec<(SimTime, bool)>,
}

impl OutageCursor {
    /// [`FailureTrace::machines_down_among`] of `trace`, read at the
    /// cursor.
    pub fn machines_down_among(
        &mut self,
        trace: &FailureTrace,
        type_id: TypeId,
        first_n: u64,
        t: SimTime,
    ) -> u64 {
        // No slot held, nothing down: the cursor stays where it is.
        if first_n == 0 {
            return 0;
        }
        let window = self.window(trace, type_id, t, t);
        trace.down_among(window, first_n, t)
    }

    /// [`FailureTrace::peak_down_among`] of `trace`, read at the cursor.
    pub fn peak_down_among(
        &mut self,
        trace: &FailureTrace,
        type_id: TypeId,
        first_n: u64,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        if first_n == 0 {
            return 0;
        }
        let window = self.window(trace, type_id, start, end);
        trace.sweep_peak(window, first_n, start, end, &mut self.events)
    }

    fn window<'t>(
        &mut self,
        trace: &'t FailureTrace,
        type_id: TypeId,
        start: SimTime,
        end: SimTime,
    ) -> &'t [u32] {
        if self.bounds.len() <= type_id.0 {
            self.bounds.resize(type_id.0 + 1, (0, 0));
        }
        let bounds = &mut self.bounds[type_id.0];
        let (window, found) = trace.window_from(type_id, start, end, *bounds);
        *bounds = found;
        window
    }
}

impl FailureTrace {
    /// A trace of `outages` over `horizon`. The outages are sorted by start
    /// time (stably, so equal starts keep their order) and indexed by type.
    ///
    /// # Panics
    ///
    /// Panics when the trace holds `2^32` outages or more.
    pub fn new(mut outages: Vec<Outage>, horizon: SimTime) -> Self {
        outages.sort_by(|a, b| {
            a.start
                .partial_cmp(&b.start)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Each type's index is allocated at its exact size.
        let mut counts: Vec<usize> = Vec::new();
        for outage in &outages {
            let q = outage.type_id.0;
            if counts.len() <= q {
                counts.resize(q + 1, 0);
            }
            counts[q] += 1;
        }
        let mut by_type: Vec<TypeIndex> = (counts.into_iter())
            .map(|count| TypeIndex {
                at: Vec::with_capacity(count),
                reach: Vec::with_capacity(count),
            })
            .collect();
        for (position, outage) in outages.iter().enumerate() {
            let index = &mut by_type[outage.type_id.0];
            let reach = (index.reach.last()).map_or(outage.end, |&r| r.max(outage.end));
            let position = u32::try_from(position).expect("a trace holds fewer than 2^32 outages");
            index.at.push(position);
            index.reach.push(reach);
        }
        FailureTrace {
            outages,
            horizon,
            by_type,
        }
    }

    /// Positions of type `q`'s outages that may be down at `start` or start
    /// inside `[start, end)`: every outage of the type before them ended by
    /// `start`, every one after them starts past both.
    fn window(&self, type_id: TypeId, start: SimTime, end: SimTime) -> &[u32] {
        self.window_from(type_id, start, end, (0, 0)).0
    }

    /// [`Self::window`], searched from the bounds of an earlier window of
    /// the type; returns the window and its bounds.
    fn window_from(
        &self,
        type_id: TypeId,
        start: SimTime,
        end: SimTime,
        (first, last): Bounds,
    ) -> (&[u32], Bounds) {
        let Some(index) = self.by_type.get(type_id.0) else {
            return (&[], (first, last));
        };
        let first = seek(&index.reach, first, |&reach| reach <= start);
        let last = seek(&index.at, last, |&i| {
            let outage = &self.outages[i as usize];
            outage.start <= start || outage.start < end
        });
        (index.at.get(first..last).unwrap_or(&[]), (first, last))
    }

    /// A trace with no outages over the given horizon.
    pub fn empty(horizon: SimTime) -> Self {
        FailureTrace::new(Vec::new(), horizon)
    }

    /// The outages, sorted by start time.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Number of machines of type `q` that are down at time `t`.
    pub fn machines_down(&self, type_id: TypeId, t: SimTime) -> u64 {
        self.machines_down_among(type_id, u64::MAX, t)
    }

    /// Number of machines of type `q` **among the first `first_n` slots**
    /// that are down at time `t`. Controllers that rent a prefix of the slot
    /// pool (machines `0..rented`) use this to see only the outages of the
    /// machines they actually hold.
    pub fn machines_down_among(&self, type_id: TypeId, first_n: u64, t: SimTime) -> u64 {
        self.down_among(self.window(type_id, t, t), first_n, t)
    }

    /// The count of [`Self::machines_down_among`] over the outages at
    /// `window`.
    fn down_among(&self, window: &[u32], first_n: u64, t: SimTime) -> u64 {
        (window.iter())
            .map(|&i| &self.outages[i as usize])
            .filter(|o| o.machine < first_n && o.start <= t && t < o.end)
            .count() as u64
    }

    /// Maximum number of machines of type `q` that are simultaneously down
    /// inside the window `[start, end)`.
    pub fn peak_down_in_window(&self, type_id: TypeId, start: SimTime, end: SimTime) -> u64 {
        self.peak_down_among(type_id, u64::MAX, start, end)
    }

    /// [`Self::peak_down_in_window`] restricted to the first `first_n` slots
    /// of the type's pool (the machines a prefix-renting controller holds).
    pub fn peak_down_among(
        &self,
        type_id: TypeId,
        first_n: u64,
        start: SimTime,
        end: SimTime,
    ) -> u64 {
        let window = self.window(type_id, start, end);
        self.sweep_peak(window, first_n, start, end, &mut Vec::new())
    }

    /// The peak of [`Self::peak_down_among`] over the outages at `window`.
    /// The count only rises at an outage start, so the peak is the count at
    /// the window start or just after a start inside the window: one sweep
    /// over the window's events, `(time, is a start)`, kept in the caller's
    /// `events`, finds it.
    fn sweep_peak(
        &self,
        window: &[u32],
        first_n: u64,
        start: SimTime,
        end: SimTime,
        events: &mut Vec<(SimTime, bool)>,
    ) -> u64 {
        let mut down = 0u64;
        events.clear();
        for &i in window {
            let outage = &self.outages[i as usize];
            // Another slot, or never down inside the window.
            if outage.machine >= first_n || outage.end <= outage.start.max(start) {
                continue;
            }
            if outage.start <= start {
                down += 1;
            } else {
                events.push((outage.start, true));
            }
            if outage.end < end {
                events.push((outage.end, false));
            }
        }
        // Intervals are half-open: at equal times ends apply before starts.
        events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut peak = down;
        for &(_, starts) in events.iter() {
            if starts {
                down += 1;
                peak = peak.max(down);
            } else {
                down -= 1;
            }
        }
        peak
    }

    /// Fraction of machine-hours lost to outages for a pool of
    /// `machine_count` machines of type `q`.
    pub fn unavailability(&self, type_id: TypeId, machine_count: u64) -> f64 {
        if machine_count == 0 || self.horizon <= 0.0 {
            return 0.0;
        }
        let lost: f64 = (self.by_type.get(type_id.0).iter())
            .flat_map(|index| &index.at)
            .map(|&i| self.outages[i as usize].duration())
            .sum();
        lost / (machine_count as f64 * self.horizon)
    }

    /// Total number of outages across all types.
    pub fn num_outages(&self) -> usize {
        self.outages.len()
    }

    /// A deterministic 64-bit fingerprint of the whole trace (horizon plus
    /// every outage's type, slot and interval, bit-exact). Snapshots store
    /// it so a resume can verify that the regenerated outage trace is
    /// identical to the one the crashed run was serving — a mismatch means
    /// the failure configuration changed and the checkpoint must not be
    /// trusted for bit-identical replay.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the canonical little-endian encoding; no dependency
        // on the layout of `Outage` itself.
        const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        mix(self.horizon.to_bits());
        mix(self.outages.len() as u64);
        for outage in &self.outages {
            mix(outage.type_id.0 as u64);
            mix(outage.machine);
            mix(outage.start.to_bits());
            mix(outage.end.to_bits());
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_pin_regenerated_traces_and_expose_divergence() {
        let model = FailureModel::new(50.0, 5.0, 17);
        let trace = model.generate(&[4, 2], 500.0);
        // Regeneration from the same model is bit-identical.
        assert_eq!(
            trace.fingerprint(),
            model.generate(&[4, 2], 500.0).fingerprint()
        );
        // A different seed, slot pool or horizon diverges.
        assert_ne!(
            trace.fingerprint(),
            FailureModel::new(50.0, 5.0, 18)
                .generate(&[4, 2], 500.0)
                .fingerprint()
        );
        assert_ne!(
            trace.fingerprint(),
            model.generate(&[5, 2], 500.0).fingerprint()
        );
        assert_ne!(
            trace.fingerprint(),
            model.generate(&[4, 2], 400.0).fingerprint()
        );
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Snapshots store these values: indexing the trace must not move
        // them.
        let small = FailureModel::new(50.0, 5.0, 17).generate(&[4, 2], 500.0);
        assert_eq!(small.fingerprint(), 0x0b77_a0de_86b0_c38b);
        let large = FailureModel::new(96.0, 4.0, 0xF00D).generate(&[7, 3, 5, 2], 2304.0);
        assert_eq!(large.fingerprint(), 0xd0c9_96d2_db3f_58bf);
    }

    #[test]
    fn disabled_model_produces_no_outages() {
        let trace = FailureModel::none().generate(&[5, 3], 1000.0);
        assert_eq!(trace.num_outages(), 0);
        assert_eq!(trace.machines_down(TypeId(0), 500.0), 0);
        assert_eq!(trace.unavailability(TypeId(0), 5), 0.0);
        assert_eq!(FailureModel::none().availability(), 1.0);
    }

    #[test]
    fn outage_generation_is_deterministic_for_a_seed() {
        let model = FailureModel::new(50.0, 2.0, 42);
        let a = model.generate(&[4, 4], 500.0);
        let b = model.generate(&[4, 4], 500.0);
        assert_eq!(a, b);
        let c = FailureModel::new(50.0, 2.0, 43).generate(&[4, 4], 500.0);
        assert_ne!(a, c);
    }

    #[test]
    fn outages_stay_inside_the_horizon_and_have_positive_duration() {
        let model = FailureModel::new(20.0, 1.5, 7);
        let trace = model.generate(&[3, 2, 1], 200.0);
        assert!(trace.num_outages() > 0);
        for outage in trace.outages() {
            assert!(outage.start >= 0.0);
            assert!(outage.end <= 200.0 + 1e-9);
            assert!(outage.duration() >= 0.0);
            assert!(outage.duration() <= 1.5 + 1e-9);
        }
    }

    #[test]
    fn empirical_unavailability_tracks_the_analytical_availability() {
        // MTBF 50, repair 5 → availability ≈ 0.909; over a long horizon the
        // sampled unavailability should be in the right ballpark.
        let model = FailureModel::new(50.0, 5.0, 11);
        let trace = model.generate(&[10], 5000.0);
        let unavailability = trace.unavailability(TypeId(0), 10);
        let expected = 1.0 - model.availability();
        assert!(
            (unavailability - expected).abs() < 0.03,
            "sampled {unavailability}, expected {expected}"
        );
    }

    #[test]
    fn machines_down_counts_overlapping_outages() {
        let trace = FailureTrace::new(
            vec![
                Outage {
                    type_id: TypeId(0),
                    machine: 0,
                    start: 10.0,
                    end: 20.0,
                },
                Outage {
                    type_id: TypeId(0),
                    machine: 1,
                    start: 15.0,
                    end: 25.0,
                },
                Outage {
                    type_id: TypeId(1),
                    machine: 0,
                    start: 12.0,
                    end: 14.0,
                },
            ],
            100.0,
        );
        assert_eq!(trace.machines_down(TypeId(0), 5.0), 0);
        assert_eq!(trace.machines_down(TypeId(0), 16.0), 2);
        assert_eq!(trace.machines_down(TypeId(0), 22.0), 1);
        assert_eq!(trace.machines_down(TypeId(1), 13.0), 1);
        assert_eq!(trace.peak_down_in_window(TypeId(0), 0.0, 100.0), 2);
        assert_eq!(trace.peak_down_in_window(TypeId(0), 21.0, 100.0), 1);
        assert_eq!(trace.peak_down_in_window(TypeId(1), 20.0, 100.0), 0);
    }

    /// The outages of one `(type, machine)` slot, sorted by start time.
    fn slot_outages(trace: &FailureTrace, q: usize, machine: u64) -> Vec<Outage> {
        trace
            .outages()
            .iter()
            .copied()
            .filter(|o| o.type_id == TypeId(q) && o.machine == machine)
            .collect()
    }

    #[test]
    fn traces_are_stable_under_fleet_scaling() {
        // Growing any type's pool (or appending new types) must not reshuffle
        // the outages of the machines that were already there: each slot draws
        // from its own derived sub-seed.
        let model = FailureModel::new(40.0, 2.0, 77);
        let small = model.generate(&[2, 3], 400.0);
        let grown = model.generate(&[5, 3], 400.0);
        let extended = model.generate(&[2, 3, 4], 400.0);
        for q in 0..2 {
            for machine in 0..if q == 0 { 2 } else { 3 } {
                let base = slot_outages(&small, q, machine);
                assert_eq!(base, slot_outages(&grown, q, machine), "q={q} m={machine}");
                assert_eq!(
                    base,
                    slot_outages(&extended, q, machine),
                    "q={q} m={machine}"
                );
            }
        }
        // The grown pool really has outages on the new machines too.
        assert!((2..5).any(|m| !slot_outages(&grown, 0, m).is_empty()));
    }

    #[test]
    fn distinct_slots_draw_distinct_streams() {
        let model = FailureModel::new(30.0, 1.0, 5);
        let trace = model.generate(&[2, 2], 2000.0);
        let a = slot_outages(&trace, 0, 0);
        let b = slot_outages(&trace, 0, 1);
        let c = slot_outages(&trace, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn prefix_restricted_counts_see_only_held_slots() {
        let trace = FailureTrace::new(
            vec![
                Outage {
                    type_id: TypeId(0),
                    machine: 0,
                    start: 10.0,
                    end: 20.0,
                },
                Outage {
                    type_id: TypeId(0),
                    machine: 4,
                    start: 12.0,
                    end: 22.0,
                },
            ],
            50.0,
        );
        assert_eq!(trace.machines_down(TypeId(0), 15.0), 2);
        assert_eq!(trace.machines_down_among(TypeId(0), 3, 15.0), 1);
        assert_eq!(trace.machines_down_among(TypeId(0), 5, 15.0), 2);
        assert_eq!(trace.peak_down_among(TypeId(0), 1, 0.0, 50.0), 1);
        assert_eq!(trace.peak_down_among(TypeId(0), 5, 0.0, 50.0), 2);
        assert_eq!(trace.peak_down_among(TypeId(0), 0, 0.0, 50.0), 0);
    }

    #[test]
    fn more_fragile_machines_fail_more_often() {
        let fragile = FailureModel::new(10.0, 1.0, 3).generate(&[5], 1000.0);
        let sturdy = FailureModel::new(200.0, 1.0, 3).generate(&[5], 1000.0);
        assert!(fragile.num_outages() > sturdy.num_outages());
    }

    #[test]
    fn availability_formula() {
        let model = FailureModel::new(90.0, 10.0, 0);
        assert!((model.availability() - 0.9).abs() < 1e-12);
        assert!(!model.is_disabled());
        assert!(FailureModel::none().is_disabled());
    }

    #[test]
    fn empty_trace_constructor() {
        let trace = FailureTrace::empty(50.0);
        assert_eq!(trace.horizon, 50.0);
        assert_eq!(trace.num_outages(), 0);
        assert_eq!(trace.peak_down_in_window(TypeId(0), 0.0, 50.0), 0);
    }
}
