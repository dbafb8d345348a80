//! Time-varying workload traces.
//!
//! The paper provisions for a single, constant target throughput `ρ`. Real
//! streams fluctuate (diurnal cycles, bursts), which is exactly what the
//! cloud's elasticity is meant to absorb. A [`WorkloadTrace`] describes the
//! demanded throughput as a piecewise-constant function of time; the
//! autoscaling controller in [`crate::autoscale`] consumes it to decide how
//! many machines to keep rented in each epoch.
//!
//! Traces are deliberately piecewise constant: they compose exactly with the
//! integer arithmetic of the cost model and keep every experiment
//! reproducible without a random arrival process.

use crate::event::SimTime;

/// One segment of a piecewise-constant workload trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Duration of the segment, in time units.
    pub duration: SimTime,
    /// Demanded throughput (items per time unit) during the segment.
    pub rate: f64,
}

/// A piecewise-constant workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    segments: Vec<TraceSegment>,
}

impl WorkloadTrace {
    /// Builds a trace from explicit segments. Segments with non-positive
    /// duration are dropped; rates are clamped to be non-negative; adjacent
    /// segments with equal rates are merged into one (so `rate_at` and
    /// `epoch_peaks` walk the minimal segment list — fleet scenario
    /// generators compose traces out of many short pieces).
    pub fn new(segments: Vec<TraceSegment>) -> Self {
        let mut merged: Vec<TraceSegment> = Vec::with_capacity(segments.len());
        for segment in segments {
            if segment.duration <= 0.0 {
                continue;
            }
            let rate = segment.rate.max(0.0);
            match merged.last_mut() {
                Some(last) if last.rate == rate => last.duration += segment.duration,
                _ => merged.push(TraceSegment {
                    duration: segment.duration,
                    rate,
                }),
            }
        }
        WorkloadTrace { segments: merged }
    }

    /// A constant trace at `rate` for `duration` time units — the paper's
    /// steady-state assumption.
    pub fn constant(rate: f64, duration: SimTime) -> Self {
        WorkloadTrace::new(vec![TraceSegment { duration, rate }])
    }

    /// A two-level diurnal trace alternating `low` and `high` rates, starting
    /// low, with each phase lasting `phase` time units, over `cycles` cycles.
    pub fn diurnal(low: f64, high: f64, phase: SimTime, cycles: usize) -> Self {
        let mut segments = Vec::with_capacity(cycles * 2);
        for _ in 0..cycles {
            segments.push(TraceSegment {
                duration: phase,
                rate: low,
            });
            segments.push(TraceSegment {
                duration: phase,
                rate: high,
            });
        }
        WorkloadTrace::new(segments)
    }

    /// A spiky trace: a `base` rate with `num_spikes` randomly placed bursts
    /// at `spike_rate`, each lasting `spike_duration`, over `duration` time
    /// units. Spike start times are drawn uniformly (deterministic per
    /// `seed`); overlapping spikes simply merge. The fleet scenario
    /// generators use it so multi-tenant workloads are not all
    /// phase-aligned.
    pub fn spike(
        base: f64,
        spike_rate: f64,
        duration: SimTime,
        num_spikes: usize,
        spike_duration: SimTime,
        seed: u64,
    ) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        if duration <= 0.0 {
            return WorkloadTrace::new(vec![]);
        }
        let spike_duration = spike_duration.clamp(0.0, duration);
        let mut rng = StdRng::seed_from_u64(seed);
        let latest_start = (duration - spike_duration).max(0.0);
        let mut starts: Vec<SimTime> = (0..num_spikes)
            .map(|_| {
                if latest_start <= 0.0 {
                    0.0
                } else {
                    rng.random_range(0.0..latest_start)
                }
            })
            .collect();
        starts.sort_by(|a, b| a.partial_cmp(b).expect("finite spike starts"));

        let mut segments = Vec::with_capacity(2 * num_spikes + 1);
        let mut cursor = 0.0;
        for start in starts {
            let end = (start + spike_duration).min(duration);
            if end <= cursor {
                continue; // fully inside the previous spike
            }
            let start = start.max(cursor);
            segments.push(TraceSegment {
                duration: start - cursor,
                rate: base,
            });
            segments.push(TraceSegment {
                duration: end - start,
                rate: spike_rate,
            });
            cursor = end;
        }
        segments.push(TraceSegment {
            duration: duration - cursor,
            rate: base,
        });
        WorkloadTrace::new(segments)
    }

    /// A ramp from `start_rate` to `end_rate` in `steps` equal-duration steps
    /// spread over `duration` time units.
    pub fn ramp(start_rate: f64, end_rate: f64, duration: SimTime, steps: usize) -> Self {
        let steps = steps.max(1);
        let step_duration = duration / steps as f64;
        let segments = (0..steps)
            .map(|k| {
                let fraction = if steps == 1 {
                    0.0
                } else {
                    k as f64 / (steps - 1) as f64
                };
                TraceSegment {
                    duration: step_duration,
                    rate: start_rate + fraction * (end_rate - start_rate),
                }
            })
            .collect();
        WorkloadTrace::new(segments)
    }

    /// Total duration of the trace.
    pub fn duration(&self) -> SimTime {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Demanded rate at absolute time `t` (0 outside the trace).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        let mut elapsed = 0.0;
        for segment in &self.segments {
            if t < elapsed + segment.duration {
                return segment.rate;
            }
            elapsed += segment.duration;
        }
        0.0
    }

    /// Time-weighted mean rate over the whole trace.
    pub fn mean_rate(&self) -> f64 {
        let duration = self.duration();
        if duration <= 0.0 {
            return 0.0;
        }
        self.segments
            .iter()
            .map(|s| s.rate * s.duration)
            .sum::<f64>()
            / duration
    }

    /// Peak rate over the whole trace.
    pub fn peak_rate(&self) -> f64 {
        self.segments.iter().map(|s| s.rate).fold(0.0, f64::max)
    }

    /// Total work (item count) demanded over the trace.
    pub fn total_items(&self) -> f64 {
        self.segments.iter().map(|s| s.rate * s.duration).sum()
    }

    /// Splits the trace into epochs of (at most) `epoch` time units and
    /// returns, for each epoch, the maximum demanded rate inside it. This is
    /// what a conservative autoscaler provisions against.
    pub fn epoch_peaks(&self, epoch: SimTime) -> Vec<f64> {
        let mut peaks = vec![0.0; self.epoch_count(epoch)];
        self.fill_epoch_peaks(epoch, &mut peaks);
        peaks
    }

    /// Number of epochs of (at most) `epoch` time units the trace spans:
    /// the length of [`WorkloadTrace::epoch_peaks`].
    pub fn epoch_count(&self, epoch: SimTime) -> usize {
        assert!(epoch > 0.0, "epoch length must be positive");
        let duration = self.duration();
        if duration <= 0.0 {
            return 0;
        }
        (duration / epoch).ceil() as usize
    }

    /// [`WorkloadTrace::epoch_peaks`], written into `peaks` — zeros, one per
    /// epoch ([`WorkloadTrace::epoch_count`] of them) — so the peaks of
    /// many traces can share one buffer.
    pub fn fill_epoch_peaks(&self, epoch: SimTime, peaks: &mut [f64]) {
        let num_epochs = peaks.len();
        let mut elapsed = 0.0;
        for segment in &self.segments {
            let start = elapsed;
            let end = elapsed + segment.duration;
            let first = (start / epoch).floor() as usize;
            let last = ((end / epoch).ceil() as usize).min(num_epochs);
            for peak in peaks.iter_mut().take(last).skip(first) {
                *peak = peak.max(segment.rate);
            }
            elapsed = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_has_flat_rate() {
        let trace = WorkloadTrace::constant(70.0, 24.0);
        assert_eq!(trace.duration(), 24.0);
        assert_eq!(trace.rate_at(0.0), 70.0);
        assert_eq!(trace.rate_at(23.9), 70.0);
        assert_eq!(trace.rate_at(24.1), 0.0);
        assert_eq!(trace.mean_rate(), 70.0);
        assert_eq!(trace.peak_rate(), 70.0);
    }

    #[test]
    fn diurnal_trace_alternates_low_and_high() {
        let trace = WorkloadTrace::diurnal(20.0, 80.0, 12.0, 2);
        assert_eq!(trace.duration(), 48.0);
        assert_eq!(trace.rate_at(1.0), 20.0);
        assert_eq!(trace.rate_at(13.0), 80.0);
        assert_eq!(trace.rate_at(25.0), 20.0);
        assert_eq!(trace.rate_at(37.0), 80.0);
        assert_eq!(trace.mean_rate(), 50.0);
        assert_eq!(trace.peak_rate(), 80.0);
    }

    #[test]
    fn ramp_interpolates_between_endpoints() {
        let trace = WorkloadTrace::ramp(10.0, 50.0, 40.0, 5);
        assert_eq!(trace.segments.len(), 5);
        assert_eq!(trace.rate_at(0.0), 10.0);
        assert_eq!(trace.rate_at(39.9), 50.0);
        assert!(trace.rate_at(20.0) > 10.0 && trace.rate_at(20.0) < 50.0);
        assert_eq!(trace.peak_rate(), 50.0);
    }

    #[test]
    fn negative_rates_and_durations_are_sanitised() {
        let trace = WorkloadTrace::new(vec![
            TraceSegment {
                duration: -5.0,
                rate: 10.0,
            },
            TraceSegment {
                duration: 5.0,
                rate: -3.0,
            },
        ]);
        assert_eq!(trace.segments.len(), 1);
        assert_eq!(trace.rate_at(1.0), 0.0);
        assert_eq!(trace.total_items(), 0.0);
    }

    #[test]
    fn adjacent_equal_rate_segments_are_merged() {
        let trace = WorkloadTrace::new(vec![
            TraceSegment {
                duration: 2.0,
                rate: 10.0,
            },
            TraceSegment {
                duration: 3.0,
                rate: 10.0,
            },
            TraceSegment {
                duration: 1.0,
                rate: 20.0,
            },
            TraceSegment {
                duration: -1.0,
                rate: 30.0,
            },
            TraceSegment {
                duration: 4.0,
                rate: 20.0,
            },
        ]);
        // 10-rate pair merges; the dropped segment joins the 20-rate pair.
        assert_eq!(trace.segments.len(), 2);
        assert_eq!(trace.duration(), 10.0);
        assert_eq!(trace.rate_at(4.9), 10.0);
        assert_eq!(trace.rate_at(5.1), 20.0);
    }

    #[test]
    fn spike_traces_are_deterministic_and_bounded() {
        let a = WorkloadTrace::spike(10.0, 90.0, 100.0, 5, 2.0, 7);
        let b = WorkloadTrace::spike(10.0, 90.0, 100.0, 5, 2.0, 7);
        assert_eq!(a, b);
        let c = WorkloadTrace::spike(10.0, 90.0, 100.0, 5, 2.0, 8);
        assert_ne!(a, c);
        assert!((a.duration() - 100.0).abs() < 1e-9);
        assert_eq!(a.peak_rate(), 90.0);
        // Spikes cover at most num_spikes x spike_duration of the trace.
        let spike_time: f64 = a
            .segments
            .iter()
            .filter(|s| s.rate == 90.0)
            .map(|s| s.duration)
            .sum();
        assert!(spike_time <= 10.0 + 1e-9);
        assert!(spike_time > 0.0);
        // Most of the trace stays at the base rate.
        assert!(a.mean_rate() < 30.0);
    }

    #[test]
    fn spike_with_zero_duration_or_no_spikes_is_flat() {
        assert!(WorkloadTrace::spike(10.0, 90.0, 0.0, 3, 1.0, 1)
            .segments
            .is_empty());
        let flat = WorkloadTrace::spike(10.0, 90.0, 50.0, 0, 1.0, 1);
        assert_eq!(flat.segments.len(), 1);
        assert_eq!(flat.peak_rate(), 10.0);
    }

    #[test]
    fn total_items_integrates_rate_over_time() {
        let trace = WorkloadTrace::diurnal(20.0, 80.0, 12.0, 1);
        assert!((trace.total_items() - (20.0 * 12.0 + 80.0 * 12.0)).abs() < 1e-9);
    }

    #[test]
    fn epoch_peaks_cover_the_whole_trace() {
        let trace = WorkloadTrace::diurnal(20.0, 80.0, 12.0, 2);
        let peaks = trace.epoch_peaks(12.0);
        assert_eq!(peaks, vec![20.0, 80.0, 20.0, 80.0]);
        // Misaligned epochs see the maximum of the overlapping segments.
        let peaks = trace.epoch_peaks(8.0);
        assert_eq!(peaks.len(), 6);
        assert!(peaks.iter().all(|&p| (20.0..=80.0).contains(&p)));
        assert!(peaks.contains(&80.0));
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_length_panics() {
        WorkloadTrace::constant(10.0, 10.0).epoch_peaks(0.0);
    }

    #[test]
    fn rate_before_time_zero_is_zero() {
        let trace = WorkloadTrace::constant(10.0, 10.0);
        assert_eq!(trace.rate_at(-1.0), 0.0);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let trace = WorkloadTrace::new(vec![]);
        assert_eq!(trace.duration(), 0.0);
        assert_eq!(trace.mean_rate(), 0.0);
        assert_eq!(trace.peak_rate(), 0.0);
        assert!(trace.epoch_peaks(1.0).is_empty());
    }
}
