//! Lexically-scoped span timing and the per-epoch stage breakdown.
//!
//! The fleet controller's epoch loop decomposes into five stages — probe,
//! arbitrate, solve, adopt, persist. [`SpanTimer`] times one phase of an
//! epoch — the bill pass, a shard of the probe fan-out, a re-solve batch —
//! and adds it to the epoch's [`StageTimes`] row, the one place wall-clock
//! seconds live (`FleetReport::epoch_timing`, the single "timing" field
//! family masked by report equivalence checks). The controller emits the
//! `fleet.span.*` samples from that row, once per epoch, at its barrier.

use std::time::Instant;

/// A stage of the fleet controller's epoch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Demand re-reads, shift detection and what-if probes.
    Probe,
    /// Capacity arbitration and failure accounting on the shared pool.
    Arbitrate,
    /// Batched (re-)solves, including degraded fallbacks.
    Solve,
    /// Keep-vs-switch decisions and plan adoption.
    Adopt,
    /// Journal/snapshot writes of the durable run path.
    Persist,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// Every stage, in epoch execution order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Probe,
        Stage::Arbitrate,
        Stage::Solve,
        Stage::Adopt,
        Stage::Persist,
    ];

    /// Stable lowercase name (used in report rows and JSONL keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Probe => "probe",
            Stage::Arbitrate => "arbitrate",
            Stage::Solve => "solve",
            Stage::Adopt => "adopt",
            Stage::Persist => "persist",
        }
    }

    /// The span name this stage emits under (see `METRICS.md`).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Probe => "fleet.span.probe",
            Stage::Arbitrate => "fleet.span.arbitrate",
            Stage::Solve => "fleet.span.solve",
            Stage::Adopt => "fleet.span.adopt",
            Stage::Persist => "fleet.span.persist",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Probe => 0,
            Stage::Arbitrate => 1,
            Stage::Solve => 2,
            Stage::Adopt => 3,
            Stage::Persist => 4,
        }
    }
}

/// Seconds spent per [`Stage`] — the workspace's one timing field family.
/// Wall-clock noise lives here and nowhere else, so report equivalence
/// checks (`FleetReport::matches_modulo_timing`) mask exactly this type.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimes {
    seconds: [f64; Stage::COUNT],
}

impl StageTimes {
    /// All-zero stage times.
    pub fn zero() -> Self {
        StageTimes::default()
    }

    /// Adds `seconds` to `stage`.
    pub fn add(&mut self, stage: Stage, seconds: f64) {
        self.seconds[stage.index()] += seconds;
    }

    /// Seconds attributed to `stage`.
    pub fn get(&self, stage: Stage) -> f64 {
        self.seconds[stage.index()]
    }

    /// Total across all stages.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Adds every stage of `other` into `self`.
    pub fn merge(&mut self, other: &StageTimes) {
        for (mine, theirs) in self.seconds.iter_mut().zip(&other.seconds) {
            *mine += theirs;
        }
    }

    /// Whether every stage is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.seconds.iter().all(|&s| s == 0.0)
    }
}

/// Times one phase of an epoch and attributes it to a [`Stage`].
#[derive(Debug)]
pub struct SpanTimer {
    stage: Stage,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing `stage` now.
    pub fn start(stage: Stage) -> Self {
        SpanTimer {
            stage,
            start: Instant::now(),
        }
    }

    /// Stops the span, returning elapsed seconds.
    pub fn stop(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops the span, adding its seconds to its stage of `times`. Returns
    /// elapsed seconds.
    pub fn stop_into(self, times: &mut StageTimes) -> f64 {
        let stage = self.stage;
        let seconds = self.stop();
        times.add(stage, seconds);
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_times_accumulate_and_merge() {
        let mut a = StageTimes::zero();
        a.add(Stage::Probe, 1.0);
        a.add(Stage::Solve, 2.0);
        let mut b = StageTimes::zero();
        b.add(Stage::Solve, 0.5);
        b.add(Stage::Persist, 0.25);
        a.merge(&b);
        assert_eq!(a.get(Stage::Probe), 1.0);
        assert_eq!(a.get(Stage::Solve), 2.5);
        assert_eq!(a.get(Stage::Persist), 0.25);
        assert_eq!(a.total(), 3.75);
        assert!(!a.is_zero());
        assert!(StageTimes::zero().is_zero());
    }

    #[test]
    fn span_timer_attributes_elapsed_time_to_its_stage() {
        let mut times = StageTimes::zero();
        let span = SpanTimer::start(Stage::Adopt);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let elapsed = span.stop_into(&mut times);
        assert!(elapsed > 0.0);
        assert_eq!(times.get(Stage::Adopt), elapsed);
        assert_eq!(times.total(), elapsed);
    }

    #[test]
    fn shard_merges_are_shard_count_independent() {
        // Rows merge into run totals (`FleetReport::stage_seconds`): any
        // partition of the same charges merges to the same row.
        let charges: Vec<(Stage, f64)> = (0..12)
            .map(|i| (Stage::ALL[i % Stage::COUNT], 0.125 * (i as f64 + 1.0)))
            .collect();
        let mut sequential = StageTimes::zero();
        for &(stage, seconds) in &charges {
            sequential.add(stage, seconds);
        }
        for shards in [1, 2, 3, 5] {
            let mut merged = StageTimes::zero();
            for chunk in charges.chunks(charges.len().div_ceil(shards)) {
                let mut local = StageTimes::zero();
                for &(stage, seconds) in chunk {
                    local.add(stage, seconds);
                }
                merged.merge(&local);
            }
            assert_eq!(merged, sequential);
        }
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["probe", "arbitrate", "solve", "adopt", "persist"]);
        for stage in Stage::ALL {
            assert!(stage.span_name().starts_with("fleet.span."));
            assert!(stage.span_name().ends_with(stage.name()));
        }
    }
}
