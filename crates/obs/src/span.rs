//! Lexically-scoped timing of the fleet epoch's stages.
//!
//! The fleet controller's epoch loop decomposes into five stages — probe,
//! arbitrate, solve, adopt, persist. [`SpanTimer`] times one phase of an
//! epoch — the bill pass, a re-solve batch, a forced adoption, the durable
//! commit — and adds its seconds into its stage's span of the epoch's
//! [`TraceTree`], the one record of the epoch's time
//! (`FleetReport::epoch_timing`, the single field family masked by report
//! equivalence checks). The controller emits the `fleet.span.*` samples
//! from that tree, once per epoch, at its barrier.

use std::time::Instant;

use crate::trace::{TraceTree, ROOT};

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
    /// Every stage, in epoch execution order.
    pub const ALL: [Stage; 5] = [
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

    /// Ends one lap of the span — the seconds since it started or since its
    /// previous lap — as the child `name` of its stage's span under the
    /// root of `tree`, and starts the next lap. Laps run back to back, one
    /// clock read per boundary, so they partition the stage's span (whose
    /// own seconds the tree then ignores). Returns the lap's seconds.
    pub fn lap_into(&mut self, tree: &mut TraceTree, name: &'static str) -> f64 {
        let now = Instant::now();
        let seconds = now.duration_since(self.start).as_secs_f64();
        self.start = now;
        let stage = tree.add(ROOT, self.stage.name(), 0.0);
        tree.add(stage, name, seconds);
        seconds
    }

    /// Stops the span, adding its seconds into its stage's span under the
    /// root of `tree`. Returns elapsed seconds.
    pub fn stop_into(self, tree: &mut TraceTree) -> f64 {
        let stage = self.stage;
        let seconds = self.stop();
        tree.add(ROOT, stage.name(), seconds);
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_timer_attributes_elapsed_time_to_its_stage() {
        let mut tree = TraceTree::new(0, "epoch");
        let span = SpanTimer::start(Stage::Adopt);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let first = span.stop_into(&mut tree);
        assert!(first > 0.0);
        assert_eq!(tree.seconds("adopt"), first);
        // A later phase of the same stage adds into the same span.
        let second = SpanTimer::start(Stage::Adopt).stop_into(&mut tree);
        assert_eq!(tree.seconds("adopt"), first + second);
        assert_eq!(tree.children(ROOT).count(), 1);
    }

    #[test]
    fn laps_partition_their_stage() {
        let mut tree = TraceTree::new(0, "epoch");
        let mut span = SpanTimer::start(Stage::Persist);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let digest = span.lap_into(&mut tree, "digest");
        let append = span.lap_into(&mut tree, "append");
        assert!(digest > 0.0 && append >= 0.0);
        let stage = tree.children(ROOT).find(|s| s.name == "persist").unwrap();
        let laps: Vec<_> = tree.children(stage.id).map(|s| s.name).collect();
        assert_eq!(laps, ["digest", "append"]);
        assert_eq!(tree.seconds("persist"), digest + append);
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
