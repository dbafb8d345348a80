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
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["probe", "arbitrate", "solve", "adopt", "persist"]);
        for stage in Stage::ALL {
            assert!(stage.span_name().starts_with("fleet.span."));
            assert!(stage.span_name().ends_with(stage.name()));
        }
    }
}
