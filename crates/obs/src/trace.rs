//! Causal per-epoch trace trees and the critical-path analyzer.
//!
//! Flat [`SpanTimer`](crate::SpanTimer)s answer "how much time did stage X
//! take, summed"; they cannot answer "which chain of work *bounded* this
//! epoch's wall-clock". A [`TraceTree`] upgrades the per-epoch spans into a
//! causal tree — every span carries `(trace_id = epoch, parent_span)` — so
//! one epoch of the fleet controller renders as
//!
//! ```text
//! epoch
//! ├── shard_probe   (one child per shard of the probe fan-out — parallel)
//! ├── merge_wait    (barrier wait of the probe fan-out)
//! ├── arbitrate
//! ├── solve
//! ├── adopt
//! └── persist
//! ```
//!
//! and the [`CriticalPath`] analyzer attributes the epoch's wall-time to its
//! dominant chain. The attribution rule is structural: **same-named
//! siblings are parallel branches of one fan-out** (only the longest counts
//! towards the path), **distinct-named siblings are sequential phases**
//! (they all count). The barrier share — the `merge_wait` fraction of the
//! attributed path — answers the ROADMAP's open question ("does the
//! merge–arbitrate–solve barrier dominate?") with a number, per epoch and
//! aggregated over a run ([`TraceSummary`]).
//!
//! Trees are emitted at **sequential barrier sites only** (one tree per
//! epoch, spans in a fixed order), so the span *sequence* of a seeded run is
//! deterministic even though the measured seconds are wall-clock.

use crate::span::{Stage, StageTimes};
use crate::TelemetrySink;

/// Root spans have no parent.
pub const NO_PARENT: Option<u32> = None;

/// One span of a [`TraceTree`]: a named region of wall-clock seconds with a
/// causal parent inside its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Span id, unique within the trace (the root is 0 by convention).
    pub id: u32,
    /// Parent span id; `None` marks the root.
    pub parent: Option<u32>,
    /// Static span name (same-named siblings are parallel branches).
    pub name: &'static str,
    /// Measured wall-clock seconds of the region.
    pub seconds: f64,
}

/// A causal tree of spans sharing one `trace_id` (the fleet uses the epoch
/// index). Spans are stored in emission order; ids are assigned by
/// [`TraceTree::push`] (builder side) or carried verbatim by
/// [`TraceTree::insert`] (recorder side).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// Identifier shared by every span of the tree (epoch index).
    pub trace_id: u64,
    /// Spans in emission order; the root (parent `None`) comes first.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// An empty tree for `trace_id`.
    pub fn new(trace_id: u64) -> Self {
        TraceTree {
            trace_id,
            spans: Vec::new(),
        }
    }

    /// Appends a span under `parent`, assigning the next id (root = 0).
    pub fn push(&mut self, parent: Option<u32>, name: &'static str, seconds: f64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            id,
            parent,
            name,
            seconds,
        });
        id
    }

    /// Inserts a span with an externally assigned id (the recorder rebuilds
    /// trees from `trace_span` emissions through this).
    pub fn insert(&mut self, record: SpanRecord) {
        self.spans.push(record);
    }

    /// The root span (parent `None`), if the tree has one.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Children of `id`, in emission order.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Emits every span through `sink` (used by the fleet controller at the
    /// epoch barrier; a `NoopSink` absorbs the whole tree for free).
    pub fn emit(&self, sink: &dyn TelemetrySink) {
        for span in &self.spans {
            sink.trace_span(self.trace_id, span.id, span.parent, span.name, span.seconds);
        }
    }

    /// Total subtree seconds under the critical-path rule: a leaf
    /// contributes its own seconds; an inner node contributes, per
    /// same-named child group, the largest child subtree (parallel), summed
    /// across groups (sequential).
    fn subtree_seconds(&self, id: u32) -> f64 {
        let mut groups: Vec<(&'static str, f64)> = Vec::new();
        let mut has_children = false;
        for child in self.children(id) {
            has_children = true;
            let sub = self.subtree_seconds(child.id);
            match groups.iter_mut().find(|(name, _)| *name == child.name) {
                Some((_, best)) => *best = best.max(sub),
                None => groups.push((child.name, sub)),
            }
        }
        if !has_children {
            return self
                .spans
                .iter()
                .find(|s| s.id == id)
                .map_or(0.0, |s| s.seconds);
        }
        groups.iter().map(|(_, s)| s).sum()
    }

    /// Attributes the tree's wall-time to its dominant chain.
    pub fn critical_path(&self) -> CriticalPath {
        let Some(root) = self.root() else {
            return CriticalPath {
                trace_id: self.trace_id,
                wall_seconds: 0.0,
                attributed_seconds: 0.0,
                barrier_seconds: 0.0,
                steps: Vec::new(),
            };
        };
        let mut steps = Vec::new();
        let attributed = self.walk(root.id, &mut steps);
        let barrier = steps
            .iter()
            .filter(|s| s.name == BARRIER_SPAN)
            .map(|s| s.seconds)
            .sum();
        CriticalPath {
            trace_id: self.trace_id,
            wall_seconds: root.seconds,
            attributed_seconds: attributed,
            barrier_seconds: barrier,
            steps,
        }
    }

    fn walk(&self, id: u32, steps: &mut Vec<PathStep>) -> f64 {
        // Same-named child groups in first-appearance order; each group's
        // winner (largest subtree) joins the path, groups sum sequentially.
        let mut order: Vec<&'static str> = Vec::new();
        for child in self.children(id) {
            if !order.contains(&child.name) {
                order.push(child.name);
            }
        }
        if order.is_empty() {
            return self
                .spans
                .iter()
                .find(|s| s.id == id)
                .map_or(0.0, |s| s.seconds);
        }
        let mut total = 0.0;
        for name in order {
            let group: Vec<&SpanRecord> = self.children(id).filter(|s| s.name == name).collect();
            let winner = group
                .iter()
                .copied()
                .max_by(|a, b| {
                    self.subtree_seconds(a.id)
                        .partial_cmp(&self.subtree_seconds(b.id))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("group is non-empty");
            let mut sub_steps = Vec::new();
            let winner_seconds = self.walk(winner.id, &mut sub_steps);
            steps.push(PathStep {
                name,
                seconds: winner_seconds,
                fanout: group.len(),
            });
            steps.extend(sub_steps);
            total += winner_seconds;
        }
        total
    }
}

/// The span name of merge-barrier waits inside a trace tree.
pub const BARRIER_SPAN: &str = "merge_wait";

/// One step of a critical path: the winning branch of one sibling group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Group name (e.g. `shard_probe`, `merge_wait`, `solve`).
    pub name: &'static str,
    /// Seconds the winning branch contributes to the path.
    pub seconds: f64,
    /// Size of the sibling group (> 1 means a parallel fan-out).
    pub fanout: usize,
}

/// The dominant chain of one [`TraceTree`], with barrier attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The tree's trace id (epoch index for fleet traces).
    pub trace_id: u64,
    /// The root span's measured wall seconds (the whole epoch).
    pub wall_seconds: f64,
    /// Seconds attributed along the dominant chain (≤ `wall_seconds` up to
    /// measurement noise; the remainder is parallel slack and untraced
    /// work).
    pub attributed_seconds: f64,
    /// Seconds of [`BARRIER_SPAN`] steps on the path.
    pub barrier_seconds: f64,
    /// The path steps, in causal order.
    pub steps: Vec<PathStep>,
}

impl CriticalPath {
    /// The barrier (`merge_wait`) fraction of the attributed path
    /// (0 when nothing was attributed).
    pub fn barrier_share(&self) -> f64 {
        if self.attributed_seconds <= 0.0 {
            0.0
        } else {
            self.barrier_seconds / self.attributed_seconds
        }
    }

    /// The step contributing the most seconds to the path.
    pub fn dominant(&self) -> Option<&PathStep> {
        self.steps.iter().max_by(|a, b| {
            a.seconds
                .partial_cmp(&b.seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// Fan-out observations one epoch of the sharded controller loop
/// accumulates for its trace tree: the probe fan-out's per-shard busy
/// seconds and its merge-barrier wait.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FanoutObs {
    /// Busy seconds of each shard of the probe fan-out, in shard (= tenant)
    /// order. Empty when the epoch ran no probe fan-out.
    pub probe_shards: Vec<f64>,
    /// Merge-barrier wait of the probe fan-out (its wall time past the
    /// busiest shard).
    pub merge_wait: f64,
}

/// Builds the fleet's per-epoch trace tree from the stage breakdown and the
/// epoch's fan-out observations. `wall_seconds` is the measured wall-clock
/// of the whole epoch (the root span).
pub fn epoch_tree(
    epoch: u64,
    wall_seconds: f64,
    stages: &StageTimes,
    fanout: &FanoutObs,
) -> TraceTree {
    let mut tree = TraceTree::new(epoch);
    let root = tree.push(NO_PARENT, "epoch", wall_seconds);
    if fanout.probe_shards.is_empty() {
        // No probe fan-out ran (e.g. `resolve: false`): represent the probe
        // stage as a single-shard branch so the path still covers it.
        tree.push(Some(root), "shard_probe", stages.get(Stage::Probe));
    } else {
        for &busy in &fanout.probe_shards {
            tree.push(Some(root), "shard_probe", busy);
        }
    }
    tree.push(Some(root), BARRIER_SPAN, fanout.merge_wait);
    tree.push(Some(root), "arbitrate", stages.get(Stage::Arbitrate));
    tree.push(Some(root), "solve", stages.get(Stage::Solve));
    tree.push(Some(root), "adopt", stages.get(Stage::Adopt));
    tree.push(Some(root), "persist", stages.get(Stage::Persist));
    tree
}

/// Critical-path attribution aggregated over a run's trace trees.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Number of trees (epochs) aggregated.
    pub epochs: usize,
    /// Root wall seconds summed over all trees.
    pub wall_seconds: f64,
    /// Attributed path seconds summed over all trees.
    pub attributed_seconds: f64,
    /// Barrier (`merge_wait`) seconds summed over all trees.
    pub barrier_seconds: f64,
    /// Per-step-name attributed seconds, in first-appearance order.
    pub steps: Vec<(&'static str, f64)>,
}

impl TraceSummary {
    /// Aggregates the critical paths of `trees`.
    pub fn from_trees(trees: &[TraceTree]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for tree in trees {
            let path = tree.critical_path();
            summary.epochs += 1;
            summary.wall_seconds += path.wall_seconds;
            summary.attributed_seconds += path.attributed_seconds;
            summary.barrier_seconds += path.barrier_seconds;
            for step in &path.steps {
                match summary.steps.iter_mut().find(|(n, _)| *n == step.name) {
                    Some((_, total)) => *total += step.seconds,
                    None => summary.steps.push((step.name, step.seconds)),
                }
            }
        }
        summary
    }

    /// The aggregated barrier fraction of the attributed path seconds.
    pub fn barrier_share(&self) -> f64 {
        if self.attributed_seconds <= 0.0 {
            0.0
        } else {
            self.barrier_seconds / self.attributed_seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_tree_has_the_documented_shape() {
        let mut stages = StageTimes::zero();
        stages.add(Stage::Arbitrate, 0.2);
        stages.add(Stage::Solve, 0.5);
        stages.add(Stage::Adopt, 0.1);
        let fanout = FanoutObs {
            probe_shards: vec![0.3, 0.4],
            merge_wait: 0.05,
        };
        let tree = epoch_tree(7, 1.3, &stages, &fanout);
        assert_eq!(tree.trace_id, 7);
        let root = tree.root().unwrap();
        assert_eq!(root.name, "epoch");
        assert_eq!(root.seconds, 1.3);
        let children: Vec<&str> = tree.children(root.id).map(|s| s.name).collect();
        assert_eq!(
            children,
            [
                "shard_probe",
                "shard_probe",
                "merge_wait",
                "arbitrate",
                "solve",
                "adopt",
                "persist"
            ]
        );
    }

    #[test]
    fn critical_path_takes_the_longest_parallel_branch_and_sums_phases() {
        let mut stages = StageTimes::zero();
        stages.add(Stage::Arbitrate, 0.2);
        stages.add(Stage::Solve, 0.5);
        let fanout = FanoutObs {
            probe_shards: vec![0.3, 0.4, 0.1],
            merge_wait: 0.05,
        };
        let path = epoch_tree(0, 1.3, &stages, &fanout).critical_path();
        // max shard (0.4) + merge_wait + arbitrate + solve + adopt + persist
        assert!((path.attributed_seconds - (0.4 + 0.05 + 0.2 + 0.5)).abs() < 1e-12);
        assert!((path.barrier_seconds - 0.05).abs() < 1e-12);
        assert!((path.barrier_share() - 0.05 / 1.15).abs() < 1e-12);
        let probe = path.steps.iter().find(|s| s.name == "shard_probe").unwrap();
        assert_eq!(probe.fanout, 3);
        assert!((probe.seconds - 0.4).abs() < 1e-12);
        assert_eq!(path.dominant().unwrap().name, "solve");
        assert_eq!(path.wall_seconds, 1.3);
    }

    #[test]
    fn nested_parallel_groups_recurse() {
        // root -> a (x2 parallel); the longer `a` has sequential children
        // b + c; the path is max(a) decomposed into b + c.
        let mut tree = TraceTree::new(1);
        let root = tree.push(NO_PARENT, "root", 1.0);
        let _short = tree.push(Some(root), "a", 0.2);
        let long = tree.push(Some(root), "a", 0.0); // inner: seconds from children
        tree.push(Some(long), "b", 0.3);
        tree.push(Some(long), "c", 0.4);
        let path = tree.critical_path();
        assert!((path.attributed_seconds - 0.7).abs() < 1e-12);
        let names: Vec<&str> = path.steps.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn summary_aggregates_paths_across_epochs() {
        let stages = StageTimes::zero();
        let trees: Vec<TraceTree> = (0..4)
            .map(|epoch| {
                let fanout = FanoutObs {
                    probe_shards: vec![0.1],
                    merge_wait: 0.1,
                };
                epoch_tree(epoch, 0.5, &stages, &fanout)
            })
            .collect();
        let summary = TraceSummary::from_trees(&trees);
        assert_eq!(summary.epochs, 4);
        assert!((summary.wall_seconds - 2.0).abs() < 1e-12);
        assert!((summary.barrier_seconds - 0.4).abs() < 1e-12);
        assert!((summary.barrier_share() - 0.4 / 0.8).abs() < 1e-12);
        let probe = summary
            .steps
            .iter()
            .find(|(n, _)| *n == "shard_probe")
            .unwrap();
        assert!((probe.1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_tree_yields_a_zero_path() {
        let path = TraceTree::new(0).critical_path();
        assert_eq!(path.attributed_seconds, 0.0);
        assert_eq!(path.barrier_share(), 0.0);
        assert!(path.steps.is_empty());
    }
}
