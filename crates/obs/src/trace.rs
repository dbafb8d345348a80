//! Causal per-epoch trace trees and the critical-path analyzer.
//!
//! A [`TraceTree`] is the one record of an epoch's time. The fleet
//! controller builds it while the epoch runs, at the sites that time the
//! work: each [`SpanTimer`](crate::SpanTimer) adds its phase into its
//! stage's span under the root, and the probe fan-out puts one span per
//! shard and its barrier wait under `probe`. The finished tree is kept in
//! the run's report (`FleetReport::epoch_timing`), and everything else that
//! speaks of the epoch's time — the report's stage totals, its telemetry
//! rows, the `fleet.span.*` samples, the critical paths — is read off it.
//! One epoch renders as
//!
//! ```text
//! epoch                (the epoch's measured wall)
//! ├── arbitrate        (the bill pass)
//! │   ├── desired      (coupled runs: the desired fleets)
//! │   ├── grant        (coupled runs: the pool's arbitration)
//! │   └── violations   (coupled runs: rent and violation checks)
//! ├── probe
//! │   ├── triage       (repair's futility check and coverage probes)
//! │   ├── shard_probe  (one span per shard of the probe fan-out — parallel)
//! │   └── merge_wait   (barrier wait of the probe fan-out)
//! ├── solve
//! ├── adopt
//! └── persist
//!     ├── digest       (the state digest)
//!     ├── encode       (the journal record)
//!     ├── append       (the journal append)
//!     └── snapshot     (snapshot epochs only)
//! ```
//!
//! with each span appearing when its first phase runs. Phases of one stage
//! that run one after another add into one span, so they never read as a
//! fan-out. The children of a coupled `arbitrate` and of `persist` are laps
//! of one timer ([`SpanTimer::lap_into`](crate::SpanTimer::lap_into)), back
//! to back, so they partition their stage.
//!
//! The [`CriticalPath`] analyzer attributes the epoch's wall-time to its
//! dominant chain. The attribution rule is structural: **same-named
//! siblings are parallel branches of one fan-out** (only the longest counts
//! towards the path), **distinct-named siblings are sequential phases**
//! (they all count). [`TraceTree::seconds`] reads a stage by the same rule,
//! so `probe` is the triage plus the fan-out's wall time (its busiest shard
//! plus its barrier wait), not the shards' summed busy time, and the five
//! stages of an epoch sum to at most its wall. The barrier share — the
//! `merge_wait` fraction of the attributed path — answers "does the
//! merge–arbitrate–solve barrier dominate?" with a number, per epoch and
//! aggregated over a run ([`TraceSummary`], which keeps each step under its
//! own parent).
//!
//! Spans are added only at the epoch loop's sequential sites, in the order
//! its decisions take, so the tree *shapes* of a seeded run are
//! deterministic even though the measured seconds are wall-clock.

/// Id of every tree's root span: [`TraceTree::new`] creates it first.
pub const ROOT: u32 = 0;

/// One span of a [`TraceTree`]: a named region of wall-clock seconds with a
/// causal parent inside its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Span id: its index in [`TraceTree::spans`] (the root is [`ROOT`]).
    pub id: u32,
    /// Parent span id; `None` marks the root.
    pub parent: Option<u32>,
    /// Static span name (same-named siblings are parallel branches).
    pub name: &'static str,
    /// Measured wall-clock seconds of the region (an inner span's own
    /// seconds are ignored: its children account for its time).
    pub seconds: f64,
}

/// A causal tree of spans sharing one `trace_id` (the fleet uses the epoch
/// index). Spans are stored in creation order, the root first.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// Identifier shared by every span of the tree (epoch index).
    pub trace_id: u64,
    /// Spans in creation order; the root comes first.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// A tree for `trace_id` holding only its root span, `root`, at zero
    /// seconds.
    pub fn new(trace_id: u64, root: &'static str) -> Self {
        let root = SpanRecord {
            id: ROOT,
            parent: None,
            name: root,
            seconds: 0.0,
        };
        TraceTree {
            trace_id,
            spans: vec![root],
        }
    }

    /// Appends a span under `parent`, assigning the next id. Same-named
    /// siblings are parallel branches of one fan-out.
    pub fn push(&mut self, parent: u32, name: &'static str, seconds: f64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            id,
            parent: Some(parent),
            name,
            seconds,
        });
        id
    }

    /// Adds `seconds` into the first child of `parent` named `name`,
    /// appending that child when there is none, and returns its id: phases
    /// that run one after another accumulate in one span.
    pub fn add(&mut self, parent: u32, name: &'static str, seconds: f64) -> u32 {
        let existing = self.children(parent).find(|s| s.name == name);
        match existing.map(|s| s.id) {
            Some(id) => {
                self.spans[id as usize].seconds += seconds;
                id
            }
            None => self.push(parent, name, seconds),
        }
    }

    /// Sets the root's seconds: the measured wall of the whole trace.
    pub fn set_wall(&mut self, seconds: f64) {
        self.spans[ROOT as usize].seconds = seconds;
    }

    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[ROOT as usize]
    }

    /// Children of `id`, in creation order.
    pub fn children(&self, id: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Seconds of the root's first child named `name` under the
    /// critical-path rule, 0 when the root has none: the time of one stage
    /// of a fleet epoch.
    pub fn seconds(&self, name: &str) -> f64 {
        self.children(ROOT)
            .find(|s| s.name == name)
            .map_or(0.0, |s| self.walk(s.id, 0, &mut Vec::new()))
    }

    /// Attributes the tree's wall-time to its dominant chain.
    pub fn critical_path(&self) -> CriticalPath {
        let mut steps = Vec::new();
        let attributed = self.walk(ROOT, 0, &mut steps);
        let barrier = steps
            .iter()
            .filter(|s| s.name == BARRIER_SPAN)
            .map(|s| s.seconds)
            .sum();
        CriticalPath {
            trace_id: self.trace_id,
            wall_seconds: self.root().seconds,
            attributed_seconds: attributed,
            barrier_seconds: barrier,
            steps,
        }
    }

    /// Seconds of the subtree at `id` under the critical-path rule, pushing
    /// the path's steps, `depth` levels below the root's children, onto
    /// `steps`: a leaf contributes its own seconds; an inner span
    /// contributes, per same-named child group in first-appearance order,
    /// its largest member (parallel), summed across groups (sequential).
    fn walk(&self, id: u32, depth: usize, steps: &mut Vec<PathStep>) -> f64 {
        let mut order: Vec<&'static str> = Vec::new();
        for child in self.children(id) {
            if !order.contains(&child.name) {
                order.push(child.name);
            }
        }
        if order.is_empty() {
            return self.spans[id as usize].seconds;
        }
        let mut total = 0.0;
        for name in order {
            let group: Vec<(u32, f64)> = (self.children(id))
                .filter(|s| s.name == name)
                .map(|s| (s.id, self.walk(s.id, depth + 1, &mut Vec::new())))
                .collect();
            let &(winner, seconds) = (group.iter())
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("group is non-empty");
            steps.push(PathStep {
                name,
                seconds,
                fanout: group.len(),
                depth,
            });
            self.walk(winner, depth + 1, steps);
            total += seconds;
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
    /// Nesting level: 0 for a child of the root, 1 for its children, …
    /// A step's sub-steps follow it on the path, one level deeper, and sum
    /// to its seconds.
    pub depth: usize,
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
    /// The path steps, in causal order, each followed by its sub-steps.
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
    /// Attributed seconds per step of the paths, aggregated by the step's
    /// place in its tree: the root's children in first-appearance order,
    /// each with its own sub-steps. The top level sums to
    /// [`TraceSummary::attributed_seconds`].
    pub steps: Vec<StepTotal>,
}

/// Attributed seconds of one step of a run's critical paths, with its
/// sub-steps.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTotal {
    /// Step name (a span name).
    pub name: &'static str,
    /// Seconds summed over the paths that take the step.
    pub seconds: f64,
    /// The steps under it, in first-appearance order.
    pub children: Vec<StepTotal>,
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
            // The open step at each level above the current one.
            let mut open: Vec<usize> = Vec::new();
            for step in &path.steps {
                open.truncate(step.depth);
                let mut level = &mut summary.steps;
                for &k in &open {
                    level = &mut level[k].children;
                }
                let k = match level.iter().position(|total| total.name == step.name) {
                    Some(k) => k,
                    None => {
                        level.push(StepTotal {
                            name: step.name,
                            seconds: 0.0,
                            children: Vec::new(),
                        });
                        level.len() - 1
                    }
                };
                level[k].seconds += step.seconds;
                open.push(k);
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

    /// An epoch's tree built the way the fleet builds it: the bill, repair's
    /// triage, a three-shard probe fan-out with its barrier wait, two
    /// re-solve batches and the adoptions.
    fn fleet_tree(epoch: u64) -> TraceTree {
        let mut tree = TraceTree::new(epoch, "epoch");
        tree.add(ROOT, "arbitrate", 0.2);
        let probe = tree.add(ROOT, "probe", 0.0);
        tree.add(probe, "triage", 0.02);
        tree.add(ROOT, "solve", 0.2);
        for busy in [0.3, 0.4, 0.1] {
            tree.push(probe, "shard_probe", busy);
        }
        tree.add(probe, BARRIER_SPAN, 0.05);
        tree.add(ROOT, "solve", 0.3);
        tree.add(ROOT, "adopt", 0.1);
        tree.set_wall(1.3);
        tree
    }

    #[test]
    fn epoch_tree_has_the_documented_shape() {
        let tree = fleet_tree(7);
        assert_eq!(tree.trace_id, 7);
        let root = tree.root();
        assert_eq!((root.id, root.name, root.seconds), (ROOT, "epoch", 1.3));
        let names = |id| tree.children(id).map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(ROOT), ["arbitrate", "probe", "solve", "adopt"]);
        let probe = tree.children(ROOT).find(|s| s.name == "probe").unwrap();
        assert_eq!(
            names(probe.id),
            [
                "triage",
                "shard_probe",
                "shard_probe",
                "shard_probe",
                "merge_wait"
            ]
        );
        // Sequential phases of one stage accumulate in one span.
        assert_eq!(tree.seconds("solve"), 0.2 + 0.3);
        assert_eq!(tree.seconds("persist"), 0.0);
    }

    #[test]
    fn critical_path_takes_the_longest_parallel_branch_and_sums_phases() {
        let tree = fleet_tree(0);
        // The probe stage is its triage, the busiest shard and the barrier
        // wait: the fan-out's wall, not the shards' summed busy time.
        let probe = 0.02 + 0.4 + 0.05;
        assert!((tree.seconds("probe") - probe).abs() < 1e-12);
        let path = tree.critical_path();
        assert!((path.attributed_seconds - (0.2 + probe + 0.5 + 0.1)).abs() < 1e-12);
        assert!(path.attributed_seconds <= path.wall_seconds);
        assert!((path.barrier_seconds - 0.05).abs() < 1e-12);
        assert!((path.barrier_share() - 0.05 / path.attributed_seconds).abs() < 1e-12);
        let shards = path.steps.iter().find(|s| s.name == "shard_probe").unwrap();
        assert_eq!(shards.fanout, 3);
        assert!((shards.seconds - 0.4).abs() < 1e-12);
        assert_eq!(path.dominant().unwrap().name, "solve");
        assert_eq!(path.wall_seconds, 1.3);
    }

    #[test]
    fn nested_parallel_groups_recurse() {
        // root -> a (x2 parallel); the longer `a` has sequential children
        // b + c; the path is max(a) decomposed into b + c.
        let mut tree = TraceTree::new(1, "root");
        let _short = tree.push(ROOT, "a", 0.2);
        let long = tree.push(ROOT, "a", 0.0); // inner: seconds from children
        tree.push(long, "b", 0.3);
        tree.push(long, "c", 0.4);
        let path = tree.critical_path();
        assert!((path.attributed_seconds - 0.7).abs() < 1e-12);
        let names: Vec<&str> = path.steps.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn summary_aggregates_paths_across_epochs() {
        let trees: Vec<TraceTree> = (0..4).map(fleet_tree).collect();
        let summary = TraceSummary::from_trees(&trees);
        assert_eq!(summary.epochs, 4);
        assert!((summary.wall_seconds - 5.2).abs() < 1e-12);
        assert!((summary.attributed_seconds - 4.0 * 1.27).abs() < 1e-12);
        assert!((summary.barrier_seconds - 0.2).abs() < 1e-12);
        assert!((summary.barrier_share() - 0.05 / 1.27).abs() < 1e-12);
        let probe = summary.steps.iter().find(|s| s.name == "probe").unwrap();
        let shards = (probe.children.iter())
            .find(|s| s.name == "shard_probe")
            .unwrap();
        assert!((shards.seconds - 1.6).abs() < 1e-12);
    }

    #[test]
    fn summary_steps_nest_and_the_top_level_sums_to_the_attributed_seconds() {
        // Epochs of different shapes: a sub-step first seen in a later
        // epoch still lands under its own parent.
        let mut trees: Vec<TraceTree> = (0..3).map(fleet_tree).collect();
        let mut late = TraceTree::new(3, "epoch");
        let persist = late.add(ROOT, "persist", 0.0);
        late.add(persist, "digest", 0.01);
        late.add(persist, "append", 0.03);
        late.set_wall(0.05);
        trees.push(late);
        let summary = TraceSummary::from_trees(&trees);
        let top: f64 = summary.steps.iter().map(|s| s.seconds).sum();
        assert!((top - summary.attributed_seconds).abs() < 1e-12);
        let names: Vec<_> = summary.steps.iter().map(|s| s.name).collect();
        assert_eq!(names, ["arbitrate", "probe", "solve", "adopt", "persist"]);
        for step in &summary.steps {
            if !step.children.is_empty() {
                let inner: f64 = step.children.iter().map(|s| s.seconds).sum();
                assert!((inner - step.seconds).abs() < 1e-12, "{}", step.name);
            }
        }
        let persist = &summary.steps[4];
        let parts: Vec<_> = persist.children.iter().map(|s| s.name).collect();
        assert_eq!(parts, ["digest", "append"]);
    }

    #[test]
    fn empty_tree_yields_a_zero_path() {
        let path = TraceTree::new(0, "epoch").critical_path();
        assert_eq!(path.attributed_seconds, 0.0);
        assert_eq!(path.barrier_share(), 0.0);
        assert!(path.steps.is_empty());
    }
}
