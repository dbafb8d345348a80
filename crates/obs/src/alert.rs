//! SLO burn-rate alerting evaluated at epoch barriers.
//!
//! The fleet counts SLO violations and degraded resolves but — before this
//! module — never *alerted* on them. [`AlertEngine`] closes that gap with a
//! small deterministic rule engine the controller evaluates once per epoch
//! at a sequential barrier site:
//!
//! * **SLO burn rate** (multi-window): the classic SRE pattern — fire when
//!   the violation rate burns the error budget faster than `burn_threshold`
//!   over *both* a long and a short window. The long window keeps the alert
//!   meaningful (a sustained burn), the short window makes it resolve
//!   quickly once the burn stops.
//! * **Degraded-resolve streak**: fire after `degraded_streak_epochs`
//!   consecutive epochs that degraded at least one tenant's re-solve.
//! * **Budget-exhaustion rate**: fire when the fraction of
//!   budget-exhausted epoch observations over the long window exceeds
//!   `exhaustion_threshold`.
//! * **Checkpoint lag**: fire when the last durable snapshot trails the
//!   current epoch by more than `checkpoint_lag_epochs` (inert for
//!   non-persistent runs, which never observe a checkpoint).
//!
//! Transitions emit `alert_fired` / `alert_resolved` flight-recorder events
//! and set a `fleet.alert.<rule>` gauge (1 = firing), so live state surfaces
//! on the exporter's `/health` endpoint without extra plumbing. Evaluation
//! consumes only epoch-indexed cumulative totals — no wall-clock — so a
//! seeded run fires and resolves the same alerts at the same epochs every
//! time.

use crate::flight::EventKind;
use crate::TelemetrySink;

/// Alert rule thresholds. `Default` gives conservative values sized for
/// epoch-granular fleet runs; every field can be tuned per run.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertPolicy {
    /// Long burn-rate window, in epochs.
    pub long_window: usize,
    /// Short burn-rate window, in epochs (≤ `long_window`).
    pub short_window: usize,
    /// Error budget: tolerated violation observations per tenant-epoch,
    /// e.g. 0.05 tolerates one violation per 20 tenant-epochs.
    pub slo_budget: f64,
    /// Fire when the windowed violation rate exceeds
    /// `burn_threshold × slo_budget` in both windows.
    pub burn_threshold: f64,
    /// Consecutive degraded epochs before the streak alert fires.
    pub degraded_streak_epochs: usize,
    /// Budget-exhaustion observations per tenant-epoch (long window) above
    /// which the exhaustion alert fires.
    pub exhaustion_threshold: f64,
    /// Fire when the last checkpoint trails the current epoch by more than
    /// this many epochs. Inert when no checkpoint is ever observed.
    pub checkpoint_lag_epochs: usize,
}

impl Default for AlertPolicy {
    fn default() -> Self {
        AlertPolicy {
            long_window: 24,
            short_window: 6,
            slo_budget: 0.05,
            burn_threshold: 2.0,
            degraded_streak_epochs: 3,
            exhaustion_threshold: 0.25,
            checkpoint_lag_epochs: 8,
        }
    }
}

/// The rules the engine evaluates, in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// Multi-window SLO burn rate.
    SloBurnRate,
    /// Consecutive degraded-resolve epochs.
    DegradedStreak,
    /// Windowed budget-exhaustion rate.
    BudgetExhaustion,
    /// Checkpoint watermark trailing the epoch loop.
    CheckpointLag,
}

impl AlertRule {
    /// Every rule, in evaluation (and therefore event-emission) order.
    pub const ALL: [AlertRule; 4] = [
        AlertRule::SloBurnRate,
        AlertRule::DegradedStreak,
        AlertRule::BudgetExhaustion,
        AlertRule::CheckpointLag,
    ];

    /// Stable rule name used in gauges, events, and `/health`.
    pub fn name(self) -> &'static str {
        match self {
            AlertRule::SloBurnRate => "slo_burn_rate",
            AlertRule::DegradedStreak => "degraded_streak",
            AlertRule::BudgetExhaustion => "budget_exhaustion",
            AlertRule::CheckpointLag => "checkpoint_lag",
        }
    }

    /// The `fleet.alert.<rule>` gauge name for this rule.
    pub fn gauge_name(self) -> &'static str {
        match self {
            AlertRule::SloBurnRate => "fleet.alert.slo_burn_rate",
            AlertRule::DegradedStreak => "fleet.alert.degraded_streak",
            AlertRule::BudgetExhaustion => "fleet.alert.budget_exhaustion",
            AlertRule::CheckpointLag => "fleet.alert.checkpoint_lag",
        }
    }

    fn index(self) -> usize {
        match self {
            AlertRule::SloBurnRate => 0,
            AlertRule::DegradedStreak => 1,
            AlertRule::BudgetExhaustion => 2,
            AlertRule::CheckpointLag => 3,
        }
    }
}

/// Cumulative observations for one epoch, taken at the barrier. All fields
/// are running totals since the start of the run; the engine diffs
/// consecutive epochs internally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochObservation {
    /// Epoch index just completed.
    pub epoch: usize,
    /// Tenants that were live this epoch (denominator of the rates).
    pub active_tenants: usize,
    /// Cumulative SLO-violation observations across all tenants.
    pub slo_violations: u64,
    /// Cumulative degraded-resolve observations across all tenants.
    pub degraded_resolves: u64,
    /// Cumulative budget-exhausted epoch observations across all tenants.
    pub budget_exhausted: u64,
    /// Epoch of the last durable checkpoint, if any was taken yet.
    pub checkpoint_epoch: Option<usize>,
}

/// One alert transition reported by [`AlertEngine::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertTransition {
    /// The rule that transitioned.
    pub rule: AlertRule,
    /// Epoch at which the transition happened.
    pub epoch: usize,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct EpochDelta {
    violations: u64,
    degraded: u64,
    exhausted: u64,
    tenants: usize,
}

/// Deterministic alert engine. Owns ring buffers of per-epoch deltas sized
/// by the policy's long window plus the per-rule firing state.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    policy: AlertPolicy,
    window: Vec<EpochDelta>,
    last: EpochObservation,
    has_last: bool,
    degraded_streak: usize,
    firing: [bool; AlertRule::ALL.len()],
}

impl AlertEngine {
    /// A fresh engine for `policy`. The engine is rebuilt (empty windows)
    /// on crash-recovery resume; alert state is operational, not part of
    /// the certified plan, so this is deliberate.
    pub fn new(policy: AlertPolicy) -> Self {
        let window = Vec::with_capacity(policy.long_window.max(1));
        AlertEngine {
            policy,
            window,
            last: EpochObservation::default(),
            has_last: false,
            degraded_streak: 0,
            firing: [false; AlertRule::ALL.len()],
        }
    }

    /// Number of rules currently firing.
    fn active(&self) -> usize {
        self.firing.iter().filter(|f| **f).count()
    }

    /// Evaluates every rule against `obs`, records transitions through
    /// `sink` (events in [`AlertRule::ALL`] order, plus gauges and the
    /// `obs.alerts_*` counters), and returns the transitions.
    ///
    /// Call exactly once per epoch, at a sequential barrier site, with
    /// cumulative totals.
    pub fn observe(
        &mut self,
        obs: EpochObservation,
        sink: &dyn TelemetrySink,
    ) -> Vec<AlertTransition> {
        let delta = if self.has_last {
            EpochDelta {
                violations: obs.slo_violations.saturating_sub(self.last.slo_violations),
                degraded: obs
                    .degraded_resolves
                    .saturating_sub(self.last.degraded_resolves),
                exhausted: obs
                    .budget_exhausted
                    .saturating_sub(self.last.budget_exhausted),
                tenants: obs.active_tenants,
            }
        } else {
            EpochDelta {
                violations: obs.slo_violations,
                degraded: obs.degraded_resolves,
                exhausted: obs.budget_exhausted,
                tenants: obs.active_tenants,
            }
        };
        self.last = obs;
        self.has_last = true;
        if self.window.len() == self.policy.long_window.max(1) {
            self.window.remove(0);
        }
        self.window.push(delta);
        self.degraded_streak = if delta.degraded > 0 {
            self.degraded_streak + 1
        } else {
            0
        };

        let mut transitions = Vec::new();
        for rule in AlertRule::ALL {
            let should_fire = self.evaluate(rule, &obs);
            let was_firing = self.firing[rule.index()];
            if should_fire != was_firing {
                self.firing[rule.index()] = should_fire;
                transitions.push(AlertTransition {
                    rule,
                    epoch: obs.epoch,
                    fired: should_fire,
                });
                let (kind, counter) = if should_fire {
                    (EventKind::AlertFired, "obs.alerts_fired")
                } else {
                    (EventKind::AlertResolved, "obs.alerts_resolved")
                };
                sink.counter(counter, 1);
                sink.event(
                    kind,
                    obs.epoch,
                    None,
                    if should_fire { 1.0 } else { 0.0 },
                    rule.name(),
                );
            }
            sink.gauge(
                rule.gauge_name(),
                if self.firing[rule.index()] { 1.0 } else { 0.0 },
            );
        }
        sink.gauge("obs.alerts_active", self.active() as f64);
        transitions
    }

    fn rate(&self, epochs: usize, pick: impl Fn(&EpochDelta) -> u64) -> f64 {
        let take = epochs.max(1).min(self.window.len());
        if take == 0 {
            return 0.0;
        }
        let slice = &self.window[self.window.len() - take..];
        let events: u64 = slice.iter().map(&pick).sum();
        let tenant_epochs: usize = slice.iter().map(|d| d.tenants).sum();
        if tenant_epochs == 0 {
            0.0
        } else {
            events as f64 / tenant_epochs as f64
        }
    }

    fn evaluate(&self, rule: AlertRule, obs: &EpochObservation) -> bool {
        match rule {
            AlertRule::SloBurnRate => {
                let threshold = self.policy.burn_threshold * self.policy.slo_budget;
                let long = self.rate(self.policy.long_window, |d| d.violations);
                let short = self.rate(self.policy.short_window, |d| d.violations);
                long > threshold && short > threshold
            }
            AlertRule::DegradedStreak => {
                self.degraded_streak >= self.policy.degraded_streak_epochs.max(1)
            }
            AlertRule::BudgetExhaustion => {
                self.rate(self.policy.long_window, |d| d.exhausted)
                    > self.policy.exhaustion_threshold
            }
            AlertRule::CheckpointLag => match obs.checkpoint_epoch {
                Some(ck) => obs.epoch.saturating_sub(ck) > self.policy.checkpoint_lag_epochs,
                None => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopSink;

    /// Whether `rule` is currently firing.
    fn firing(engine: &AlertEngine, rule: AlertRule) -> bool {
        engine.firing[rule.index()]
    }

    fn obs(epoch: usize, violations: u64) -> EpochObservation {
        EpochObservation {
            epoch,
            active_tenants: 4,
            slo_violations: violations,
            ..EpochObservation::default()
        }
    }

    #[test]
    fn burn_rate_fires_on_sustained_burn_and_resolves_when_it_stops() {
        let policy = AlertPolicy {
            long_window: 8,
            short_window: 2,
            slo_budget: 0.05,
            burn_threshold: 2.0,
            ..AlertPolicy::default()
        };
        let mut engine = AlertEngine::new(policy);
        let sink = NoopSink;
        // Threshold rate = 0.1 violations per tenant-epoch; 2 violations per
        // epoch over 4 tenants = 0.5, well past it.
        let mut total = 0;
        let mut fired_at = None;
        // Transitions of every rule: (fired, resolved).
        let mut transitions = (0, 0);
        for epoch in 0..6 {
            total += 2;
            for t in engine.observe(obs(epoch, total), &sink) {
                if t.rule == AlertRule::SloBurnRate && t.fired {
                    fired_at = Some(epoch);
                }
                transitions.0 += usize::from(t.fired);
                transitions.1 += usize::from(!t.fired);
            }
        }
        assert!(fired_at.is_some(), "sustained burn must fire");
        assert!(firing(&engine, AlertRule::SloBurnRate));
        // Burn stops: the short window clears first and resolves the alert.
        let mut resolved = false;
        for epoch in 6..12 {
            for t in engine.observe(obs(epoch, total), &sink) {
                if t.rule == AlertRule::SloBurnRate && !t.fired {
                    resolved = true;
                }
                transitions.0 += usize::from(t.fired);
                transitions.1 += usize::from(!t.fired);
            }
        }
        assert!(resolved, "alert must resolve once the burn stops");
        assert!(!firing(&engine, AlertRule::SloBurnRate));
        assert_eq!(transitions, (1, 1));
    }

    #[test]
    fn degraded_streak_needs_consecutive_epochs() {
        let mut engine = AlertEngine::new(AlertPolicy {
            degraded_streak_epochs: 3,
            ..AlertPolicy::default()
        });
        let sink = NoopSink;
        let mut degraded = 0;
        for epoch in 0..2 {
            degraded += 1;
            let o = EpochObservation {
                epoch,
                active_tenants: 4,
                degraded_resolves: degraded,
                ..EpochObservation::default()
            };
            engine.observe(o, &sink);
        }
        assert!(!firing(&engine, AlertRule::DegradedStreak));
        // A clean epoch resets the streak.
        engine.observe(
            EpochObservation {
                epoch: 2,
                active_tenants: 4,
                degraded_resolves: degraded,
                ..EpochObservation::default()
            },
            &sink,
        );
        for epoch in 3..6 {
            degraded += 1;
            engine.observe(
                EpochObservation {
                    epoch,
                    active_tenants: 4,
                    degraded_resolves: degraded,
                    ..EpochObservation::default()
                },
                &sink,
            );
        }
        assert!(firing(&engine, AlertRule::DegradedStreak));
    }

    #[test]
    fn checkpoint_lag_is_inert_without_checkpoints() {
        let mut engine = AlertEngine::new(AlertPolicy {
            checkpoint_lag_epochs: 2,
            ..AlertPolicy::default()
        });
        let sink = NoopSink;
        for epoch in 0..10 {
            engine.observe(
                EpochObservation {
                    epoch,
                    active_tenants: 4,
                    ..EpochObservation::default()
                },
                &sink,
            );
        }
        assert!(!firing(&engine, AlertRule::CheckpointLag));
        // With a stale checkpoint it fires, and resolves on a fresh one.
        engine.observe(
            EpochObservation {
                epoch: 10,
                active_tenants: 4,
                checkpoint_epoch: Some(2),
                ..EpochObservation::default()
            },
            &sink,
        );
        assert!(firing(&engine, AlertRule::CheckpointLag));
        engine.observe(
            EpochObservation {
                epoch: 11,
                active_tenants: 4,
                checkpoint_epoch: Some(11),
                ..EpochObservation::default()
            },
            &sink,
        );
        assert!(!firing(&engine, AlertRule::CheckpointLag));
    }

    #[test]
    fn identical_runs_produce_identical_transitions() {
        let run = || {
            let mut engine = AlertEngine::new(AlertPolicy::default());
            let sink = NoopSink;
            let mut all = Vec::new();
            let mut v = 0;
            for epoch in 0..40 {
                if epoch % 3 != 2 {
                    v += 3;
                }
                all.extend(engine.observe(obs(epoch, v), &sink));
            }
            all
        };
        assert_eq!(run(), run());
    }
}
