//! # rental-obs
//!
//! Zero-cost observability substrate for the MinCost workspace: a
//! [`MetricsRegistry`] of named counters, gauges and log-bucketed
//! ([HDR-style power-of-two](Histogram)) histograms with cheap thread-local
//! sharding; [`SpanTimer`]s that time the phases of a fleet epoch into the
//! [`Stage`] spans of the epoch's causal [`TraceTree`], the one record of
//! the epoch's time, which the fleet keeps in its report; and a
//! fixed-capacity structured event ring buffer — the [`FlightRecorder`] —
//! that keeps the last N adoption / SLO-violation / degraded-solve /
//! chaos-fault / recovery events and dumps them as JSON lines on demand.
//!
//! The crate is **dependency-free** (the workspace builds offline) and
//! designed so that *disabled* telemetry costs nothing measurable:
//!
//! * every emission goes through the [`TelemetrySink`] trait, whose default
//!   methods are empty — the [`NoopSink`] is the trait with nothing
//!   overridden, so a monomorphized call compiles to nothing and a dynamic
//!   call is a single indirect jump to a `ret`;
//! * the ambient **global sink** used by the LP and solver layers (which
//!   cannot thread a sink parameter through their public traits without
//!   churning every caller) costs one `Relaxed` atomic load per emission
//!   site when nothing is installed — see [`with_sink`];
//! * timing that feeds *reports* (the epochs' trace trees) is measured
//!   unconditionally, whatever the sink; telemetry only ever *copies*
//!   values out, never feeds a decision, so a `NoopSink` run is
//!   bit-identical to an instrumented one.
//!
//! The full catalogue of metric, span and event names lives in the
//! repository's `METRICS.md`.

pub mod alert;
pub mod export;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

pub use alert::{AlertEngine, AlertPolicy, AlertRule, AlertTransition, EpochObservation};
pub use export::{render_prometheus, Exporter};
pub use flight::{Event, EventKind, FlightRecorder};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use recorder::Recorder;
pub use span::{SpanTimer, Stage};
pub use trace::{CriticalPath, StepTotal, TraceSummary, TraceTree};

/// Receiver of telemetry emissions. Every method has an empty default body,
/// so an implementation overrides only what it cares about and [`NoopSink`]
/// overrides nothing at all.
///
/// Emissions use `&'static str` names (catalogued in `METRICS.md`) so the
/// hot path never allocates; event details are built by the *caller* and
/// only when [`TelemetrySink::enabled`] says someone is listening.
pub trait TelemetrySink: Send + Sync {
    /// Whether this sink records anything. Callers use this to skip
    /// allocation-heavy emissions (event detail strings); plain
    /// counter/gauge/span calls need no guard.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotone counter.
    #[inline]
    fn counter(&self, _name: &'static str, _delta: u64) {}

    /// Sets the named gauge to `value` (last write wins).
    #[inline]
    fn gauge(&self, _name: &'static str, _value: f64) {}

    /// Records one sample into the named log-bucketed histogram.
    #[inline]
    fn observe(&self, _name: &'static str, _value: u64) {}

    /// Records a completed span of `seconds` under the named timer (backed
    /// by a microsecond histogram in the default [`Recorder`]).
    #[inline]
    fn span(&self, _name: &'static str, _seconds: f64) {}

    /// Records a structured flight-recorder event.
    #[inline]
    fn event(
        &self,
        _kind: EventKind,
        _epoch: usize,
        _tenant: Option<usize>,
        _value: f64,
        _detail: &str,
    ) {
    }
}

/// The do-nothing sink: [`TelemetrySink`] with every default body kept.
/// Instrumented code paths run bit-identically to uninstrumented ones under
/// this sink — it exists so call sites never need an `Option`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {}

/// Fast-path flag mirroring whether a global sink is installed. `Relaxed`
/// is enough: installation happens before the instrumented run starts and
/// a stale read merely skips (or no-ops through) one emission.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL_SINK: RwLock<Option<Arc<dyn TelemetrySink>>> = RwLock::new(None);

/// Installs `sink` as the ambient global sink consulted by [`with_sink`].
/// The LP and solver layers emit through this (their public traits predate
/// telemetry and stay signature-stable); the fleet controller additionally
/// accepts an explicit sink for deterministic event capture.
fn install(sink: Arc<dyn TelemetrySink>) {
    let mut slot = GLOBAL_SINK.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(sink);
    GLOBAL_ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the global sink (subsequent [`with_sink`] calls are no-ops).
fn uninstall() {
    let mut slot = GLOBAL_SINK.write().unwrap_or_else(|e| e.into_inner());
    GLOBAL_ENABLED.store(false, Ordering::SeqCst);
    *slot = None;
}

/// Runs `f` against the global sink, if one is installed. When none is,
/// this is one `Relaxed` atomic load — the entire cost of disabled
/// telemetry at LP/solver emission sites.
#[inline]
pub fn with_sink<F: FnOnce(&dyn TelemetrySink)>(f: F) {
    if !GLOBAL_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let guard = GLOBAL_SINK.read().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = guard.as_ref() {
        f(sink.as_ref());
    }
}

/// RAII guard returned by [`install_scoped`]; uninstalls the global sink on
/// drop. Benches and binaries use this so a panicking run never leaks a
/// sink into unrelated code.
#[must_use = "dropping the guard uninstalls the sink immediately"]
pub struct ScopedSink(());

impl Drop for ScopedSink {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Installs `sink` globally and returns a guard that uninstalls it on drop.
pub fn install_scoped(sink: Arc<dyn TelemetrySink>) -> ScopedSink {
    install(sink);
    ScopedSink(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_reports_disabled_and_absorbs_everything() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.counter("x", 1);
        sink.gauge("x", 1.0);
        sink.observe("x", 1);
        sink.span("x", 0.5);
        sink.event(EventKind::Adoption, 0, None, 0.0, "");
    }

    #[test]
    fn scoped_install_routes_and_uninstalls() {
        let recorder = Arc::new(Recorder::new());
        {
            let _guard = install_scoped(recorder.clone());
            with_sink(|sink| sink.counter("test.scoped", 3));
        }
        // After the guard drops, emissions go nowhere.
        with_sink(|sink| sink.counter("test.scoped", 100));
        assert_eq!(
            recorder.snapshot().counters.get("test.scoped").copied(),
            Some(3)
        );
    }
}
