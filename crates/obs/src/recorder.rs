//! The default enabled [`TelemetrySink`]: a [`MetricsRegistry`] plus a
//! [`FlightRecorder`].

use crate::flight::{Event, EventKind, FlightRecorder};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::TelemetrySink;

/// Default flight-recorder capacity: enough to hold the tail of a degraded
/// episode across a few hundred epochs without unbounded memory.
const DEFAULT_EVENT_CAPACITY: usize = 512;

/// A recording [`TelemetrySink`]: counters/gauges/histograms into a
/// [`MetricsRegistry`], spans into microsecond histograms, events into a
/// [`FlightRecorder`].
/// Share it as an `Arc` between the global sink, a `FleetController` and
/// (optionally) an exporter.
pub struct Recorder {
    registry: MetricsRegistry,
    flight: FlightRecorder,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default flight-recorder capacity.
    pub fn new() -> Self {
        Recorder::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` events.
    fn with_event_capacity(capacity: usize) -> Self {
        Recorder {
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::new(capacity),
        }
    }

    /// The underlying flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Merged snapshot of every metric shard, with the flight recorder's
    /// eviction count injected as the `obs.events_dropped` counter so ring
    /// overflow flows into every rendering (JSONL, `/metrics`, `/health`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.registry.snapshot();
        snapshot
            .counters
            .insert("obs.events_dropped".to_string(), self.flight.dropped());
        snapshot
    }

    /// The retained events rendered as JSON lines, oldest first.
    pub fn events_jsonl(&self) -> String {
        self.flight.dump_jsonl()
    }
}

impl TelemetrySink for Recorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.registry.add_counter(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.registry.set_gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.registry.observe(name, value);
    }

    fn span(&self, name: &'static str, seconds: f64) {
        // Spans are histograms of microseconds — log-bucketed integer
        // samples cover nanosecond probes to minute-long solves.
        self.registry.observe(name, (seconds * 1e6) as u64);
    }

    fn event(
        &self,
        kind: EventKind,
        epoch: usize,
        tenant: Option<usize>,
        value: f64,
        detail: &str,
    ) {
        self.flight.record(Event {
            seq: 0,
            epoch,
            tenant,
            kind,
            value,
            detail: detail.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_routes_every_sink_method() {
        let recorder = Recorder::with_event_capacity(4);
        assert!(recorder.enabled());
        recorder.counter("test.c", 2);
        recorder.counter("test.c", 3);
        recorder.gauge("test.g", 0.75);
        recorder.observe("test.h", 10);
        recorder.span("test.span", 0.001);
        recorder.event(EventKind::DegradedSolve, 7, Some(1), 2.5, "fallback");
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counters["test.c"], 5);
        assert_eq!(snapshot.gauges["test.g"], 0.75);
        assert_eq!(snapshot.histograms["test.h"].count(), 1);
        // 1 ms span lands in the microsecond histogram as ~1000.
        assert_eq!(snapshot.histograms["test.span"].sum(), 1000);
        let events = recorder.flight().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::DegradedSolve);
        assert_eq!(events[0].tenant, Some(1));
        assert!(recorder.events_jsonl().contains("\"detail\":\"fallback\""));
    }

    #[test]
    fn snapshot_injects_the_dropped_event_counter() {
        let recorder = Recorder::with_event_capacity(2);
        for epoch in 0..5 {
            recorder.event(EventKind::Adoption, epoch, None, 0.0, "");
        }
        assert_eq!(recorder.snapshot().counters["obs.events_dropped"], 3);
        assert_eq!(recorder.flight().dropped(), 3);
    }
}
