//! The default enabled [`TelemetrySink`]: a [`MetricsRegistry`] plus a
//! [`FlightRecorder`].

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::flight::{Event, EventKind, FlightRecorder};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{SpanRecord, TraceTree};
use crate::TelemetrySink;

/// Default flight-recorder capacity: enough to hold the tail of a degraded
/// episode across a few hundred epochs without unbounded memory.
pub const DEFAULT_EVENT_CAPACITY: usize = 512;

/// Default trace-tree retention: one tree per epoch, so this covers the
/// last few hundred epochs of a run.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// A recording [`TelemetrySink`]: counters/gauges/histograms into a
/// [`MetricsRegistry`], spans into microsecond histograms, events into a
/// [`FlightRecorder`], trace spans into per-`trace_id` [`TraceTree`]s.
/// Share it as an `Arc` between the global sink, a `FleetController` and
/// (optionally) an exporter.
pub struct Recorder {
    registry: MetricsRegistry,
    flight: FlightRecorder,
    traces: Mutex<VecDeque<TraceTree>>,
    trace_capacity: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> Self {
        Recorder::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Recorder {
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::new(capacity),
            traces: Mutex::new(VecDeque::with_capacity(DEFAULT_TRACE_CAPACITY)),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The underlying metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The underlying flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The retained trace trees, oldest first (at most
    /// [`DEFAULT_TRACE_CAPACITY`]).
    pub fn traces(&self) -> Vec<TraceTree> {
        self.traces
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
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

    fn trace_span(
        &self,
        trace_id: u64,
        span_id: u32,
        parent: Option<u32>,
        name: &'static str,
        seconds: f64,
    ) {
        let mut traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        let tree = match traces.back_mut() {
            Some(tree) if tree.trace_id == trace_id => tree,
            _ => {
                if traces.len() == self.trace_capacity {
                    traces.pop_front();
                }
                traces.push_back(TraceTree::new(trace_id));
                traces.back_mut().expect("just pushed")
            }
        };
        tree.insert(SpanRecord {
            id: span_id,
            parent,
            name,
            seconds,
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

    #[test]
    fn trace_spans_rebuild_per_epoch_trees() {
        let recorder = Recorder::new();
        for trace_id in 0..3u64 {
            recorder.trace_span(trace_id, 0, None, "epoch", 1.0);
            recorder.trace_span(trace_id, 1, Some(0), "solve", 0.5);
        }
        let traces = recorder.traces();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[2].trace_id, 2);
        assert_eq!(traces[2].spans.len(), 2);
        assert_eq!(traces[2].root().unwrap().name, "epoch");
    }
}
