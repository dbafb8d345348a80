//! The flight recorder: a fixed-capacity ring buffer of structured events.
//!
//! The recorder keeps the **last N** operationally interesting events —
//! adoptions, SLO violations, degraded solves, chaos faults, recoveries —
//! so that when a run degrades (or panics) the recent history is right
//! there, dumpable as JSON lines without having logged anything to disk
//! during healthy operation.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json::JsonRow;

/// The kind of a flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A tenant adopted a freshly solved plan.
    Adoption,
    /// An epoch's surviving capacity could not carry a tenant's demand.
    SloViolation,
    /// A re-solve fell down the degradation ladder (anytime incumbent,
    /// deferred retry, or degraded-target fallback).
    DegradedSolve,
    /// A fault was injected by the chaos layer (or an arbitration delay
    /// struck).
    ChaosFault,
    /// A durable run resumed from persisted state.
    Recovery,
    /// An alert rule started firing (detail = rule name).
    AlertFired,
    /// A firing alert rule returned below threshold (detail = rule name).
    AlertResolved,
}

impl EventKind {
    /// Stable lowercase name used in JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Adoption => "adoption",
            EventKind::SloViolation => "slo_violation",
            EventKind::DegradedSolve => "degraded_solve",
            EventKind::ChaosFault => "chaos_fault",
            EventKind::Recovery => "recovery",
            EventKind::AlertFired => "alert_fired",
            EventKind::AlertResolved => "alert_resolved",
        }
    }
}

/// One structured event. `seq` is assigned by the [`FlightRecorder`] and is
/// monotone over the run, so a dump shows how much history was evicted.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number (0-based over the whole run).
    pub seq: u64,
    /// Epoch index the event occurred in.
    pub epoch: usize,
    /// Tenant index, when the event is tenant-scoped.
    pub tenant: Option<usize>,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific magnitude (projected savings for adoptions, shortfall
    /// for SLO violations, …); 0 when not meaningful.
    pub value: f64,
    /// Free-text detail, built by the emitter only when a sink is enabled.
    pub detail: String,
}

impl Event {
    /// The event as one row.
    pub fn row(&self) -> JsonRow {
        let row = JsonRow::new()
            .u64("seq", self.seq)
            .str("kind", self.kind.name())
            .usize("epoch", self.epoch);
        let row = match self.tenant {
            Some(tenant) => row.usize("tenant", tenant),
            None => row.raw("tenant", "null"),
        };
        row.f64("value", self.value).str("detail", &self.detail)
    }
}

struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// Fixed-capacity ring buffer of [`Event`]s; recording past capacity
/// evicts the oldest. All methods are `&self` (internally locked) so the
/// recorder can sit behind an `Arc` shared with an exporter.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
        }
    }

    /// Records `event` (its `seq` is overwritten with the next sequence
    /// number), evicting the oldest event when full.
    pub fn record(&self, mut event: Event) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        event.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).next_seq
    }

    /// Events evicted by ring overflow (total recorded − retained).
    /// Surfaced as the `obs.events_dropped` counter so overflow is visible
    /// instead of silent.
    pub fn dropped(&self) -> u64 {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.next_seq - ring.events.len() as u64
    }

    /// Drops all retained events (the sequence counter keeps running).
    pub fn clear(&self) {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .clear();
    }

    /// Dumps the retained events as JSON lines, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let rows: Vec<JsonRow> = self.events().iter().map(Event::row).collect();
        crate::json::lines(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(epoch: usize, kind: EventKind) -> Event {
        Event {
            seq: 0,
            epoch,
            tenant: Some(epoch % 3),
            kind,
            value: epoch as f64,
            detail: format!("e{epoch}"),
        }
    }

    #[test]
    fn ring_keeps_the_last_n_events_with_monotone_seq() {
        let recorder = FlightRecorder::new(4);
        for epoch in 0..10 {
            recorder.record(event(epoch, EventKind::Adoption));
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert_eq!(recorder.total_recorded(), 10);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        assert_eq!(events[0].epoch, 6);
    }

    #[test]
    fn dump_renders_one_json_line_per_event() {
        let recorder = FlightRecorder::new(8);
        recorder.record(event(0, EventKind::SloViolation));
        recorder.record(Event {
            tenant: None,
            ..event(1, EventKind::Recovery)
        });
        let dump = recorder.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"slo_violation\""));
        assert!(lines[0].contains("\"tenant\":0"));
        assert!(lines[1].contains("\"tenant\":null"));
        assert!(lines[1].contains("\"kind\":\"recovery\""));
    }

    #[test]
    fn clear_drops_events_but_not_the_sequence() {
        let recorder = FlightRecorder::new(2);
        recorder.record(event(0, EventKind::ChaosFault));
        recorder.clear();
        assert!(recorder.is_empty());
        recorder.record(event(1, EventKind::ChaosFault));
        assert_eq!(recorder.events()[0].seq, 1);
    }
}
