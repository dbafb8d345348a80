//! Dependency-free scrape exporter: `/metrics`, `/health`, `/events` over
//! a minimal HTTP/1.1 responder on [`std::net::TcpListener`].
//!
//! The exporter makes a running fleet *live-observable* instead of post-hoc
//! only: point `curl` (or a Prometheus scraper) at the bound port while the
//! epoch loop runs. It is strictly **read-only** — every request takes one
//! consistent [`MetricsSnapshot`] (merging the thread-local metric shards
//! once per scrape) or one flight-recorder copy, and never touches
//! controller state — so attaching it cannot perturb a run: exporter-on
//! reports stay bit-identical (modulo the per-epoch trace trees) to
//! untelemetered ones, a property pinned by the `fleet_obs` bench.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4): counters
//!   and gauges as single series, histograms as cumulative
//!   `_bucket{le="…"}` / `_sum` / `_count` families over the power-of-two
//!   buckets, plus `_p50`/`_p95`/`_p99` interpolated-quantile gauges.
//!   Metric names swap `.` for `_` to fit the exposition grammar.
//! * `GET /health` — one JSON object: liveness, the `fleet.epoch_watermark`
//!   last-completed-epoch gauge, recovery-ladder state
//!   (`fleet.recovery.resumed_epoch`), flight-ring overflow
//!   (`obs.events_dropped`), and the alert plane (counts + firing rules).
//! * `GET /events` — the flight-recorder tail as JSON lines.
//!
//! Any other `GET` gets 404 and any other method 405. A request head longer
//! than 8 KiB, or whose first line is not `METHOD PATH VERSION`, gets 400.
//!
//! The accept loop runs on one background thread; dropping the [`Exporter`]
//! (or calling [`Exporter::shutdown`]) stops it promptly.

use std::io::{self, Read, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::JsonRow;
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::recorder::Recorder;

/// Largest request head the responder reads before answering 400. Scrape
/// requests are a handful of lines; anything bigger is not a scraper.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Bytes taken from the connection per read of the request head.
const READ_CHUNK: usize = 1024;

/// Time a connection gets to deliver its whole request head. One deadline
/// per connection, not per read: a client trickling a byte at a time must
/// not hold the single serving thread for longer than this.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// A background scrape endpoint over a shared [`Recorder`]. Binds on
/// construction, serves until dropped.
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Exporter {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, or port 0 for an ephemeral
    /// port) and starts the accept loop on a background thread. The
    /// exporter only ever *reads* from `recorder`.
    pub fn bind<A: ToSocketAddrs>(recorder: Arc<Recorder>, addr: A) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-exporter".into())
            .spawn(move || accept_loop(listener, recorder, accept_stop))?;
        Ok(Exporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread. Dropping the
    /// exporter does the same; this form merely makes the point explicit
    /// at call sites.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, recorder: Arc<Recorder>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Scrapes are tiny; serve inline. The request head has one
        // deadline and every write its own timeout, so a stalled or
        // trickling client cannot wedge the exporter.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = serve_connection(stream, &recorder);
    }
}

/// A connection's reads under one deadline for the whole request head, so
/// a client trickling a byte at a time cannot hold the serving thread.
struct Deadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads a request head up to its blank line, or to the end of input.
/// `None` when the head passes [`MAX_REQUEST_BYTES`]: reading stops there,
/// so the buffer never holds more than the cap plus one [`READ_CHUNK`].
fn read_head(reader: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut head = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Ok(Some(head));
        }
        head.extend_from_slice(&chunk[..n]);
        if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            return Ok((end + 4 <= MAX_REQUEST_BYTES).then_some(head));
        }
        if head.len() > MAX_REQUEST_BYTES {
            return Ok(None);
        }
    }
}

/// The method and path of a head whose first line is `METHOD PATH VERSION`.
fn request_line(head: &[u8]) -> Option<(&str, &str)> {
    let line = head.split(|&b| b == b'\n').next()?;
    let line = std::str::from_utf8(line).ok()?.trim_end_matches('\r');
    let mut parts = line.split(' ');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(path), Some(version), None)
            if !method.is_empty() && path.starts_with('/') && version.starts_with("HTTP/") =>
        {
            Some((method, path))
        }
        _ => None,
    }
}

fn serve_connection(stream: TcpStream, recorder: &Recorder) -> io::Result<()> {
    let mut reader = Deadline {
        stream: &stream,
        deadline: Instant::now() + HEAD_DEADLINE,
    };
    let head = read_head(&mut reader)?;
    let (status, content_type, body) = match head.as_deref().and_then(request_line) {
        None => ("400 Bad Request", "text/plain", "bad request\n".to_string()),
        Some(("GET", "/metrics")) => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_prometheus(&recorder.snapshot()),
        ),
        Some(("GET", "/health")) => ("200 OK", "application/json", render_health(recorder)),
        Some(("GET", "/events")) => ("200 OK", "application/x-ndjson", recorder.events_jsonl()),
        Some(("GET", _)) => ("404 Not Found", "text/plain", "not found\n".to_string()),
        Some(_) => (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    (&stream).write_all(response.as_bytes())?;
    (&stream).flush()?;
    if head.is_none() {
        // Discard what the client still sends of the over-long head (until
        // it stops or the deadline passes), so closing does not reset the
        // connection before the client has read the 400.
        stream.shutdown(Shutdown::Write)?;
        io::copy(&mut reader, &mut io::sink())?;
    }
    Ok(())
}

/// A metric name rewritten for the exposition grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots become underscores.
fn exposition_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders `snapshot` as Prometheus text exposition format 0.0.4. Public
/// for the golden-format test and any non-HTTP consumer.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, &value) in &snapshot.counters {
        let name = exposition_name(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, &value) in &snapshot.gauges {
        let name = exposition_name(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, histogram) in &snapshot.histograms {
        let name = exposition_name(name);
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (index, &bucket) in histogram.buckets().iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            cumulative += bucket;
            let (_, hi) = Histogram::bucket_bounds(index);
            let le = if index == 0 { 0 } else { hi - 1 };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            histogram.count(),
            histogram.sum(),
            histogram.count(),
        ));
        for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            out.push_str(&format!(
                "# TYPE {name}_{suffix} gauge\n{name}_{suffix} {}\n",
                histogram.quantile(q)
            ));
        }
    }
    out
}

/// Renders the `/health` JSON object.
fn render_health(recorder: &Recorder) -> String {
    let snapshot = recorder.snapshot();
    let gauge = |name: &str| snapshot.gauges.get(name).copied();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let firing: Vec<String> = snapshot
        .gauges
        .iter()
        .filter(|(name, &value)| name.starts_with("fleet.alert.") && value == 1.0)
        .map(|(name, _)| {
            format!(
                "\"{}\"",
                crate::json::escape(name.trim_start_matches("fleet.alert."))
            )
        })
        .collect();
    let mut row = JsonRow::new().str("status", "ok");
    row = match gauge("fleet.epoch_watermark") {
        Some(epoch) => row.u64("epoch_watermark", epoch as u64),
        None => row.raw("epoch_watermark", "null"),
    };
    row = match gauge("fleet.recovery.resumed_epoch") {
        Some(epoch) => row.u64("recovery_resumed_epoch", epoch as u64),
        None => row.raw("recovery_resumed_epoch", "null"),
    };
    row.u64("events_dropped", counter("obs.events_dropped"))
        .u64("events_recorded", recorder.flight().total_recorded())
        .u64(
            "alerts_active",
            gauge("obs.alerts_active").unwrap_or(0.0) as u64,
        )
        .u64("alerts_fired", counter("obs.alerts_fired"))
        .u64("alerts_resolved", counter("obs.alerts_resolved"))
        .raw("alerts_firing", &format!("[{}]", firing.join(",")))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::EventKind;
    use crate::TelemetrySink;

    fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn exporter_serves_metrics_health_and_events() {
        let recorder = Arc::new(Recorder::new());
        recorder.counter("test.export.hits", 3);
        recorder.gauge("fleet.epoch_watermark", 41.0);
        recorder.observe("test.export.latency", 7);
        recorder.event(EventKind::Adoption, 41, Some(2), 1.5, "adopted");
        let exporter = Exporter::bind(recorder, "127.0.0.1:0").unwrap();
        let addr = exporter.local_addr();

        let (head, body) = scrape(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("# TYPE test_export_hits counter"));
        assert!(body.contains("test_export_hits 3"));
        assert!(body.contains("test_export_latency_bucket{le=\"+Inf\"} 1"));
        assert!(body.contains("test_export_latency_sum 7"));
        assert!(body.contains("test_export_latency_p99"));

        let (_, health) = scrape(addr, "/health");
        assert!(health.contains("\"status\":\"ok\""));
        assert!(health.contains("\"epoch_watermark\":41"));
        assert!(health.contains("\"events_dropped\":0"));

        let (_, events) = scrape(addr, "/events");
        assert!(events.contains("\"kind\":\"adoption\""));

        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        exporter.shutdown();
    }

    /// Endless request bytes, counting how many were taken.
    struct Endless {
        taken: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            buf.fill(b'a');
            self.taken += buf.len();
            Ok(buf.len())
        }
    }

    #[test]
    fn an_endless_head_stops_at_the_cap_plus_one_chunk() {
        let mut endless = Endless { taken: 0 };
        assert_eq!(read_head(&mut endless).unwrap(), None);
        assert!(endless.taken > MAX_REQUEST_BYTES);
        assert!(endless.taken <= MAX_REQUEST_BYTES + READ_CHUNK);
    }

    #[test]
    fn heads_are_cut_at_the_blank_line_and_capped() {
        let padded = |len: usize| {
            let mut head = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        let at_cap = padded(MAX_REQUEST_BYTES);
        assert_eq!(read_head(&mut &at_cap[..]).unwrap(), Some(at_cap.clone()));
        assert_eq!(
            read_head(&mut &padded(MAX_REQUEST_BYTES + 1)[..]).unwrap(),
            None
        );
        // Input that ends before a blank line is the whole head.
        assert_eq!(
            read_head(&mut &b"GET /x HTTP/1.1"[..]).unwrap(),
            Some(b"GET /x HTTP/1.1".to_vec())
        );
        assert_eq!(request_line(&at_cap), Some(("GET", "/metrics")));
        for bad in [
            &b""[..],
            b"GET /metrics",
            b"GET  /metrics HTTP/1.1",
            b"GET metrics HTTP/1.1",
            b"GET /metrics HTTP/1.1 x",
            b"\xff /metrics HTTP/1.1",
        ] {
            assert_eq!(request_line(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn exposition_buckets_are_cumulative_and_end_at_inf() {
        let recorder = Recorder::new();
        for v in [1u64, 2, 2, 700] {
            recorder.observe("test.cumulative", v);
        }
        let text = render_prometheus(&recorder.snapshot());
        // Bucket 1 ([1,2), le="1") holds one sample; bucket 2 ([2,4),
        // le="3") two more; bucket 10 ([512,1024), le="1023") the last.
        assert!(text.contains("test_cumulative_bucket{le=\"1\"} 1"));
        assert!(text.contains("test_cumulative_bucket{le=\"3\"} 3"));
        assert!(text.contains("test_cumulative_bucket{le=\"1023\"} 4"));
        assert!(text.contains("test_cumulative_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("test_cumulative_sum 705"));
        assert!(text.contains("test_cumulative_count 4"));
    }
}
