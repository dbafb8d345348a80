//! Integration tests of the scrape exporter surface: a byte-exact golden
//! test of the Prometheus text exposition (format 0.0.4), and a
//! scrape-under-load test that hammers `/metrics` and `/health` over real
//! HTTP while writer threads mutate the shared recorder, checking that
//! every scrape is a *consistent* snapshot (cumulative buckets monotone,
//! `+Inf` equals `_count`, counters never run backwards across scrapes),
//! a slow-client test showing a trickling connection cannot starve a
//! scrape queued behind it, and hostile-input tests of the request-head
//! parser: an over-long head gets 400, and arbitrary or mutated heads never
//! take the serving thread down.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rental_obs::{
    render_prometheus, Exporter, Histogram, MetricsSnapshot, Recorder, TelemetrySink,
};

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
fn exposition_format_matches_the_golden_rendering() {
    let mut histogram = Histogram::new();
    histogram.record(1);
    histogram.record(3);
    let snapshot = MetricsSnapshot {
        counters: BTreeMap::from([("test.golden.epochs".to_string(), 3)]),
        gauges: BTreeMap::from([("test.golden.active".to_string(), 1.0)]),
        histograms: BTreeMap::from([("test.golden.nodes".to_string(), histogram)]),
    };
    // Samples 1 and 3 land in the power-of-two buckets [1,2) (le="1") and
    // [2,4) (le="3"); p50 interpolates to the top of the first occupied
    // bucket, p95/p99 clamp to the recorded max.
    let expected = "\
# TYPE test_golden_epochs counter
test_golden_epochs 3
# TYPE test_golden_active gauge
test_golden_active 1
# TYPE test_golden_nodes histogram
test_golden_nodes_bucket{le=\"1\"} 1
test_golden_nodes_bucket{le=\"3\"} 2
test_golden_nodes_bucket{le=\"+Inf\"} 2
test_golden_nodes_sum 4
test_golden_nodes_count 2
# TYPE test_golden_nodes_p50 gauge
test_golden_nodes_p50 2
# TYPE test_golden_nodes_p95 gauge
test_golden_nodes_p95 3
# TYPE test_golden_nodes_p99 gauge
test_golden_nodes_p99 3
";
    assert_eq!(render_prometheus(&snapshot), expected);
}

/// Pulls `prefix_suffix value` lines out of an exposition body.
fn series_value(body: &str, series: &str) -> Option<u64> {
    body.lines()
        .find(|line| line.starts_with(series) && line.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|line| line[series.len() + 1..].trim().parse().ok())
}

#[test]
fn concurrent_scrapes_see_consistent_snapshots() {
    const WRITERS: usize = 3;
    const OPS_PER_WRITER: u64 = 400;

    let recorder = Arc::new(Recorder::new());
    let exporter = Exporter::bind(recorder.clone(), "127.0.0.1:0").unwrap();
    let addr = exporter.local_addr();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let recorder = recorder.clone();
            std::thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    recorder.counter("test.scrape.ops", 1);
                    recorder.observe("test.scrape.latency", (w as u64 + 1) * (i % 17 + 1));
                }
            })
        })
        .collect();

    let mut last_ops = 0u64;
    for _ in 0..20 {
        let (head, body) = scrape(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "bad head: {head}");

        // Counters are monotone across scrapes: a later snapshot can never
        // show less work than an earlier one.
        if let Some(ops) = series_value(&body, "test_scrape_ops") {
            assert!(ops >= last_ops, "counter ran backwards: {ops} < {last_ops}");
            assert!(ops <= WRITERS as u64 * OPS_PER_WRITER);
            last_ops = ops;
        }

        // Within one snapshot the histogram is internally consistent:
        // buckets cumulative and the +Inf bucket equal to the count.
        if let Some(count) = series_value(&body, "test_scrape_latency_count") {
            let inf = series_value(&body, "test_scrape_latency_bucket{le=\"+Inf\"}").unwrap();
            assert_eq!(inf, count);
            let mut previous = 0u64;
            for line in body.lines().filter(|l| {
                l.starts_with("test_scrape_latency_bucket{le=\"") && !l.contains("+Inf")
            }) {
                let cumulative: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(cumulative >= previous, "non-cumulative bucket line: {line}");
                assert!(cumulative <= count);
                previous = cumulative;
            }
        }

        let (_, health) = scrape(addr, "/health");
        assert!(health.contains("\"status\":\"ok\""), "bad health: {health}");
    }

    for writer in writers {
        writer.join().unwrap();
    }

    // After the writers retire, the scrape converges on the exact totals.
    let (_, body) = scrape(addr, "/metrics");
    assert_eq!(
        series_value(&body, "test_scrape_ops"),
        Some(WRITERS as u64 * OPS_PER_WRITER)
    );
    assert_eq!(
        series_value(&body, "test_scrape_latency_count"),
        Some(WRITERS as u64 * OPS_PER_WRITER)
    );

    exporter.shutdown();
}

#[test]
fn a_trickling_client_cannot_starve_a_scrape() {
    let recorder = Arc::new(Recorder::new());
    let exporter = Exporter::bind(recorder, "127.0.0.1:0").unwrap();
    let addr = exporter.local_addr();

    // The trickler connects first and sends its head one byte every 250 ms,
    // well inside any per-read timeout, and never finishes it.
    let stop = Arc::new(AtomicBool::new(false));
    let (connected, trickling) = std::sync::mpsc::channel();
    let trickler = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            connected.send(()).unwrap();
            for byte in b"GET /metrics HTTP/1.1\r\nX-Slow: ".iter().cycle().take(40) {
                if stop.load(Ordering::SeqCst) || stream.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        })
    };
    trickling.recv().unwrap();

    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    let read = stream.read_to_string(&mut response);
    let elapsed = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    trickler.join().unwrap();
    exporter.shutdown();

    assert!(read.is_ok(), "the scrape timed out behind the trickler");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "bad response: {response}"
    );
    assert!(elapsed < Duration::from_secs(5), "scrape took {elapsed:?}");
}

/// Sends `bytes` as a whole request, shuts down the write half and returns
/// what arrives (`None` when the connection fails before any response).
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).ok()?;
    stream.shutdown(std::net::Shutdown::Write).ok()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok()?;
    Some(response)
}

/// A response that arrived starts with one of the exporter's status lines,
/// and a normal scrape afterwards still succeeds.
fn assert_served(addr: SocketAddr, response: Option<Vec<u8>>) {
    if let Some(response) = response.filter(|r| !r.is_empty()) {
        let status = [
            "200 OK",
            "400 Bad Request",
            "404 Not Found",
            "405 Method Not Allowed",
        ];
        assert!(
            status
                .iter()
                .any(|s| response.starts_with(format!("HTTP/1.1 {s}\r\n").as_bytes())),
            "bad status line: {:?}",
            String::from_utf8_lossy(&response[..response.len().min(64)])
        );
    }
    let (head, _) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad head: {head}");
}

#[test]
fn a_head_past_the_cap_gets_400() {
    let exporter = Exporter::bind(Arc::new(Recorder::new()), "127.0.0.1:0").unwrap();
    let addr = exporter.local_addr();
    let mut padded = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
    padded.resize(9 * 1024, b'a');
    let response = exchange(addr, &padded).expect("a response arrives");
    assert!(
        response.starts_with(b"HTTP/1.1 400 Bad Request\r\n"),
        "bad response: {:?}",
        String::from_utf8_lossy(&response[..response.len().min(64)])
    );
    // Garbage whose first line is not `METHOD PATH VERSION` gets 400 too.
    let response = exchange(addr, b"hello\r\n\r\n").expect("a response arrives");
    assert!(response.starts_with(b"HTTP/1.1 400 Bad Request\r\n"));
    assert_served(addr, None);
    exporter.shutdown();
}

const VALID_HEAD: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_heads_never_take_the_exporter_down(
        bytes in proptest::collection::vec(any::<u8>(), 0..12 * 1024),
    ) {
        let exporter = Exporter::bind(Arc::new(Recorder::new()), "127.0.0.1:0").unwrap();
        let addr = exporter.local_addr();
        assert_served(addr, exchange(addr, &bytes));
        exporter.shutdown();
    }

    #[test]
    fn mutated_heads_never_take_the_exporter_down(
        at in 0..VALID_HEAD.len(),
        byte in any::<u8>(),
    ) {
        let exporter = Exporter::bind(Arc::new(Recorder::new()), "127.0.0.1:0").unwrap();
        let addr = exporter.local_addr();
        let mut head = VALID_HEAD.to_vec();
        head[at] = byte;
        assert_served(addr, exchange(addr, &head));
        exporter.shutdown();
    }
}
