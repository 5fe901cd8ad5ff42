//! Chaos suite: a fault-injecting TCP client driving a live service.
//!
//! Each scenario throws one class of network misbehavior at the server —
//! byte-trickling, header floods, garbage bytes, abrupt resets, mid-body
//! stalls, connection floods, deadline storms — and asserts the contract
//! of the robust serve tier:
//!
//! * the server never hangs: every probe gets a bounded-latency answer;
//! * the server never panics: it keeps answering after every storm;
//! * it sheds and degrades *honestly* (408/429/431/503/504, or a degraded
//!   analytic answer flagged as such);
//! * it recovers: `/readyz` reports healthy once the storm passes.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use trainbox_serve::{serve, ServeConfig, ServeHandle};

/// Chaos-tier config: aggressive timeouts and a hair-trigger breaker so
/// the suite runs in seconds rather than minutes.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 16,
        cache_capacity: 64,
        read_timeout_ms: 150,
        write_timeout_ms: 1_000,
        breaker_threshold: 2,
        breaker_cooldown_ms: 800,
        degrade_queue_depth: 12,
        min_des_deadline_ms: 10,
        des_workers: 2,
        ..ServeConfig::default()
    }
}

fn start(cfg: ServeConfig) -> (SocketAddr, ServeHandle) {
    let handle = serve(cfg).expect("bind");
    (handle.addr(), handle)
}

/// One-shot HTTP client with client-side timeouts so a wedged server fails
/// the test instead of hanging it. Returns (status, headers, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    http_with_headers(addr, method, path, &[], body)
}

fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_write_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nhost: chaos\r\n");
    for (name, value) in extra {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("content-length: {}\r\nconnection: close\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
    (status, head.to_string(), body.to_string())
}

/// A DES request slow enough (hundreds of ms) that a tight deadline always
/// cancels it. `salt` varies `max_events` so each spelling hashes — and
/// caches — separately.
fn slow_des(salt: u64, deadline_ms: Option<u64>, faulted: bool) -> String {
    let deadline = match deadline_ms {
        Some(ms) => format!(r#""deadline_ms": {ms},"#),
        None => String::new(),
    };
    let faults = if faulted {
        r#""faults": {"events": [{"at_secs": 0.5, "kind": {"AccelDropout": {"acc": 0}}}]},"#
    } else {
        ""
    };
    format!(
        r#"{{"server": {{"kind": "TrainBoxNoPool", "n_accels": 16, "batch_size": 512}},
            "workload": "Inception-v4",
            {deadline}
            {faults}
            "sim": {{"Des": {{"chunk_samples": 32, "batches": 100, "warmup_batches": 2,
                            "prefetch_batches": 1, "max_events": {}}}}}}}"#,
        400_000_000 + salt
    )
}

/// A DES request small enough to finish in well under a second.
fn fast_des(salt: u64, deadline_ms: u64) -> String {
    format!(
        r#"{{"server": {{"kind": "TrainBoxNoPool", "n_accels": 4, "batch_size": 512}},
            "workload": "Resnet-50",
            "deadline_ms": {deadline_ms},
            "sim": {{"Des": {{"chunk_samples": 64, "batches": 3, "warmup_batches": 1,
                            "prefetch_batches": 1, "max_events": {}}}}}}}"#,
        10_000_000 + salt
    )
}

fn metric(doc: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    let rest = &doc[doc.find(&key).unwrap_or_else(|| panic!("no {name} in {doc}")) + key.len()..];
    let end = rest.find([',', '}']).expect("metric value terminator");
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("bad {name} in {doc}: {e}"))
}

#[test]
fn slowloris_trickler_is_disconnected_not_served_forever() {
    // ONE worker: if the trickler could pin it, nothing else would ever be
    // answered — the strongest form of the regression.
    let (addr, handle) = start(ServeConfig { workers: 1, ..chaos_config() });

    let trickler = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        // One byte per 50 ms keeps each socket read alive; only the header
        // budget (2× read timeout = 300 ms) can end this.
        for b in b"GET /healthz HTTP/1.1\r\nx-drip: 0123456789abcdef\r".iter() {
            if stream.write_all(&[*b]).is_err() {
                break; // server cut us off — exactly what we want
            }
            thread::sleep(Duration::from_millis(50));
        }
        // Whether cut off mid-write or answered 408, the connection must
        // reach EOF promptly rather than idling forever.
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        (started.elapsed(), String::from_utf8_lossy(&sink).into_owned())
    });

    let (elapsed, answer) = trickler.join().unwrap();
    assert!(
        elapsed < Duration::from_secs(4),
        "trickler must be disconnected in bounded time, held for {elapsed:?}"
    );
    if !answer.is_empty() {
        assert!(answer.contains("408"), "a trickler that got an answer gets 408: {answer}");
    }

    // The lone worker is free again: liveness answered quickly.
    let started = Instant::now();
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(started.elapsed() < Duration::from_secs(2), "worker still pinned");

    handle.shutdown();
}

#[test]
fn header_flood_is_rejected_with_431() {
    let (addr, handle) = start(chaos_config());

    // Too many headers.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..200 {
        raw.push_str(&format!("x-flood-{i}: {i}\r\n"));
    }
    raw.push_str("\r\n");
    stream.write_all(raw.as_bytes()).unwrap();
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    assert!(answer.contains("431"), "{answer}");

    // One absurdly long header line.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let raw = format!("GET /healthz HTTP/1.1\r\nx-big: {}\r\n\r\n", "v".repeat(64 * 1024));
    // The server may close mid-upload; ignore the write error and read on.
    let _ = stream.write_all(raw.as_bytes());
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    assert!(answer.contains("431"), "{answer}");

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(metric(&metrics, "http_431") >= 2.0, "{metrics}");
    handle.shutdown();
}

#[test]
fn mid_body_stall_times_out_with_408() {
    let (addr, handle) = start(chaos_config());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(b"POST /simulate HTTP/1.1\r\ncontent-length: 4096\r\n\r\npartial-then-silence")
        .unwrap();
    // Promise 4096 bytes, send 20, stall with the socket open.
    let started = Instant::now();
    let mut answer = String::new();
    let _ = stream.read_to_string(&mut answer);
    assert!(answer.contains("408"), "stalled body must be answered 408: {answer}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stall must end at the read timeout, took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn garbage_and_reset_storm_leaves_the_server_healthy() {
    let (addr, handle) = start(chaos_config());

    let mut storm = Vec::new();
    for i in 0..24u64 {
        storm.push(thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(addr) else { return };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            // Deterministic junk, different every connection.
            let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let junk: Vec<u8> = (0..256)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            match i % 4 {
                // Garbage then a clean half-close: parser sees a bad line.
                0 => {
                    let _ = stream.write_all(&junk);
                    let _ = stream.write_all(b"\r\n");
                    let _ = stream.shutdown(Shutdown::Write);
                    let mut sink = Vec::new();
                    let _ = stream.read_to_end(&mut sink);
                }
                // Garbage then vanish: abrupt drop with data in flight.
                1 => {
                    let _ = stream.write_all(&junk);
                    drop(stream);
                }
                // A valid-looking start, then gone mid-header.
                2 => {
                    let _ = stream.write_all(b"POST /simulate HTTP/1.1\r\ncontent-le");
                    drop(stream);
                }
                // Connect and immediately reset both directions.
                _ => {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }));
    }
    for t in storm {
        t.join().unwrap();
    }

    // The service survived: a real question is answered, and readiness is
    // restored once the junk connections are drained.
    let (status, _, body) = http(
        addr,
        "POST",
        "/simulate",
        r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "Resnet-50"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    handle.shutdown();
}

#[test]
fn connection_flood_sheds_then_recovers_to_ready() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..chaos_config()
    });

    let burst: Vec<_> = (0..10)
        .map(|i| {
            // Untimed slow DES bodies, all distinct: every admitted request
            // occupies the single worker for real.
            let body = slow_des(1000 + i, None, false);
            thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).ok()?;
                stream.set_read_timeout(Some(Duration::from_secs(60))).ok()?;
                let req = format!(
                    "POST /simulate HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                );
                stream.write_all(req.as_bytes()).ok()?;
                let mut raw = String::new();
                stream.read_to_string(&mut raw).ok()?;
                raw.split_whitespace().nth(1).and_then(|s| s.parse::<u16>().ok())
            })
        })
        .collect();
    let statuses: Vec<u16> = burst.into_iter().filter_map(|t| t.join().unwrap()).collect();

    let shed = statuses.iter().filter(|&&s| s == 429).count();
    assert!(shed > 0, "a 10-deep burst into 1 worker + 1 slot must shed: {statuses:?}");
    for &s in &statuses {
        assert!(
            matches!(s, 200 | 429 | 500),
            "every flooded request gets an honest answer, got {s} in {statuses:?}"
        );
    }

    // Storm over: the tier reports ready and the breaker never tripped
    // (slow-but-successful untimed runs are not failures).
    let (status, _, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(metric(&metrics, "shed_total") >= shed as f64, "{metrics}");
    assert!(metrics.contains("\"breaker_state\":\"closed\""), "{metrics}");
    handle.shutdown();
}

#[test]
fn deadline_storm_degrades_breaks_and_recovers() {
    let (addr, handle) = start(chaos_config());

    // 1. A deadline below the DES floor degrades instantly — no DES run,
    //    no breaker involvement. Delivered via the X-Deadline-Ms header to
    //    exercise header→request propagation.
    let started = Instant::now();
    let (status, head, body) = http_with_headers(
        addr,
        "POST",
        "/simulate",
        &[("X-Deadline-Ms", "1")],
        &slow_des(1, None, false),
    );
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-degraded: deadline_too_tight"), "{head}");
    assert!(body.contains("\"degraded\":true"), "{body}");
    assert!(started.elapsed() < Duration::from_secs(2), "too-tight path must not run the DES");

    // 2. A faulted request cannot degrade: its deadline timeout is an
    //    honest 504 carrying the partial progress.
    let (status, _, body) = http(addr, "POST", "/simulate", &slow_des(2, Some(30), true));
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline of 30 ms exceeded"), "{body}");
    assert!(body.contains("events"), "504 must carry partial progress: {body}");

    // 3. A fault-free timeout degrades to the analytic answer...
    let (status, head, body) = http(addr, "POST", "/simulate", &slow_des(3, Some(30), false));
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-degraded: deadline_exceeded"), "{head}");
    assert!(body.contains("\"degraded\":true"), "{body}");

    // ...and that second consecutive failure (threshold 2) opens the
    // breaker: the tier stops burning workers on doomed runs.
    let (status, _, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 503, "breaker open must fail readiness: {body}");
    assert!(body.contains("\"breaker\":\"open\""), "{body}");

    // 4. While open, a deadline'd DES request is answered degraded at
    //    once — even with a generous deadline — because admission refused.
    let started = Instant::now();
    let (status, head, body) = http(addr, "POST", "/simulate", &slow_des(4, Some(30_000), false));
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-degraded: breaker_open"), "{head}");
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "open breaker must answer without running the DES, took {:?}",
        started.elapsed()
    );

    // 5. After the cooldown, a half-open probe that succeeds closes the
    //    breaker and readiness returns.
    thread::sleep(Duration::from_millis(900));
    let (status, head, body) = http(addr, "POST", "/simulate", &fast_des(5, 30_000));
    assert_eq!(status, 200, "probe must run and succeed: {body}");
    assert!(!head.contains("x-degraded"), "probe answer is the real DES: {head}");
    assert!(body.contains("\"degraded\":false"), "{body}");

    let (status, _, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "recovered tier must be ready: {body}");
    assert!(body.contains("\"breaker\":\"closed\""), "{body}");

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(metric(&metrics, "breaker_trips") >= 1.0, "{metrics}");
    assert!(metric(&metrics, "deadline_timeouts") >= 2.0, "{metrics}");
    assert!(metric(&metrics, "degraded_total") >= 3.0, "{metrics}");
    assert!(metric(&metrics, "http_504") >= 1.0, "{metrics}");
    handle.shutdown();
}
