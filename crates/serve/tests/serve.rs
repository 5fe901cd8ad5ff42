//! End-to-end tests against a live service on an ephemeral port: the
//! acceptance scenario (the Figure-20 what-if answered over HTTP, with the
//! repeat served from cache), field-level 400s, metrics, load shedding,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;

use trainbox_serve::{serve, ServeConfig};

/// One-shot HTTP client: returns (status, headers, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

fn post_simulate(addr: SocketAddr, body: &str) -> (u16, String, String) {
    http(addr, "POST", "/simulate", body)
}

fn start(cfg: ServeConfig) -> (SocketAddr, trainbox_serve::ServeHandle) {
    let handle = serve(ServeConfig { addr: "127.0.0.1:0".to_string(), ..cfg }).expect("bind");
    (handle.addr(), handle)
}

fn json(text: &str) -> trainbox_sim::json::Value {
    trainbox_sim::json::parse(text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"))
}

fn samples_per_sec(addr: SocketAddr, kind: &str, batch: u64) -> f64 {
    let body = format!(
        r#"{{"server": {{"kind": "{kind}", "n_accels": 256, "batch_size": {batch}}},
            "workload": "Resnet-50"}}"#
    );
    let (status, _, resp) = post_simulate(addr, &body);
    assert_eq!(status, 200, "simulate failed: {resp}");
    let v = json(&resp);
    v.get("outcome")
        .and_then(|o| o.get("Analytic"))
        .and_then(|t| t.get("samples_per_sec"))
        .and_then(|s| s.as_f64())
        .unwrap_or_else(|| panic!("no analytic samples_per_sec in {resp}"))
}

#[test]
fn answers_the_figure_20_what_if() {
    let (addr, handle) = start(ServeConfig::default());

    // The service's answer to "TrainBox vs baseline at batch 8192" must
    // reproduce the committed Figure 20 speedup exactly: same engine, same
    // canonical code path as the figure binary.
    let tb = samples_per_sec(addr, "TrainBox", 8192);
    let base = samples_per_sec(addr, "Baseline", 8192);
    let fig20 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig20.json"
    ))
    .expect("committed fig20.json");
    let rows = json(&fig20);
    let expected = rows
        .as_array()
        .and_then(|rows| {
            rows.iter()
                .map(|r| Some((r.idx(0)?.as_f64()?, r.idx(1)?.as_f64()?)))
                .collect::<Option<Vec<_>>>()
        })
        .expect("fig20 rows");
    let (_, want) = expected.iter().find(|(b, _)| *b == 8192.0).expect("batch 8192 row");
    let got = tb / base;
    assert!(
        (got - want).abs() < 1e-9 * want,
        "served speedup {got} != committed {want}"
    );

    handle.shutdown();
}

#[test]
fn repeats_are_served_from_cache_under_any_spelling() {
    let (addr, handle) = start(ServeConfig::default());

    let spelled = r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "Resnet-50"}"#;
    let (status, head, first) = post_simulate(addr, spelled);
    assert_eq!(status, 200, "{first}");
    assert!(head.contains("x-cache: miss"), "first ask must miss: {head}");

    // Same question, different key order, casing, and explicit defaults.
    let respelled = r#"{"workload": "RESNET-50", "trace": false,
        "server": {"n_accels": 256, "batch_size": null, "kind": "TrainBox"}}"#;
    let (status, head, second) = post_simulate(addr, respelled);
    assert_eq!(status, 200, "{second}");
    assert!(head.contains("x-cache: hit"), "respelled repeat must hit: {head}");
    assert_eq!(first, second, "cache must return the original bytes");

    let (status, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = json(&metrics);
    assert_eq!(m.get("cache_hits").and_then(|v| v.as_f64()), Some(1.0), "{metrics}");
    assert_eq!(m.get("cache_misses").and_then(|v| v.as_f64()), Some(1.0), "{metrics}");
    assert_eq!(m.get("cache_entries").and_then(|v| v.as_f64()), Some(1.0), "{metrics}");

    handle.shutdown();
}

#[test]
fn config_errors_are_field_level_400s() {
    let (addr, handle) = start(ServeConfig::default());

    let (status, _, body) = post_simulate(
        addr,
        r#"{"server": {"kind": "TrainBox", "n_accels": 0}, "workload": "Resnet-50"}"#,
    );
    assert_eq!(status, 400, "{body}");
    let err = json(&body);
    assert_eq!(err.get("field").and_then(|f| f.as_str()), Some("server.n_accels"), "{body}");

    let (status, _, body) = post_simulate(
        addr,
        r#"{"server": {"kind": "Baseline", "n_accels": 16, "pool_fpgas": 4},
            "workload": "Resnet-50"}"#,
    );
    assert_eq!(status, 400, "{body}");
    let err = json(&body);
    assert_eq!(err.get("field").and_then(|f| f.as_str()), Some("server.pool_fpgas"), "{body}");

    // Faults cannot ride on the analytic model.
    let (status, _, body) = post_simulate(
        addr,
        r#"{"server": {"kind": "TrainBox", "n_accels": 16}, "workload": "Resnet-50",
            "faults": {"events": [{"at_secs": 0.1, "kind": {"AccelDropout": {"acc": 0}}}]}}"#,
    );
    assert_eq!(status, 400, "{body}");
    let err = json(&body);
    assert_eq!(err.get("field").and_then(|f| f.as_str()), Some("faults"), "{body}");

    // Not JSON at all.
    let (status, _, body) = post_simulate(addr, "not json");
    assert_eq!(status, 400, "{body}");
    let err = json(&body);
    assert_eq!(err.get("field").and_then(|f| f.as_str()), Some("body"), "{body}");

    handle.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_rejected() {
    let (addr, handle) = start(ServeConfig::default());
    let (status, _, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "DELETE", "/simulate", "");
    assert_eq!(status, 405);
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("ok"));
    // A freshly started idle service is ready: breaker closed, queue empty.
    let (status, _, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ready\":true"), "{body}");
    assert!(body.contains("\"breaker\":\"closed\""), "{body}");
    let (status, _, _) = http(addr, "PUT", "/readyz", "");
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn workload_catalog_lists_presets_with_lowered_stages() {
    let (addr, handle) = start(ServeConfig::default());
    let (status, _, body) = http(addr, "GET", "/workloads", "");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    let entries = v.get("workloads").and_then(|w| w.as_array()).expect("workloads array");
    let names: Vec<&str> = entries
        .iter()
        .map(|e| e.get("name").and_then(|n| n.as_str()).expect("name"))
        .collect();
    for expect in ["Resnet-50", "TF-SR", "LLM-7B", "DLRM", "Video-TF", "Mixed-RN50-TFSR"] {
        assert!(names.contains(&expect), "missing {expect} in {names:?}");
    }
    // Every non-tenanted entry carries the stage graph it lowers to.
    for e in entries {
        let name = e.get("name").and_then(|n| n.as_str()).unwrap();
        assert!(e.get("sync").is_some(), "{name}: sync pattern missing");
        assert!(e.get("workload").is_some(), "{name}: workload body missing");
        if name != "Mixed-RN50-TFSR" {
            let stages = e
                .get("lowered_stages")
                .and_then(|s| s.get("stages"))
                .and_then(|s| s.as_array())
                .unwrap_or_else(|| panic!("{name}: lowered stage graph missing"));
            assert!(!stages.is_empty(), "{name}: empty stage graph");
        }
    }
    // Catalog is read-only.
    let (status, _, _) = http(addr, "POST", "/workloads", "{}");
    assert_eq!(status, 405);
    handle.shutdown();
}

#[test]
fn concurrent_identical_questions_coalesce() {
    let (addr, handle) = start(ServeConfig::default());

    // A DES request slow enough that concurrent asks overlap.
    let body: Arc<str> = Arc::from(
        r#"{"server": {"kind": "TrainBoxNoPool", "n_accels": 16, "batch_size": 512},
            "workload": "Inception-v4",
            "sim": {"Des": {"chunk_samples": 64, "batches": 8, "warmup_batches": 2,
                            "prefetch_batches": 1, "max_events": 10000000}}}"#,
    );
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let body = Arc::clone(&body);
            thread::spawn(move || post_simulate(addr, &body))
        })
        .collect();
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for (status, _, resp) in &responses {
        assert_eq!(*status, 200, "{resp}");
        assert_eq!(resp, &responses[0].2, "all callers must receive identical bytes");
    }

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    let hits = m.get("cache_hits").and_then(|v| v.as_f64()).unwrap();
    let coalesced = m.get("coalesced_waits").and_then(|v| v.as_f64()).unwrap();
    let misses = m.get("cache_misses").and_then(|v| v.as_f64()).unwrap();
    // Every request either hit the cache or was a miss; of the misses, all
    // but one waited on the leader's flight — exactly one simulation ran.
    assert_eq!(hits + misses, 4.0, "{metrics}");
    assert_eq!(misses - coalesced, 1.0, "one leader expected: {metrics}");

    handle.shutdown();
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    // One worker, one queue slot: while the worker chews a slow DES
    // request, a burst can admit at most one more — the rest must be shed.
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0, // every request simulates; no cache shortcuts
        ..ServeConfig::default()
    });
    let slow = |i: u64| {
        format!(
            r#"{{"server": {{"kind": "TrainBoxNoPool", "n_accels": 16, "batch_size": 512}},
                "workload": "Inception-v4",
                "sim": {{"Des": {{"chunk_samples": 32, "batches": 20, "warmup_batches": 2,
                                "prefetch_batches": 1, "max_events": {}}}}}}}"#,
            10_000_000 + i // distinct canonical hashes: no coalescing escape hatch
        )
    };
    let burst: Vec<_> = (0..8)
        .map(|i| {
            let body = slow(i);
            thread::spawn(move || post_simulate(addr, &body))
        })
        .collect();
    let responses: Vec<_> = burst.into_iter().map(|t| t.join().unwrap()).collect();
    let shed: Vec<_> = responses.iter().filter(|(status, _, _)| *status == 429).collect();
    assert!(!shed.is_empty(), "an 8-deep burst into 1 worker + 1 slot must shed");
    for (_, head, body) in &shed {
        // Retry-After is now derived from backlog and breaker state; a
        // fresh 1-worker/1-slot server reports a small positive value.
        let ra = head
            .lines()
            .find_map(|l| l.strip_prefix("retry-after: "))
            .unwrap_or_else(|| panic!("{head}"))
            .trim()
            .parse::<u64>()
            .unwrap();
        assert!((1..=60).contains(&ra), "{head}");
        assert!(body.contains("retry later"), "{body}");
    }
    assert!(
        responses.iter().any(|(status, _, _)| *status == 200),
        "admitted requests still succeed"
    );

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    let shed_total = m.get("shed_total").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(shed_total as usize, shed.len(), "{metrics}");

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_exits() {
    let (addr, handle) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (status, _, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    let (status, _, body) = http(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200, "{body}");
    handle.join(); // all threads exit without an explicit local shutdown

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed after shutdown");
}

#[test]
fn cluster_requests_answer_over_http_with_the_service_des_workers_default() {
    // `des_workers: 3` exercises the service-level parallel default; the
    // answer must be identical to the sequential engine (the request API
    // proptests that invariant), so the wire behavior here is just: a
    // cluster DES question answers 200 with a Cluster outcome, and the
    // repeat hits the cache under the worker-free canonical key.
    let (addr, handle) =
        start(ServeConfig { workers: 2, des_workers: 3, ..ServeConfig::default() });
    let body = r#"{"server": {"kind": "TrainBoxNoPool", "n_accels": 4, "batch_size": 64},
        "workload": "RNN-S",
        "sim": {"Des": {"batches": 4, "warmup_batches": 1}},
        "cluster": {"servers": 3}}"#;
    let (status, head, resp) = post_simulate(addr, body);
    assert_eq!(status, 200, "cluster simulate failed: {resp}");
    assert!(head.contains("x-cache: miss"), "{head}");
    let v = json(&resp);
    let servers = v
        .get("outcome")
        .and_then(|o| o.get("Cluster"))
        .and_then(|c| c.get("servers"))
        .and_then(|s| s.as_f64())
        .unwrap_or_else(|| panic!("no cluster outcome in {resp}"));
    assert_eq!(servers as usize, 3);

    let (status, head, repeat) = post_simulate(addr, body);
    assert_eq!(status, 200);
    assert!(head.contains("x-cache: hit"), "{head}");
    assert_eq!(resp, repeat, "cached answer must be the same bytes");

    // An invalid cluster spec is a field-level 400.
    let bad = body.replace("{\"servers\": 3}", "{\"servers\": 0}");
    let (status, _, err) = post_simulate(addr, &bad);
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("\"field\":\"cluster\""), "{err}");

    handle.shutdown();
}
