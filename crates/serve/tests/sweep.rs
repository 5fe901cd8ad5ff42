//! End-to-end tests for `POST /sweep`: chunked NDJSON streaming, grid
//! expansion order, per-point provenance, failure isolation, shared-cache
//! dedupe, and — the acceptance bar — byte-identity between every sweep
//! point's `response` field and the body an individual `POST /simulate`
//! of the same question returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use proptest::prelude::*;
use trainbox_serve::{serve, ServeConfig, ServeHandle};

/// One-shot HTTP client: returns (status, head, raw body bytes as text).
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

fn start(cfg: ServeConfig) -> (SocketAddr, ServeHandle) {
    let handle = serve(ServeConfig { addr: "127.0.0.1:0".to_string(), ..cfg }).expect("bind");
    (handle.addr(), handle)
}

fn json(text: &str) -> trainbox_sim::json::Value {
    trainbox_sim::json::parse(text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"))
}

/// Decode a chunked transfer-encoding body into NDJSON lines, checking the
/// framing as it goes (hex size, CRLF discipline, terminating 0-chunk).
fn dechunk(body: &str) -> Vec<String> {
    let mut rest = body;
    let mut decoded = String::new();
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|e| panic!("bad chunk size {size_line:?}: {e}"));
        if size == 0 {
            assert!(tail.is_empty() || tail == "\r\n", "bytes after last chunk: {tail:?}");
            break;
        }
        assert!(tail.len() >= size + 2, "truncated chunk of {size} bytes");
        decoded.push_str(&tail[..size]);
        assert_eq!(&tail[size..size + 2], "\r\n", "chunk data must end in CRLF");
        rest = &tail[size + 2..];
    }
    decoded.lines().map(str::to_owned).collect()
}

/// Extract the verbatim bytes of the trailing `"response":` field from an
/// ok point line (the field is emitted last precisely so this is exact).
fn response_bytes(line: &str) -> &str {
    let marker = "\"response\":";
    let at = line.find(marker).unwrap_or_else(|| panic!("no response field in {line}"));
    &line[at + marker.len()..line.len() - 1]
}

const TEMPLATE: &str = r#"{"server": {"kind": "TrainBox", "n_accels": 256},
                           "workload": "Resnet-50"}"#;

#[test]
fn sweep_streams_a_64_point_grid_in_order_and_byte_identical() {
    let (addr, handle) = start(ServeConfig::default());
    let batches: Vec<u64> = (0..8).map(|i| 64 << i).collect(); // 64..8192
    let accels: Vec<usize> = (0..8).map(|i| 8 << i).collect(); // 8..1024
    let body = format!(
        r#"{{"template": {TEMPLATE},
            "grid": {{"batch_size": {batches:?}, "n_accels": {accels:?}}}}}"#
    );
    let (status, head, raw) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{raw}");
    let head_lower = head.to_lowercase();
    assert!(head_lower.contains("transfer-encoding: chunked"), "{head}");
    assert!(head_lower.contains("content-type: application/x-ndjson"), "{head}");

    let lines = dechunk(&raw);
    assert_eq!(lines.len(), 65, "64 points + 1 summary line");

    for (i, line) in lines[..64].iter().enumerate() {
        let v = json(line);
        assert_eq!(v.get("point").and_then(|p| p.as_f64()), Some(i as f64), "{line}");
        assert_eq!(
            v.get("status").and_then(|s| s.as_str()),
            Some("ok"),
            "point {i} errored: {line}"
        );
        // Row-major order: batch_size is the outer axis, n_accels inner.
        let params = v.get("params").expect("params provenance");
        assert_eq!(
            params.get("batch_size").and_then(|b| b.as_f64()),
            Some(batches[i / 8] as f64),
            "{line}"
        );
        assert_eq!(
            params.get("n_accels").and_then(|a| a.as_f64()),
            Some(accels[i % 8] as f64),
            "{line}"
        );

        // The acceptance bar: the embedded response is byte-identical to
        // the corresponding individual /simulate answer.
        let individual = format!(
            r#"{{"server": {{"kind": "TrainBox", "n_accels": {}, "batch_size": {}}},
                "workload": "Resnet-50"}}"#,
            accels[i % 8],
            batches[i / 8]
        );
        let (istatus, ihead, ibody) = http(addr, "POST", "/simulate", &individual);
        assert_eq!(istatus, 200, "{ibody}");
        assert_eq!(response_bytes(line), ibody, "point {i} diverged from /simulate");
        // Same question, same cache entry: the sweep already answered it.
        assert!(ihead.contains("x-cache: hit"), "point {i} missed the shared cache: {ihead}");
    }

    let done = json(&lines[64]);
    assert_eq!(done.get("done").and_then(|d| d.as_bool()), Some(true), "{}", lines[64]);
    assert_eq!(done.get("points").and_then(|p| p.as_f64()), Some(64.0), "{}", lines[64]);
    assert_eq!(done.get("ok").and_then(|p| p.as_f64()), Some(64.0), "{}", lines[64]);
    assert_eq!(done.get("errors").and_then(|p| p.as_f64()), Some(0.0), "{}", lines[64]);

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    assert_eq!(m.get("sweep_requests").and_then(|v| v.as_f64()), Some(1.0), "{metrics}");
    assert_eq!(m.get("sweep_points_total").and_then(|v| v.as_f64()), Some(64.0), "{metrics}");
    assert_eq!(m.get("sweep_point_errors").and_then(|v| v.as_f64()), Some(0.0), "{metrics}");

    handle.shutdown();
}

#[test]
fn sweep_reproduces_a_committed_figure_21_series() {
    // One design × workload of Figure 21 — TrainBox on TF-SR across the
    // accelerator axis — asked as one sweep must equal the committed figure
    // the binary computes by calling the simulator directly.
    let (addr, handle) = start(ServeConfig::default());
    let w = trainbox_nn::Workload::transformer_sr();
    let accels = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    let body = format!(
        r#"{{"template": {{"server": {{"kind": "TrainBox", "n_accels": 1}},
                           "workload": "{}"}},
            "grid": {{"n_accels": {accels:?}}}}}"#,
        w.name
    );
    let (status, _, raw) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{raw}");
    let lines = dechunk(&raw);
    assert_eq!(lines.len(), accels.len() + 1, "points + 1 summary line");
    let served: Vec<f64> = lines[..accels.len()]
        .iter()
        .map(|line| {
            json(line)
                .get("response")
                .and_then(|r| r.get("outcome"))
                .and_then(|o| o.get("Analytic"))
                .and_then(|t| t.get("samples_per_sec"))
                .and_then(|s| s.as_f64())
                .unwrap_or_else(|| panic!("no analytic samples_per_sec in {line}"))
                / w.accel_samples_per_sec
        })
        .collect();

    let fig21 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig21.json"
    ))
    .expect("committed fig21.json");
    let committed: Vec<f64> = json(&fig21)
        .as_array()
        .expect("fig21 rows")
        .iter()
        .filter(|r| {
            r.idx(0).and_then(|n| n.as_str()) == Some(w.name.as_str())
                && r.idx(1).and_then(|l| l.as_str()) == Some("TrainBox")
        })
        .map(|r| r.idx(3).and_then(|v| v.as_f64()).expect("normalized throughput"))
        .collect();
    assert_eq!(served, committed, "served TF-SR TrainBox series != committed fig21.json");

    handle.shutdown();
}

#[test]
fn sweep_workload_axis_matches_individual_simulate() {
    let (addr, handle) = start(ServeConfig::default());
    let names = ["Resnet-50", "LLM-7B", "DLRM"];
    let body = format!(
        r#"{{"template": {TEMPLATE},
            "grid": {{"workload": {names:?}, "n_accels": [64, 256]}}}}"#
    );
    let (status, _, raw) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{raw}");
    let lines = dechunk(&raw);
    assert_eq!(lines.len(), 7, "6 points + 1 summary line: {raw}");
    for (i, line) in lines[..6].iter().enumerate() {
        let v = json(line);
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"), "{line}");
        // Workload is the outermost axis.
        let params = v.get("params").expect("params provenance");
        assert_eq!(
            params.get("workload").and_then(|w| w.as_str()),
            Some(names[i / 2]),
            "{line}"
        );
        let individual = format!(
            r#"{{"server": {{"kind": "TrainBox", "n_accels": {}}},
                "workload": "{}"}}"#,
            [64, 256][i % 2],
            names[i / 2]
        );
        let (istatus, _, ibody) = http(addr, "POST", "/simulate", &individual);
        assert_eq!(istatus, 200, "{ibody}");
        assert_eq!(response_bytes(line), ibody, "point {i} diverged from /simulate");
    }
    handle.shutdown();
}

#[test]
fn sweep_reports_failing_points_without_killing_the_stream() {
    let (addr, handle) = start(ServeConfig::default());
    // n_accels = 0 is parseable but unbuildable: that one point must come
    // back as an error line while its neighbors answer normally.
    let body = format!(
        r#"{{"template": {TEMPLATE}, "grid": {{"n_accels": [16, 0, 32]}}}}"#
    );
    let (status, _, raw) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{raw}");
    let lines = dechunk(&raw);
    assert_eq!(lines.len(), 4, "3 points + summary: {lines:?}");

    for (i, expect_ok) in [(0, true), (1, false), (2, true)] {
        let v = json(&lines[i]);
        let status = v.get("status").and_then(|s| s.as_str()).unwrap();
        assert_eq!(status, if expect_ok { "ok" } else { "error" }, "{}", lines[i]);
    }
    let failed = json(&lines[1]);
    assert_eq!(failed.get("http_status").and_then(|s| s.as_f64()), Some(400.0), "{}", lines[1]);
    let err = failed.get("error").expect("error body");
    assert_eq!(err.get("field").and_then(|f| f.as_str()), Some("server.n_accels"), "{}", lines[1]);

    let done = json(&lines[3]);
    assert_eq!(done.get("ok").and_then(|p| p.as_f64()), Some(2.0), "{}", lines[3]);
    assert_eq!(done.get("errors").and_then(|p| p.as_f64()), Some(1.0), "{}", lines[3]);

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    assert_eq!(m.get("sweep_point_errors").and_then(|v| v.as_f64()), Some(1.0), "{metrics}");

    handle.shutdown();
}

#[test]
fn sweep_rejects_malformed_and_oversized_requests() {
    let (addr, handle) = start(ServeConfig { sweep_max_points: 4, ..ServeConfig::default() });

    let (status, _, body) = http(addr, "POST", "/sweep", "{\"grid\": {}}");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("template"), "{body}");

    let deadlined = r#"{"template": {"server": {"kind": "TrainBox", "n_accels": 16},
                                     "workload": "Resnet-50", "deadline_ms": 50}}"#;
    let (status, _, body) = http(addr, "POST", "/sweep", deadlined);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("deadline_ms"), "{body}");

    // 8 points > the server's 4-point cap: refused before any work runs.
    let oversized = format!(
        r#"{{"template": {TEMPLATE}, "grid": {{"batch_size": [1, 2, 4, 8, 16, 32, 64, 128]}}}}"#
    );
    let (status, _, body) = http(addr, "POST", "/sweep", &oversized);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("over the limit"), "{body}");
    assert!(body.contains("\"field\":\"grid\""), "{body}");

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    assert_eq!(m.get("sweep_requests").and_then(|v| v.as_f64()), Some(0.0), "{metrics}");

    handle.shutdown();
}

#[test]
fn sweep_concurrency_cap_sheds_with_429() {
    // Cap of one: while a slow DES sweep streams, a second sweep must be
    // refused with an honest 429 instead of queuing behind it.
    let (addr, handle) =
        start(ServeConfig { workers: 1, max_active_sweeps: 1, ..ServeConfig::default() });
    let slow_template = r#"{"server": {"kind": "TrainBoxNoPool", "n_accels": 16,
                                       "batch_size": 512},
                            "workload": "Inception-v4",
                            "sim": {"Des": {"chunk_samples": 32, "batches": 20,
                                            "warmup_batches": 2, "prefetch_batches": 1,
                                            "max_events": 10000000}}}"#;
    let body = format!("{{\"template\": {slow_template}}}");
    let mut first = TcpStream::connect(addr).expect("connect");
    let req = format!(
        "POST /sweep HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    first.write_all(req.as_bytes()).expect("send");
    // Read just the response head: the sweep is now active and holds the
    // only slot while its DES point runs.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        first.read_exact(&mut byte).expect("head byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    let quick = format!("{{\"template\": {TEMPLATE}}}");
    let (status, shed_head, resp) = http(addr, "POST", "/sweep", &quick);
    assert_eq!(status, 429, "{resp}");
    assert!(resp.contains("too many active sweeps"), "{resp}");
    assert!(shed_head.contains("retry-after: "), "{shed_head}");

    // The first stream still completes cleanly.
    let mut rest = String::new();
    first.read_to_string(&mut rest).expect("stream tail");
    let lines = dechunk(&rest);
    let done = json(lines.last().expect("done line"));
    assert_eq!(done.get("done").and_then(|d| d.as_bool()), Some(true), "{rest}");

    handle.shutdown();
}

#[test]
fn sweep_points_dedupe_into_the_shared_cache() {
    let (addr, handle) = start(ServeConfig::default());
    // Two axes that collapse to the same question: batch 512 × accels 256
    // twice over. 4 grid points, 1 distinct simulation.
    let body = format!(
        r#"{{"template": {TEMPLATE},
            "grid": {{"batch_size": [512, 512], "n_accels": [256, 256]}}}}"#
    );
    let (status, _, raw) = http(addr, "POST", "/sweep", &body);
    assert_eq!(status, 200, "{raw}");
    let lines = dechunk(&raw);
    assert_eq!(lines.len(), 5);
    let first = response_bytes(&lines[0]).to_owned();
    for line in &lines[1..4] {
        assert_eq!(response_bytes(line), first, "duplicate points must answer identically");
    }

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    let m = json(&metrics);
    let hits = m.get("cache_hits").and_then(|v| v.as_f64()).unwrap();
    let coalesced = m.get("coalesced_waits").and_then(|v| v.as_f64()).unwrap();
    let misses = m.get("cache_misses").and_then(|v| v.as_f64()).unwrap();
    assert!(
        hits + coalesced >= 3.0,
        "4 identical points must share one computation: {metrics}"
    );
    assert!(misses - coalesced <= 1.0, "only one point computes: {metrics}");

    handle.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any small grid over any server kind answers every point with bytes
    /// identical to the individual `/simulate` of the same question.
    #[test]
    fn sweep_matches_individual_simulate_byte_for_byte(
        kind_idx in 0usize..3,
        batch_idxs in collection::vec(0usize..4, 1..3usize),
        accel_idxs in collection::vec(0usize..3, 1..3usize),
    ) {
        let kind = ["TrainBox", "TrainBoxNoPool", "Baseline"][kind_idx];
        let batches: Vec<u64> = batch_idxs.iter().map(|&i| [32u64, 128, 512, 2048][i]).collect();
        let accels: Vec<usize> = accel_idxs.iter().map(|&i| [16usize, 64, 256][i]).collect();
        let (addr, handle) = start(ServeConfig::default());
        let template = format!(
            r#"{{"server": {{"kind": "{kind}", "n_accels": 8}}, "workload": "Inception-v4"}}"#
        );
        let body = format!(
            r#"{{"template": {template},
                "grid": {{"batch_size": {batches:?}, "n_accels": {accels:?}}}}}"#
        );
        let (status, _, raw) = http(addr, "POST", "/sweep", &body);
        prop_assert_eq!(status, 200, "{}", raw);
        let lines = dechunk(&raw);
        prop_assert_eq!(lines.len(), batches.len() * accels.len() + 1);

        for (i, line) in lines[..lines.len() - 1].iter().enumerate() {
            let individual = format!(
                r#"{{"server": {{"kind": "{kind}", "n_accels": {}, "batch_size": {}}},
                    "workload": "Inception-v4"}}"#,
                accels[i % accels.len()],
                batches[i / accels.len()]
            );
            let (istatus, _, ibody) = http(addr, "POST", "/simulate", &individual);
            prop_assert_eq!(istatus, 200, "{}", ibody);
            prop_assert_eq!(response_bytes(line), ibody, "point {} diverged", i);
        }
        handle.shutdown();
    }
}
