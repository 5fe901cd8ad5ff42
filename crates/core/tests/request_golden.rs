//! Golden tests pinning the canonical request serialization and hash.
//!
//! The canonical JSON and FNV-1a hash of a [`SimRequest`] are the service's
//! cache/coalescing key and the provenance (`config_hash`) stamped on every
//! response. They must not drift across refactors: a silent change would
//! invalidate every cached result and break response comparability between
//! versions. Each wire spelling below is parsed and checked byte-for-byte
//! against `tests/golden/simrequest.json`.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```sh
//! TRAINBOX_REGEN_GOLDEN=1 cargo test -p trainbox-core --test request_golden
//! ```
//!
//! [`SimRequest`]: trainbox_core::request::SimRequest

use serde::Serialize;
use trainbox_core::request::SimRequest;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/simrequest.json");

/// The wire spellings under test. Spellings that ask the same question are
/// grouped under one name and must produce one canonical form.
fn wire_cases() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "minimal_analytic",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "Resnet-50"}"#,
                // Key order, casing of the workload name, explicit nulls and
                // defaults — all the same question.
                r#"{"workload": "RESNET-50", "trace": false, "sim": "Analytic",
                    "server": {"batch_size": null, "n_accels": 256, "kind": "TrainBox"}}"#,
                // The same workload as an inline spec object: the legacy
                // name is nothing but a preset for this spelling, so the
                // canonical form (and hence the cache key) must not differ.
                r#"{"server": {"kind": "TrainBox", "n_accels": 256},
                    "workload": {"name": "Resnet-50", "kind": "Cnn", "input": "Image",
                                 "task": "Image classification", "batch_size": 8192,
                                 "model_mbytes": 97.5, "accel_samples_per_sec": 7431.0}}"#,
            ],
        ),
        (
            "batch_override",
            vec![
                r#"{"server": {"kind": "Baseline", "n_accels": 256, "batch_size": 8192},
                    "workload": "Resnet-50"}"#,
            ],
        ),
        (
            "pooled_trainbox",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 64, "pool_fpgas": 8},
                    "workload": "RNN-S"}"#,
            ],
        ),
        (
            "des_with_trace",
            vec![
                r#"{"server": {"kind": "TrainBoxNoPool", "n_accels": 16, "batch_size": 512},
                    "workload": "Inception-v4",
                    "sim": {"Des": {"chunk_samples": 128, "batches": 10, "warmup_batches": 4,
                                    "prefetch_batches": 1, "max_events": 10000000}},
                    "trace": true}"#,
            ],
        ),
        (
            "faulted_des",
            vec![
                r#"{"server": {"kind": "Baseline", "n_accels": 16, "batch_size": 512},
                    "workload": "Inception-v4",
                    "sim": {"Des": {"chunk_samples": 128, "batches": 10, "warmup_batches": 4,
                                    "prefetch_batches": 1, "max_events": 10000000}},
                    "faults": {"events": [
                        {"at_secs": 0.25, "kind": {"SsdStall": {"ssd": 0, "secs": 0.1}}},
                        {"at_secs": 0.5, "kind": {"AccelDropout": {"acc": 3}}}]}}"#,
            ],
        ),
        (
            "custom_ring",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 128,
                               "ring": {"link_bytes_per_sec": 3e11,
                                        "hop_latency_secs": 1e-7, "chunk_bytes": 4096}},
                    "workload": "TF-SR"}"#,
            ],
        ),
        // ----- DSL-era cases, appended: the six rows above predate the
        // workload DSL and their canonical bytes and hashes must never move.
        (
            "llm_preset_by_name",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "LLM-7B"}"#,
                // Case-insensitive, like every legacy name.
                r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "llm-7b"}"#,
            ],
        ),
        (
            "recsys_alltoall",
            vec![r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "DLRM"}"#],
        ),
        (
            "mixed_tenancy",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 256},
                    "workload": "Mixed-RN50-TFSR"}"#,
            ],
        ),
        (
            "inline_custom_spec",
            vec![
                r#"{"server": {"kind": "TrainBox", "n_accels": 64},
                    "workload": {"name": "My-PS-Net", "kind": "Transformer", "input": "Text",
                                 "task": "Custom", "batch_size": 1024, "model_mbytes": 512.0,
                                 "accel_samples_per_sec": 1200.0, "sync": "ParameterServer",
                                 "stages": {"stages": [
                                   {"name": "read", "class": "SsdRead",
                                    "cost": {"HostCpuSecs": 1e-5}, "bytes_in": 4096,
                                    "bytes_out": 4096},
                                   {"name": "tokenize", "class": "Formatting",
                                    "cost": {"HostCpuSecs": 1e-3}, "bytes_in": 4096,
                                    "bytes_out": 2048, "parallelism": 4,
                                    "after": ["read"]}]}}}"#,
            ],
        ),
    ]
}

#[derive(Serialize)]
struct GoldenCase {
    name: String,
    canonical: String,
    hash: String,
}

fn compute_cases() -> Vec<GoldenCase> {
    wire_cases()
        .into_iter()
        .map(|(name, spellings)| {
            let parsed: Vec<SimRequest> = spellings
                .iter()
                .map(|wire| {
                    SimRequest::from_json_str(wire)
                        .unwrap_or_else(|e| panic!("case {name}: wire does not parse: {e}"))
                })
                .collect();
            for (req, wire) in parsed.iter().zip(&spellings).skip(1) {
                assert_eq!(
                    req.canonical_json(),
                    parsed[0].canonical_json(),
                    "case {name}: respelling {wire} must normalize identically"
                );
            }
            GoldenCase {
                name: name.to_string(),
                canonical: parsed[0].canonical_json(),
                hash: parsed[0].hash_hex(),
            }
        })
        .collect()
}

#[test]
fn canonical_form_and_hash_match_the_committed_golden() {
    let computed = compute_cases();
    if std::env::var_os("TRAINBOX_REGEN_GOLDEN").is_some() {
        let doc = serde_json::to_string_pretty(&computed).unwrap();
        std::fs::write(GOLDEN_PATH, doc + "\n").unwrap();
        eprintln!("regenerated {GOLDEN_PATH}");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/simrequest.json is committed; regenerate with TRAINBOX_REGEN_GOLDEN=1");
    let committed = trainbox_sim::json::parse(&committed).expect("golden file parses");
    let rows = committed.as_array().expect("golden file is an array");
    assert_eq!(rows.len(), computed.len(), "case count changed; regenerate the golden file");
    for (row, case) in rows.iter().zip(&computed) {
        let name = row.get("name").and_then(|v| v.as_str()).expect("name");
        assert_eq!(name, case.name, "case order changed; regenerate the golden file");
        let canonical = row.get("canonical").and_then(|v| v.as_str()).expect("canonical");
        let hash = row.get("hash").and_then(|v| v.as_str()).expect("hash");
        assert_eq!(
            case.canonical, canonical,
            "case {name}: canonical serialization drifted — this invalidates \
             every cached result keyed on it"
        );
        assert_eq!(case.hash, hash, "case {name}: canonical hash drifted");
    }
}

#[test]
fn canonical_json_reparses_to_an_equal_request() {
    for case in compute_cases() {
        let again = SimRequest::from_json_str(&case.canonical)
            .unwrap_or_else(|e| panic!("case {}: canonical form must reparse: {e}", case.name));
        assert_eq!(
            again.canonical_json(),
            case.canonical,
            "case {}: canonical form must be a fixed point",
            case.name
        );
    }
}

#[test]
fn all_golden_hashes_are_distinct() {
    let cases = compute_cases();
    for (i, a) in cases.iter().enumerate() {
        for b in &cases[i + 1..] {
            assert_ne!(a.hash, b.hash, "{} and {} collide", a.name, b.name);
        }
    }
}
