//! The flow layer's fast path against its reference, end to end: every
//! server design, simulated once with the per-flow reference max-min
//! allocator and once with the domain-incremental classed one, must give
//! the **byte-identical** `SimResult` — throughput, batch times, link bytes
//! and the `events` / `recomputes` counters alike. The reference path runs
//! the naive per-member residual loops, so this pins the batched residual
//! kernel and the arrival-ordered flow table on real DES histories.

use trainbox_core::arch::ServerKind;
use trainbox_core::pipeline::SimConfig;
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_nn::Workload;

const KINDS: [ServerKind; 7] = [
    ServerKind::Baseline,
    ServerKind::AccFpga,
    ServerKind::AccGpu,
    ServerKind::AccFpgaP2p,
    ServerKind::AccFpgaP2pGen4,
    ServerKind::TrainBoxNoPool,
    ServerKind::TrainBox,
];

fn result_json(kind: ServerKind, reference_allocator: bool) -> String {
    let cfg = SimConfig {
        batches: 2,
        warmup_batches: 1,
        reference_allocator,
        ..SimConfig::default()
    };
    let req = SimRequest::des(kind, 16, Workload::resnet50(), cfg);
    let resp = req.run().unwrap_or_else(|e| panic!("{kind:?} DES must succeed: {e}"));
    let SimOutcome::Des(result) = &resp.outcome else {
        panic!("{kind:?}: expected a single-server DES outcome");
    };
    assert!(result.events > 0 && result.recomputes > 0, "{kind:?}: the DES ran");
    serde_json::to_string(result).expect("result serializes")
}

#[test]
fn every_kind_simulates_identically_under_the_reference_allocator() {
    for kind in KINDS {
        assert_eq!(
            result_json(kind, false),
            result_json(kind, true),
            "{kind:?}@16: fast and reference allocators diverged"
        );
    }
}
