//! The flow layer's solver against its oracle, end to end: every server
//! design runs a short DES. In the debug test build,
//! `FlowSim::assert_domain_matches_reference` checks every domain solve of
//! these runs bit-for-bit against the per-flow oracle
//! `FlowNet::max_min_rates_ref`, so this pins the batched residual kernel
//! and the arrival-ordered flow table on real DES histories of every kind.

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

#[test]
fn every_kind_simulates_under_the_per_solve_oracle() {
    for kind in KINDS {
        let cfg = SimConfig { batches: 2, warmup_batches: 1, ..SimConfig::default() };
        let req = SimRequest::des(kind, 16, Workload::resnet50(), cfg);
        let resp = req.run().unwrap_or_else(|e| panic!("{kind:?}@16 DES must succeed: {e}"));
        let SimOutcome::Des(result) = &resp.outcome else {
            panic!("{kind:?}: expected a single-server DES outcome");
        };
        assert!(result.events > 0 && result.recomputes > 0, "{kind:?}: the DES ran");
    }
}
