//! Property tests: [`SimRequest::run`] builds the same server, workload and
//! plan a direct call would, so it answers every question exactly as
//! `Server::throughput` and `pipeline::try_simulate_traced_deadline` do —
//! same `SimResult` field for field, same `Throughput` — across all three
//! server kinds, or cached service answers would diverge from the figure
//! binaries that produced `results/`.

use proptest::prelude::any;
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use trainbox_core::arch::{Server, ServerKind};
use trainbox_core::faults::{FaultDomain, FaultPlan};
use trainbox_core::pipeline::{try_simulate_traced_deadline, SimConfig, SimResult};
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_nn::Workload;
use trainbox_sim::NoopTracer;

const KINDS: [ServerKind; 3] =
    [ServerKind::Baseline, ServerKind::TrainBoxNoPool, ServerKind::TrainBox];

fn quick_cfg() -> SimConfig {
    SimConfig {
        chunk_samples: 64,
        batches: 6,
        warmup_batches: 2,
        prefetch_batches: 1,
        max_events: 10_000_000,
        parallel_workers: 0,
    }
}

/// A DES request sized to finish quickly: small accelerator counts and a
/// batch the chunking divides evenly.
fn des_request(kind: ServerKind, n_accels: usize, batch: u64) -> SimRequest {
    let mut req = SimRequest::des(kind, n_accels, Workload::inception_v4(), quick_cfg());
    req.server.batch_size = Some(batch);
    req
}

fn des_result(req: &SimRequest) -> SimResult {
    let resp = req.run().unwrap_or_else(|e| panic!("request must run: {e}"));
    match resp.outcome {
        SimOutcome::Des(result) => result,
        other => panic!("DES request produced a non-DES outcome: {other:?}"),
    }
}

/// The DES answer of a direct call, bypassing the request layer.
fn direct(server: &Server, w: &Workload, plan: &FaultPlan) -> SimResult {
    try_simulate_traced_deadline(server, w, &quick_cfg(), plan, NoopTracer, None)
        .unwrap_or_else(|f| panic!("direct run must complete: {f}"))
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Analytic requests: for ANY server kind, scale, and Table-I workload,
    /// `run()` reports exactly `Server::throughput` — bottleneck, ceilings,
    /// and all.
    #[test]
    fn analytic_run_equals_server_throughput(
        kind_idx in 0usize..3,
        n_exp in 3u32..9,
        w_idx in 0usize..7,
    ) {
        let kind = KINDS[kind_idx];
        let n = 1usize << n_exp;
        let w = Workload::all().swap_remove(w_idx);
        let req = SimRequest::analytic(kind, n, w.clone());
        let server = req.build_server().expect("valid configuration");
        let resp = req.run().expect("analytic request runs");
        let SimOutcome::Analytic(got) = resp.outcome else {
            panic!("analytic request produced a DES outcome");
        };
        proptest::prop_assert_eq!(got, server.throughput(&w));
        proptest::prop_assert_eq!(resp.config_hash, req.hash_hex());
    }

    /// Fault-free DES: `run()` reproduces the direct call's result exactly
    /// across kinds, scales, and batch sizes.
    #[test]
    fn des_run_equals_direct_simulation(
        kind_idx in 0usize..3,
        n_idx in 0usize..3,
        batch_idx in 0usize..2,
    ) {
        let kind = KINDS[kind_idx];
        let n = [8usize, 16, 32][n_idx];
        let batch = [256u64, 512][batch_idx];
        let req = des_request(kind, n, batch);
        let server = req.build_server().expect("valid configuration");
        let want = direct(&server, &Workload::inception_v4(), &FaultPlan::empty());
        proptest::prop_assert_eq!(des_result(&req), want);
    }

    /// A deadline the run comfortably beats changes NOTHING: the timed
    /// answer equals the untimed one field for field, and the deadline is
    /// invisible to the canonical form (one cache entry for both
    /// spellings). This is the byte-identity guarantee the figure
    /// regeneration leans on.
    #[test]
    fn generous_deadline_is_byte_identical_to_no_deadline(
        kind_idx in 0usize..3,
        n_idx in 0usize..3,
    ) {
        let kind = KINDS[kind_idx];
        let n = [8usize, 16, 32][n_idx];
        let untimed = des_request(kind, n, 512);
        let timed = untimed.clone().with_deadline_ms(600_000);
        proptest::prop_assert_eq!(untimed.canonical_json(), timed.canonical_json());
        proptest::prop_assert_eq!(untimed.canonical_hash(), timed.canonical_hash());
        proptest::prop_assert_eq!(des_result(&untimed), des_result(&timed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Faulted DES: for ANY seeded storm, attaching the plan to the request
    /// reproduces the direct call's result exactly — degraded-mode
    /// accounting included.
    #[test]
    fn faulted_des_run_equals_direct_simulation(
        seed in any::<u64>(),
        kind_idx in 0usize..3,
        faults_per_run in 0u64..8,
    ) {
        let kind = KINDS[kind_idx];
        let mut req = des_request(kind, 16, 512);
        let server = req.build_server().expect("valid configuration");
        let w = Workload::inception_v4();

        // Seed the storm from the healthy run's horizon and link count, the
        // same way the figure binaries do.
        let healthy = direct(&server, &w, &FaultPlan::empty());
        let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
        let domain = FaultDomain {
            n_ssds: server.topology().ssds.len(),
            n_preps: server.topology().preps.len(),
            n_accels: server.n_accels(),
            n_links: healthy.link_bytes.len(),
            horizon_secs: horizon,
        };
        let plan = FaultPlan::seeded(seed, faults_per_run as f64 / horizon, &domain);

        let want = direct(&server, &w, &plan);
        req.faults = Some(plan);
        proptest::prop_assert_eq!(des_result(&req), want);
    }
}
