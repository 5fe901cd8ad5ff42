//! The parallel engines against their sequential references: for any worker
//! count, any server design, any seed, and any seeded fault storm, the
//! parallel runners — one LP per server in a cluster, one LP per lane
//! inside a single server — must produce the **byte-identical** result and
//! the identical `TraceSummary` rollup. Same discipline as the allocator's
//! `max_min_rates_ref` twin: the sequential path is the spec, the parallel
//! path is the optimization, and equivalence is property, not hope.

use proptest::prelude::*;
use trainbox_core::arch::ServerKind;
use trainbox_core::faults::{FaultDomain, FaultKind, FaultPlan};
use trainbox_core::pipeline::{fault_domain, SimConfig};
use trainbox_core::request::{SimError, SimRequest, SimOutcome};
use trainbox_core::scaleout::ClusterSpec;
use trainbox_nn::Workload;

fn quick_cfg(workers: usize) -> SimConfig {
    SimConfig {
        chunk_samples: 128,
        batches: 4,
        warmup_batches: 1,
        prefetch_batches: 1,
        max_events: 5_000_000,
        parallel_workers: workers,
    }
}

/// A small cluster request: 3 servers of 4 accelerators, reduced batch so
/// each case stays fast, optionally under a seeded fault storm (which the
/// engine replays on server 0).
fn cluster_request(kind: ServerKind, workers: usize, storm_seed: Option<u64>) -> SimRequest {
    let mut req = SimRequest::des(kind, 4, Workload::rnn_s(), quick_cfg(workers))
        .with_cluster(ClusterSpec::rack_default(3));
    req.server.batch_size = Some(64);
    req.trace = true;
    if let Some(seed) = storm_seed {
        let server = req.build_server().expect("valid server");
        // `fault_domain` leaves the horizon open; bound it near the run's
        // simulated length so storms actually land mid-run.
        let domain = FaultDomain { horizon_secs: 0.02, ..fault_domain(&server) };
        req.faults = Some(FaultPlan::seeded(seed, 4.0 / 0.02, &domain));
    }
    req
}

fn run_to_bytes(req: &SimRequest) -> (String, String) {
    let resp = req.run().unwrap_or_else(|e| panic!("cluster run must succeed: {e}"));
    let SimOutcome::Cluster(result) = &resp.outcome else {
        panic!("expected a cluster DES outcome");
    };
    let result_bytes = serde_json::to_string(result).expect("result serializes");
    let summary_bytes =
        serde_json::to_string(resp.trace.as_ref().expect("traced run returns a summary"))
            .expect("summary serializes");
    (result_bytes, summary_bytes)
}

/// A single-server request at a lane-partitionable scale (8 accelerators =
/// 2 lanes for `TrainBoxNoPool`), optionally under a seeded storm.
///
/// With `lane_safe`, the storm is filtered to lane-local fault kinds (SSD
/// stalls, prep slowdowns, link degrades) so the intra-server partition
/// stays eligible and the run exercises the lane runner *with* faults; an
/// unfiltered storm usually contains a crash or dropout and exercises the
/// single-engine fallback instead. Both must be worker-invariant.
fn solo_request(
    kind: ServerKind,
    workers: usize,
    storm_seed: Option<u64>,
    lane_safe: bool,
) -> SimRequest {
    let mut req = SimRequest::des(kind, 8, Workload::rnn_s(), quick_cfg(workers));
    req.server.batch_size = Some(64);
    req.trace = true;
    if let Some(seed) = storm_seed {
        let server = req.build_server().expect("valid server");
        let domain = FaultDomain { horizon_secs: 0.02, ..fault_domain(&server) };
        let mut plan = FaultPlan::seeded(seed, 4.0 / 0.02, &domain);
        if lane_safe {
            plan.events.retain(|ev| {
                matches!(
                    ev.kind,
                    FaultKind::SsdStall { .. }
                        | FaultKind::PrepSlowdown { .. }
                        | FaultKind::LinkDegrade { .. }
                )
            });
        }
        req.faults = Some(plan);
    }
    req
}

fn run_solo_to_bytes(req: &SimRequest) -> (String, String) {
    let resp = req.run().unwrap_or_else(|e| panic!("solo run must succeed: {e}"));
    let SimOutcome::Des(result) = &resp.outcome else {
        panic!("expected a single-server DES outcome");
    };
    let result_bytes = serde_json::to_string(result).expect("result serializes");
    let summary_bytes =
        serde_json::to_string(resp.trace.as_ref().expect("traced run returns a summary"))
            .expect("summary serializes");
    (result_bytes, summary_bytes)
}

proptest! {
    // Each case runs a sequential reference plus a parallel run; keep the
    // case count modest so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Workers 2, 3, or 8 (more workers than servers included) reproduce
    /// the sequential reference bit-for-bit — results *and* trace rollups,
    /// healthy *and* under fault storms, on every server design.
    #[test]
    fn parallel_cluster_matches_sequential_reference(
        kind_idx in 0usize..3,
        workers_idx in 0usize..3,
        with_storm in any::<bool>(),
        seed in 0u64..1024,
    ) {
        let kind = [ServerKind::Baseline, ServerKind::TrainBoxNoPool, ServerKind::TrainBox]
            [kind_idx];
        let workers = [2usize, 3, 8][workers_idx];
        let storm_seed = with_storm.then_some(seed);
        let reference = run_to_bytes(&cluster_request(kind, 0, storm_seed));
        let sequential_one = run_to_bytes(&cluster_request(kind, 1, storm_seed));
        let parallel = run_to_bytes(&cluster_request(kind, workers, storm_seed));
        prop_assert_eq!(&reference, &sequential_one, "workers=1 must be the reference");
        prop_assert_eq!(&reference, &parallel, "workers={} diverged", workers);
    }

    /// The intra-server lane runner under the same contract: a single-server
    /// DES — lane-partitioned for eligible `(kind, plan)`, single-engine
    /// otherwise — reproduces the `workers = 0` reference bit-for-bit at
    /// workers 2, 3, and 8, healthy and under storms, with and without a
    /// (generous) wall-clock deadline attached.
    #[test]
    fn parallel_single_server_matches_sequential_reference(
        kind_idx in 0usize..3,
        workers_idx in 0usize..3,
        with_storm in any::<bool>(),
        lane_safe in any::<bool>(),
        with_deadline in any::<bool>(),
        seed in 0u64..1024,
    ) {
        let kind = [ServerKind::Baseline, ServerKind::TrainBoxNoPool, ServerKind::TrainBox]
            [kind_idx];
        let workers = [2usize, 3, 8][workers_idx];
        let storm_seed = with_storm.then_some(seed);
        let with_deadline = |req: SimRequest| {
            // Generous enough to never fire: the deadline plumbing must not
            // perturb results while it is merely armed.
            if with_deadline { req.with_deadline_ms(120_000) } else { req }
        };
        let reference =
            run_solo_to_bytes(&with_deadline(solo_request(kind, 0, storm_seed, lane_safe)));
        let sequential_one =
            run_solo_to_bytes(&with_deadline(solo_request(kind, 1, storm_seed, lane_safe)));
        let parallel =
            run_solo_to_bytes(&with_deadline(solo_request(kind, workers, storm_seed, lane_safe)));
        prop_assert_eq!(&reference, &sequential_one, "workers=1 must be the reference");
        prop_assert_eq!(&reference, &parallel, "workers={} diverged", workers);
    }
}

/// An already-expired deadline fails with the typed `DeadlineExceeded` —
/// no panic, no deadlock — whether the servers advance sequentially or on
/// worker threads.
#[test]
fn expired_deadline_is_typed_at_any_worker_count() {
    for workers in [0usize, 4] {
        let req = cluster_request(ServerKind::TrainBoxNoPool, workers, Some(7))
            .with_deadline_ms(0);
        let err = req.run().expect_err("a 0 ms deadline must trip");
        assert!(
            matches!(err, SimError::DeadlineExceeded { .. }),
            "workers={workers}: {err:?}"
        );
        assert!(!err.is_client_error());
    }
}

/// Same typed failure for the intra-server lane runner: an expired deadline
/// on an eligible single-server run trips cleanly at any worker count.
#[test]
fn solo_expired_deadline_is_typed_at_any_worker_count() {
    for workers in [0usize, 4] {
        let req = solo_request(ServerKind::TrainBoxNoPool, workers, None, false)
            .with_deadline_ms(0);
        let err = req.run().expect_err("a 0 ms deadline must trip");
        assert!(
            matches!(err, SimError::DeadlineExceeded { .. }),
            "workers={workers}: {err:?}"
        );
        assert!(!err.is_client_error());
    }
}
