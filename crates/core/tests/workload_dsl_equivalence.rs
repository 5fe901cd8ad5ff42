//! The workload DSL against the Table-I constants it replaces: spelling a
//! legacy preset's stage graph out must be *undetectable* — the analytic
//! model and the DES answer byte-identically whether the workload leaves
//! its graph implicit or carries the explicit graph `lower_legacy`
//! produces for it, so nothing downstream branches on how a preset was
//! written. Equivalence is property, not hope. The second half pins the new
//! sync-pattern models (parameter server, all-to-all) to the
//! `parallel_workers: 0 ≡ N` contract the ring already obeys.

use proptest::prelude::*;
use trainbox_core::arch::{ServerConfig, ServerKind};
use trainbox_core::faults::{FaultDomain, FaultPlan};
use trainbox_core::pipeline::{fault_domain, SimConfig};
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_core::{analytic, lower_legacy};
use trainbox_nn::{SyncPattern, Workload};

const KINDS: [ServerKind; 3] =
    [ServerKind::Baseline, ServerKind::TrainBoxNoPool, ServerKind::TrainBox];

/// `w` with its own calibration spelled out as an explicit stage graph.
fn lowered(w: &Workload) -> Workload {
    let mut lw = w.clone();
    lw.stages = Some(lower_legacy(w.input));
    lw.validate().expect("lowered presets validate");
    lw
}

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

/// A fast single-server DES request, optionally under a seeded fault storm.
fn des_request(
    kind: ServerKind,
    workload: Workload,
    workers: usize,
    storm_seed: Option<u64>,
) -> SimRequest {
    let mut req = SimRequest::des(kind, 8, workload, quick_cfg(workers));
    req.server.batch_size = Some(64);
    req.trace = true;
    if let Some(seed) = storm_seed {
        let server = req.build_server().expect("valid server");
        let domain = FaultDomain { horizon_secs: 0.02, ..fault_domain(&server) };
        req.faults = Some(FaultPlan::seeded(seed, 4.0 / 0.02, &domain));
    }
    req
}

fn run_des_to_bytes(req: &SimRequest) -> (String, String) {
    let resp = req.run().unwrap_or_else(|e| panic!("DES run must succeed: {e}"));
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
    // Every case runs a reference and a graph-path twin (and a DES pair);
    // a modest case count keeps the suite inside CI budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Analytic model: throughput and the full latency decomposition are
    /// bit-identical between a Table-I preset and its lowered graph on
    /// every server design at any accelerator count.
    #[test]
    fn lowered_presets_match_flat_analytic_bitwise(
        preset_idx in 0usize..7,
        kind_idx in 0usize..3,
        accel_exp in 3u32..9, // 8..256
    ) {
        let flat = Workload::all()[preset_idx].clone();
        let graph = lowered(&flat);
        let server = ServerConfig::new(KINDS[kind_idx], 1usize << accel_exp).build();

        let tp_flat = server.throughput(&flat);
        let tp_graph = server.throughput(&graph);
        prop_assert_eq!(
            tp_flat.samples_per_sec.to_bits(),
            tp_graph.samples_per_sec.to_bits(),
            "{}: throughput diverged ({} vs {})",
            flat.name, tp_flat.samples_per_sec, tp_graph.samples_per_sec
        );
        prop_assert_eq!(tp_flat.bottleneck, tp_graph.bottleneck, "bottleneck diverged");

        let lat_flat = serde_json::to_string(&analytic::latency_decomposition(&server, &flat))
            .expect("decomposition serializes");
        let lat_graph = serde_json::to_string(&analytic::latency_decomposition(&server, &graph))
            .expect("decomposition serializes");
        prop_assert_eq!(lat_flat, lat_graph, "latency decomposition diverged");
    }

    /// DES: the event-driven engine answers byte-identically (result and
    /// trace rollup) for a preset and its lowered graph, healthy and under
    /// seeded fault storms, on every server design.
    #[test]
    fn lowered_presets_match_flat_des_bytewise(
        preset_idx in 0usize..7,
        kind_idx in 0usize..3,
        with_storm in any::<bool>(),
        seed in 0u64..1024,
    ) {
        let flat = Workload::all()[preset_idx].clone();
        let graph = lowered(&flat);
        let storm_seed = with_storm.then_some(seed);
        let a = run_des_to_bytes(&des_request(KINDS[kind_idx], flat, 0, storm_seed));
        let b = run_des_to_bytes(&des_request(KINDS[kind_idx], graph, 0, storm_seed));
        prop_assert_eq!(&a, &b, "DES diverged between flat and lowered");
    }

    /// The sync-pattern models obey the worker-count contract the ring
    /// established: for every pattern, `parallel_workers: 0`, `1`, and `N`
    /// produce byte-identical DES results, healthy and under storms.
    #[test]
    fn sync_patterns_are_worker_count_invariant(
        pattern_idx in 0usize..3,
        kind_idx in 0usize..3,
        workers_idx in 0usize..3,
        with_storm in any::<bool>(),
        seed in 0u64..1024,
    ) {
        let mut w = Workload::rnn_s();
        w.sync = [SyncPattern::RingAllReduce, SyncPattern::ParameterServer, SyncPattern::AllToAll]
            [pattern_idx];
        let workers = [2usize, 3, 8][workers_idx];
        let storm_seed = with_storm.then_some(seed);
        let reference =
            run_des_to_bytes(&des_request(KINDS[kind_idx], w.clone(), 0, storm_seed));
        let sequential_one =
            run_des_to_bytes(&des_request(KINDS[kind_idx], w.clone(), 1, storm_seed));
        let parallel =
            run_des_to_bytes(&des_request(KINDS[kind_idx], w.clone(), workers, storm_seed));
        prop_assert_eq!(&reference, &sequential_one, "workers=1 must be the reference");
        prop_assert_eq!(&reference, &parallel, "workers={} diverged", workers);
    }
}

/// The DSL families run end to end through the DES — and the mixed-tenancy
/// preset reports per-tenant fairness statistics in its `SimResult`.
#[test]
fn dsl_families_simulate_and_mixed_reports_tenancy() {
    for w in [Workload::llm(), Workload::recsys(), Workload::video(), Workload::mixed()] {
        let name = w.name.clone();
        let tenanted = !w.tenants.is_empty();
        let req = des_request(ServerKind::TrainBox, w, 0, None);
        let resp = req.run().unwrap_or_else(|e| panic!("{name}: DES run must succeed: {e}"));
        let SimOutcome::Des(result) = &resp.outcome else {
            panic!("{name}: expected a single-server DES outcome");
        };
        assert!(result.samples_per_sec > 0.0, "{name}: no throughput");
        match &result.tenancy {
            Some(t) => {
                assert!(tenanted, "{name}: tenancy stats on a single-tenant workload");
                assert_eq!(t.tenants.len(), 2, "{name}");
                let share: f64 = t.tenants.iter().map(|s| s.share).sum();
                assert!((share - 1.0).abs() < 1e-9, "{name}: shares sum to {share}");
                assert!(t.jain_fairness > 0.0 && t.jain_fairness <= 1.0 + 1e-9, "{name}");
                for s in &t.tenants {
                    assert!(s.slowdown >= 1.0 - 1e-9, "{name}: tenant {} speeds up?", s.name);
                }
            }
            None => assert!(!tenanted, "{name}: tenancy stats missing"),
        }
    }
}
