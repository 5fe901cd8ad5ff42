//! Ablation: fault intensity vs. delivered training throughput.
//!
//! Sweeps a seeded fault storm (SSD stalls, prep crashes and slowdowns,
//! PCIe link degradation, accelerator dropout, transient prep failures)
//! over the discrete-event simulator and reports how gracefully the
//! TrainBox design degrades against the host-centric baseline. Every plan
//! is derived deterministically from a fixed seed, so the sweep — and its
//! JSON dump — reproduces byte-identically run to run (asserted below).

use serde::Serialize;
use trainbox_bench::{emit_json, emit_scenario_trace, figure_main, run_sweep, sim_workers};
use trainbox_core::arch::{Server, ServerKind};
use trainbox_core::faults::{FaultDomain, FaultPlan};
use trainbox_core::pipeline::{SimConfig, SimResult};
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_nn::Workload;

const SEED: u64 = 0x7ea1_b0c5;

fn cfg() -> SimConfig {
    SimConfig {
        chunk_samples: 128,
        batches: 10,
        warmup_batches: 4,
        prefetch_batches: 1,
        max_events: 10_000_000,
        // Byte-identical at any worker count; `--sim-workers` only moves
        // wall-clock (and CI's TRAINBOX_SIM_WORKERS=2 regen re-diff relies
        // on figures honoring it).
        parallel_workers: sim_workers(),
    }
}

/// The one scenario this ablation studies, as a canonical request:
/// Inception-v4, 16 accelerators, batch 512, under `plan`.
fn request(kind: ServerKind, plan: Option<FaultPlan>) -> SimRequest {
    let mut req = SimRequest::des(kind, 16, Workload::inception_v4(), cfg());
    req.server.batch_size = Some(512);
    req.faults = plan;
    req
}

fn run_des(req: &SimRequest) -> SimResult {
    let resp = req.run().unwrap_or_else(|e| panic!("simulation failed: {e}"));
    match resp.outcome {
        SimOutcome::Des(r) => r,
        other => unreachable!("DES request produced a non-DES outcome: {other:?}"),
    }
}

#[derive(Serialize)]
struct Row {
    faults_per_run: u64,
    injected: u64,
    effective: f64,
    goodput: f64,
    nominal: f64,
    retries: u64,
    wasted_samples: u64,
    accels_lost: u64,
    preps_lost: u64,
}

/// The storm is seeded against the *observed* healthy run (its horizon and
/// link census), so the domain is built here rather than via
/// `pipeline::fault_domain`, which has no horizon to offer.
fn storm(server: &Server, healthy: &SimResult, intensity_faults: u64) -> FaultPlan {
    let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
    let domain = FaultDomain {
        n_ssds: server.topology().ssds.len(),
        n_preps: server.topology().preps.len(),
        n_accels: server.n_accels(),
        n_links: healthy.link_bytes.len(),
        horizon_secs: horizon,
    };
    FaultPlan::seeded(SEED, intensity_faults as f64 / horizon, &domain)
}

fn run(kind: ServerKind, server: &Server, intensity_faults: u64, healthy: &SimResult) -> Row {
    let plan = storm(server, healthy, intensity_faults);
    let r = run_des(&request(kind, Some(plan.clone())));
    let again = run_des(&request(kind, Some(plan)));
    assert_eq!(r, again, "seeded fault runs must be deterministic");
    Row {
        faults_per_run: intensity_faults,
        injected: r.faults.injected,
        effective: r.samples_per_sec,
        goodput: r.faults.goodput_samples_per_sec,
        nominal: r.faults.nominal_samples_per_sec,
        retries: r.faults.retries,
        wasted_samples: r.faults.wasted_samples,
        accels_lost: r.faults.accels_lost,
        preps_lost: r.faults.preps_lost,
    }
}

fn sweep(jobs: usize, label: &str, kind: ServerKind) -> Vec<Row> {
    let server = request(kind, None)
        .build_server()
        .unwrap_or_else(|e| panic!("invalid server configuration: {e}"));
    let healthy = run_des(&request(kind, None));
    println!("\n{label}: healthy {:.0} samples/s", healthy.samples_per_sec);
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>6}",
        "faults", "effective", "goodput", "nominal", "retries", "wasted", "-accel", "-prep"
    );
    // Each fault intensity is an independent seeded simulation; fan the rows
    // out and print them in sweep order once all are back.
    let rows = run_sweep(jobs, vec![0u64, 2, 4, 8, 16], |_, k| run(kind, &server, k, &healthy));
    for row in &rows {
        println!(
            "{:>8} {:>10.0} {:>10.0} {:>10.0} {:>8} {:>8} {:>6} {:>6}",
            row.faults_per_run,
            row.effective,
            row.goodput,
            row.nominal,
            row.retries,
            row.wasted_samples,
            row.accels_lost,
            row.preps_lost
        );
    }
    rows
}

fn main() {
    figure_main("Ablation", "Fault intensity vs. delivered throughput", |jobs| {
        println!("Seeded fault storms (seed {SEED:#x}) over 10 simulated batches,");
        println!("Inception-v4, 16 accelerators, batch 512.");

        let tb = sweep(jobs, "TrainBox (no pool)", ServerKind::TrainBoxNoPool);
        let base = sweep(jobs, "Baseline (host-centric)", ServerKind::Baseline);

        println!("\nGoodput tracks effective throughput minus wasted work; nominal");
        println!("is what the initial device complement would have sustained.");
        emit_json("ablation_faults", &vec![("trainbox", tb), ("baseline", base)]);

        // --trace: replay the 8-fault TrainBox storm with the tracer attached
        // so the dump carries fault instants alongside the pipeline/flow/
        // collective spans.
        if trainbox_bench::trace_out().is_some() {
            let kind = ServerKind::TrainBoxNoPool;
            let server = request(kind, None)
                .build_server()
                .unwrap_or_else(|e| panic!("invalid server configuration: {e}"));
            let healthy = run_des(&request(kind, None));
            let plan = storm(&server, &healthy, 8);
            emit_scenario_trace(&request(kind, Some(plan)));
        }
    });
}
