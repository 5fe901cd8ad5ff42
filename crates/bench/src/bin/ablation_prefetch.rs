//! Ablation: prefetch depth and simulation granularity, on the DES.
//!
//! §II-B's overlap discipline is next-batch prefetching (depth 1). This
//! ablation runs the discrete-event simulator at different prefetch credits
//! and chunk sizes, showing (a) depth 1 already achieves the full overlap
//! (deeper prefetch only adds buffer memory) and (b) the measured throughput
//! is insensitive to the event granularity — a stability check on the DES.

use trainbox_bench::{emit_json, figure_main, run_sweep, sim_workers};
use trainbox_core::arch::ServerKind;
use trainbox_core::pipeline::{SimConfig, SimResult};
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_nn::Workload;

const DEPTHS: [u64; 3] = [1, 2, 4];
const CHUNKS: [u64; 4] = [32, 64, 128, 256];

fn cfg_for(depth: u64, chunk: u64) -> SimConfig {
    SimConfig {
        chunk_samples: chunk,
        batches: 10,
        warmup_batches: 5,
        prefetch_batches: depth,
        max_events: 10_000_000,
        // Byte-identical at any worker count; `--sim-workers` only moves
        // wall-clock (and CI's TRAINBOX_SIM_WORKERS=2 regen re-diff relies
        // on figures honoring it).
        parallel_workers: sim_workers(),
    }
}

/// TrainBox, 16 accelerators, Inception-v4, batch 512 — the fixed scenario;
/// only the sim config varies across the sweep.
fn request(cfg: SimConfig) -> SimRequest {
    let mut req = SimRequest::des(ServerKind::TrainBoxNoPool, 16, Workload::inception_v4(), cfg);
    req.server.batch_size = Some(512);
    req
}

fn run_des(cfg: SimConfig) -> SimResult {
    let resp = request(cfg).run().unwrap_or_else(|e| panic!("simulation failed: {e}"));
    match resp.outcome {
        SimOutcome::Des(r) => r,
        other => unreachable!("DES request produced a non-DES outcome: {other:?}"),
    }
}

fn main() {
    figure_main("Ablation", "Prefetch depth and DES granularity", |jobs| {
        let server = request(cfg_for(1, 128))
            .build_server()
            .unwrap_or_else(|e| panic!("invalid server configuration: {e}"));
        let ana = server.throughput(&Workload::inception_v4()).samples_per_sec;
        println!("TrainBox, 16 accelerators, Inception-v4, batch 512");
        println!("analytic reference: {ana:.0} samples/s\n");

        // All sweep points are independent simulations: depth rows at chunk
        // 128, then chunk rows at depth 1, fanned out together.
        let points: Vec<SimConfig> = DEPTHS
            .iter()
            .map(|&d| cfg_for(d, 128))
            .chain(CHUNKS.iter().map(|&c| cfg_for(1, c)))
            .collect();
        let results: Vec<SimResult> = run_sweep(jobs, points, |_, cfg| run_des(cfg));
        let (depth_runs, chunk_runs) = results.split_at(DEPTHS.len());

        println!("{:>16} {:>14} {:>10} {:>10}", "prefetch depth", "samples/s", "vs analytic", "events");
        let mut dump = Vec::new();
        for (&depth, r) in DEPTHS.iter().zip(depth_runs) {
            println!(
                "{:>16} {:>14.0} {:>9.1}% {:>10}",
                depth,
                r.samples_per_sec,
                100.0 * r.samples_per_sec / ana,
                r.events
            );
            dump.push(("depth", depth, r.samples_per_sec));
        }

        println!("\n{:>16} {:>14} {:>10} {:>10}", "chunk samples", "samples/s", "vs analytic", "events");
        for (&chunk, r) in CHUNKS.iter().zip(chunk_runs) {
            println!(
                "{:>16} {:>14.0} {:>9.1}% {:>10}",
                chunk,
                r.samples_per_sec,
                100.0 * r.samples_per_sec / ana,
                r.events
            );
            dump.push(("chunk", chunk, r.samples_per_sec));
        }
        emit_json("ablation_prefetch", &dump);
    });
}
