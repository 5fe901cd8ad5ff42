//! Figure 21 — scalability test for Inception-v4 and TF-SR across
//! preparation designs: Baseline (CPU), B+Acc (GPU), B+Acc (FPGA),
//! TrainBox without prep-pool, TrainBox.
//!
//! Each point is one analytic [`SimRequest`] — the same question a
//! `POST /sweep` over the `n_accels` axis asks.

use trainbox_bench::{compare, emit_json, figure_main, ACCEL_SWEEP};
use trainbox_core::arch::ServerKind;
use trainbox_core::request::SimRequest;
use trainbox_nn::Workload;

/// The accelerator-count axis for one (design, workload), normalized to one
/// accelerator's standalone throughput.
fn scalability(kind: ServerKind, w: &Workload) -> Vec<f64> {
    ACCEL_SWEEP
        .iter()
        .map(|&n| {
            let resp = SimRequest::analytic(kind, n, w.clone())
                .run()
                .unwrap_or_else(|e| panic!("{kind:?}@{n} on {}: {e}", w.name));
            resp.outcome.samples_per_sec() / w.accel_samples_per_sec
        })
        .collect()
}

fn main() {
    // Sequential body: runs too quickly to benefit from the sweep-runner.
    figure_main(
        "Figure 21",
        "Scalability for Inception-v4 and TF-SR (normalized to 1 accelerator)",
        |_jobs| {
            let designs = [
                ServerKind::Baseline,
                ServerKind::AccGpu,
                ServerKind::AccFpga,
                ServerKind::TrainBoxNoPool,
                ServerKind::TrainBox,
            ];
            let mut dump = Vec::new();
            let mut saturation = Vec::new();
            for w in [Workload::inception_v4(), Workload::transformer_sr()] {
                let series: Vec<Vec<f64>> =
                    designs.iter().map(|&d| scalability(d, &w)).collect();
                println!("\n({})", w.name);
                print!("{:<8}", "n");
                for d in designs {
                    print!(" {:>22}", d.label());
                }
                println!();
                for (ni, n) in ACCEL_SWEEP.into_iter().enumerate() {
                    print!("{n:<8}");
                    for (di, d) in designs.into_iter().enumerate() {
                        let v = series[di][ni];
                        print!(" {v:>22.1}");
                        dump.push((w.name.clone(), d.label(), n, v));
                    }
                    println!();
                }
                // (baseline at 256, TrainBox at 256) for the compare lines.
                saturation.push((series[0][ACCEL_SWEEP.len() - 1], series[4][ACCEL_SWEEP.len() - 1]));
            }
            println!();
            compare(
                "Inception-v4 baseline saturation (paper: 18.3 accelerators)",
                18.3,
                saturation[0].0,
            );
            compare("TF-SR baseline saturation (paper: 4.4 accelerators)", 4.4, saturation[1].0);
            compare("TF-SR TrainBox at 256 (paper: reaches ~256)", 256.0, saturation[1].1);
            emit_json("fig21", &dump);
        },
    );
}
