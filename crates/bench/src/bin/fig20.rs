//! Figure 20 — TrainBox's effectiveness vs batch size (ResNet-50, 256
//! accelerators), normalized to the baseline at each batch size.
//!
//! Each point is one analytic [`SimRequest`] with a batch-size override —
//! the same question a `POST /sweep` over the `batch_size` axis asks.

use trainbox_bench::{compare, emit_json, figure_main};
use trainbox_core::arch::ServerKind;
use trainbox_core::request::SimRequest;
use trainbox_nn::Workload;

const BATCHES: [u64; 6] = [8, 32, 128, 512, 2048, 8192];

/// Analytic throughput of `kind` at 256 accelerators over the batch axis.
fn samples_per_sec(kind: ServerKind) -> Vec<f64> {
    BATCHES
        .iter()
        .map(|&batch| {
            let mut req = SimRequest::analytic(kind, 256, Workload::resnet50());
            req.server.batch_size = Some(batch);
            let resp = req.run().unwrap_or_else(|e| panic!("{kind:?} at batch {batch}: {e}"));
            resp.outcome.samples_per_sec()
        })
        .collect()
}

fn main() {
    // Sequential body: runs too quickly to benefit from the sweep-runner.
    figure_main("Figure 20", "TrainBox vs baseline across batch sizes (ResNet-50)", |_jobs| {
        println!("{:>8} {:>14} {:>14} {:>10}", "batch", "baseline", "trainbox", "speedup");
        let base = samples_per_sec(ServerKind::Baseline);
        let tb = samples_per_sec(ServerKind::TrainBox);
        let mut series = Vec::new();
        for (i, &batch) in BATCHES.iter().enumerate() {
            println!("{batch:>8} {:>14.0} {:>14.0} {:>9.1}x", base[i], tb[i], tb[i] / base[i]);
            series.push((batch, tb[i] / base[i]));
        }
        compare(
            "speedup at the largest batch (paper: ~60x on its axis)",
            60.0,
            series.last().unwrap().1,
        );
        emit_json("fig20", &series);
    });
}
