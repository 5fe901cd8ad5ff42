//! Ablation: gradient-synchronization pattern.
//!
//! The paper fixes a chunked ring all-reduce; the workload DSL also admits
//! a sharded parameter server and a pairwise all-to-all exchange. This
//! ablation holds the fabric constant and swaps only the declared sync
//! pattern on the two presets where the choice is load-bearing — LLM-7B
//! (14 GB of gradients, sync-dominated) and DLRM (all-to-all is the
//! natural pattern for sharded embeddings) — with a DES run cross-checking
//! the closed form at small scale.

use trainbox_bench::{emit_json, figure_main, sim_workers};
use trainbox_core::arch::{ServerConfig, ServerKind};
use trainbox_core::pipeline::SimConfig;
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_nn::{SyncPattern, Workload};

/// One dump row: (workload, pattern, sync ms @256, analytic @256,
/// analytic @8, DES @8).
type Row = (String, &'static str, f64, f64, f64, f64);

const PATTERNS: [(SyncPattern, &str); 3] = [
    (SyncPattern::RingAllReduce, "ring"),
    (SyncPattern::ParameterServer, "param-server"),
    (SyncPattern::AllToAll, "all-to-all"),
];

/// DES throughput for `w` on a small TrainBox, batch reduced so the run
/// stays fast.
fn des_samples_per_sec(w: &Workload, workers: usize) -> f64 {
    let cfg = SimConfig {
        chunk_samples: 128,
        batches: 4,
        warmup_batches: 1,
        prefetch_batches: 1,
        max_events: 10_000_000,
        parallel_workers: workers,
    };
    let mut req = SimRequest::des(ServerKind::TrainBox, 8, w.clone(), cfg);
    req.server.batch_size = Some(64);
    let resp = req.run().unwrap_or_else(|e| panic!("{}: DES run failed: {e}", w.name));
    let SimOutcome::Des(r) = resp.outcome else {
        unreachable!("single-server DES request produced a non-DES outcome");
    };
    r.samples_per_sec
}

fn main() {
    // Sequential body: a handful of small DES runs, no sweep-runner needed.
    figure_main(
        "Ablation",
        "Sync pattern (ring vs parameter server vs all-to-all) on the LLM and recsys presets",
        |_jobs| {
            let workers = sim_workers();
            let mut dump: Vec<Row> = Vec::new();
            for base in [Workload::llm(), Workload::recsys()] {
                println!(
                    "\n({}: {:.0} MB of gradients, declared sync = {:?})",
                    base.name, base.model_mbytes, base.sync
                );
                println!(
                    "{:<14} {:>14} {:>16} {:>16} {:>14}",
                    "pattern", "sync ms @256", "analytic/s @256", "analytic/s @8", "DES/s @8"
                );
                for (pattern, label) in PATTERNS {
                    let mut w = base.clone();
                    w.sync = pattern;
                    let big = ServerConfig::new(ServerKind::TrainBox, 256).build();
                    let small = ServerConfig::new(ServerKind::TrainBox, 8).build();
                    let sync_ms =
                        big.sync_model(&w).sync_secs(w.model_bytes(), 256) * 1e3;
                    let a256 = big.throughput(&w).samples_per_sec;
                    let a8 = small.throughput(&w).samples_per_sec;
                    let d8 = des_samples_per_sec(&w, workers);
                    println!(
                        "{label:<14} {sync_ms:>14.3} {a256:>16.0} {a8:>16.0} {d8:>14.0}"
                    );
                    dump.push((base.name.clone(), label, sync_ms, a256, a8, d8));
                }
            }

            // Cross-check: at every scale the DES and the closed form must
            // rank the patterns identically; flag any inversion loudly.
            println!();
            for rows in dump.chunks(3) {
                let rank = |key: fn(&Row) -> f64| {
                    let mut order: Vec<&str> = rows.iter().map(|r| r.1).collect();
                    order.sort_by(|a, b| {
                        let fa = key(rows.iter().find(|r| &r.1 == a).unwrap());
                        let fb = key(rows.iter().find(|r| &r.1 == b).unwrap());
                        fb.partial_cmp(&fa).unwrap()
                    });
                    order
                };
                let analytic_rank = rank(|r| r.4);
                let des_rank = rank(|r| r.5);
                let agree = analytic_rank == des_rank;
                println!(
                    "{}: analytic ranks {analytic_rank:?}, DES ranks {des_rank:?} -> {}",
                    rows[0].0,
                    if agree { "agree" } else { "DISAGREE" }
                );
                assert!(agree, "{}: DES and analytic rank sync patterns differently", rows[0].0);
            }
            emit_json("ablation_sync", &dump);
        },
    );
}
