//! Perf-trajectory benchmark for the discrete-event simulator core.
//!
//! Unlike the `fig*`/`tab*` binaries — whose outputs must be byte-identical
//! run to run — this binary *measures* wall-clock on the current host:
//!
//! * the DES pipeline itself: events/sec, rate recomputations, and wall time
//!   for a representative TrainBox simulation;
//! * a seeded fault storm, exercising batched capacity changes and lazy
//!   event cancellation;
//! * the parallel engines — the per-server cluster runner *and* the
//!   intra-server lane runner on a fig20-scale single server — over a
//!   worker ladder, with every point asserted byte-identical to the
//!   sequential reference before its clock is believed;
//! * every figure/table binary, timed end to end, summed into the full
//!   figure-regeneration wall-clock the repo's perf trajectory tracks.
//!
//! With `TRAINBOX_RESULTS_DIR` set, writes `bench_sim.json` including the
//! pre-optimization baseline measured at the anchor commit on the same
//! host. Timings are best-of-`reps`: on a noisy shared host the minimum
//! wall-clock is the best estimate of true cost. Set
//! `TRAINBOX_BENCH_SMOKE=1` (CI) for a seconds-long run whose numbers are
//! not meaningful but whose code paths are all exercised.

use serde::Serialize;
use std::time::Instant;
use trainbox_bench::{emit_json, figure_main, sim_workers};
use trainbox_core::arch::ServerKind;
use trainbox_core::faults::{FaultDomain, FaultPlan};
use trainbox_core::pipeline::{SimConfig, SimResult};
use trainbox_core::request::{SimOutcome, SimRequest};
use trainbox_core::scaleout::{ClusterResult, ClusterSpec};
use trainbox_nn::Workload;
use trainbox_sim::par;

/// Anchor commit: the tree immediately before this PR's simulator-core
/// optimizations (classed allocator, lazy event cancellation, nn matmul
/// tiling). The constants below were measured on the same host with
/// binaries built at that commit, best of 3.
const PRE_PR_COMMIT: &str = "23614d9";
const PRE_PR_FULL_REGEN_MS: f64 = 1545.0;
const PRE_PR_FIGURE_MS: &[(&str, f64)] = &[
    ("batch_lr", 887.0),
    ("fig05", 381.0),
    ("ablation_faults", 205.0),
    ("ablation_prefetch", 53.0),
];

/// The figure/table binaries of `scripts/reproduce.sh`, in the same order
/// (a test keeps the two lists in sync).
const FIGURE_BINS: &[&str] = &[
    "table01", "fig02b", "fig03", "fig05", "fig08", "fig09", "fig10", "fig11",
    "table02", "table03", "fig19", "fig20", "fig21", "fig21_cluster", "fig22",
    "ablation_ring", "ablation_boxes", "ablation_nextgen", "ablation_prepnet",
    "ablation_prefetch", "batch_lr", "scale_up_vs_out", "ablation_faults",
    "ablation_sync",
];

fn sim_cfg() -> SimConfig {
    SimConfig {
        chunk_samples: 32,
        batches: 10,
        warmup_batches: 4,
        prefetch_batches: 1,
        max_events: 10_000_000,
        parallel_workers: 0,
    }
}

/// The fixed benchmark scenario — TrainBox, 16 accelerators, Inception-v4,
/// batch 512 — as a canonical request.
fn request(plan: Option<FaultPlan>) -> SimRequest {
    let mut req = SimRequest::des(ServerKind::TrainBox, 16, Workload::inception_v4(), sim_cfg());
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

/// The parallel-engine scenario: a rack-scale cluster of TrainBox (no pool)
/// servers, one logical process each. Sized so a full run stays around a
/// second while every server carries real flow-simulation work.
fn cluster_request(workers: usize, smoke: bool) -> SimRequest {
    let mut req = SimRequest::des(
        ServerKind::TrainBoxNoPool,
        8,
        Workload::inception_v4(),
        SimConfig {
            chunk_samples: 64,
            batches: if smoke { 3 } else { 5 },
            warmup_batches: 1,
            prefetch_batches: 1,
            max_events: 50_000_000,
            parallel_workers: workers,
        },
    );
    req.server.batch_size = Some(256);
    req.with_cluster(ClusterSpec::rack_default(if smoke { 4 } else { 16 }))
}

fn run_cluster(req: &SimRequest) -> ClusterResult {
    let resp = req.run().unwrap_or_else(|e| panic!("cluster simulation failed: {e}"));
    match resp.outcome {
        SimOutcome::Cluster(r) => r,
        other => unreachable!("cluster request produced a non-cluster outcome: {other:?}"),
    }
}

/// The intra-server lane scenario: one fig20-scale server — TrainBox (no
/// pool), 256 accelerators, ResNet-50 — whose pipeline partitions into 64
/// four-accelerator lanes. Same SimConfig for every worker count; only the
/// thread count changes.
fn intra_server_cfg(workers: usize, smoke: bool) -> SimConfig {
    SimConfig {
        chunk_samples: 32,
        batches: if smoke { 3 } else { 5 },
        warmup_batches: 1,
        prefetch_batches: 1,
        max_events: 50_000_000,
        parallel_workers: workers,
    }
}

fn intra_server_request(workers: usize, smoke: bool) -> SimRequest {
    let mut req = SimRequest::des(
        ServerKind::TrainBoxNoPool,
        256,
        Workload::resnet50(),
        intra_server_cfg(workers, smoke),
    );
    req.server.batch_size = Some(if smoke { 8_192 } else { 16_384 });
    req
}

#[derive(Serialize)]
struct DesBench {
    wall_ms: f64,
    events: u64,
    events_per_sec: f64,
    recomputes: u64,
    samples_per_sec: f64,
}

#[derive(Serialize)]
struct FaultBench {
    wall_ms: f64,
    events: u64,
    recomputes: u64,
    injected: u64,
}

#[derive(Serialize)]
struct ParallelPoint {
    workers: usize,
    wall_ms: f64,
    events_per_sec: f64,
    /// Measured wall-clock speedup over the sequential reference engine on
    /// *this host* — bounded by `host_cores`.
    speedup_vs_sequential: f64,
}

/// One parallel engine's ladder: the sequential reference clock, measured
/// wall at each worker count (each asserted byte-identical first), and the
/// deterministic partition-quality figures.
#[derive(Serialize)]
struct EngineLadder {
    sequential_wall_ms: f64,
    events: u64,
    events_per_sec_sequential: f64,
    points: Vec<ParallelPoint>,
    /// Max/mean ratio of per-LP event counts (1.0 = perfectly balanced
    /// partitions).
    imbalance: f64,
    /// Deterministic work-span bound at 4 workers, computed from the real
    /// per-window per-LP event counts of this run: the speedup a 4-core
    /// host could reach on this partition, independent of this host's core
    /// count. Byte-identical across runs, unlike the wall-clock columns.
    work_span_speedup_4: f64,
}

#[derive(Serialize)]
struct ClusterParBench {
    servers: usize,
    ladder: EngineLadder,
}

#[derive(Serialize)]
struct IntraServerBench {
    accels: usize,
    /// Four-accelerator lanes the server partitioned into.
    lanes: usize,
    ladder: EngineLadder,
}

#[derive(Serialize)]
struct ParallelBench {
    /// Hardware threads available to this process. Measured speedups cannot
    /// exceed this; on a 1-core host they are flat at ~1.0 regardless of
    /// worker count.
    host_cores: usize,
    /// `--sim-workers` / `TRAINBOX_SIM_WORKERS` as passed (0 = unset).
    requested_sim_workers: usize,
    /// One logical process per *server* of a rack-scale cluster.
    cluster: ClusterParBench,
    /// One logical process per *lane* of a single fig20-scale server.
    intra_server: IntraServerBench,
    note: &'static str,
}

#[derive(Serialize)]
struct FigureMs {
    name: String,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Baseline {
    commit: &'static str,
    note: &'static str,
    full_regen_ms: f64,
    figures: Vec<FigureMs>,
}

#[derive(Serialize)]
struct FigureSpeedup {
    name: String,
    speedup: f64,
}

#[derive(Serialize)]
struct Speedups {
    full_regen: Option<f64>,
    figures: Vec<FigureSpeedup>,
}

#[derive(Serialize)]
struct BenchSim {
    schema: &'static str,
    smoke: bool,
    reps: usize,
    des: DesBench,
    faults: FaultBench,
    parallel: ParallelBench,
    figures: Vec<FigureMs>,
    full_regen_ms: Option<f64>,
    pre_pr_baseline: Baseline,
    speedup_vs_pre_pr: Speedups,
}

/// Time one parallel engine over the worker ladder. `reference` comes from
/// a prior sequential run (whose per-LP accounting supplied the quality
/// figures); every timed run — the sequential one included — must equal it
/// byte-for-byte before its clock is believed.
fn engine_ladder<R: PartialEq + std::fmt::Debug>(
    par_reps: usize,
    reference: R,
    events: u64,
    (imbalance, work_span_speedup_4): (f64, f64),
    mut run: impl FnMut(usize) -> R,
) -> EngineLadder {
    let (seq_ms, seq) = best_of(par_reps, || run(0));
    assert_eq!(seq, reference, "sequential runs must be reproducible");
    let mut points = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (ms, r) = best_of(par_reps, || run(workers));
        assert_eq!(
            r, reference,
            "parallel engine ({workers} workers) diverged from the sequential reference"
        );
        points.push(ParallelPoint {
            workers,
            wall_ms: ms,
            events_per_sec: events as f64 / (ms / 1e3),
            speedup_vs_sequential: seq_ms / ms,
        });
    }
    EngineLadder {
        sequential_wall_ms: seq_ms,
        events,
        events_per_sec_sequential: events as f64 / (seq_ms / 1e3),
        points,
        imbalance,
        work_span_speedup_4,
    }
}

fn print_ladder(ladder: &EngineLadder) {
    for p in &ladder.points {
        println!(
            "  {} workers: {:>8.1} ms ({:>12.0} events/s, x{:.2} measured), identical result",
            p.workers, p.wall_ms, p.events_per_sec, p.speedup_vs_sequential
        );
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds, with the last result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

/// Time each figure binary (siblings of this executable) end to end,
/// best-of-`reps`. `TRAINBOX_RESULTS_DIR` is stripped from the children so a
/// benchmark run never rewrites the committed figure JSONs.
fn time_figures(reps: usize) -> Vec<FigureMs> {
    let dir = match std::env::current_exe().ok().and_then(|p| p.parent().map(|d| d.to_owned())) {
        Some(d) => d,
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    for &name in FIGURE_BINS {
        let bin = dir.join(name);
        if !bin.exists() {
            eprintln!("bench_sim: skipping {name} (binary not built)");
            continue;
        }
        let mut best = f64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            let status = std::process::Command::new(&bin)
                .env_remove("TRAINBOX_RESULTS_DIR")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .unwrap_or_else(|e| panic!("failed to run {name}: {e}"));
            assert!(status.success(), "{name} exited with {status}");
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.push(FigureMs { name: name.to_string(), wall_ms: best });
    }
    out
}

fn main() {
    // Measurement body: wall-clock timed on this host, so it stays
    // single-threaded; the sweep-runner would only add scheduler noise.
    figure_main("bench_sim", "discrete-event simulator core throughput", |_jobs| run());
}

fn run() {
    let smoke = std::env::var_os("TRAINBOX_BENCH_SMOKE").is_some();
    let reps = if smoke { 1 } else { 5 };

    println!(
        "reps: {reps}{}",
        if smoke { "   (smoke mode: numbers not meaningful)" } else { "" }
    );

    let server = request(None)
        .build_server()
        .unwrap_or_else(|e| panic!("invalid server configuration: {e}"));

    // --- DES pipeline --------------------------------------------------
    let (des_ms, healthy) = best_of(reps, || run_des(&request(None)));
    let des = DesBench {
        wall_ms: des_ms,
        events: healthy.events,
        events_per_sec: healthy.events as f64 / (des_ms / 1e3),
        recomputes: healthy.recomputes,
        samples_per_sec: healthy.samples_per_sec,
    };
    println!(
        "DES pipeline: {:.1} ms, {} events ({:.0} events/s), {} rate recomputes",
        des.wall_ms, des.events, des.events_per_sec, des.recomputes
    );

    // --- seeded fault storm --------------------------------------------
    let horizon = healthy.batch_done_at.last().expect("batches ran").as_secs_f64();
    let domain = FaultDomain {
        n_ssds: server.topology().ssds.len(),
        n_preps: server.topology().preps.len(),
        n_accels: server.n_accels(),
        n_links: healthy.link_bytes.len(),
        horizon_secs: horizon,
    };
    let plan = FaultPlan::seeded(0x5eed_0b5e, 16.0 / horizon, &domain);
    let storm = request(Some(plan));
    let (fault_ms, faulted) = best_of(reps, || run_des(&storm));
    let faults = FaultBench {
        wall_ms: fault_ms,
        events: faulted.events,
        recomputes: faulted.recomputes,
        injected: faulted.faults.injected,
    };
    println!(
        "fault storm: {:.1} ms, {} events, {} recomputes, {} faults injected",
        faults.wall_ms, faults.events, faults.recomputes, faults.injected
    );

    // --- parallel engines ----------------------------------------------
    // Correctness first: every worker count must reproduce the sequential
    // reference byte-for-byte. Then the clock: measured wall speedup
    // (honest — bounded by this host's cores) plus the deterministic
    // work-span bound derived from the run's own per-window event counts.
    let par_reps = reps.min(3);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // One LP per server of a rack-scale cluster.
    let seq = run_cluster(&cluster_request(0, smoke));
    let servers = seq.servers;
    let cluster_events = seq.events;
    let cluster_quality = (seq.imbalance, seq.work_span_speedup_4);
    let cluster_ladder =
        engine_ladder(par_reps, seq, cluster_events, cluster_quality, |workers| {
            run_cluster(&cluster_request(workers, smoke))
        });

    // One LP per lane of a single fig20-scale server. The partition-quality
    // figures come from the lane runner's own per-window accounting —
    // deterministic, so one extra run suffices.
    let intra_seq = run_des(&intra_server_request(0, smoke));
    let intra_server = intra_server_request(0, smoke)
        .build_server()
        .unwrap_or_else(|e| panic!("invalid server configuration: {e}"));
    let (lanes, lane_stats) = trainbox_core::pipeline::intra_server_run_stats(
        &intra_server,
        &Workload::resnet50(),
        &intra_server_cfg(0, smoke),
        &FaultPlan::empty(),
    )
    .expect("a fig20-scale TrainBoxNoPool server partitions into lanes");
    let intra_quality = (
        par::imbalance(&lane_stats.lp_events),
        par::work_span_speedup(&lane_stats.window_events, 4),
    );
    let intra_events = intra_seq.events;
    let intra_ladder =
        engine_ladder(par_reps, intra_seq, intra_events, intra_quality, |workers| {
            run_des(&intra_server_request(workers, smoke))
        });

    let parallel = ParallelBench {
        host_cores,
        requested_sim_workers: sim_workers(),
        cluster: ClusterParBench { servers, ladder: cluster_ladder },
        intra_server: IntraServerBench {
            accels: intra_server.n_accels(),
            lanes,
            ladder: intra_ladder,
        },
        note: "speedup_vs_sequential is measured wall-clock on this host and \
               saturates at host_cores; work_span_speedup_4 is the deterministic \
               parallelism bound of this partition at 4 workers, computed from \
               per-window event counts",
    };
    println!(
        "parallel cluster ({} servers): sequential {:.1} ms ({:.0} events/s), \
         imbalance x{:.2}, work-span bound x{:.2} @ 4 workers (host has {} cores)",
        parallel.cluster.servers,
        parallel.cluster.ladder.sequential_wall_ms,
        parallel.cluster.ladder.events_per_sec_sequential,
        parallel.cluster.ladder.imbalance,
        parallel.cluster.ladder.work_span_speedup_4,
        parallel.host_cores,
    );
    print_ladder(&parallel.cluster.ladder);
    println!(
        "intra-server lanes ({} accels, {} lanes): sequential {:.1} ms ({:.0} events/s), \
         imbalance x{:.2}, work-span bound x{:.2} @ 4 workers",
        parallel.intra_server.accels,
        parallel.intra_server.lanes,
        parallel.intra_server.ladder.sequential_wall_ms,
        parallel.intra_server.ladder.events_per_sec_sequential,
        parallel.intra_server.ladder.imbalance,
        parallel.intra_server.ladder.work_span_speedup_4,
    );
    print_ladder(&parallel.intra_server.ladder);

    // --- per-figure wall-clock ----------------------------------------
    let figures = time_figures(reps.min(3));
    let full_regen_ms = (figures.len() == FIGURE_BINS.len())
        .then(|| figures.iter().map(|f| f.wall_ms).sum::<f64>());
    for f in &figures {
        println!("  {:<20} {:>8.1} ms", f.name, f.wall_ms);
    }

    // --- trajectory vs. the pre-PR simulator core ----------------------
    let fig_speedups: Vec<FigureSpeedup> = PRE_PR_FIGURE_MS
        .iter()
        .filter_map(|&(name, pre_ms)| {
            figures.iter().find(|f| f.name == name).map(|f| FigureSpeedup {
                name: name.to_string(),
                speedup: pre_ms / f.wall_ms,
            })
        })
        .collect();
    let speedup = Speedups {
        full_regen: full_regen_ms.map(|ms| PRE_PR_FULL_REGEN_MS / ms),
        figures: fig_speedups,
    };
    match (full_regen_ms, speedup.full_regen) {
        (Some(ms), Some(s)) => println!(
            "full figure regeneration: {ms:.0} ms vs {PRE_PR_FULL_REGEN_MS:.0} ms at \
             {PRE_PR_COMMIT} (x{s:.2})"
        ),
        _ => println!("full figure regeneration: skipped (not all binaries built)"),
    }
    for f in &speedup.figures {
        println!("  {:<20} x{:.2} vs {PRE_PR_COMMIT}", f.name, f.speedup);
    }

    let results = BenchSim {
        schema: "trainbox.bench_sim.v4",
        smoke,
        reps,
        des,
        faults,
        parallel,
        figures,
        full_regen_ms,
        pre_pr_baseline: Baseline {
            commit: PRE_PR_COMMIT,
            note: "wall-clock of the unoptimized simulator core, measured with binaries \
                   built at the anchor commit on the same host, best of 3",
            full_regen_ms: PRE_PR_FULL_REGEN_MS,
            figures: PRE_PR_FIGURE_MS
                .iter()
                .map(|&(name, ms)| FigureMs { name: name.to_string(), wall_ms: ms })
                .collect(),
        },
        speedup_vs_pre_pr: speedup,
    };
    emit_json("bench_sim", &results);
}

#[cfg(test)]
mod tests {
    #[test]
    fn figure_bins_match_reproduce_script() {
        let script = include_str!("../../../../scripts/reproduce.sh");
        let start = script.find("bins=(").expect("reproduce.sh declares bins=(...)") + 6;
        let len = script[start..].find(')').expect("the bins list is closed");
        let bins: Vec<&str> = script[start..start + len].split_whitespace().collect();
        assert_eq!(bins, super::FIGURE_BINS);
    }
}
