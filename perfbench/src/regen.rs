//! `regen`: the 24 figure and ablation binaries of `scripts/reproduce.sh`,
//! run one after another as a user runs them (`-j 1`), into a scratch
//! results directory. Every JSON they write must be byte-identical to the
//! committed `results/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trainbox_dataprep::Image;
use trainbox_nn::train::{
    batch_scaling_points, prepare_scaling, run_arm, run_with_batch_prepared, AugExperimentConfig,
};
use trainbox_nn::Matrix;

use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::stats::median;
use crate::{sys, Args};

/// The binaries of `scripts/reproduce.sh`, in its order.
pub const BINS: [&str; 24] = [
    "table01",
    "fig02b",
    "fig03",
    "fig05",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "table02",
    "table03",
    "fig19",
    "fig20",
    "fig21",
    "fig21_cluster",
    "fig22",
    "ablation_ring",
    "ablation_boxes",
    "ablation_nextgen",
    "ablation_prepnet",
    "ablation_prefetch",
    "batch_lr",
    "scale_up_vs_out",
    "ablation_faults",
    "ablation_sync",
];

/// Where the build put the release binaries (`run.sh`'s default target
/// directory unless `CARGO_TARGET_DIR` says otherwise).
pub fn release_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("release")
}

fn command(bin: &Path, results: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("TRAINBOX_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("TRAINBOX_RESULTS_DIR", results)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    cmd
}

fn run_bin(bin: &Path, results: &Path, extra: &[&str]) -> Result<(), String> {
    let out = command(bin, results)
        .args(["-j", "1"])
        .args(extra)
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{} exited with {}: {}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Host CPU seconds (user + system, all threads) of one full regeneration
/// and of each binary, and the regeneration's wall seconds.
struct Pass {
    total: f64,
    per_bin: Vec<f64>,
    wall: f64,
}

fn pass(bins: &[PathBuf], results: &Path, spans: &mut Spans, op: u64) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(results);
    std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let mut per_bin = Vec::with_capacity(bins.len());
    let t = Instant::now();
    for (bin, name) in bins.iter().zip(BINS) {
        let c = sys::children_cpu_s();
        spans.span("bench", name, op, |_| run_bin(bin, results, &[]))?;
        per_bin.push(sys::children_cpu_s() - c);
    }
    Ok(Pass {
        total: per_bin.iter().sum(),
        per_bin,
        wall: t.elapsed().as_secs_f64(),
    })
}

/// Names of the figures whose JSON differs from the committed `results/`.
fn mismatches(results: &Path) -> Vec<String> {
    BINS.iter()
        .filter(|name| {
            let file = format!("{name}.json");
            let got = std::fs::read(results.join(&file));
            let want = std::fs::read(Path::new("results").join(&file));
            !matches!((got, want), (Ok(g), Ok(w)) if g == w)
        })
        .map(|s| s.to_string())
        .collect()
}

/// Full regenerations until `budget` has passed, each checked against
/// `results/`. Before each, the set-up `scripts/reproduce.sh` does, probing
/// every binary's CLI, is timed too (children's CPU time), so `setup_s`
/// sees the same host as the regenerations do.
fn measure(
    budget: Duration,
    bins: &[PathBuf],
    results: &Path,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut setup = Vec::new();
    while passes.is_empty() || started.elapsed() < budget {
        let c = sys::children_cpu_s();
        for bin in bins {
            run_bin(bin, results, &["--print-jobs"])?;
        }
        setup.push(sys::children_cpu_s() - c);
        let p = pass(bins, results, spans, passes.len() as u64)?;
        let bad = mismatches(results);
        out.attempted += BINS.len() as u64;
        out.failed += bad.len() as u64;
        if !bad.is_empty() {
            eprintln!("regen: output differs from results/: {}", bad.join(", "));
        }
        passes.push(p);
    }
    out.set("setup_s", median(&setup));
    println!(
        "setup_s {:.4} s CPU to probe the {} binaries (median of {}, one before each regeneration)",
        median(&setup),
        BINS.len(),
        setup.len()
    );
    Ok(passes)
}

/// The workload's end-to-end figures, in CPU time of the binaries (which
/// time the hypervisor gives to other guests does not inflate); wall time is
/// printed beside it.
fn summarize(passes: &[Pass], out: &mut Outcome) {
    let totals: Vec<f64> = passes.iter().map(|p| p.total).collect();
    let regen_s = median(&totals);
    let wall = median(&passes.iter().map(|p| p.wall).collect::<Vec<_>>());
    let per_bin: Vec<f64> = (0..BINS.len())
        .map(|i| median(&passes.iter().map(|p| p.per_bin[i]).collect::<Vec<_>>()))
        .collect();
    let (slow, slow_s) =
        per_bin.iter().enumerate().fold(
            (0, 0.0),
            |acc, (i, &s)| if s > acc.1 { (i, s) } else { acc },
        );
    println!(
        "regen_s {regen_s:.4} s CPU, {wall:.4} s wall   (median of {} full regenerations of {} figures)",
        passes.len(),
        BINS.len()
    );
    println!(
        "slowest figure: {} at {slow_s:.4} s CPU (median)",
        BINS[slow]
    );
    out.set("cpu_ms", regen_s * 1e3);
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = release_dir();
    let bins: Vec<PathBuf> = BINS.iter().map(|b| dir.join(b)).collect();
    let results = PathBuf::from(crate::OUT_DIR).join(format!("regen-{}", args.seed));

    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let passes = measure(
            budget / 2,
            &bins,
            &results,
            &mut Spans::new(false),
            &mut out,
        )?;
        summarize(&passes, &mut out);
        let untraced = out.get("cpu_ms").unwrap_or(f64::NAN);
        println!("-- traced passes:");
        let passes = measure(budget / 2, &bins, &results, spans, &mut out)?;
        summarize(&passes, &mut out);
        // The spans wrap the child processes; this process's recording is
        // not in their CPU time.
        out.set_overhead(untraced, 0.0);
        probes(args.seed, spans, &mut out);
    } else {
        let passes = measure(budget, &bins, &results, spans, &mut out)?;
        summarize(&passes, &mut out);
    }
    out.set("peak_rss_mb", sys::children_peak_rss_mb());
    let _ = std::fs::remove_dir_all(&results);
    Ok(out)
}

/// The nn and dataprep probes of the traced run, at the configurations
/// `batch_lr` and `fig05` use.
fn probes(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    let cfg = AugExperimentConfig {
        epochs: 16,
        ..AugExperimentConfig::default()
    };
    let prep = prepare_scaling(&cfg);
    let points = batch_scaling_points(32, &[32, 128, 256], cfg.lr);
    let t = Instant::now();
    for (i, &(batch, lr)) in points.iter().enumerate() {
        spans.span("nn", "run_with_batch_prepared", i as u64, |_| {
            std::hint::black_box(run_with_batch_prepared(&prep, batch, lr))
        });
    }
    out.set("nn.train_ms", t.elapsed().as_secs_f64() * 1e3);

    let cfg = AugExperimentConfig {
        epochs: 14,
        ..AugExperimentConfig::default()
    };
    let t = Instant::now();
    for augment in [true, false] {
        spans.span("nn", "run_arm", u64::from(augment), |_| {
            std::hint::black_box(run_arm(&cfg, augment))
        });
    }
    out.set("nn.arm_ms", t.elapsed().as_secs_f64() * 1e3);

    // The MLP's forward shapes: a 32-sample batch of 16×16×3 crops through
    // a 48-wide hidden layer into 8 classes.
    let dim = cfg.crop_edge * cfg.crop_edge * 3;
    let shapes = [
        (32, dim, cfg.hidden),
        (32, cfg.hidden, cfg.classes),
        (dim, 32, cfg.hidden),
    ];
    let pairs: Vec<(Matrix, Matrix)> = shapes
        .iter()
        .map(|&(m, k, n)| {
            (
                Matrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.1),
                Matrix::from_fn(k, n, |r, c| ((r * 5 + c) % 11) as f32 * 0.1),
            )
        })
        .collect();
    let reps = 400;
    let flops: f64 = shapes
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum::<f64>()
        * f64::from(reps);
    let t = Instant::now();
    spans.span("nn", "Matrix::matmul", 0, |_| {
        for _ in 0..reps {
            for (a, b) in &pairs {
                std::hint::black_box(std::hint::black_box(a).matmul(b));
            }
        }
    });
    out.set("nn.matmul_gflops", flops / t.elapsed().as_secs_f64() / 1e9);

    let mut rng = StdRng::seed_from_u64(seed);
    let proto = Image::from_rgb(
        cfg.proto_edge,
        cfg.proto_edge,
        (0..cfg.proto_edge * cfg.proto_edge * 3)
            .map(|i| (i * 31 % 251) as u8)
            .collect(),
    );
    let samples = 20_000;
    let t = Instant::now();
    spans.span("dataprep", "random_crop+mirror+gaussian_noise", 0, |_| {
        for _ in 0..samples {
            let c = proto
                .random_crop(cfg.crop_edge, cfg.crop_edge, &mut rng)
                .expect("crop fits");
            std::hint::black_box(c.mirror().gaussian_noise(cfg.noise_sigma, &mut rng));
        }
    });
    out.set(
        "dataprep.augment_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(samples),
    );
}
