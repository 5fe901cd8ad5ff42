//! `des-matrix`: a closed loop of cold, sequential ResNet-50 DES requests
//! through `SimRequest::run` at five kind × scale points.
//!
//! The seed only permutes the order of the points within each pass; every
//! request is built from scratch, so each one pays the full cold cost. Each
//! answer is checked against the reference outputs recorded at the commit
//! that introduced this benchmark (`expected/des_matrix.json`).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainbox_core::pipeline::{SimConfig, SimResult};
use trainbox_core::request::SimRequest;
use trainbox_core::{ServerKind, SimOutcome};
use trainbox_nn::Workload;
use trainbox_pcie::flow::FlowSpec;
use trainbox_pcie::{FlowNet, FlowSim};
use trainbox_sim::json::Value;
use trainbox_sim::{Engine, Model, RingTracer, Scheduler, SimTime, TraceRecord};

use crate::metrics::{Outcome, POINTS};
use crate::spans::Spans;
use crate::stats::{geomean, median};
use crate::{check, sys, Args};

/// Reference outputs, relative to the repository root.
pub const EXPECTED: &str = "perfbench/expected/des_matrix.json";

/// Largest relative drift of any simulated output (ROADMAP bound).
const REL_TOL: f64 = 1e-9;

/// Cost counters: reported as metrics, not checked as outputs.
const COUNTERS: [&str; 2] = ["events", "recomputes"];

const KINDS: [(ServerKind, usize); 5] = [
    (ServerKind::Baseline, 256),
    (ServerKind::AccFpga, 32),
    (ServerKind::AccFpgaP2p, 64),
    (ServerKind::TrainBox, 64),
    (ServerKind::TrainBoxNoPool, 256),
];

/// The request of matrix point `i`: default `SimConfig` (8 batches,
/// sequential engine).
pub fn request(i: usize) -> SimRequest {
    let (kind, n) = KINDS[i];
    let resnet = Workload::by_name("Resnet-50").expect("Table-I workload");
    SimRequest::des(
        kind,
        n,
        resnet,
        SimConfig {
            parallel_workers: 0,
            ..SimConfig::default()
        },
    )
}

fn des_result(req: &SimRequest) -> Result<SimResult, String> {
    match req.run().map_err(|e| e.to_string())?.outcome {
        SimOutcome::Des(r) => Ok(r),
        other => Err(format!("expected a DES outcome, got {other:?}")),
    }
}

fn result_json(r: &SimResult) -> String {
    serde_json::to_string(r).expect("result serialization is infallible")
}

/// The reference answer of every point, in matrix order.
fn load_expected() -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(EXPECTED).map_err(|e| format!("{EXPECTED}: {e}"))?;
    let doc = trainbox_sim::json::parse(&text).map_err(|e| format!("{EXPECTED}: {e}"))?;
    POINTS
        .iter()
        .map(|pt| {
            doc.get(pt)
                .cloned()
                .ok_or_else(|| format!("{EXPECTED}: no entry for {pt}"))
        })
        .collect()
}

/// Check a result against its reference (cost counters left out).
fn check_result(r: &SimResult, want: &Value) -> Result<(), String> {
    let got = trainbox_sim::json::parse(&result_json(r)).map_err(|e| e.to_string())?;
    check::compare_docs(&got, want, &COUNTERS, REL_TOL)
}

/// Write the reference outputs from the current program.
pub fn record_expected() -> Result<(), String> {
    let mut out = String::from("{\n");
    for (i, pt) in POINTS.iter().enumerate() {
        let r = des_result(&request(i))?;
        let sep = if i + 1 < POINTS.len() { "," } else { "" };
        out.push_str(&format!("{pt:?}: {}{sep}\n", result_json(&r)));
    }
    out.push_str("}\n");
    std::fs::write(EXPECTED, out).map_err(|e| format!("{EXPECTED}: {e}"))
}

/// Per-point host CPU and wall seconds of every request, the set-up
/// samples, and the last result's cost counters.
#[derive(Default)]
struct Samples {
    cpu: Vec<Vec<f64>>,
    /// CPU seconds to build the server model (`SimRequest::build_server`)
    /// of all five points, the set-up a cold request pays before its first
    /// event; sampled before every request, so it sees the same host as
    /// the requests do.
    setup: Vec<f64>,
    wall: Vec<Vec<f64>>,
    events: Vec<u64>,
    recomputes: Vec<u64>,
}

/// Run passes over the matrix, each in a seeded order, until `budget` has
/// passed and every point has been asked at least once.
fn measure(
    budget: Duration,
    rng: &mut StdRng,
    expected: &[Value],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Samples {
    let n = POINTS.len();
    let mut s = Samples {
        cpu: vec![Vec::new(); n],
        setup: Vec::new(),
        wall: vec![Vec::new(); n],
        events: vec![0; n],
        recomputes: vec![0; n],
    };
    let requests: Vec<SimRequest> = (0..n).map(request).collect();
    let started = Instant::now();
    let mut op = 0u64;
    let mut tried = vec![false; n];
    'passes: loop {
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher–Yates with the seeded generator.
        for j in (1..n).rev() {
            order.swap(j, rng.gen_range(0..=j));
        }
        for i in order {
            let c = sys::thread_cpu_s();
            for r in &requests {
                std::hint::black_box(r.build_server().ok());
            }
            s.setup.push(sys::thread_cpu_s() - c);
            let req = request(i);
            let t = Instant::now();
            let c = sys::thread_cpu_s();
            let res = spans.span("core", "SimRequest::run", op, |_| des_result(&req));
            let cpu = sys::thread_cpu_s() - c;
            let wall = t.elapsed().as_secs_f64();
            op += 1;
            out.attempted += 1;
            tried[i] = true;
            match res.and_then(|r| check_result(&r, &expected[i]).map(|()| r)) {
                Ok(r) => {
                    s.cpu[i].push(cpu);
                    s.wall[i].push(wall);
                    s.events[i] = r.events;
                    s.recomputes[i] = r.recomputes;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("des-matrix: {} mismatch: {e}", POINTS[i]);
                }
            }
            if started.elapsed() >= budget && tried.iter().all(|&t| t) {
                break 'passes;
            }
        }
    }
    s
}

/// Per-point medians and the workload's end-to-end figures. The figures
/// are CPU time of the requesting thread (the engine runs sequentially on
/// it), which time the hypervisor gives to other guests does not inflate;
/// wall time is printed beside it.
fn summarize(s: &Samples, out: &mut Outcome) -> Vec<f64> {
    out.set("setup_s", median(&s.setup));
    println!(
        "setup_s {:.6} s CPU to build the five servers (median of {}, one before each request)",
        median(&s.setup),
        s.setup.len()
    );
    let med: Vec<f64> = s.cpu.iter().map(|v| median(v)).collect();
    for (i, pt) in POINTS.iter().enumerate() {
        println!(
            "des_s.{pt:<13} {:>10.4} s CPU, {:>10.4} s wall   (median of {} cold requests; {} events, {} recomputes)",
            med[i],
            median(&s.wall[i]),
            s.cpu[i].len(),
            s.events[i],
            s.recomputes[i]
        );
    }
    let events = s.events.iter().sum::<u64>() as f64;
    println!(
        "one cold pass: {:.4} s CPU, {:.0} simulated events per CPU second",
        med.iter().sum::<f64>(),
        events / med.iter().sum::<f64>()
    );
    out.set("cpu_ms", geomean(&med) * 1e3);
    med
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Provenance (`git describe`) is resolved once per process, on the
    // first answer; resolve it before timing anything.
    let _ = trainbox_core::request::git_describe();
    let expected = load_expected()?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let s = measure(
            budget / 2,
            &mut rng,
            &expected,
            &mut Spans::new(false),
            &mut out,
        );
        summarize(&s, &mut out);
        let untraced = out.get("cpu_ms").unwrap_or(f64::NAN);
        println!("-- traced passes:");
        let s = measure(budget / 2, &mut rng, &expected, spans, &mut out);
        let med = summarize(&s, &mut out);
        // One span per request, inside its CPU measurement.
        out.set_overhead(untraced, 1.0);
        for (i, pt) in POINTS.iter().enumerate() {
            out.set(format!("sim.events.{pt}"), s.events[i] as f64);
            out.set(
                format!("sim.ns_per_event.{pt}"),
                med[i] / s.events[i] as f64 * 1e9,
            );
            out.set(format!("pcie.recomputes.{pt}"), s.recomputes[i] as f64);
        }
        probes(&mut rng, spans, &mut out)?;
    } else {
        let s = measure(budget, &mut rng, &expected, spans, &mut out);
        summarize(&s, &mut out);
    }
    out.set("peak_rss_mb", crate::sys::peak_rss_mb("self"));
    Ok(out)
}

/// The per-layer probes of the traced run.
fn probes(rng: &mut StdRng, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    for (q, name) in [(1usize << 10, "q1k"), (1 << 16, "q64k")] {
        let ns = spans.span("sim", "Engine::step (hold model)", 0, |_| {
            hold_ns(q, 200_000, rng.gen())
        });
        out.set(format!("sim.hold_ns.{name}"), ns);
    }
    for (i, pt) in POINTS.iter().enumerate() {
        let req = request(i);
        let mut builds = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            spans
                .span("core", "SimRequest::build_server", i as u64, |_| {
                    req.build_server()
                })
                .map_err(|e| e.to_string())?;
            builds.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.set(format!("core.build_server_ms.{pt}"), median(&builds));

        let (_, tracer) = spans
            .span("core", "SimRequest::run_des_with_tracer", i as u64, |_| {
                req.run_des_with_tracer(RingTracer::new(1 << 21))
            })
            .map_err(|e| e.to_string())?;
        let counts: Vec<f64> = tracer
            .records()
            .filter_map(|r| match r {
                TraceRecord::Counter {
                    name: "pcie_active_flows",
                    value,
                    ..
                } => Some(*value),
                _ => None,
            })
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
        out.set(format!("pcie.active_flows_mean.{pt}"), mean);
        println!(
            "pcie.active_flows_mean.{pt}: {mean:.1} over {} samples ({} trace records dropped)",
            counts.len(),
            tracer.dropped()
        );

        let server = req.build_server().map_err(|e| e.to_string())?;
        let population = mean.round().max(1.0) as usize;
        let (cycle_us, solves) = spans.span("pcie", "FlowSim cycle", i as u64, |_| {
            flow_cycle(
                &server.topology().topo,
                &endpoints(server.topology()),
                population,
                rng,
            )
        });
        out.set(format!("pcie.flow_cycle_us.{pt}"), cycle_us);
        out.set(format!("pcie.domain_solves_per_cycle.{pt}"), solves);
    }
    Ok(())
}

/// A hold model: every event schedules one successor a pseudo-random delay
/// later, so the queue depth stays constant.
struct Hold {
    state: u64,
}

impl Model for Hold {
    type Event = ();

    fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sched.schedule_in(
            now,
            SimTime::from_nanos(1 + (self.state >> 33) % 1_000_000),
            (),
        );
    }
}

/// Nanoseconds per event of `Engine` driving the hold model at queue depth
/// `depth`.
pub fn hold_ns(depth: usize, steps: usize, seed: u64) -> f64 {
    let mut engine = Engine::new(Hold { state: seed });
    let mut x = seed | 1;
    for _ in 0..depth {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        engine.schedule_at(SimTime::from_nanos((x >> 33) % 1_000_000), ());
    }
    let t = Instant::now();
    for _ in 0..steps {
        engine.step();
    }
    t.elapsed().as_nanos() as f64 / steps as f64
}

fn endpoints(t: &trainbox_pcie::boxes::ServerTopology) -> Vec<trainbox_pcie::NodeId> {
    t.ssds
        .iter()
        .chain(&t.preps)
        .chain(&t.accs)
        .copied()
        .collect()
}

/// Drive `FlowSim` on `topo` with `population` concurrent transfers between
/// random endpoint pairs over their real routes: each cycle finds the next
/// completion, completes it and starts a replacement. Returns microseconds
/// per cycle and domain solves per cycle.
pub fn flow_cycle(
    topo: &trainbox_pcie::Topology,
    ends: &[trainbox_pcie::NodeId],
    population: usize,
    rng: &mut StdRng,
) -> (f64, f64) {
    let mut sim = FlowSim::new(FlowNet::from_topology(topo));
    let mut routes = Vec::new();
    while routes.len() < 64 {
        let a = ends[rng.gen_range(0..ends.len())];
        let b = ends[rng.gen_range(0..ends.len())];
        let route = topo.route(a, b);
        if a != b && !route.is_empty() {
            routes.push(route);
        }
    }
    let mut now = SimTime::ZERO;
    let start = |sim: &mut FlowSim, now: SimTime, rng: &mut StdRng| {
        let route = routes[rng.gen_range(0..routes.len())].clone();
        sim.add_flow(now, FlowSpec::new(route), rng.gen_range(1e6..4e6));
    };
    for _ in 0..population {
        start(&mut sim, now, rng);
    }
    let solves0 = sim.domain_solves();
    let t = Instant::now();
    let mut cycles = 0u32;
    while cycles < 2_000 && (cycles < 20 || t.elapsed() < Duration::from_millis(300)) {
        let (at, id) = sim.next_completion().expect("population is never empty");
        now = at;
        sim.complete(now, id);
        start(&mut sim, now, rng);
        cycles += 1;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / f64::from(cycles);
    (
        us,
        (sim.domain_solves() - solves0) as f64 / f64::from(cycles),
    )
}
