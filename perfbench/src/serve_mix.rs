//! `serve-mix`: an open loop of independent users against the release
//! `trainbox-serve`, run as a child process from the repository root.
//!
//! Requests come from a fixed catalog in three classes, each drawn with
//! Zipf popularity under a seeded permutation:
//!
//! * analytic `/simulate` over kinds × 16–256 accelerators × Table-I
//!   workloads × batch overrides;
//! * rare, small DES `/simulate` (16–32 accelerators, short runs);
//! * small analytic `/sweep` grids of 4–8 points.
//!
//! The catalog is larger than the server's cache, so hits, misses and
//! evictions all continue in steady state. Every 200 answer is compared
//! with an in-process `SimRequest::run` of the same request, computed after
//! the timed window.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainbox_core::request::{SimRequest, SweepRequest};
use trainbox_serve::cache::{Lookup, ShardedLru};
use trainbox_serve::http::{ParseStatus, RequestParser};
use trainbox_sim::json::Value;

use crate::loadgen::{self, Arrival, Completion, Response};
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::stats::{median, percentile, tail};
use crate::{check, sys, Args};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Analytic,
    Des,
    Sweep,
}

#[derive(Debug, Clone)]
pub struct Item {
    pub class: Class,
    pub path: &'static str,
    pub body: String,
}

const KINDS: [&str; 7] = [
    "Baseline",
    "AccFpga",
    "AccGpu",
    "AccFpgaP2p",
    "AccFpgaP2pGen4",
    "TrainBoxNoPool",
    "TrainBox",
];
const WORKLOADS: [&str; 7] = [
    "VGG-19",
    "Resnet-50",
    "Inception-v4",
    "RNN-S",
    "RNN-L",
    "TF-SR",
    "TF-AA",
];
/// Accelerator counts: the points of fig21's axis (`ACCEL_SWEEP`) from 16
/// to 256.
const ACCELS: [u64; 5] = [16, 32, 64, 128, 256];
/// Batch-size overrides: fig20's batch axis.
const BATCHES: [u64; 6] = [8, 32, 128, 512, 2048, 8192];
/// Workloads whose short DES runs stay within [`DES_CAP_MS`] at every kind
/// and at 16–32 accelerators (README.md lists the measured costs).
const DES_WORKLOADS: [&str; 5] = ["VGG-19", "Inception-v4", "RNN-L", "TF-SR", "TF-AA"];
/// Short DES: three batches, one of them warm-up.
const DES_SIM: &str = r#"{"Des":{"batches":3,"warmup_batches":1}}"#;
/// Upper bound on one DES miss of the mix, in milliseconds.
const DES_CAP_MS: f64 = 60.0;

/// Requests per second at the workload's nominal rate: one twelfth of the
/// `serve.max_rps` measured on a calm 2-CPU host (4800), so the nominal
/// phase measures service, not queueing.
pub const NOMINAL_RPS: f64 = 400.0;
/// Share of the generator's connection time that DES misses may hold at
/// the nominal rate, even if every DES request missed at [`DES_CAP_MS`]:
/// with only CPU-count connections, one DES miss holds one of them.
const DES_CONN_SHARE: f64 = 0.05;
/// CPU count of the host the class shares are sized for.
const REF_CONNS: f64 = 2.0;
/// Share of requests per class: analytic, DES, sweep. The DES share
/// follows from [`DES_CONN_SHARE`]; the sweep share is assumed.
const CLASS_SHARE: [f64; 3] = {
    let des = DES_CONN_SHARE * REF_CONNS / (NOMINAL_RPS * DES_CAP_MS / 1e3);
    let sweep = 0.06;
    [1.0 - des - sweep, des, sweep]
};
/// Zipf exponent of popularity within a class (assumed).
const ZIPF_S: f64 = 1.0;

/// Length of the windows the nominal phase is measured in: 1200 requests
/// at the nominal rate, so at least ten lie beyond each window's p99.
const WINDOW_S: f64 = 3.0;
/// The fixed rate ladder for `max_rps`: doubling rungs from below the
/// nominal rate to four times that calm-host `max_rps`, so a server
/// several times faster still finds a rung it misses.
pub const LADDER_RPS: [f64; 7] = [300.0, 600.0, 1200.0, 2400.0, 4800.0, 9600.0, 19200.0];
/// Latency limit on the p99 of a ladder rung (assumed).
pub const LIMIT_MS: f64 = 50.0;

/// Phases of a run: each draws its own arrivals from the run's seed.
const WARM: u64 = 0;
const NOMINAL: u64 = 1;
const TRACED: u64 = 2;
const LADDER: u64 = 10;

/// Server start-ups per run: all but the last are stopped right after their
/// first answer, and `setup_s` is the median CPU time they took.
const SETUPS: usize = 9;

/// The request catalog, in a fixed order.
pub fn catalog() -> Vec<Item> {
    let mut items = Vec::new();
    let batch = |b: Option<u64>| b.map_or(String::new(), |b| format!(",\"batch_size\":{b}"));
    for kind in KINDS {
        for n in ACCELS {
            for w in WORKLOADS {
                for b in std::iter::once(None).chain(BATCHES.map(Some)) {
                    items.push(Item {
                        class: Class::Analytic,
                        path: "/simulate",
                        body: format!(
                            r#"{{"server":{{"kind":"{kind}","n_accels":{n}{}}},"workload":"{w}"}}"#,
                            batch(b)
                        ),
                    });
                }
            }
        }
        for n in [16, 32] {
            for w in DES_WORKLOADS {
                items.push(Item {
                    class: Class::Des,
                    path: "/simulate",
                    body: format!(
                        r#"{{"server":{{"kind":"{kind}","n_accels":{n}}},"workload":"{w}","sim":{DES_SIM}}}"#
                    ),
                });
            }
        }
        // The figures' own sweep shapes: fig21's accelerator axis, and
        // fig20's batch axis at each accelerator count.
        for w in WORKLOADS {
            let template =
                |n| format!(r#"{{"server":{{"kind":"{kind}","n_accels":{n}}},"workload":"{w}"}}"#);
            let mut grids = vec![(16, format!(r#"{{"n_accels":{ACCELS:?}}}"#))];
            grids.extend(ACCELS.map(|n| (n, format!(r#"{{"batch_size":{BATCHES:?}}}"#))));
            for (n, grid) in grids {
                items.push(Item {
                    class: Class::Sweep,
                    path: "/sweep",
                    body: format!(r#"{{"template":{},"grid":{grid}}}"#, template(n)),
                });
            }
        }
    }
    items
}

/// Seeded popularity: per class, a random permutation of its items and the
/// cumulative Zipf weights of its ranks.
struct Popularity {
    by_class: Vec<(Vec<usize>, Vec<f64>)>,
}

impl Popularity {
    fn new(items: &[Item], rng: &mut StdRng) -> Self {
        let by_class = [Class::Analytic, Class::Des, Class::Sweep]
            .iter()
            .map(|&c| {
                let mut members: Vec<usize> =
                    (0..items.len()).filter(|&i| items[i].class == c).collect();
                for j in (1..members.len()).rev() {
                    members.swap(j, rng.gen_range(0..=j));
                }
                let mut cdf = Vec::with_capacity(members.len());
                let mut acc = 0.0;
                for rank in 1..=members.len() {
                    acc += 1.0 / (rank as f64).powf(ZIPF_S);
                    cdf.push(acc);
                }
                (members, cdf)
            })
            .collect();
        Popularity { by_class }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let class = if u < CLASS_SHARE[0] {
            0
        } else if u < CLASS_SHARE[0] + CLASS_SHARE[1] {
            1
        } else {
            2
        };
        let (members, cdf) = &self.by_class[class];
        let x = rng.gen::<f64>() * cdf[cdf.len() - 1];
        members[cdf.partition_point(|&c| c < x).min(members.len() - 1)]
    }
}

/// A Poisson arrival schedule at `rps` for `secs`. Which items are popular
/// comes from `seed` alone, so every phase of a run shares it; the arrivals
/// and the draws come from `seed` and `phase`.
pub fn schedule(items: &[Item], seed: u64, phase: u64, rps: f64, secs: f64) -> Vec<Arrival> {
    let pop = Popularity::new(items, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed ^ (phase + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rps;
        if t >= secs {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            item: pop.draw(&mut rng),
        });
    }
}

/// The release server as a child process; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())
}

const FIRST_BODY: &str = r#"{"server":{"kind":"TrainBox","n_accels":256},"workload":"Resnet-50"}"#;

/// Spawn the server and wait until `/readyz` is 200 and a first
/// `/simulate` is answered; returns the server and the seconds that took.
fn start_server() -> Result<(Server, f64), String> {
    let cpus = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .to_string();
    let port = free_port()?;
    let bin = crate::regen::release_dir().join("trainbox-serve");
    let t = Instant::now();
    let child = Command::new(&bin)
        .args([
            "--port",
            &port.to_string(),
            "--workers",
            &cpus,
            "--loops",
            &cpus,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let addr: SocketAddr = ([127, 0, 0, 1], port).into();
    let mut server = Server { child, addr };
    let ready = b"GET /readyz HTTP/1.1\r\nhost: localhost\r\n\r\n";
    loop {
        if let Ok(r) = loadgen::exchange(addr, ready, Duration::from_secs(1)) {
            if r.status == 200 {
                break;
            }
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("trainbox-serve exited during start-up: {status}"));
        }
        if t.elapsed() > Duration::from_secs(30) {
            return Err("trainbox-serve not ready after 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let first = loadgen::exchange(
        addr,
        &loadgen::post_bytes("/simulate", FIRST_BODY),
        Duration::from_secs(10),
    )
    .map_err(|e| format!("first /simulate: {e}"))?;
    if first.status != 200 {
        return Err(format!("first /simulate answered {}", first.status));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// Ask the server to drain and exit, and reap it.
fn stop_server(mut server: Server) {
    let _ = loadgen::exchange(
        server.addr,
        b"POST /admin/shutdown HTTP/1.1\r\nhost: localhost\r\ncontent-length: 0\r\n\r\n",
        Duration::from_secs(5),
    );
    let t = Instant::now();
    while t.elapsed() < Duration::from_secs(10) {
        if let Ok(Some(_)) = server.child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // Drop kills whatever did not exit.
}

/// In-process reference answers, computed once per distinct question (by
/// canonical form).
#[derive(Default)]
struct Reference {
    answers: HashMap<String, String>,
}

impl Reference {
    fn answer(&mut self, req: &SimRequest) -> Result<String, String> {
        let key = req.canonical_json();
        if let Some(a) = self.answers.get(&key) {
            return Ok(a.clone());
        }
        let resp = req.run().map_err(|e| e.to_string())?;
        let json = serde_json::to_string(&resp).map_err(|e| e.to_string())?;
        self.answers.insert(key, json.clone());
        Ok(json)
    }
}

/// Check one answered request against the in-process reference.
fn check_completion(c: &Completion, item: &Item, reference: &mut Reference) -> Result<(), String> {
    let resp = c.response.as_ref().ok_or("no answer")?;
    if resp.status != 200 {
        return Err(format!("HTTP {}", resp.status));
    }
    let body = std::str::from_utf8(&resp.body).map_err(|_| "non-UTF-8 body")?;
    match item.class {
        Class::Analytic | Class::Des => {
            let req = SimRequest::from_json_str(&item.body).map_err(|e| e.to_string())?;
            check::same_answer(body, &reference.answer(&req)?)
        }
        Class::Sweep => {
            let sweep = SweepRequest::from_json_str(&item.body).map_err(|e| e.to_string())?;
            let want = sweep
                .expand()
                .iter()
                .map(|p| reference.answer(&p.request))
                .collect::<Result<Vec<_>, _>>()?;
            let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
            if lines.len() != want.len() + 1 {
                return Err(format!(
                    "{} stream lines for {} points",
                    lines.len(),
                    want.len()
                ));
            }
            for (i, (line, want)) in lines.iter().zip(&want).enumerate() {
                let v = trainbox_sim::json::parse(line).map_err(|e| format!("line {i}: {e}"))?;
                if v.get("status").and_then(Value::as_str) != Some("ok") {
                    return Err(format!("point {i}: {line}"));
                }
                let got = v
                    .get("response")
                    .ok_or_else(|| format!("point {i}: no response"))?;
                let want = trainbox_sim::json::parse(want).map_err(|e| e.to_string())?;
                check::same_answer_values(got, &want).map_err(|e| format!("point {i}: {e}"))?;
            }
            Ok(())
        }
    }
}

/// The server under test, the run's seed, the catalog with its raw request
/// bytes, and the reference answers computed so far.
struct Mix {
    server: Server,
    seed: u64,
    items: Vec<Item>,
    raw: Vec<Vec<u8>>,
    reference: Reference,
}

/// One stretch of a phase, sent as its own schedule.
struct Window {
    /// p99 latency of its requests.
    p99_ms: f64,
    /// CPU milliseconds the server process spent per request.
    server_cpu_ms: f64,
}

/// One schedule as sent, and what came back.
struct Phase {
    schedule: Vec<Arrival>,
    run: loadgen::Run,
    secs: f64,
    windows: Vec<Window>,
}

/// Answers of one phase by outcome.
struct Counts {
    ok: usize,
    shed: usize,
    failed: usize,
}

impl Phase {
    fn item<'a>(&self, items: &'a [Item], c: &Completion) -> &'a Item {
        &items[self.schedule[c.arrival].item]
    }

    fn latencies(&self) -> Vec<f64> {
        self.run
            .completions
            .iter()
            .map(Completion::latency_ms)
            .collect()
    }

    fn counts(&self) -> Counts {
        let mut n = Counts {
            ok: 0,
            shed: 0,
            failed: 0,
        };
        for c in &self.run.completions {
            match c.response.as_ref().map(|r| r.status) {
                Some(200) => n.ok += 1,
                Some(429) => n.shed += 1,
                _ => n.failed += 1,
            }
        }
        n
    }

    /// Median over windows of each window's p99: a stall that hits one
    /// window moves one sample.
    fn windowed_p99(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.p99_ms).collect::<Vec<_>>())
    }

    /// Median over windows of the server's CPU milliseconds per request.
    fn server_cpu_ms(&self) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(|w| w.server_cpu_ms)
                .collect::<Vec<_>>(),
        )
    }
}

impl Mix {
    /// Send one schedule, in `windows` consecutive stretches of equal
    /// length, and check its answers: every request counts as attempted,
    /// every wrong answer as failed. The server's CPU time is read between
    /// stretches.
    fn drive(
        &mut self,
        phase: u64,
        rps: f64,
        secs: f64,
        windows: usize,
        spans: &mut Spans,
        out: &mut Outcome,
    ) -> Result<Phase, String> {
        let schedule = schedule(&self.items, self.seed, phase, rps, secs);
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pid = self.server.child.id();
        let len = Duration::from_secs_f64(secs / windows as f64);
        let mut completions = Vec::with_capacity(schedule.len());
        let mut stats = Vec::with_capacity(windows);
        let mut drain = Duration::ZERO;
        let mut first = 0;
        for w in 1..=windows as u32 {
            let start = len * (w - 1);
            let end = if w as usize == windows {
                schedule.len()
            } else {
                schedule.partition_point(|a| a.due < len * w)
            };
            let part: Vec<Arrival> = schedule[first..end]
                .iter()
                .map(|a| Arrival {
                    due: a.due.saturating_sub(start),
                    item: a.item,
                })
                .collect();
            let cpu = sys::process_cpu_s(pid);
            let run = loadgen::run(
                self.server.addr,
                cpus,
                &self.raw,
                &part,
                Duration::from_secs(10),
            )
            .map_err(|e| e.to_string())?;
            let used = sys::process_cpu_s(pid) - cpu;
            let lat: Vec<f64> = run.completions.iter().map(Completion::latency_ms).collect();
            stats.push(Window {
                p99_ms: percentile(&lat, 99.0).unwrap_or(f64::NAN),
                server_cpu_ms: used * 1e3 / lat.len().max(1) as f64,
            });
            drain = run.drain;
            completions.extend(run.completions.into_iter().map(|mut c| {
                c.arrival += first;
                c
            }));
            first = end;
        }
        let phase = Phase {
            schedule,
            run: loadgen::Run { completions, drain },
            secs,
            windows: stats,
        };
        for c in &phase.run.completions {
            let item = phase.item(&self.items, c);
            spans.record("serve", item.path, c.arrival as u64, c.sent, c.done);
            if c.response.as_ref().is_some_and(|r| r.status == 200) {
                if let Err(e) = check_completion(c, item, &mut self.reference) {
                    if out.failed < 10 {
                        eprintln!("serve-mix: {} {} mismatch: {e}", item.path, item.body);
                    }
                    out.failed += 1;
                }
            }
        }
        out.attempted += phase.run.completions.len() as u64;
        Ok(phase)
    }
}

fn fmt_tail(xs: &[f64]) -> String {
    match tail(xs) {
        Some(t) => format!(
            "{:.3} ms at p{} of {} samples",
            t.value, t.percentile, t.samples
        ),
        None => format!(
            "n/a ({} samples, fewer than 10 beyond the median)",
            xs.len()
        ),
    }
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The in-process reference answers carry provenance too; resolve it
    // now rather than inside the first check.
    let _ = trainbox_core::request::git_describe();

    // Set-up, several times: spawn until ready and a first answer. Each
    // server but the last is stopped and reaped at once, so the CPU time of
    // its whole life (start-up, the `git describe` child it waits for, one
    // answer, a drain) shows in this process's children usage. The last
    // server stays up for the measurement.
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut server = None;
    for _ in 0..SETUPS {
        let before = sys::children_cpu_s();
        if let Some(s) = server.take() {
            stop_server(s);
            cpu.push(sys::children_cpu_s() - before);
        }
        let (s, secs) = start_server()?;
        wall.push(secs);
        server = Some(s);
    }
    out.set("setup_s", median(&cpu));
    println!(
        "setup_s {:.4} s CPU per server life (median of {}); start-up to first answer {:.4} s wall (median of {})",
        median(&cpu),
        cpu.len(),
        median(&wall),
        wall.len()
    );
    let items = catalog();
    let raw = items
        .iter()
        .map(|it| loadgen::post_bytes(it.path, &it.body))
        .collect();
    let mut mix = Mix {
        server: server.expect("set-up ran"),
        seed: args.seed,
        items,
        raw,
        reference: Reference::default(),
    };

    // Phases, as shares of the run: warm-up 0.1, then nominal 0.6 and the
    // rate ladder 0.3; traced: nominal 0.45 twice (untraced, then traced)
    // and no ladder.
    let s = args.seconds;
    // Warm-up: fill the cache to its steady state.
    let warm = mix.drive(
        WARM,
        NOMINAL_RPS,
        0.1 * s,
        1,
        &mut Spans::new(false),
        &mut out,
    )?;
    let c = warm.counts();
    out.failed += (c.shed + c.failed) as u64;

    let nominal_secs = if args.trace { 0.45 * s } else { 0.6 * s };
    let windows = (nominal_secs / WINDOW_S).floor().max(1.0) as usize;
    let nominal = mix.drive(
        NOMINAL,
        NOMINAL_RPS,
        nominal_secs,
        windows,
        &mut Spans::new(false),
        &mut out,
    )?;
    report_nominal(&mix.items, &nominal, &mut out);
    out.set("cpu_ms", nominal.server_cpu_ms());

    if args.trace {
        let traced = mix.drive(TRACED, NOMINAL_RPS, nominal_secs, windows, spans, &mut out)?;
        println!("-- traced phase:");
        report_nominal(&mix.items, &traced, &mut out);
        out.set("cpu_ms", traced.server_cpu_ms());
        // Spans are recorded from the completions after the phase, outside
        // the server's CPU time: none of their cost lands in `cpu_ms`.
        out.set_overhead(nominal.server_cpu_ms(), 0.0);
        layer_metrics(&mix.items, &traced, &mut out);
        probes(&mix.items, &mix.raw, &traced, spans, &mut out)?;
    } else {
        // The rate ladder: the highest rung whose p99 meets the limit with
        // no refusals or failures and no growing backlog.
        let rung_secs = 0.3 * s / LADDER_RPS.len() as f64;
        let mut max_rps = 0.0;
        for (k, &rps) in LADDER_RPS.iter().enumerate() {
            let rung = mix.drive(
                LADDER + k as u64,
                rps,
                rung_secs,
                1,
                &mut Spans::new(false),
                &mut out,
            )?;
            let lat = rung.latencies();
            let c = rung.counts();
            let p99 = percentile(&lat, 99.0).unwrap_or(f64::INFINITY);
            let drain_ms = rung.run.drain.as_secs_f64() * 1e3;
            let pass = c.shed + c.failed == 0 && p99 <= LIMIT_MS && drain_ms <= LIMIT_MS;
            let late: Vec<f64> = rung
                .run
                .completions
                .iter()
                .map(Completion::late_ms)
                .collect();
            println!(
                "ladder {rps:>6.0} rps: {} requests, p50 {:.3} ms, p99 {p99:.3} ms, generator late p99 {:.3} ms, \
                 {} shed, {} failed, drain {drain_ms:.1} ms, server CPU {:.1} us per request -> {}",
                lat.len(),
                median(&lat),
                percentile(&late, 99.0).unwrap_or(0.0),
                c.shed,
                c.failed,
                rung.server_cpu_ms() * 1e3,
                if pass { "meets" } else { "misses" }
            );
            if !pass {
                break;
            }
            max_rps = rps;
        }
        println!("serve.max_rps     {max_rps} requests/s (p99 limit {LIMIT_MS} ms)");
    }
    let pid = mix.server.child.id().to_string();
    out.set("peak_rss_mb", sys::peak_rss_mb(&pid));
    stop_server(mix.server);
    Ok(out)
}

/// Print the nominal-rate figures. Refused and failed requests count as
/// failed operations.
fn report_nominal(items: &[Item], phase: &Phase, out: &mut Outcome) {
    let lat = phase.latencies();
    let c = phase.counts();
    out.failed += (c.shed + c.failed) as u64;
    let by_cache = |want: &str| -> Vec<f64> {
        phase
            .run
            .completions
            .iter()
            .filter(|c| phase.item(items, c).path == "/simulate")
            .filter(|c| c.response.as_ref().and_then(|r| r.header("x-cache")) == Some(want))
            .map(Completion::latency_ms)
            .collect()
    };
    let (hits, misses) = (by_cache("hit"), by_cache("miss"));
    let p50 = median(&lat);
    let p99 = percentile(&lat, 99.0).unwrap_or(f64::NAN);
    let p99_windowed = phase.windowed_p99();
    println!(
        "nominal {NOMINAL_RPS} rps for {:.1} s: {} requests, {} ok, {} shed, {} failed",
        phase.secs,
        lat.len(),
        c.ok,
        c.shed,
        c.failed
    );
    println!(
        "server CPU        {:.1} us per request (median over {} windows of {:.1} s)",
        phase.server_cpu_ms() * 1e3,
        phase.windows.len(),
        phase.secs / phase.windows.len() as f64
    );
    println!("serve.p50_ms      {p50:.3} ms ({} samples)", lat.len());
    println!(
        "serve.p99_ms      {p99_windowed:.3} ms (median over {} windows of {:.1} s of each window's p99; \
         whole phase: p99 {p99:.3} ms of {} samples)",
        phase.windows.len(),
        phase.secs / phase.windows.len() as f64,
        lat.len()
    );
    println!("serve.tail        {}", fmt_tail(&lat));
    println!(
        "serve.hit.p99_ms  {}",
        percentile(&hits, 99.0).map_or("n/a".into(), |v| format!(
            "{v:.3} ms ({} samples)",
            hits.len()
        ))
    );
    println!("serve.miss.tail_ms {}", fmt_tail(&misses));
    for (class, name) in [
        (Class::Analytic, "analytic"),
        (Class::Des, "des"),
        (Class::Sweep, "sweep"),
    ] {
        let xs: Vec<f64> = phase
            .run
            .completions
            .iter()
            .filter(|c| phase.item(items, c).class == class)
            .map(Completion::latency_ms)
            .collect();
        println!(
            "  {name:<9} {:>6} requests, p50 {:.3} ms, tail {}",
            xs.len(),
            median(&xs),
            fmt_tail(&xs)
        );
    }
}

fn wall_ms(resp: &Response) -> Option<f64> {
    let body = std::str::from_utf8(&resp.body).ok()?;
    trainbox_sim::json::parse(body)
        .ok()?
        .get("wall_ms")?
        .as_f64()
}

/// Per-layer figures read off the traced phase's answers.
fn layer_metrics(items: &[Item], phase: &Phase, out: &mut Outcome) {
    let (mut hits, mut lookups) = (0usize, 0usize);
    let mut compute: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut waits = Vec::new();
    for c in &phase.run.completions {
        let item = phase.item(items, c);
        let Some(resp) = c.response.as_ref() else {
            continue;
        };
        if item.path != "/simulate" || resp.status != 200 {
            continue;
        }
        let cache = resp.header("x-cache").unwrap_or("none");
        if matches!(cache, "hit" | "miss" | "coalesced") {
            lookups += 1;
        }
        if cache == "hit" {
            hits += 1;
            waits.push(c.latency_ms());
        } else if let Some(w) = wall_ms(resp) {
            compute[usize::from(item.class == Class::Des)].push(w);
            waits.push((c.latency_ms() - w).max(0.0));
        }
    }
    out.set("serve.hit_ratio", hits as f64 / lookups.max(1) as f64);
    out.set("serve.compute_ms.analytic", median(&compute[0]));
    out.set("serve.compute_ms.des", median(&compute[1]));
    out.set(
        "serve.queue_wait_ms",
        percentile(&waits, 99.0).unwrap_or(0.0),
    );
    let counts = phase.counts();
    out.set(
        "serve.shed_frac",
        counts.shed as f64 / phase.run.completions.len().max(1) as f64,
    );
    let late: Vec<f64> = phase
        .run
        .completions
        .iter()
        .map(Completion::late_ms)
        .collect();
    out.set("serve.gen_late_ms", percentile(&late, 99.0).unwrap_or(0.0));
    println!(
        "serve: {hits}/{lookups} cache hits; {} analytic and {} DES misses computed",
        compute[0].len(),
        compute[1].len()
    );
}

/// In-process probes of the request path, fed the traced phase's requests.
fn probes(
    items: &[Item],
    raw: &[Vec<u8>],
    phase: &Phase,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let sent: Vec<usize> = phase.schedule.iter().map(|a| a.item).collect();
    let sim_items: Vec<&Item> = sent
        .iter()
        .map(|&i| &items[i])
        .filter(|it| it.path == "/simulate")
        .collect();
    let per =
        |t: Instant, n: usize, scale: f64| t.elapsed().as_secs_f64() * scale / n.max(1) as f64;

    let t = Instant::now();
    spans.span("serve", "RequestParser::feed", 0, |_| {
        for &i in &sent {
            let mut p = RequestParser::new();
            match p.feed(&raw[i]) {
                Ok(ParseStatus::Done(r)) => drop(std::hint::black_box(r)),
                other => panic!("mix request did not parse: {other:?}"),
            }
        }
    });
    out.set("serve.parse_us", per(t, sent.len(), 1e6));

    let t = Instant::now();
    let reqs = spans.span(
        "core",
        "SimRequest::from_json_str+canonical_hash",
        0,
        |_| {
            sim_items
                .iter()
                .map(|it| {
                    let r = SimRequest::from_json_str(&it.body).map_err(|e| e.to_string())?;
                    std::hint::black_box(r.canonical_hash());
                    Ok(r)
                })
                .collect::<Result<Vec<_>, String>>()
        },
    )?;
    out.set("core.parse_hash_us", per(t, sim_items.len(), 1e6));

    let analytic: Vec<&SimRequest> = reqs
        .iter()
        .zip(&sim_items)
        .filter(|(_, it)| it.class == Class::Analytic)
        .map(|(r, _)| r)
        .collect();
    let t = Instant::now();
    spans.span("core", "SimRequest::run (analytic)", 0, |_| {
        for r in &analytic {
            drop(std::hint::black_box(r.run()));
        }
    });
    out.set("core.analytic_us", per(t, analytic.len(), 1e6));

    let sweeps: Vec<&Item> = sent
        .iter()
        .map(|&i| &items[i])
        .filter(|it| it.class == Class::Sweep)
        .collect();
    let t = Instant::now();
    spans.span("core", "SweepRequest::from_json_str+expand", 0, |_| {
        for it in &sweeps {
            if let Ok(s) = SweepRequest::from_json_str(&it.body) {
                std::hint::black_box(s.expand());
            }
        }
    });
    out.set("core.sweep_expand_us", per(t, sweeps.len(), 1e6));

    // The cache at the server's capacity and shard count, fed the phase's
    // key stream.
    let keyed: Vec<(u64, String)> = reqs
        .iter()
        .map(|r| (r.canonical_hash(), r.canonical_json()))
        .collect();
    let cache = ShardedLru::new(trainbox_serve::ServeConfig::default().cache_capacity, 8);
    let body = Arc::new("x".repeat(1024));
    let (mut get_ns, mut ins_ns, mut inserts) = (0u128, 0u128, 0usize);
    spans.span("serve", "ShardedLru::get+insert", 0, |_| {
        for (key, canonical) in &keyed {
            let t = Instant::now();
            let hit = matches!(cache.get(*key, canonical), Lookup::Hit(_));
            get_ns += t.elapsed().as_nanos();
            if !hit {
                let t = Instant::now();
                cache.insert(*key, canonical, Arc::clone(&body));
                ins_ns += t.elapsed().as_nanos();
                inserts += 1;
            }
        }
    });
    out.set(
        "serve.cache_get_ns",
        get_ns as f64 / keyed.len().max(1) as f64,
    );
    out.set(
        "serve.cache_insert_ns",
        ins_ns as f64 / inserts.max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let items = catalog();
        let a = schedule(&items, 42, NOMINAL, 300.0, 2.0);
        assert_eq!(a, schedule(&items, 42, NOMINAL, 300.0, 2.0));
        assert_ne!(a, schedule(&items, 43, NOMINAL, 300.0, 2.0));
        assert_ne!(a, schedule(&items, 42, WARM, 300.0, 2.0));
        // Phases of one run share which items are popular.
        let top = |phase| {
            let mut n = vec![0usize; items.len()];
            for x in schedule(&items, 42, phase, 300.0, 30.0) {
                n[x.item] += 1;
            }
            (0..n.len()).max_by_key(|&i| n[i]).unwrap()
        };
        assert_eq!(top(WARM), top(NOMINAL));
        // About 600 arrivals, all classes present, due times increasing.
        assert!((450..750).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        for c in [Class::Analytic, Class::Des, Class::Sweep] {
            assert!(schedule(&items, 42, NOMINAL, 300.0, 20.0)
                .iter()
                .any(|x| items[x.item].class == c));
        }
    }

    #[test]
    fn the_catalog_is_larger_than_the_cache_and_parses() {
        let items = catalog();
        let cap = trainbox_serve::ServeConfig::default().cache_capacity;
        let simulate = items.iter().filter(|i| i.path == "/simulate").count();
        assert!(
            simulate > 2 * cap,
            "{simulate} distinct /simulate bodies vs cache {cap}"
        );
        for it in &items {
            match it.class {
                Class::Sweep => {
                    let n = SweepRequest::from_json_str(&it.body).unwrap().n_points();
                    assert!((4..=8).contains(&n), "{n} points in {}", it.body);
                }
                Class::Des => drop(SimRequest::from_json_str(&it.body).unwrap()),
                // Every analytic question has an answer, so no request of
                // the mix fails for its own sake.
                Class::Analytic => {
                    let req = SimRequest::from_json_str(&it.body).unwrap();
                    assert!(req.run().is_ok(), "{}", it.body);
                }
            }
        }
    }

    #[test]
    fn class_shares_follow_the_connection_rule() {
        let [analytic, des, sweep] = CLASS_SHARE;
        assert!((analytic + des + sweep - 1.0).abs() < 1e-12);
        // DES misses at the cap hold the stated share of the connections.
        let held = des * NOMINAL_RPS * DES_CAP_MS / 1e3 / REF_CONNS;
        assert!((held - DES_CONN_SHARE).abs() < 1e-12, "{held}");
        assert!(des < 0.01 && analytic > 0.9, "{CLASS_SHARE:?}");
    }
}
