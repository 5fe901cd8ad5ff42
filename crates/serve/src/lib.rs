//! `trainbox-serve`: the what-if simulation service.
//!
//! One canonical question format — [`SimRequest`] — over plain HTTP/1.1:
//!
//! * `POST /simulate` — body is a SimRequest (lenient wire JSON); answer is
//!   the [`SimResponse`] with outcome and provenance. Config errors come
//!   back as HTTP 400 with the offending field named. An optional deadline
//!   (`deadline_ms` in the body, or an `X-Deadline-Ms` header) bounds the
//!   wall-clock spent answering.
//! * `POST /sweep` — body is a SimRequest *template* plus a parameter grid
//!   (workload × batch size × accelerator count × link generation × fault
//!   plan). The grid is expanded server-side and streamed back as NDJSON
//!   over chunked transfer encoding: one line per point, in grid order,
//!   each carrying the point's parameters and the exact bytes `/simulate`
//!   would answer for it, then a summary line. Every point shares the
//!   `/simulate` cache.
//! * `GET /workloads` — the preset catalog: every Table-I name plus the
//!   DSL families (LLM, recsys, video, mixed tenancy), each with its
//!   declared sync pattern, full workload JSON, and the stage graph it
//!   lowers to.
//! * `GET /metrics` — cache hit rate, queue depth, shed count, breaker
//!   state, degradation counters, sweep counters, and p50/p99 simulate
//!   latency, as JSON.
//! * `GET /healthz` — liveness probe: the process answers.
//! * `GET /readyz` — readiness probe: 200 only when the service should
//!   receive traffic (not shutting down, breaker not open, queue not full).
//! * `POST /admin/shutdown` — graceful shutdown: stop accepting, drain the
//!   admitted backlog, answer everything in flight, then exit.
//!
//! # Architecture
//!
//! The tier is readiness-driven, not thread-per-connection:
//!
//! ```text
//!  acceptor ──round-robin──▶ event-loop shards (epoll/poll, nonblocking)
//!                                │  parse / route / write / stream
//!                                ▼  bounded job queue (shed ▶ 429)
//!                           compute pool (blocking DES workers)
//!                                │  completions + wakeup
//!                                ▼
//!                           back to the owning shard
//! ```
//!
//! Each shard owns its connections outright: nonblocking sockets, a
//! per-connection push parser ([`http::RequestParser`]), explicit timeout
//! bookkeeping, and the outbound byte queue. Simulation never runs on a
//! shard — `/simulate` bodies and expanded sweep points travel to the
//! compute pool over a [`http::BoundedQueue`], and finished answers come
//! back as completions through a [`sys::wake_pair`] wakeup. A slow or
//! stalled client therefore costs one connection slot, never a worker.
//!
//! Production behaviors, all std-only:
//!
//! * **Result cache** — sharded LRU keyed by the canonical content hash
//!   *and verified against the canonical bytes* on every hit, so a 64-bit
//!   hash collision is counted (`cache_collisions`) and recomputed instead
//!   of serving the wrong answer ([`cache`]).
//! * **Request coalescing** — concurrent identical questions run the
//!   simulation once; followers receive the leader's bytes ([`coalesce`]).
//!   Deadline'd requests bypass coalescing: a follower must never stall on
//!   an untimed leader, and an untimed follower must never inherit a
//!   deadline failure.
//! * **Load shedding** — a bounded job queue between the shards and the
//!   compute pool; over capacity the service answers 429 with a
//!   `Retry-After` derived from the live backlog and breaker state instead
//!   of queueing unboundedly. A connection cap sheds at the acceptor.
//! * **Socket hygiene** — per-connection read/write inactivity deadlines
//!   plus an overall header budget, enforced by the shard's timer wheel, so
//!   a trickling or stalled client is cut off (408) without ever occupying
//!   a compute worker.
//! * **Graceful degradation** — a deadline'd DES question that cannot be
//!   answered in budget (deadline too tight, queue too deep, breaker open,
//!   or the run cancelled at its deadline) falls back to the analytic model
//!   with `degraded: true` in the provenance and an `x-degraded` reason
//!   header — unless the request carries faults the analytic model cannot
//!   replay, in which case it is refused honestly (503/504).
//! * **Circuit breaker** — consecutive DES timeouts/panics open the breaker
//!   ([`breaker`]); while open, deadline'd DES work is answered degraded
//!   (or refused) without burning a worker, and a half-open probe decides
//!   recovery.
//!
//! [`SimRequest`]: trainbox_core::request::SimRequest
//! [`SimResponse`]: trainbox_core::request::SimResponse

pub mod breaker;
pub mod cache;
pub mod coalesce;
mod conn;
pub mod http;
pub mod metrics;
mod sweep;
pub mod sys;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use breaker::{Admission, CircuitBreaker};
use cache::{Lookup, ShardedLru};
use coalesce::{Coalescer, Role};
use conn::{Completion, ShardHandle};
use http::BoundedQueue;
use metrics::Metrics;
use trainbox_core::request::{canonical_hash_of, SimError, SimMode, SimRequest};

#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Simulation worker threads (the compute pool).
    pub workers: usize,
    /// Event-loop shard threads; 0 picks a default from the host's
    /// parallelism. Shards only do socket I/O and parsing, so a handful
    /// carries thousands of connections.
    pub loops: usize,
    /// Job-queue capacity between the shards and the compute pool;
    /// simulate/sweep work beyond it is shed with 429.
    pub queue_depth: usize,
    /// Open connections accepted at once; beyond it the acceptor refuses
    /// with 429 before reading a byte.
    pub max_connections: usize,
    /// Result-cache capacity in responses; 0 disables caching.
    pub cache_capacity: usize,
    /// Read-inactivity timeout, milliseconds; 0 disables inactivity
    /// deadlines *and* the header budget (test/debug only).
    pub read_timeout_ms: u64,
    /// Write-stall timeout, milliseconds; 0 disables.
    pub write_timeout_ms: u64,
    /// Consecutive DES timeouts/panics that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses DES work before probing,
    /// milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Job-queue depth at which deadline'd DES requests degrade to the
    /// analytic model instead of queueing behind a backlog they would time
    /// out in anyway.
    pub degrade_queue_depth: usize,
    /// Deadlines below this many milliseconds are assumed too tight for any
    /// DES run and degrade immediately.
    pub min_des_deadline_ms: u64,
    /// Worker threads for the *parallel DES engine* inside each simulation.
    /// Cluster requests partition one logical process per server; eligible
    /// single-server requests partition into intra-server lanes (four
    /// accelerators plus their nominal SSD/prep each) — both engines are
    /// byte-identical to the sequential reference at any worker count, so
    /// this knob only moves wall-clock. `0` (the default) leaves every run
    /// on the sequential reference engine: the serve worker pool already
    /// runs `workers` simulations concurrently, and `workers × des_workers`
    /// threads would oversubscribe the host. Raise it only when the service
    /// runs few concurrent simulations on a many-core box. Applied as a
    /// default — a request whose own `sim.parallel_workers` is set keeps
    /// its value — and never part of the cache key (like `deadline_ms`,
    /// it changes how fast the answer arrives, not what is asked).
    pub des_workers: usize,
    /// Largest grid one `POST /sweep` may expand to on this server (the
    /// core caps at [`trainbox_core::request::SweepRequest::MAX_POINTS`]
    /// regardless); over it is a 400.
    pub sweep_max_points: usize,
    /// Sweeps streaming concurrently; beyond it `POST /sweep` answers 429
    /// so a burst of grids cannot starve interactive `/simulate` traffic.
    pub max_active_sweeps: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            loops: 0,
            queue_depth: 64,
            max_connections: 1024,
            cache_capacity: 256,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            degrade_queue_depth: 48,
            min_des_deadline_ms: 10,
            des_workers: 0,
            sweep_max_points: 4_096,
            max_active_sweeps: 2,
        }
    }
}

/// A unit of compute handed from an event-loop shard to the worker pool.
/// Carries the shard index and connection id so the finished answer can be
/// routed back as a [`Completion`].
pub(crate) enum Job {
    Simulate {
        conn_id: u64,
        shard: usize,
        body: String,
        deadline_ms: Option<u64>,
        started: Instant,
    },
    SweepPoint {
        conn_id: u64,
        shard: usize,
        index: usize,
        params: String,
        request: Box<SimRequest>,
    },
}

pub(crate) struct Ctx {
    addr: SocketAddr,
    pub(crate) cache: ShardedLru,
    pub(crate) coalescer: Coalescer,
    pub(crate) metrics: Metrics,
    pub(crate) jobs: BoundedQueue<Job>,
    pub(crate) shutdown: AtomicBool,
    /// Set by the acceptor after it stops: no more connections will ever be
    /// submitted, so a drained shard may exit.
    pub(crate) acceptor_done: AtomicBool,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    /// Total wall-clock allowed for request line + headers (2× the read
    /// timeout): per-read inactivity deadlines alone can be stretched
    /// indefinitely by a client trickling one byte per just-under-timeout.
    pub(crate) header_budget: Duration,
    pub(crate) degrade_queue_depth: usize,
    pub(crate) min_des_deadline_ms: u64,
    pub(crate) des_workers: usize,
    pub(crate) workers: usize,
    pub(crate) shards: Vec<ShardHandle>,
    pub(crate) active_connections: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) sweep_max_points: usize,
    pub(crate) max_active_sweeps: usize,
    pub(crate) active_sweeps: AtomicUsize,
}

/// A running service. Dropping the handle does NOT stop the server; call
/// [`ServeHandle::shutdown`] (tests) or let `POST /admin/shutdown` end it
/// and [`ServeHandle::join`] the threads.
pub struct ServeHandle {
    ctx: Arc<Ctx>,
    acceptor: JoinHandle<()>,
    loops: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Block until the service exits (via `/admin/shutdown` or
    /// [`Self::shutdown`]). Join order mirrors the data flow: the acceptor
    /// stops first, then the shards drain their connections (which keeps
    /// feeding the job queue), and only then is the queue closed so the
    /// workers can run out the admitted backlog and exit.
    pub fn join(self) {
        let _ = self.acceptor.join();
        for t in self.loops {
            let _ = t.join();
        }
        self.ctx.jobs.close();
        for t in self.workers {
            let _ = t.join();
        }
    }

    /// Trigger graceful shutdown and wait for the drain to finish.
    pub fn shutdown(self) {
        initiate_shutdown(&self.ctx);
        self.join();
    }
}

/// Bind and start the service: one acceptor, `loops` event-loop shards,
/// and a `workers`-deep compute pool.
pub fn serve(cfg: ServeConfig) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let n_loops = if cfg.loops == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get().clamp(1, 4))
    } else {
        cfg.loops
    };
    let read_timeout = (cfg.read_timeout_ms > 0).then(|| Duration::from_millis(cfg.read_timeout_ms));

    let mut shards = Vec::with_capacity(n_loops);
    let mut wake_rxs = Vec::with_capacity(n_loops);
    for _ in 0..n_loops {
        let (tx, rx) = sys::wake_pair()?;
        shards.push(ShardHandle::new(tx));
        wake_rxs.push(rx);
    }

    let ctx = Arc::new(Ctx {
        addr,
        cache: ShardedLru::new(cfg.cache_capacity, 8),
        coalescer: Coalescer::new(),
        metrics: Metrics::new(),
        jobs: BoundedQueue::new(cfg.queue_depth),
        shutdown: AtomicBool::new(false),
        acceptor_done: AtomicBool::new(false),
        breaker: CircuitBreaker::new(
            cfg.breaker_threshold,
            Duration::from_millis(cfg.breaker_cooldown_ms),
        ),
        read_timeout,
        write_timeout: (cfg.write_timeout_ms > 0)
            .then(|| Duration::from_millis(cfg.write_timeout_ms)),
        header_budget: read_timeout.map_or(Duration::MAX, |t| t * 2),
        degrade_queue_depth: cfg.degrade_queue_depth.max(1),
        min_des_deadline_ms: cfg.min_des_deadline_ms,
        des_workers: cfg.des_workers,
        workers: cfg.workers.max(1),
        shards,
        active_connections: AtomicUsize::new(0),
        max_connections: cfg.max_connections.max(1),
        sweep_max_points: cfg.sweep_max_points.max(1),
        max_active_sweeps: cfg.max_active_sweeps.max(1),
        active_sweeps: AtomicUsize::new(0),
    });

    let mut workers = Vec::new();
    for _ in 0..ctx.workers {
        let ctx = Arc::clone(&ctx);
        workers.push(std::thread::spawn(move || worker_loop(&ctx)));
    }

    let mut loops = Vec::new();
    for (idx, rx) in wake_rxs.into_iter().enumerate() {
        let ctx = Arc::clone(&ctx);
        loops.push(std::thread::spawn(move || conn::run_shard(ctx, idx, rx)));
    }

    let acceptor = {
        let ctx = Arc::clone(&ctx);
        std::thread::spawn(move || acceptor_loop(&ctx, listener))
    };

    Ok(ServeHandle { ctx, acceptor, loops, workers })
}

fn acceptor_loop(ctx: &Ctx, listener: TcpListener) {
    let n_shards = ctx.shards.len();
    let mut next = 0usize;
    for stream in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if ctx.active_connections.load(Ordering::SeqCst) >= ctx.max_connections {
            ctx.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
            let ra = retry_after_secs(ctx).to_string();
            http::refuse(
                stream,
                429,
                &[("retry-after", &ra)],
                "{\"error\":\"connection limit reached, retry later\",\"field\":\"\"}",
            );
            continue;
        }
        ctx.active_connections.fetch_add(1, Ordering::SeqCst);
        ctx.shards[next % n_shards].submit(stream);
        next = next.wrapping_add(1);
    }
    // No further submissions are possible; let drained shards exit.
    ctx.acceptor_done.store(true, Ordering::SeqCst);
    for shard in &ctx.shards {
        shard.wake();
    }
}

pub(crate) fn initiate_shutdown(ctx: &Ctx) {
    ctx.shutdown.store(true, Ordering::SeqCst);
    // Unblock the acceptor: it only observes the flag after `accept`
    // returns, so poke it with a throwaway connection.
    let _ = TcpStream::connect(ctx.addr);
    for shard in &ctx.shards {
        shard.wake();
    }
}

/// Honest `Retry-After` seconds: how long until this server can plausibly
/// take the refused work. Backlog drain time (queue depth × p50 latency ÷
/// workers) or the breaker's remaining cooldown, whichever is longer,
/// clamped to [1, 60] so a cold histogram still answers something sane.
pub(crate) fn retry_after_secs(ctx: &Ctx) -> u64 {
    let backlog = (ctx.jobs.len() + 1) as f64;
    let p50_ms = ctx.metrics.simulate_latency.quantile_ms(0.50).max(1.0);
    let drain = (backlog * p50_ms / 1_000.0 / ctx.workers as f64).ceil() as u64;
    let cooldown = ctx
        .breaker
        .cooldown_remaining()
        .map_or(0, |d| d.as_secs_f64().ceil() as u64);
    drain.max(cooldown).clamp(1, 60)
}

#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
    field: String,
}

pub(crate) fn error_json(e: &SimError) -> Arc<String> {
    let body = ErrorBody { error: e.to_string(), field: e.field().to_string() };
    Arc::new(serde_json::to_string(&body).expect("error serialization is infallible"))
}

/// The status and body answering a typed simulation error.
fn sim_error_response(e: &SimError) -> (u16, Arc<String>) {
    let status = if e.is_client_error() { 400 } else { 500 };
    (status, error_json(e))
}

/// Why [`run_to_body`] produced no response body.
enum RunFailure {
    /// The request's own typed error.
    Sim(SimError),
    /// The engine panicked: a bug, never the client's fault.
    Panicked,
}

impl RunFailure {
    /// The status and body answering this failure.
    fn response(&self) -> (u16, Arc<String>) {
        match self {
            RunFailure::Sim(e) => sim_error_response(e),
            RunFailure::Panicked => (
                500,
                Arc::new("{\"error\":\"simulation panicked\",\"field\":\"sim\"}".to_string()),
            ),
        }
    }
}

/// Run `req` and serialize its answer. A panic inside the engine is caught
/// and returned as [`RunFailure::Panicked`], so it can neither kill the
/// worker nor strand a coalesced flight.
fn run_to_body(req: &SimRequest) -> Result<Arc<String>, RunFailure> {
    match catch_unwind(AssertUnwindSafe(|| req.run())) {
        Ok(Ok(resp)) => Ok(Arc::new(
            serde_json::to_string(&resp).expect("response serialization is infallible"),
        )),
        Ok(Err(e)) => Err(RunFailure::Sim(e)),
        Err(_) => Err(RunFailure::Panicked),
    }
}

/// The compute pool: pops jobs, runs the simulation tier, posts the
/// finished bytes back to the owning shard.
fn worker_loop(ctx: &Arc<Ctx>) {
    while let Some(job) = ctx.jobs.pop() {
        match job {
            Job::Simulate { conn_id, shard, body, deadline_ms, started } => {
                let (status, body, disposition, degraded) =
                    simulate_outcome(ctx, &body, deadline_ms);
                match status {
                    400 => drop(ctx.metrics.http_400.fetch_add(1, Ordering::Relaxed)),
                    500 => drop(ctx.metrics.http_500.fetch_add(1, Ordering::Relaxed)),
                    503 => drop(ctx.metrics.http_503.fetch_add(1, Ordering::Relaxed)),
                    504 => drop(ctx.metrics.http_504.fetch_add(1, Ordering::Relaxed)),
                    _ => {}
                }
                let mut headers = vec![("x-cache", disposition)];
                if let Some(reason) = degraded {
                    headers.push(("x-degraded", reason));
                }
                let ra;
                if status == 503 {
                    ra = retry_after_secs(ctx).to_string();
                    headers.push(("retry-after", &ra));
                }
                let bytes = http::response_bytes(status, &headers, &body);
                ctx.metrics.simulate_latency.record(started.elapsed());
                ctx.shards[shard].post(Completion::Simulate { conn_id, bytes });
            }
            Job::SweepPoint { conn_id, shard, index, params, request } => {
                let outcome = answer(ctx, &request);
                let (line, ok) = sweep::point_line(index, &params, &outcome);
                if !ok {
                    ctx.metrics.sweep_point_errors.fetch_add(1, Ordering::Relaxed);
                }
                ctx.shards[shard].post(Completion::SweepPoint { conn_id, index, line, ok });
            }
        }
    }
}

/// One `/simulate` verdict: status, body, `x-cache` disposition, and the
/// `x-degraded` reason when the analytic model stood in for the DES.
type Outcome = (u16, Arc<String>, &'static str, Option<&'static str>);

fn simulate_outcome(ctx: &Ctx, text: &str, header_deadline_ms: Option<u64>) -> Outcome {
    let mut req = match SimRequest::from_json_str(text) {
        Ok(req) => req,
        Err(e) => return (400, error_json(&e), "none", None),
    };
    // The body's own deadline wins; the header covers clients that cannot
    // edit the body (load balancers, curl one-liners).
    if req.deadline_ms.is_none() {
        req.deadline_ms = header_deadline_ms;
    }
    answer(ctx, &req)
}

/// Answer one fully-formed request: verified cache, then the deadline'd or
/// coalesced simulation path. Shared verbatim by `/simulate` bodies and
/// every expanded sweep point, which is what makes a sweep point
/// byte-identical to the individual ask.
pub(crate) fn answer(ctx: &Ctx, req: &SimRequest) -> Outcome {
    let mut req = req.clone();
    // Service-level parallel-DES default: like the deadline, a QoS knob,
    // excluded from the canonical hash — injecting it here cannot split the
    // cache, and every downstream path (deadline'd, breaker-gated,
    // coalesced) sees the same effective config.
    if ctx.des_workers > 1 {
        if let SimMode::Des(ref mut cfg) = req.sim {
            if cfg.parallel_workers == 0 {
                cfg.parallel_workers = ctx.des_workers;
            }
        }
    }
    let canonical = req.canonical_json();
    let key = canonical_hash_of(&canonical);

    // The key excludes the deadline, so a timed asker shares the cache
    // entry of the untimed question — the fastest possible answer. The
    // stored canonical bytes are verified on every hit; a 64-bit collision
    // is counted and recomputed, never served cross-keyed.
    match ctx.cache.get(key, &canonical) {
        Lookup::Hit(body) => {
            ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (200, body, "hit", None);
        }
        Lookup::Collision => {
            ctx.metrics.cache_collisions.fetch_add(1, Ordering::Relaxed);
        }
        Lookup::Miss => {}
    }
    ctx.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

    if req.deadline_ms.is_some() {
        return simulate_deadlined(ctx, &req, key, &canonical);
    }

    match ctx.coalescer.begin(key) {
        Role::Follower(flight) => {
            ctx.metrics.coalesced_waits.fetch_add(1, Ordering::Relaxed);
            let (status, body) = flight.wait();
            (status, body, "coalesced", None)
        }
        Role::Leader => {
            // The previous leader of this key may have stored its answer and
            // completed between our cache miss and `begin`: serve those bytes
            // rather than recompute an answer with different provenance.
            if let Lookup::Hit(body) = ctx.cache.get(key, &canonical) {
                ctx.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                ctx.coalescer.complete(key, (200, Arc::clone(&body)));
                return (200, body, "hit", None);
            }
            let (status, body) = match run_to_body(&req) {
                Ok(body) => {
                    ctx.cache.insert(key, &canonical, Arc::clone(&body));
                    (200, body)
                }
                Err(fail) => fail.response(),
            };
            ctx.coalescer.complete(key, (status, Arc::clone(&body)));
            (status, body, "miss", None)
        }
    }
}

/// The deadline'd request path: no coalescing, DES work gated by the
/// breaker and degradation pre-checks.
fn simulate_deadlined(ctx: &Ctx, req: &SimRequest, key: u64, canonical: &str) -> Outcome {
    let deadline_ms = req.deadline_ms.expect("caller checked deadline_ms");

    // Analytic answers are closed-form — microseconds. No deadline is too
    // tight for them and the breaker (which guards the DES tier) does not
    // apply.
    if matches!(req.sim, SimMode::Analytic) {
        return run_uncoalesced(ctx, req, key, canonical);
    }

    // A faulted request cannot degrade: the analytic model has no fault
    // replay, and silently dropping the fault plan would answer a different
    // question than was asked.
    let degradable = req.faults.as_ref().is_none_or(|p| p.is_empty());

    // Pre-checks, cheapest first, all BEFORE breaker admission so a
    // degrade here can never leak a half-open probe slot.
    if deadline_ms < ctx.min_des_deadline_ms {
        return degrade_or_refuse(ctx, req, "deadline_too_tight", degradable);
    }
    if ctx.jobs.len() >= ctx.degrade_queue_depth {
        return degrade_or_refuse(ctx, req, "queue_deep", degradable);
    }
    let probe = match ctx.breaker.try_acquire() {
        Admission::Reject => return degrade_or_refuse(ctx, req, "breaker_open", degradable),
        Admission::Allow { probe } => probe,
    };

    match run_to_body(req) {
        Ok(body) => {
            ctx.breaker.on_success(probe);
            // A timed run that finished in budget IS the untimed answer:
            // safe to cache under the deadline-free canonical key.
            ctx.cache.insert(key, canonical, Arc::clone(&body));
            (200, body, "miss", None)
        }
        Err(RunFailure::Sim(e @ SimError::DeadlineExceeded { .. })) => {
            ctx.breaker.on_failure(probe);
            ctx.metrics.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
            if degradable {
                degrade(ctx, req, "deadline_exceeded")
            } else {
                // The error message carries the partial progress (events
                // processed, faults observed so far).
                (504, error_json(&e), "miss", None)
            }
        }
        Err(fail) => {
            // Typed request errors complete promptly: the tier is healthy.
            // A panic is the tier failing.
            match fail {
                RunFailure::Sim(_) => ctx.breaker.on_success(probe),
                RunFailure::Panicked => ctx.breaker.on_failure(probe),
            }
            let (status, body) = fail.response();
            (status, body, "miss", None)
        }
    }
}

/// Run a request directly (no coalescing, no breaker), caching a 200.
fn run_uncoalesced(ctx: &Ctx, req: &SimRequest, key: u64, canonical: &str) -> Outcome {
    match run_to_body(req) {
        Ok(body) => {
            ctx.cache.insert(key, canonical, Arc::clone(&body));
            (200, body, "miss", None)
        }
        Err(fail) => {
            let (status, body) = fail.response();
            (status, body, "miss", None)
        }
    }
}

/// Degrade if the fault plan allows it, else refuse with 503 so the client
/// can retry against a recovered tier.
fn degrade_or_refuse(
    ctx: &Ctx,
    req: &SimRequest,
    reason: &'static str,
    degradable: bool,
) -> Outcome {
    if degradable {
        return degrade(ctx, req, reason);
    }
    let body = format!(
        "{{\"error\":\"DES tier unavailable ({reason}); faulted requests cannot \
         degrade to the analytic model\",\"field\":\"sim\"}}"
    );
    (503, Arc::new(body), "none", None)
}

/// Answer a DES question with the analytic model, honestly flagged:
/// `degraded: true` in the body, the *original* request's `config_hash` in
/// the provenance, an `x-degraded` reason header — and never cached, since
/// the canonical key names the DES answer this is standing in for.
fn degrade(ctx: &Ctx, req: &SimRequest, reason: &'static str) -> Outcome {
    // Keeping `cluster` means a degraded cluster question still answers the
    // cluster (via the closed-form cluster model), not a single server.
    let twin = SimRequest {
        server: req.server.clone(),
        workload: req.workload.clone(),
        sim: SimMode::Analytic,
        faults: None,
        trace: false,
        deadline_ms: None,
        cluster: req.cluster,
    };
    match twin.run() {
        Ok(mut resp) => {
            resp.degraded = true;
            resp.config_hash = req.hash_hex();
            ctx.metrics.degraded_total.fetch_add(1, Ordering::Relaxed);
            let body = Arc::new(
                serde_json::to_string(&resp).expect("response serialization is infallible"),
            );
            (200, body, "degraded", Some(reason))
        }
        // The spec itself is broken (bad server config): tell the client.
        Err(e) => {
            let (status, body) = sim_error_response(&e);
            (status, body, "none", None)
        }
    }
}
