//! Structured tracing for simulation models: span records, a bounded ring
//! buffer, and exporters.
//!
//! The DES in `trainbox-core` reports *aggregate* results (throughput, byte
//! counts); diagnosing **why** a configuration underperforms needs the
//! per-component timeline those aggregates integrate over. This module
//! provides that timeline as a zero-cost-when-disabled layer:
//!
//! * [`Tracer`] — the recording interface models call into. The no-op
//!   implementation ([`NoopTracer`]) has empty inlined methods and an
//!   `enabled()` that returns a constant `false`, so a model monomorphized
//!   over it compiles the trace calls away entirely; the simulation hot path
//!   pays nothing when tracing is off.
//! * [`RingTracer`] — the real recorder: a bounded ring buffer of
//!   [`TraceRecord`]s (most recent win; the drop count is kept so truncation
//!   is never silent).
//! * Exporters: [`chrome_trace_json`] renders records in the Chrome
//!   `trace_event` JSON format (open in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)), and [`TraceSummary`] folds them
//!   into per-component duration [`Histogram`]s and busy-time utilization
//!   [`Gauge`]s.
//!
//! Records carry **simulated** time ([`SimTime`]); exporters convert to the
//! microseconds the Chrome format expects. Span names are `&'static str` by
//! design — recording never allocates per event, and the variable part of an
//! event (device index, step number) goes in the numeric `track` field, which
//! maps to a timeline lane (`tid`) in the Chrome export.

use crate::stats::{Gauge, Histogram};
use crate::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// The component a trace record belongs to. Maps to a process group (`pid`)
/// in the Chrome export, so each component gets its own collapsible section
/// in the viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Component {
    /// Datapath stages: SSD reads, preparation, accelerator compute.
    Pipeline,
    /// PCIe / Ethernet fluid transfers and allocator activity.
    Flow,
    /// Ring-synchronization (all-reduce) activity.
    Collective,
    /// Fault injections and recoveries.
    Fault,
    /// DES engine internals (event-loop level records).
    Engine,
}

impl Component {
    /// Stable lowercase name, used as the Chrome `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Pipeline => "pipeline",
            Component::Flow => "flow",
            Component::Collective => "collective",
            Component::Fault => "fault",
            Component::Engine => "engine",
        }
    }

    /// Process id used to group this component's lanes in the Chrome export.
    fn pid(self) -> u32 {
        match self {
            Component::Pipeline => 1,
            Component::Flow => 2,
            Component::Collective => 3,
            Component::Fault => 4,
            Component::Engine => 5,
        }
    }
}

/// One recorded observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A closed interval of activity on some lane (Chrome phase `X`).
    Span {
        /// Component the span belongs to.
        component: Component,
        /// Static span name (e.g. `"prep"`, `"xfer:to_accel"`).
        name: &'static str,
        /// Lane within the component (device index, accelerator id, ...).
        track: u32,
        /// Span start, simulated time.
        start: SimTime,
        /// Span end, simulated time (`>= start`).
        end: SimTime,
    },
    /// A point event (Chrome phase `i`), e.g. a fault injection.
    Instant {
        /// Component the event belongs to.
        component: Component,
        /// Static event name.
        name: &'static str,
        /// Lane within the component.
        track: u32,
        /// Event instant, simulated time.
        at: SimTime,
    },
    /// A sampled numeric series (Chrome phase `C`), e.g. active flow count.
    Counter {
        /// Component the series belongs to.
        component: Component,
        /// Static series name.
        name: &'static str,
        /// Sample instant, simulated time.
        at: SimTime,
        /// Sampled value.
        value: f64,
    },
}

impl TraceRecord {
    /// The record's component.
    pub fn component(&self) -> Component {
        match *self {
            TraceRecord::Span { component, .. }
            | TraceRecord::Instant { component, .. }
            | TraceRecord::Counter { component, .. } => component,
        }
    }

    /// The record's name.
    pub fn name(&self) -> &'static str {
        match *self {
            TraceRecord::Span { name, .. }
            | TraceRecord::Instant { name, .. }
            | TraceRecord::Counter { name, .. } => name,
        }
    }

    /// The record's (start) time.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceRecord::Span { start, .. } => start,
            TraceRecord::Instant { at, .. } | TraceRecord::Counter { at, .. } => at,
        }
    }
}

/// The recording interface simulation models call into.
///
/// Implementations must be pure observers: recording must never change
/// simulation behavior. The `enabled` flag lets call sites skip argument
/// construction (map lookups, step expansion) when nothing is listening —
/// with [`NoopTracer`] the check is a constant and the whole block is
/// dead-code-eliminated.
pub trait Tracer {
    /// Whether records are being kept. Guard any non-trivial argument
    /// construction on this.
    fn enabled(&self) -> bool;

    /// Record a closed span of activity.
    fn span(&mut self, component: Component, name: &'static str, track: u32, start: SimTime, end: SimTime);

    /// Record a point event.
    fn instant(&mut self, component: Component, name: &'static str, track: u32, at: SimTime);

    /// Record a counter sample.
    fn counter(&mut self, component: Component, name: &'static str, at: SimTime, value: f64);
}

/// A tracer that can split into per-LP streams for a partitioned run and
/// deterministically merge them back.
///
/// Sharing one tracer across logical processes would interleave records in
/// thread order, destroying determinism. Partitioned runners (the cluster
/// scale-out layer, intra-server lanes) instead `fork()` one empty stream
/// per LP, let each LP record privately, and `absorb()` the streams back in
/// LP-index order at the end — same discipline as the runner's offer fold,
/// so traced results stay byte-identical for any worker count.
pub trait ForkTracer: Tracer + Sized {
    /// An empty tracer of the same kind and configuration, for one LP's
    /// private stream.
    fn fork(&self) -> Self;

    /// Merge per-LP streams (index order) back into `self`. Records are
    /// interleaved by [`merge_lp_records`]: LP `i`'s tracks are offset by
    /// `i * track_stride` and the merged sequence is sorted by
    /// `(time, lp, position)` — deterministic regardless of how many
    /// workers produced the streams.
    fn absorb(&mut self, parts: Vec<Self>, track_stride: u32);
}

/// The do-nothing tracer: every method is an empty `#[inline]` body and
/// `enabled()` is a constant `false`, so models monomorphized over it carry
/// no tracing cost at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span(&mut self, _: Component, _: &'static str, _: u32, _: SimTime, _: SimTime) {}
    #[inline(always)]
    fn instant(&mut self, _: Component, _: &'static str, _: u32, _: SimTime) {}
    #[inline(always)]
    fn counter(&mut self, _: Component, _: &'static str, _: SimTime, _: f64) {}
}

impl ForkTracer for NoopTracer {
    #[inline(always)]
    fn fork(&self) -> Self {
        NoopTracer
    }
    #[inline(always)]
    fn absorb(&mut self, _: Vec<Self>, _: u32) {}
}

/// A bounded FIFO ring buffer: pushing past `capacity` evicts the oldest
/// entry and counts it, so truncation is observable instead of silent.
///
/// The storage behind [`RingTracer`].
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring keeping at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Ring { capacity: capacity.max(1), buf: VecDeque::new(), dropped: 0 }
    }

    /// Append, evicting the oldest entry when full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Entries currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum entries held at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the ring, yielding the retained entries oldest first.
    pub fn into_vec(self) -> Vec<T> {
        self.buf.into_iter().collect()
    }
}

/// The recording tracer: a bounded ring of [`TraceRecord`]s.
///
/// The bound keeps long runs at a fixed memory footprint — the most recent
/// `capacity` records win, and [`RingTracer::dropped`] reports how many older
/// ones were evicted.
#[derive(Debug, Clone)]
pub struct RingTracer {
    ring: Ring<TraceRecord>,
}

impl RingTracer {
    /// Default record capacity: roomy enough for every span of the quick
    /// figure configurations, small enough to stay cache-friendly.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A tracer retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        RingTracer { ring: Ring::new(capacity) }
    }

    /// Records retained so far, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of records retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Consume the tracer, yielding retained records oldest first.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.ring.into_vec()
    }
}

impl Default for RingTracer {
    fn default() -> Self {
        RingTracer::new(RingTracer::DEFAULT_CAPACITY)
    }
}

impl Tracer for RingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, component: Component, name: &'static str, track: u32, start: SimTime, end: SimTime) {
        debug_assert!(end >= start, "span ends before it starts");
        self.ring.push(TraceRecord::Span { component, name, track, start, end });
    }

    fn instant(&mut self, component: Component, name: &'static str, track: u32, at: SimTime) {
        self.ring.push(TraceRecord::Instant { component, name, track, at });
    }

    fn counter(&mut self, component: Component, name: &'static str, at: SimTime, value: f64) {
        self.ring.push(TraceRecord::Counter { component, name, at, value });
    }
}

impl ForkTracer for RingTracer {
    fn fork(&self) -> Self {
        RingTracer::new(self.ring.capacity())
    }

    fn absorb(&mut self, parts: Vec<Self>, track_stride: u32) {
        let mut dropped = 0;
        let streams: Vec<Vec<TraceRecord>> = parts
            .into_iter()
            .map(|p| {
                dropped += p.ring.dropped();
                p.into_records()
            })
            .collect();
        for record in merge_lp_records(streams, track_stride) {
            self.ring.push(record);
        }
        // Evictions inside the per-LP rings stay observable after the merge.
        self.ring.dropped += dropped;
    }
}

/// A forwarding impl so `&mut T` can be handed to helpers without giving up
/// the tracer.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn span(&mut self, c: Component, n: &'static str, t: u32, s: SimTime, e: SimTime) {
        (**self).span(c, n, t, s, e)
    }
    #[inline]
    fn instant(&mut self, c: Component, n: &'static str, t: u32, at: SimTime) {
        (**self).instant(c, n, t, at)
    }
    #[inline]
    fn counter(&mut self, c: Component, n: &'static str, at: SimTime, v: f64) {
        (**self).counter(c, n, at, v)
    }
}

fn ts_micros(t: SimTime) -> f64 {
    t.as_micros_f64()
}

fn push_json_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render records in the Chrome `trace_event` JSON format (the "JSON object
/// format": a top-level object with a `traceEvents` array).
///
/// * spans become complete events (`ph: "X"`, `ts`/`dur` in simulated
///   microseconds),
/// * instants become `ph: "i"` with process scope,
/// * counters become `ph: "C"`,
/// * each [`Component`] is labeled via `process_name` metadata so the viewer
///   shows named sections.
///
/// The output loads directly in `chrome://tracing` and Perfetto. Simulated
/// time maps to trace time 1:1 (1 simulated µs = 1 trace µs).
pub fn chrome_trace_json(records: &[TraceRecord]) -> String {
    // Hand-rolled writer: records hold &'static str names and plain numbers,
    // so serialization is string pushes — no intermediate DOM.
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut seen_components: Vec<Component> = Vec::new();
    let emit = |out: &mut String, first: &mut bool, body: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(body);
    };
    let mut body = String::new();
    for r in records {
        let c = r.component();
        if !seen_components.contains(&c) {
            seen_components.push(c);
            body.clear();
            let _ = write!(
                body,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                c.pid(),
                c.as_str()
            );
            emit(&mut out, &mut first, &body);
        }
        body.clear();
        match *r {
            TraceRecord::Span { component, name, track, start, end } => {
                let _ = write!(
                    body,
                    "{{\"name\":\"",
                );
                push_json_escaped(&mut body, name);
                let _ = write!(
                    body,
                    "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                    component.as_str(),
                    ts_micros(start),
                    ts_micros(end.saturating_sub(start)),
                    component.pid(),
                    track
                );
            }
            TraceRecord::Instant { component, name, track, at } => {
                body.push_str("{\"name\":\"");
                push_json_escaped(&mut body, name);
                let _ = write!(
                    body,
                    "\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    component.as_str(),
                    ts_micros(at),
                    component.pid(),
                    track
                );
            }
            TraceRecord::Counter { component, name, at, value } => {
                body.push_str("{\"name\":\"");
                push_json_escaped(&mut body, name);
                let _ = write!(
                    body,
                    "\",\"cat\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{\"value\":{}}}}}",
                    component.as_str(),
                    ts_micros(at),
                    component.pid(),
                    if value.is_finite() { value } else { 0.0 }
                );
            }
        }
        emit(&mut out, &mut first, &body);
    }
    out.push_str("]}");
    out
}

/// Merge per-logical-process trace streams into one deterministic timeline.
///
/// Each LP in a parallel run records into its **own** [`RingTracer`]; sharing
/// one tracer across worker threads would interleave records in
/// scheduling-dependent order, so the parallel runner forbids it and merges
/// afterwards instead. The merged order is a total order independent of
/// worker count or thread timing:
///
/// 1. primary: record time ([`TraceRecord::at`]),
/// 2. tie-break: LP index (position in `per_lp`),
/// 3. final tie-break: the record's position within its LP's stream (which is
///    deterministic because each LP is itself a sequential engine).
///
/// `track_stride` offsets every record's lane by `lp_index * track_stride` so
/// same-named lanes from different LPs (e.g. accelerator 0 on every server of
/// a cluster) stay distinguishable in the Chrome export; pass 0 to collapse
/// lanes across LPs. The sort is stable, so equal keys preserve (lp, position)
/// order by construction.
pub fn merge_lp_records(per_lp: Vec<Vec<TraceRecord>>, track_stride: u32) -> Vec<TraceRecord> {
    let total: usize = per_lp.iter().map(Vec::len).sum();
    let mut decorated: Vec<(SimTime, usize, TraceRecord)> = Vec::with_capacity(total);
    for (lp, records) in per_lp.into_iter().enumerate() {
        let offset = (lp as u32).saturating_mul(track_stride);
        for mut r in records {
            if offset > 0 {
                match &mut r {
                    TraceRecord::Span { track, .. } | TraceRecord::Instant { track, .. } => {
                        *track = track.saturating_add(offset);
                    }
                    TraceRecord::Counter { .. } => {}
                }
            }
            decorated.push((r.at(), lp, r));
        }
    }
    decorated.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    decorated.into_iter().map(|(_, _, r)| r).collect()
}

/// Per-span-kind duration statistics within a [`TraceSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct SpanStats {
    /// Component the spans belong to.
    pub component: Component,
    /// Span name.
    pub name: &'static str,
    /// Number of spans observed.
    pub count: u64,
    /// Total busy time across all spans and lanes, seconds.
    pub busy_secs: f64,
    /// Duration distribution in microseconds.
    pub duration_us: Histogram,
}

/// Per-lane utilization within a [`TraceSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct LaneStats {
    /// Component the lane belongs to.
    pub component: Component,
    /// Span name the lane carries.
    pub name: &'static str,
    /// Lane (track) id.
    pub track: u32,
    /// Busy fraction of the horizon, as a gauge ending at the final value.
    pub utilization: Gauge,
}

/// Aggregate view of a recorded trace: the "where does time go" table.
///
/// Span durations fold into one [`Histogram`] per `(component, name)` pair
/// and one busy-fraction [`Gauge`] per `(component, name, track)` lane —
/// exactly the per-stage utilization the paper's balancing methodology reads
/// off its own profiler.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Simulated horizon the utilizations are normalized by, seconds.
    pub horizon_secs: f64,
    /// Per-span-kind statistics, sorted by descending busy time.
    pub spans: Vec<SpanStats>,
    /// Per-lane utilization, same order as the span kinds they belong to.
    pub lanes: Vec<LaneStats>,
    /// Instant events per `(component, name)`.
    pub instants: Vec<(Component, &'static str, u64)>,
    /// Records evicted by the tracer's ring bound (0 = complete trace).
    pub dropped_records: u64,
}

impl TraceSummary {
    /// Fold `records` into per-component statistics. `dropped` is the
    /// tracer's eviction count ([`RingTracer::dropped`]); pass 0 for a
    /// complete trace.
    pub fn from_records(records: &[TraceRecord], dropped: u64) -> Self {
        let horizon = records
            .iter()
            .map(|r| match *r {
                TraceRecord::Span { end, .. } => end,
                TraceRecord::Instant { at, .. } | TraceRecord::Counter { at, .. } => at,
            })
            .max()
            .unwrap_or(SimTime::ZERO);
        let horizon_secs = horizon.as_secs_f64();

        // (component, name) -> durations; (component, name, track) -> busy.
        let mut kinds: Vec<(Component, &'static str, Vec<f64>)> = Vec::new();
        let mut lanes: Vec<(Component, &'static str, u32, f64)> = Vec::new();
        let mut instants: Vec<(Component, &'static str, u64)> = Vec::new();
        for r in records {
            match *r {
                TraceRecord::Span { component, name, track, start, end } => {
                    let dur = end.saturating_sub(start);
                    let slot = match kinds.iter_mut().find(|(c, n, _)| *c == component && *n == name) {
                        Some((_, _, v)) => v,
                        None => {
                            kinds.push((component, name, Vec::new()));
                            &mut kinds.last_mut().expect("just pushed").2
                        }
                    };
                    slot.push(dur.as_micros_f64());
                    match lanes
                        .iter_mut()
                        .find(|(c, n, t, _)| *c == component && *n == name && *t == track)
                    {
                        Some((_, _, _, busy)) => *busy += dur.as_secs_f64(),
                        None => lanes.push((component, name, track, dur.as_secs_f64())),
                    }
                }
                TraceRecord::Instant { component, name, .. } => {
                    match instants.iter_mut().find(|(c, n, _)| *c == component && *n == name) {
                        Some((_, _, k)) => *k += 1,
                        None => instants.push((component, name, 1)),
                    }
                }
                TraceRecord::Counter { .. } => {}
            }
        }

        let mut spans: Vec<SpanStats> = kinds
            .into_iter()
            .map(|(component, name, durs)| {
                let hi = durs.iter().cloned().fold(0.0f64, f64::max).max(1e-9) * (1.0 + 1e-9);
                let mut duration_us =
                    Histogram::new(format!("{}/{name} us", component.as_str()), 0.0, hi, 20);
                let mut busy = 0.0;
                for &d in &durs {
                    duration_us.observe(d);
                    busy += d * 1e-6;
                }
                SpanStats {
                    component,
                    name,
                    count: durs.len() as u64,
                    busy_secs: busy,
                    duration_us,
                }
            })
            .collect();
        spans.sort_by(|a, b| b.busy_secs.total_cmp(&a.busy_secs));

        let lanes = lanes
            .into_iter()
            .map(|(component, name, track, busy)| {
                let mut utilization =
                    Gauge::new(format!("{}/{name}#{track}", component.as_str()));
                let frac = if horizon_secs > 0.0 { busy / horizon_secs } else { 0.0 };
                utilization.set(frac);
                LaneStats { component, name, track, utilization }
            })
            .collect();

        TraceSummary { horizon_secs, spans, lanes, instants, dropped_records: dropped }
    }

    /// A compact fixed-width text rendering (for stderr reporting).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace summary: horizon {:.6}s, {} span kinds, {} lanes{}",
            self.horizon_secs,
            self.spans.len(),
            self.lanes.len(),
            if self.dropped_records > 0 {
                format!(", {} records dropped by ring bound", self.dropped_records)
            } else {
                String::new()
            }
        );
        for s in &self.spans {
            let mean = s.duration_us.mean().unwrap_or(0.0);
            let p99 = s.duration_us.quantile(0.99).unwrap_or(0.0);
            let lanes: Vec<&LaneStats> = self
                .lanes
                .iter()
                .filter(|l| l.component == s.component && l.name == s.name)
                .collect();
            let util: f64 = lanes.iter().map(|l| l.utilization.value()).sum::<f64>()
                / lanes.len().max(1) as f64;
            let _ = writeln!(
                out,
                "  {:<11} {:<20} n={:<7} busy={:>10.6}s mean={:>9.2}us p99={:>9.2}us lanes={:<3} util={:>6.2}%",
                s.component.as_str(),
                s.name,
                s.count,
                s.busy_secs,
                mean,
                p99,
                lanes.len(),
                util * 100.0
            );
        }
        for (c, name, n) in &self.instants {
            let _ = writeln!(out, "  {:<11} {:<20} instants={n}", c.as_str(), name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn noop_tracer_is_disabled_and_inert() {
        let mut n = NoopTracer;
        assert!(!n.enabled());
        n.span(Component::Pipeline, "x", 0, t(0), t(1));
        n.instant(Component::Fault, "y", 0, t(0));
        n.counter(Component::Flow, "z", t(0), 1.0);
    }

    #[test]
    fn ring_tracer_bounds_and_counts_drops() {
        let mut tr = RingTracer::new(2);
        assert!(tr.is_empty());
        for i in 0..5u64 {
            tr.span(Component::Pipeline, "s", 0, t(i), t(i + 1));
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped(), 3);
        let recs = tr.into_records();
        assert_eq!(recs[0].at(), t(3), "oldest retained is the 4th span");
        assert_eq!(recs[1].at(), t(4));
    }

    #[test]
    fn mut_ref_forwards() {
        let mut tr = RingTracer::new(8);
        {
            let r = &mut tr;
            assert!(Tracer::enabled(&r));
            fn record(mut t2: impl Tracer) {
                t2.instant(Component::Engine, "evt", 0, SimTime::ZERO);
            }
            record(r);
        }
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_phases() {
        let mut tr = RingTracer::new(64);
        tr.span(Component::Pipeline, "prep", 1, t(10), t(30));
        tr.instant(Component::Fault, "prep-crash", 0, t(15));
        tr.counter(Component::Flow, "active_flows", t(20), 3.0);
        let json = chrome_trace_json(&tr.into_records());
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
        // 3 records + 3 process_name metadata events.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(|p| p.as_str()).unwrap())
            .collect();
        assert!(phases.contains(&"X"));
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        assert!(phases.contains(&"M"));
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").unwrap().as_str(), Some("prep"));
        assert_eq!(span.get("cat").unwrap().as_str(), Some("pipeline"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(10.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(20.0));
        assert_eq!(span.get("tid").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn chrome_export_escapes_names() {
        let recs = vec![TraceRecord::Instant {
            component: Component::Engine,
            name: "weird\"name\\",
            track: 0,
            at: t(1),
        }];
        let json = chrome_trace_json(&recs);
        let v = crate::json::parse(&json).expect("valid JSON");
        let name = v
            .get("traceEvents")
            .and_then(|e| e.idx(1))
            .and_then(|e| e.get("name"))
            .and_then(|n| n.as_str());
        assert_eq!(name, Some("weird\"name\\"));
    }

    #[test]
    fn summary_folds_busy_time_and_utilization() {
        let mut tr = RingTracer::new(64);
        // Two lanes of "prep": lane 0 busy 40us of 100us, lane 1 busy 20us.
        tr.span(Component::Pipeline, "prep", 0, t(0), t(30));
        tr.span(Component::Pipeline, "prep", 0, t(50), t(60));
        tr.span(Component::Pipeline, "prep", 1, t(10), t(30));
        tr.span(Component::Collective, "allreduce", 0, t(90), t(100));
        tr.instant(Component::Fault, "ssd-stall", 0, t(5));
        let s = TraceSummary::from_records(&tr.clone().into_records(), tr.dropped());
        assert!((s.horizon_secs - 100e-6).abs() < 1e-12);
        assert_eq!(s.spans.len(), 2);
        // prep has the larger busy total, so it sorts first.
        assert_eq!(s.spans[0].name, "prep");
        assert_eq!(s.spans[0].count, 3);
        assert!((s.spans[0].busy_secs - 60e-6).abs() < 1e-12);
        let lane0 = s
            .lanes
            .iter()
            .find(|l| l.name == "prep" && l.track == 0)
            .unwrap();
        assert!((lane0.utilization.value() - 0.4).abs() < 1e-9);
        assert_eq!(s.instants, vec![(Component::Fault, "ssd-stall", 1)]);
        assert_eq!(s.dropped_records, 0);
        let text = s.render();
        assert!(text.contains("prep"));
        assert!(text.contains("allreduce"));
        // And it serializes (the JSON sidecar exporter relies on this).
        serde_json::to_string(&s).expect("summary serializes");
    }

    #[test]
    fn summary_of_empty_trace_is_well_formed() {
        let s = TraceSummary::from_records(&[], 0);
        assert_eq!(s.horizon_secs, 0.0);
        assert!(s.spans.is_empty());
        assert!(s.lanes.is_empty());
    }

    #[test]
    fn merge_orders_by_time_then_lp_then_position() {
        let lp0 = vec![
            TraceRecord::Span { component: Component::Pipeline, name: "prep", track: 0, start: t(5), end: t(9) },
            TraceRecord::Instant { component: Component::Fault, name: "crash", track: 1, at: t(5) },
        ];
        let lp1 = vec![
            TraceRecord::Instant { component: Component::Collective, name: "sync", track: 0, at: t(2) },
            TraceRecord::Instant { component: Component::Collective, name: "sync", track: 0, at: t(5) },
        ];
        let merged = merge_lp_records(vec![lp0.clone(), lp1.clone()], 100);
        // t=2 (lp1) first; then the three t=5 records: lp0's two in stream
        // order, then lp1's.
        assert_eq!(merged[0].at(), t(2));
        assert_eq!(merged[1].name(), "prep");
        assert_eq!(merged[2].name(), "crash");
        assert_eq!(merged[3].name(), "sync");
        // lp1's tracks shifted by the stride, lp0's untouched.
        match merged[0] {
            TraceRecord::Instant { track, .. } => assert_eq!(track, 100),
            _ => panic!("expected instant"),
        }
        match merged[1] {
            TraceRecord::Span { track, .. } => assert_eq!(track, 0),
            _ => panic!("expected span"),
        }
        // Deterministic: merging again yields the identical stream.
        assert_eq!(merged, merge_lp_records(vec![lp0, lp1], 100));
    }

    #[test]
    fn merge_of_empty_streams_is_empty() {
        assert!(merge_lp_records(vec![], 10).is_empty());
        assert!(merge_lp_records(vec![vec![], vec![]], 10).is_empty());
    }

    #[test]
    fn ring_buffer_generic_behavior() {
        let mut r: Ring<u32> = Ring::new(0); // clamps to 1
        assert_eq!(r.capacity(), 1);
        r.push(1);
        r.push(2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.into_vec(), vec![2]);
    }
}
