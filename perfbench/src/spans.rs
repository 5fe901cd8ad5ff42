//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around each call into
//! a layer of the program (`core`, `sim`, `pcie`, `nn`, `dataprep`,
//! `serve`, and `bench` for the figure binaries). They stay in memory until
//! the run ends and are then written out as one JSON file. A disabled
//! recorder costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer` named `name`, nested under whatever
    /// span is open.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span that was timed elsewhere (a request in flight on the
    /// load generator's connections, which overlap rather than nest).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in milliseconds: each span's duration minus the
    /// part of it its direct children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// CPU nanoseconds it takes to record one span, measured on a throwaway
/// recorder.
pub fn recording_ns() -> f64 {
    const N: u64 = 10_000;
    let mut t = Spans::new(true);
    let c = crate::sys::thread_cpu_s();
    for op in 0..N {
        t.span("bench", "calibration", op, |_| ());
    }
    (crate::sys::thread_cpu_s() - c) * 1e9 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Spans::new(true);
        t.span("core", "outer", 1, |t| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("sim", "inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by = t.self_ms_by_layer();
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!(inner.parent, Some(0));
        assert!((by["sim"] - dur(inner)).abs() < 1e-9 && by["sim"] >= 20.0);
        assert!((by["core"] - (dur(outer) - dur(inner))).abs() < 1e-9 && by["core"] >= 5.0);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Spans::new(false);
        assert_eq!(t.span("core", "x", 0, |_| 7), 7);
        assert_eq!(t.len(), 0);
    }
}
