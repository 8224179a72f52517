//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions; the layer is the span name's prefix
//! up to the first `.` (`routing.remask` belongs to `routing`). When the
//! tracer is off, [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `[start, end)` in ns since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// 0 for the main thread; other threads get their own tracks.
    pub track: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    on: bool,
    origin: Instant,
    track: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            track: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock as `self`.
    pub fn child_track(&self, track: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            track,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            track: self.track,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adopt the spans another track recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Durations in ms of every span called `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.durations(name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect()
    }

    /// Durations of spans called `name` recorded within `[from, to)`.
    pub fn durations_in(&self, name: &str, from: u64, to: u64) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from && s.end_ns <= to)
            .map(Span::ns)
            .collect()
    }

    /// Time covered by main-track top-level spans within `[from, to)`.
    pub fn top_level_ns(&self, from: u64, to: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.track == 0 && s.parent.is_none())
            .filter(|s| s.start_ns >= from && s.end_ns <= to)
            .map(Span::ns)
            .sum()
    }

    /// Self time per layer: each span's duration minus the time its
    /// direct children cover.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.ns().saturating_sub(*c);
        }
        out
    }

    /// The spans and per-layer self times as one JSON document.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        out.push_str("{\n");
        out.push_str(header);
        out.push_str(",\n\"self_ns_by_layer\": {");
        for (i, (layer, ns)) in self.self_ns_by_layer().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{layer}\": {ns}").expect("string write");
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"track\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.track
            )
            .expect("string write");
        }
        out.push_str("]\n}\n");
        out
    }
}
