//! An in-memory span recorder for the traced runs.
//!
//! Each public library call the replay makes gets a span (name, start, end, parent,
//! request id). Spans stay in memory and are written out as JSON lines when the run
//! ends; a layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens the root span of request `request`.
    pub fn begin(&mut self, request: usize, name: &'static str) {
        self.request = request;
        self.enter(name);
    }

    /// Closes the root span and returns its duration in µs.
    pub fn end(&mut self) -> f64 {
        let id = self.exit();
        self.spans[id].end_us - self.spans[id].start_us
    }

    fn enter(&mut self, name: &'static str) {
        let start_us = self.now_us();
        self.spans.push(Span {
            request: self.request,
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) -> usize {
        let id = self.open.pop().expect("an open span");
        self.spans[id].end_us = self.now_us();
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time (µs) of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end_us - span.start_us;
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// Running sums for per-layer means: `value` summed over `calls`.
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.sums.entry(name).or_default();
        entry.0 += value;
        entry.1 += 1;
    }

    /// Mean per call, or 0 when the layer never ran.
    pub fn mean(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .map_or(0.0, |&(sum, calls)| sum / calls.max(1) as f64)
    }

    /// Adds every non-root span's self time (µs) under its span name.
    pub fn add_self_times(&mut self, tracer: &Tracer) {
        let own = tracer.self_times();
        for (span, &us) in tracer.spans.iter().zip(&own) {
            if span.parent.is_some() {
                self.add(span.name, us);
            }
        }
    }
}
