//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each worker thread owns a [`Tracer`]; the spans of one request share
//! its id, nest through an explicit parent index, and are written out
//! when the run ends.

use crate::stats::Dist;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    req: std::cell::Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, Dist>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            req: std::cell::Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, child of the innermost open
    /// span. A span opened with no span open is a request root and takes
    /// `req` as its id.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                req: self.req.get(),
                name,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Open a request root span.
    pub fn request<R>(&self, req: u64, f: impl FnOnce() -> R) -> R {
        self.req.set(req);
        self.span("request", f)
    }

    /// Record a count measured at a layer boundary (rows, rounds, bytes).
    pub fn count(&self, name: &'static str, v: f64) {
        self.counts.borrow_mut().entry(name).or_default().push(v);
    }

    pub fn into_parts(self) -> (Vec<Span>, BTreeMap<&'static str, Dist>) {
        (self.spans.into_inner(), self.counts.into_inner())
    }
}

/// Spans of every thread of one traced run, with self times derived.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, Dist>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        let (spans, counts) = tracer.into_parts();
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, d) in counts {
            self.counts.entry(k).or_default().extend(&d);
        }
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times of every span named `name`, in `scale` nanoseconds.
    pub fn self_times(&self, name: &str, scale: f64) -> Dist {
        let own = self.self_ns();
        let mut d = Dist::default();
        for (s, ns) in self.spans.iter().zip(own) {
            if s.name == name {
                d.push(ns as f64 / scale);
            }
        }
        d
    }

    pub fn counts(&self, name: &str) -> Dist {
        self.counts.get(name).cloned().unwrap_or_default()
    }

    /// Unattributed time: the self time of each request root plus that
    /// of its `session` span, over the summed `session` span durations.
    pub fn unattributed_ratio(&self) -> f64 {
        let own = self.self_ns();
        let mut loose = 0u64;
        let mut session = 0u64;
        for (s, ns) in self.spans.iter().zip(own) {
            match s.name {
                "request" => loose += ns,
                "session" => {
                    loose += ns;
                    session += s.dur_ns();
                }
                _ => {}
            }
        }
        loose as f64 / session.max(1) as f64
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
