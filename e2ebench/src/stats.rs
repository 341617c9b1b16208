//! Sample distributions and the metric report.
//!
//! A percentile is reported only when at least ten samples lie beyond
//! it; asking for one the sample cannot support is an error, never a
//! silently weaker number.

use std::fmt::Write as _;

/// Samples of one quantity, in the unit they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    pub fn extend(&mut self, other: &Dist) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The `p`-quantile (nearest rank), or an error when fewer than ten
    /// samples lie beyond it.
    pub fn pct(&self, p: f64) -> Result<f64, String> {
        let n = self.samples.len();
        let beyond = (n as f64 * (1.0 - p)).floor() as usize;
        if n == 0 || (p > 0.5 && beyond < 10) || (p <= 0.5 && n < 20) {
            return Err(format!("p{} needs more samples than {n}", p * 100.0));
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        Ok(sorted[rank - 1])
    }

    /// The median, for distributions too small for the ten-beyond rule
    /// (per-layer figures and repeated set-up timings).
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }
}

/// Whether a metric is one of the gated end-to-end figures or a
/// per-layer figure from the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
    /// Printed for people, never in the result line: figures only one
    /// workload has (see the README).
    Extra,
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    kind: Kind,
}

/// Every figure one run produces, plus the configuration it ran under.
#[derive(Debug)]
pub struct Report {
    /// The kind the result line carries; only its figures are required.
    gated: Kind,
    metrics: Vec<Metric>,
    config: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(gated: Kind) -> Report {
        Report {
            gated,
            metrics: Vec::new(),
            config: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn add(&mut self, kind: Kind, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            kind,
        });
    }

    /// A percentile of `dist`. One the sample cannot support is left
    /// out with a note, or fails the run when the result line needs it.
    pub fn pct(&mut self, kind: Kind, name: &str, dist: &Dist, p: f64, unit: &'static str) {
        match dist.pct(p) {
            Ok(v) => self.add(kind, name, v, unit, dist.len()),
            Err(e) if self.gated == kind => self.errors.push(format!("{name}: {e}")),
            Err(e) => self.notes.push(format!("{name} not reported: {e}")),
        }
    }

    /// The median of a distribution (no ten-beyond rule). An empty one
    /// is left out with a note, or fails the run when the result line
    /// needs it.
    pub fn median(&mut self, kind: Kind, name: &str, dist: &Dist, unit: &'static str) {
        match dist.len() {
            0 if self.gated == kind => self.errors.push(format!("{name}: no samples")),
            0 => self.notes.push(format!("{name} not reported: no samples")),
            n => self.add(kind, name, dist.median(), unit, n),
        }
    }

    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// A failed correctness check.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Print the configuration record and the human-readable table
    /// (every metric, with its unit and sample count), then the one-line
    /// JSON result with the gated kind's metrics.
    pub fn print(&self) {
        let mut cfg = String::from("{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(cfg, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        cfg.push('}');
        println!("config {cfg}");
        for m in &self.metrics {
            let tag = match m.kind {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
                Kind::Extra => "extra",
            };
            println!(
                "{tag:<5} {:<32} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.kind == self.gated) {
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
