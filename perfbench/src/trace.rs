//! In-memory spans for the traced run, plus the order statistics every
//! metric is reported with.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is
//! instrumented. They stay in memory and are written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call: `parent` is the index of the span of the operation
/// it is attributed to, `op` the id shared by every span of that
/// operation.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span timed by the caller; returns its index (a parent
    /// for later spans).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`; returns its result and the
    /// span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, start, Instant::now(), parent, op);
        (out, idx)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// `1 − Σ child time / Σ parent time` over the spans named
    /// `parent`: the share of an operation's end-to-end time that no
    /// named layer call accounts for.
    pub fn unattributed_share(&self, parent: &str) -> f64 {
        let ids: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == parent)
            .collect();
        let total: f64 = ids.iter().map(|&i| self.spans[i].secs()).sum();
        if total == 0.0 {
            return 0.0;
        }
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| ids.binary_search(&p).is_ok()))
            .map(Span::secs)
            .sum();
        1.0 - children / total
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
