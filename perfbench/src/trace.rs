//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span records its name, start and end (seconds since the tracer's
//! epoch), the span that was open when it started, and the job it
//! belongs to. With tracing off, [`Tracer::span`] only runs the closure.
//! Spans are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::Metric;
use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for `job`.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                job,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Spans of a whole run: the per-thread recordings concatenated, with
/// parent indices rebased.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The median duration of the spans called `span`, as a metric.
    pub fn median_metric(&self, name: &'static str, span: &str) -> Metric {
        let d = self.durations(span);
        Metric::new(
            name,
            "s",
            median(&d),
            format!("median of {} spans", d.len()),
        )
    }

    /// Per-name `(count, total, self)` seconds, where a span's self time
    /// is its duration minus the part covered by its children. Children
    /// of one span run on its thread, one after another, so their
    /// durations add without overlap.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start, s.end, s.job
            )?;
        }
        out.flush()
    }
}
