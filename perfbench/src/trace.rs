//! Spans recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions.
//!
//! A span has a name (`<layer>.<call>`), start and end times, the span
//! that caused it, and the id of the operation it belongs to. Spans stay
//! in memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Ids start at 1; parent 0 means a root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds; a span whose end a cross-thread
    /// measurement saw before its start lasts 0.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The in-memory span store, shared by the benchmark's threads.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Counts recorded at the same boundaries as the spans.
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Adds `v` to the count `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counts
            .lock()
            .expect("count store poisoned")
            .entry(name)
            .or_default() += v;
    }

    /// Raises the count `name` to at least `v`.
    pub fn raise(&self, name: &'static str, v: f64) {
        let mut counts = self.counts.lock().expect("count store poisoned");
        let slot = counts.entry(name).or_default();
        *slot = slot.max(v);
    }

    /// The count `name` (0 when nothing was recorded).
    pub fn sum(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("count store poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Reserves a span id, for a parent recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Records a span measured by the caller, returning its id.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, op, parent, start, end);
        id
    }

    /// Times `f` as a span.
    pub fn time<R>(&self, name: &'static str, op: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// Total milliseconds of the direct children of span `parent`.
    pub fn children_ms(&self, parent: u64) -> f64 {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.parent == parent)
            .map(Span::ms)
            .sum()
    }

    /// Milliseconds of the latest span named `name` (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::ms)
    }

    /// Total milliseconds of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Total milliseconds of every span of `layer`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.layer() == layer)
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        let spans = self.spans.lock().expect("span store poisoned");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Times `f` as a span when tracing, and just runs it otherwise.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    parent: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, op, parent, f),
        None => f(),
    }
}
