//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! Each span has a name (`<layer>.<call>`), a start and an end relative to
//! the recorder's origin, an optional parent span, and a group id shared by
//! every span of one cell, lock flow or daemon job. Counts measured at the
//! same boundaries are kept beside the spans. Everything stays in memory
//! until [`Tracer::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub group: String,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Span and counter store. A disabled tracer records nothing, so the same
/// code path serves the untraced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that has already ended; returns its id (or `None`
    /// when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        group: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            group: group.to_string(),
            name,
            start,
            end,
        });
        Some(id)
    }

    /// Opens a span that children can name as parent; [`Tracer::close`]
    /// ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        group: &str,
        parent: Option<usize>,
    ) -> Option<usize> {
        let now = Instant::now();
        self.record(name, group, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.end = Instant::now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        group: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, group, parent, start, Instant::now());
        out
    }

    /// Records one observation of a counter measured at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Every observation of counter `name`.
    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Writes one JSON object per span, then one per counter.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let micros = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{parent},\"group\":\"{}\",\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.group,
                s.name,
                micros(s.start),
                micros(s.end)
            );
        }
        for (name, values) in &self.counts {
            let values: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            let _ = writeln!(
                out,
                "{{\"count\":\"{name}\",\"values\":[{}]}}",
                values.join(",")
            );
        }
        std::fs::write(path, out)
    }
}
