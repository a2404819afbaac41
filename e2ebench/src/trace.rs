//! Spans the benchmark records around its own calls into each layer.
//!
//! A span is one call: the layer's name, start and end (nanoseconds since
//! the run's origin), the span that caused it, and the request it served.
//! Spans stay in memory and are written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a span and returns its id (for children to name as parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let span = span(self.origin, name, start, end, parent, request);
        self.push(span)
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Mean duration of the spans named `name`, in µs (0 if there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self.durations_us(name).collect();
        crate::measure::mean(&durations)
    }

    pub fn durations_us<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(Span::us)
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// A span relative to `origin` (for threads that collect their own spans).
pub fn span(
    origin: Instant,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
) -> Span {
    Span {
        name,
        start_ns: start.duration_since(origin).as_nanos() as u64,
        end_ns: end.duration_since(origin).as_nanos() as u64,
        parent,
        request,
    }
}

/// Where a traced run leaves its spans: under the build directory, which
/// the repository ignores.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("e2ebench/target"));
    dir.join("e2ebench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}
