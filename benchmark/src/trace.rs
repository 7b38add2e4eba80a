//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (spans inside the program are a later change), kept in memory, and
//! written as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder's span list.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub rep: usize,
}

/// Records nested spans on the calling thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children. Returns `f`'s value,
    /// the span's duration in seconds and its id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        rep: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64, usize) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6, id)
    }

    /// Adds an already-measured span (per-request records from the load
    /// driver's threads) under the innermost open span.
    pub fn add(&mut self, name: &'static str, rep: usize, start_us: f64, end_us: f64) {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: self.open.last().copied(),
            rep,
        });
    }

    /// A span's self time in seconds: its duration minus the part of it
    /// that its direct children cover (children recorded on one thread
    /// never overlap each other).
    pub fn self_secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us.min(s.end_us) - c.start_us.max(s.start_us))
            .sum();
        (s.end_us - s.start_us - covered) / 1e6
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"workload":"{workload}","rep":{}}}"#,
                s.name, s.start_us, s.end_us, s.rep
            )?;
        }
        w.flush()
    }
}
