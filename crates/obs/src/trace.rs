//! Structured JSON-lines tracing: level-filtered events and duration
//! spans over a pluggable writer.
//!
//! Every emitted line is one JSON object:
//!
//! ```json
//! {"ts_us":1234,"level":"info","event":"engine.boot","replayed":7}
//! {"ts_us":9876,"level":"debug","event":"span","span":"snapshot","dur_us":41872}
//! ```
//!
//! `ts_us` is microseconds since the tracer was created, measured on the
//! **monotonic** clock — timestamps order events and never jump with wall
//! time. Slow-query reporting is a tracer concern: configure a threshold
//! with [`Tracer::with_slow_query`] and call [`Tracer::slow_query`] from
//! request paths; crossings emit a `warn`-level `slow_query` event.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::metrics::{json_f64, json_string};

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error,
    /// Degradations a human should eventually look at.
    Warn,
    /// Lifecycle landmarks (boot, snapshot, recovery).
    Info,
    /// Per-operation detail; off by default.
    Debug,
}

impl Level {
    /// Lower-case name used in emitted lines and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a CLI-style level name; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// A JSON-lines event/span emitter.
///
/// Construction picks the destination ([`Tracer::to_stderr`],
/// [`Tracer::to_file`], [`Tracer::to_writer`]) and the maximum level that
/// gets through; [`Tracer::disabled`] swallows everything at zero cost
/// beyond a branch.
pub struct Tracer {
    /// Maximum level emitted; `None` disables the tracer entirely.
    max_level: Option<Level>,
    epoch: Instant,
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    slow_query: Option<Duration>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("max_level", &self.max_level)
            .field("slow_query", &self.slow_query)
            .finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer that drops every event.
    pub fn disabled() -> Self {
        Self {
            max_level: None,
            epoch: Instant::now(),
            writer: Mutex::new(None),
            slow_query: None,
        }
    }

    /// Emits to stderr, keeping events at or above `level`.
    pub fn to_stderr(level: Level) -> Self {
        Self::to_writer(Box::new(io::stderr()), level)
    }

    /// Emits to an arbitrary writer, keeping events at or above `level`.
    pub fn to_writer(writer: Box<dyn Write + Send>, level: Level) -> Self {
        Self {
            max_level: Some(level),
            epoch: Instant::now(),
            writer: Mutex::new(Some(writer)),
            slow_query: None,
        }
    }

    /// Appends JSON lines to `path`, keeping events at or above `level`.
    pub fn to_file(path: &Path, level: Level) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::to_writer(Box::new(file), level))
    }

    /// Sets the slow-query threshold (see [`Tracer::slow_query`]).
    pub fn with_slow_query(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query = threshold;
        self
    }

    /// Whether events at `level` would be emitted.
    pub fn enabled(&self, level: Level) -> bool {
        match self.max_level {
            Some(max) => level <= max,
            None => false,
        }
    }

    /// Starts an event named `name` at `level`; attach fields and call
    /// [`Event::emit`]. When the level is filtered the returned builder
    /// is inert (no allocation beyond the struct itself).
    pub fn event<'a>(&'a self, level: Level, name: &str) -> Event<'a> {
        if !self.enabled(level) {
            return Event {
                tracer: self,
                line: None,
            };
        }
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"ts_us\":{},\"level\":\"{}\",\"event\":{}",
            self.epoch.elapsed().as_micros(),
            level.as_str(),
            json_string(name)
        );
        Event {
            tracer: self,
            line: Some(line),
        }
    }

    /// Opens a span named `name`; its duration is emitted as a
    /// `{"event":"span","span":name,"dur_us":…}` line at `level` when the
    /// guard drops.
    pub fn span<'a>(&'a self, level: Level, name: &'a str) -> Span<'a> {
        Span {
            tracer: self,
            level,
            name,
            started: Instant::now(),
        }
    }

    /// Reports a request that took `dur` against the configured threshold;
    /// emits a `warn`-level `slow_query` event when `dur` reaches it.
    /// No-op when no threshold is configured.
    pub fn slow_query(&self, op: &str, batch: usize, dur: Duration) {
        let Some(threshold) = self.slow_query else {
            return;
        };
        if dur < threshold {
            return;
        }
        self.event(Level::Warn, "slow_query")
            .str_field("op", op)
            .int_field("batch", batch as u64)
            .num_field("dur_ms", dur.as_secs_f64() * 1e3)
            .num_field("threshold_ms", threshold.as_secs_f64() * 1e3)
            .emit();
    }

    fn write_line(&self, line: &str) {
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = guard.as_mut() {
            // Tracing must never take the daemon down: swallow I/O errors.
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }
}

/// Builder for one event line; created by [`Tracer::event`].
#[must_use = "call emit() to write the event"]
pub struct Event<'a> {
    tracer: &'a Tracer,
    line: Option<String>,
}

impl Event<'_> {
    /// Attaches a string field.
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        if let Some(line) = self.line.as_mut() {
            let _ = write!(line, ",{}:{}", json_string(key), json_string(value));
        }
        self
    }

    /// Attaches an unsigned integer field.
    pub fn int_field(mut self, key: &str, value: u64) -> Self {
        if let Some(line) = self.line.as_mut() {
            let _ = write!(line, ",{}:{}", json_string(key), value);
        }
        self
    }

    /// Attaches a float field (non-finite values are written as `0`).
    pub fn num_field(mut self, key: &str, value: f64) -> Self {
        if let Some(line) = self.line.as_mut() {
            let _ = write!(line, ",{}:{}", json_string(key), json_f64(value));
        }
        self
    }

    /// Finishes the line and writes it.
    pub fn emit(self) {
        if let Some(mut line) = self.line {
            line.push('}');
            self.tracer.write_line(&line);
        }
    }
}

/// Guard emitting a duration event on drop; created by [`Tracer::span`].
pub struct Span<'a> {
    tracer: &'a Tracer,
    level: Level,
    name: &'a str,
    started: Instant,
}

impl Span<'_> {
    /// Elapsed time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let dur = self.started.elapsed();
        self.tracer
            .event(self.level, "span")
            .str_field("span", self.name)
            .int_field("dur_us", dur.as_micros() as u64)
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared in-memory sink for asserting emitted lines.
    #[derive(Clone, Default)]
    struct Sink(Arc<StdMutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        fn lines(&self) -> Vec<String> {
            String::from_utf8(self.0.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Debug);
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::Warn.as_str(), "warn");
    }

    #[test]
    fn events_are_json_lines_with_fields() {
        let sink = Sink::default();
        let t = Tracer::to_writer(Box::new(sink.clone()), Level::Info);
        t.event(Level::Info, "boot")
            .int_field("replayed", 7)
            .str_field("dir", "a\"b")
            .num_field("secs", 1.5)
            .emit();
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].contains("\"level\":\"info\""));
        assert!(lines[0].contains("\"event\":\"boot\""));
        assert!(lines[0].contains("\"replayed\":7"));
        assert!(lines[0].contains("\"dir\":\"a\\\"b\""));
        assert!(lines[0].contains("\"secs\":1.5"));
        assert!(lines[0].ends_with('}'));
    }

    #[test]
    fn level_filter_drops_below_threshold() {
        let sink = Sink::default();
        let t = Tracer::to_writer(Box::new(sink.clone()), Level::Warn);
        t.event(Level::Debug, "noise").emit();
        t.event(Level::Info, "noise").emit();
        t.event(Level::Warn, "kept").emit();
        t.event(Level::Error, "kept").emit();
        assert_eq!(sink.lines().len(), 2);
        assert!(!t.enabled(Level::Info));
        assert!(t.enabled(Level::Error));
    }

    #[test]
    fn disabled_tracer_swallows_everything() {
        let t = Tracer::disabled();
        assert!(!t.enabled(Level::Error));
        t.event(Level::Error, "x").int_field("k", 1).emit();
        t.slow_query("search", 4, Duration::from_secs(10));
    }

    #[test]
    fn span_emits_duration_on_drop() {
        let sink = Sink::default();
        let t = Tracer::to_writer(Box::new(sink.clone()), Level::Debug);
        {
            let _s = t.span(Level::Debug, "snapshot");
            std::thread::sleep(Duration::from_millis(2));
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"event\":\"span\""));
        assert!(lines[0].contains("\"span\":\"snapshot\""));
        let dur: u64 = lines[0]
            .split("\"dur_us\":")
            .nth(1)
            .unwrap()
            .trim_end_matches('}')
            .parse()
            .unwrap();
        assert!(dur >= 1_000, "span measured {dur}µs");
    }

    #[test]
    fn slow_query_fires_only_at_threshold() {
        let sink = Sink::default();
        let t = Tracer::to_writer(Box::new(sink.clone()), Level::Warn)
            .with_slow_query(Some(Duration::from_millis(100)));
        t.slow_query("similar-nodes", 16, Duration::from_millis(5));
        assert!(sink.lines().is_empty());
        t.slow_query("similar-nodes", 16, Duration::from_millis(250));
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"event\":\"slow_query\""));
        assert!(lines[0].contains("\"op\":\"similar-nodes\""));
        assert!(lines[0].contains("\"batch\":16"));
        assert!(lines[0].contains("\"dur_ms\":250"));
        assert!(lines[0].contains("\"threshold_ms\":100"));
    }

    #[test]
    fn file_tracer_appends_lines() {
        let dir = std::env::temp_dir().join(format!(
            "pane-obs-trace-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        {
            let t = Tracer::to_file(&path, Level::Info).unwrap();
            t.event(Level::Info, "one").emit();
        }
        {
            let t = Tracer::to_file(&path, Level::Info).unwrap();
            t.event(Level::Info, "two").emit();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "append mode keeps prior lines");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
