//! Event sinks: where telemetry events go.
//!
//! The [`Recorder`](crate::Recorder) forwards every span [`Event`] to any
//! number of sinks; callers may also hand a sink [`Event::Point`]s
//! directly (the `stats --trace-out` JSONL stream). [`JsonlSink`] writes
//! JSON lines for machine consumption; [`MemorySink`] captures events for
//! tests.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Duration;

use crate::json::Json;

/// A shared handle on a sink's write-error count.
///
/// Sinks swallow I/O failures by design — observability must never turn
/// into control flow — but swallowing them *silently* hides a truncated
/// trace file. [`JsonlSink`] counts every failed line here instead; keep
/// a clone of the handle (see [`JsonlSink::write_errors`]) and surface
/// the count in the run report.
#[derive(Clone, Default, Debug)]
pub struct WriteErrors {
    errors: Rc<Cell<u64>>,
}

impl WriteErrors {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lines that failed to write so far.
    pub fn get(&self) -> u64 {
        self.errors.get()
    }

    /// Counts one failed write.
    pub(crate) fn bump(&self) {
        self.errors.set(self.errors.get() + 1);
    }
}

/// One telemetry event.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// A hierarchical span opened (`depth` 0 = top level).
    SpanStart {
        /// Span name, dot-separated by convention (`decompose.output`).
        name: String,
        /// Nesting depth at the moment the span opened.
        depth: usize,
    },
    /// A span closed.
    SpanEnd {
        /// Span name (matches the corresponding `SpanStart`).
        name: String,
        /// Nesting depth the span had while open.
        depth: usize,
        /// Wall-clock duration of the span.
        duration: Duration,
    },
    /// A free-form structured event (e.g. one decomposition trace step),
    /// handed to a sink directly rather than through a recorder.
    Point {
        /// Event name.
        name: String,
        /// Structured payload.
        fields: Json,
    },
}

impl Event {
    /// The event as a single JSON object (the JSONL record shape).
    pub fn to_json(&self) -> Json {
        match self {
            Event::SpanStart { name, depth } => Json::obj()
                .field("type", "span_start")
                .field("name", name.as_str())
                .field("depth", *depth),
            Event::SpanEnd { name, depth, duration } => Json::obj()
                .field("type", "span_end")
                .field("name", name.as_str())
                .field("depth", *depth)
                .field("elapsed_s", duration.as_secs_f64()),
            Event::Point { name, fields } => Json::obj()
                .field("type", "point")
                .field("name", name.as_str())
                .field("fields", fields.clone()),
        }
    }
}

/// A destination for telemetry events.
pub trait Sink {
    /// Receives one event. Sinks must not panic on I/O failure; they are
    /// observability, not control flow.
    fn accept(&mut self, event: &Event);

    /// Flushes any buffered output (called by [`Recorder::flush`]).
    ///
    /// [`Recorder::flush`]: crate::Recorder::flush
    fn flush(&mut self) {}
}

/// Machine-readable sink: one compact JSON object per line (JSONL).
///
/// Flushes its writer when dropped, so a `--trace-out` file behind a
/// `BufWriter` is complete even when the process exits without an
/// explicit flush.
pub struct JsonlSink<W: Write> {
    // `None` only after `into_inner` moved the writer out (the drop-flush
    // and `Drop` forbid a plain field move).
    out: Option<W>,
    errors: WriteErrors,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a JSONL sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { out: Some(out), errors: WriteErrors::new() }
    }

    /// A shared handle on the count of lines that failed to write.
    ///
    /// Clone it before handing the sink to a recorder; the handle keeps
    /// reporting after the sink is gone.
    pub fn write_errors(&self) -> WriteErrors {
        self.errors.clone()
    }

    /// Consumes the sink, returning the writer (so callers can flush it
    /// fallibly or hand it back).
    pub fn into_inner(mut self) -> W {
        self.out.take().expect("writer is present until into_inner")
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn accept(&mut self, event: &Event) {
        if let Some(out) = &mut self.out {
            if writeln!(out, "{}", event.to_json().render()).is_err() {
                self.errors.bump();
            }
        }
    }

    fn flush(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

/// Captures events in memory (for tests and post-run inspection).
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Rc<RefCell<Vec<Event>>>,
}

impl MemorySink {
    /// Creates an empty memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of every event received so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Number of events received.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether no events were received.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Sink for MemorySink {
    fn accept(&mut self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

/// A shareable in-memory byte buffer implementing [`Write`] — lets tests
/// keep a handle on the bytes a [`JsonlSink`] produces.
#[derive(Clone, Default)]
pub struct SharedBuf {
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered bytes, decoded as UTF-8.
    ///
    /// # Panics
    ///
    /// Panics if the buffer holds invalid UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8(self.bytes.borrow().clone()).expect("sinks write utf-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
