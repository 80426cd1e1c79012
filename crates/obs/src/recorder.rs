//! The recorder: hierarchical timing spans, forwarded to sinks.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::sink::{Event, Sink};

struct Inner {
    depth: usize,
    sinks: Vec<Box<dyn Sink>>,
}

/// A cheap-to-clone handle to one telemetry session.
///
/// All clones share the same span depth and sinks; layers hold an
/// `Option<Recorder>` and open [`Span`]s on it. Every span start and end
/// is forwarded to each attached sink. The recorder carries no numbers
/// of its own: counts live in the typed stats structs of each layer.
///
/// ```
/// use obs::{MemorySink, Recorder};
///
/// let rec = Recorder::new();
/// let sink = MemorySink::new();
/// rec.add_sink(Box::new(sink.clone()));
/// {
///     let _span = rec.span("phase.work");
///     let _inner = rec.span("phase.work.step");
/// }
/// assert_eq!(sink.len(), 4); // two span starts, two span ends
/// ```
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RefCell<Inner>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a recorder with no sinks.
    pub fn new() -> Self {
        Recorder { inner: Rc::new(RefCell::new(Inner { depth: 0, sinks: Vec::new() })) }
    }

    /// Attaches a sink; every subsequent event is forwarded to it.
    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        self.inner.borrow_mut().sinks.push(sink);
    }

    fn emit(&self, event: Event) {
        let mut inner = self.inner.borrow_mut();
        for sink in &mut inner.sinks {
            sink.accept(&event);
        }
    }

    /// Opens a RAII span; the span closes (and emits its duration) on drop.
    pub fn span(&self, name: impl Into<String>) -> Span {
        let name = name.into();
        let depth = {
            let mut inner = self.inner.borrow_mut();
            let depth = inner.depth;
            inner.depth += 1;
            depth
        };
        self.emit(Event::SpanStart { name: name.clone(), depth });
        Span { recorder: self.clone(), name, depth, start: Instant::now() }
    }

    /// Flushes every attached sink.
    pub fn flush(&self) {
        let mut inner = self.inner.borrow_mut();
        for sink in &mut inner.sinks {
            sink.flush();
        }
    }
}

/// An open hierarchical timing span (see [`Recorder::span`]).
///
/// Dropping the span emits a [`Event::SpanEnd`] carrying the wall-clock
/// duration and restores the nesting depth.
pub struct Span {
    recorder: Recorder,
    name: String,
    depth: usize,
    start: Instant,
}

impl Span {
    /// Wall-clock time since the span opened.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let duration = self.start.elapsed();
        {
            let mut inner = self.recorder.inner.borrow_mut();
            inner.depth = inner.depth.saturating_sub(1);
        }
        self.recorder.emit(Event::SpanEnd {
            name: std::mem::take(&mut self.name),
            depth: self.depth,
            duration,
        });
    }
}
