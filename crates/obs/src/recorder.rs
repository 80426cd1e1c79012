//! The recorder: timing spans, each handed to the sinks once, when it
//! closes.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::profile::ProfileSink;

/// A cheap-to-clone handle to one telemetry session.
///
/// All clones share the same sinks; layers hold an `Option<Recorder>` and
/// open [`Span`]s on it. A span reaches each attached sink once, when it
/// closes. The recorder carries no numbers of its own: counts live in the
/// typed stats structs of each layer.
///
/// ```
/// use obs::profile::ProfileSink;
/// use obs::Recorder;
///
/// let rec = Recorder::new();
/// let sink = ProfileSink::new();
/// rec.add_sink(Box::new(sink.clone()));
/// {
///     let _span = rec.span("phase.work");
///     let _inner = rec.span("phase.work.step");
/// }
/// assert_eq!(sink.events().len(), 2); // one record per closed span
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    sinks: Rc<RefCell<Vec<ProfileSink>>>,
}

impl Recorder {
    /// Creates a recorder with no sinks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a sink; every span that closes from now on is recorded in
    /// it.
    // The box is unpacked at once; the signature keeps the call shape
    // `add_sink(Box::new(sink.clone()))` of the benchmark harness.
    #[allow(clippy::boxed_local)]
    pub fn add_sink(&self, sink: Box<ProfileSink>) {
        self.sinks.borrow_mut().push(*sink);
    }

    /// Opens a RAII span; the span closes (and is recorded) on drop.
    pub fn span(&self, name: impl Into<String>) -> Span {
        Span { recorder: self.clone(), name: name.into(), start: Instant::now() }
    }
}

/// An open timing span (see [`Recorder::span`]).
///
/// Dropping the span reads the clock once more and hands the name and
/// both instants to every sink, so a span opened and closed inside
/// another lies inside it exactly.
pub struct Span {
    recorder: Recorder,
    name: String,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = Instant::now();
        for sink in self.recorder.sinks.borrow().iter() {
            sink.record(&self.name, self.start, end);
        }
    }
}
