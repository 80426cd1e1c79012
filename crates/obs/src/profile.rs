//! Profile export: closed spans → Chrome `trace_event` JSON.
//!
//! A [`ProfileSink`] keeps every span once, when it closes, as a
//! [`TimedEvent`]: its name, its start as an offset from the sink's
//! creation, and its duration, both read from the span's own pair of
//! `Instant`s. [`Profile::chrome_trace`] writes one complete
//! (`"ph": "X"`) event per span; `chrome://tracing` and Perfetto nest
//! complete events by time, so no span tree is rebuilt here.
//!
//! ```
//! use obs::{profile::Profile, profile::ProfileSink, Recorder};
//!
//! let rec = Recorder::new();
//! let sink = ProfileSink::new();
//! rec.add_sink(Box::new(sink.clone()));
//! {
//!     let _outer = rec.span("run");
//!     let _inner = rec.span("run.phase");
//! }
//! let trace = Profile::from_events(&sink.events()).chrome_trace();
//! let events = trace.as_arr().unwrap();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].get("name").unwrap().as_str(), Some("run.phase"));
//! ```

use std::cell::RefCell;
use std::cmp::Reverse;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One closed span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Span name, dot-separated by convention (`decompose.output`).
    pub name: String,
    /// When the span opened, as an offset from the capturing
    /// [`ProfileSink`]'s creation (zero for a span opened before it).
    pub start: Duration,
    /// How long the span was open.
    pub duration: Duration,
}

/// A sink that keeps every closed span for later profile export.
///
/// Clones share the captured buffer, so tests and exporters can keep a
/// handle while the recorder owns the boxed sink.
#[derive(Clone)]
pub struct ProfileSink {
    spans: Rc<RefCell<Vec<TimedEvent>>>,
    origin: Instant,
}

impl Default for ProfileSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileSink {
    /// Creates an empty sink; span starts are offsets from this call.
    pub fn new() -> Self {
        ProfileSink { spans: Rc::default(), origin: Instant::now() }
    }

    /// A snapshot of the spans closed so far, in closing order.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.spans.borrow().clone()
    }

    /// Keeps one span that ran from `start` to `end`.
    pub(crate) fn record(&self, name: &str, start: Instant, end: Instant) {
        self.spans.borrow_mut().push(TimedEvent {
            name: name.to_owned(),
            start: start.saturating_duration_since(self.origin),
            duration: end.duration_since(start),
        });
    }
}

/// A recorded profile: the closed spans, ordered by start.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    spans: Vec<TimedEvent>,
}

impl Profile {
    /// Orders the spans by start, the longer of two equal starts first, so
    /// every span follows each span that encloses it.
    pub fn from_events(events: &[TimedEvent]) -> Profile {
        let mut spans = events.to_vec();
        spans.sort_by_key(|s| (s.start, Reverse(s.duration)));
        Profile { spans }
    }

    /// The profile as a Chrome `trace_event` JSON array: one complete
    /// (`"ph": "X"`) event per span with microsecond `ts`/`dur`. The array
    /// form is accepted directly by `chrome://tracing` and Perfetto.
    pub fn chrome_trace(&self) -> Json {
        fn us(d: Duration) -> f64 {
            d.as_nanos() as f64 / 1e3
        }
        let events = self
            .spans
            .iter()
            .map(|span| {
                Json::obj()
                    .field("name", span.name.as_str())
                    .field("cat", "span")
                    .field("ph", "X")
                    .field("ts", us(span.start))
                    .field("dur", us(span.duration))
                    .field("pid", 1u64)
                    .field("tid", 1u64)
            })
            .collect();
        Json::Arr(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_spans() -> Vec<TimedEvent> {
        let rec = Recorder::new();
        let sink = ProfileSink::new();
        rec.add_sink(Box::new(sink.clone()));
        {
            let _run = rec.span("run");
            {
                let _a = rec.span("build");
                std::thread::sleep(Duration::from_millis(1));
            }
            {
                let _b = rec.span("decompose");
                let _c = rec.span("output.y0");
            }
        }
        sink.events()
    }

    #[test]
    fn spans_are_kept_once_in_closing_order() {
        let spans = sample_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["build", "output.y0", "decompose", "run"]);
        assert!(spans[0].duration >= Duration::from_millis(1));
    }

    #[test]
    fn clones_of_a_recorder_share_its_sinks() {
        let rec = Recorder::new();
        let sink = ProfileSink::new();
        rec.add_sink(Box::new(sink.clone()));
        drop(rec.clone().span("via a clone"));
        assert_eq!(sink.events()[0].name, "via a clone");
    }

    /// `(name, ts, end)` of every Chrome event, in integer nanoseconds.
    fn intervals(trace: &Json) -> Vec<(String, u64, u64)> {
        let ns = |e: &Json, key: &str| {
            let us = e.get(key).and_then(Json::as_f64).expect("numeric ts/dur");
            assert!(us >= 0.0);
            (us * 1e3).round() as u64
        };
        let events = trace.as_arr().expect("top level is an array");
        events
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str).expect("name").to_owned();
                let ts = ns(e, "ts");
                (name, ts, ts + ns(e, "dur"))
            })
            .collect()
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let trace = Profile::from_events(&sample_spans()).chrome_trace();
        // Round-trip through the serializer: what we write must parse.
        let parsed = Json::parse(&trace.render()).expect("trace JSON parses");
        let events = parsed.as_arr().expect("top level is an array");
        assert_eq!(events.len(), 4, "one complete event per span");
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        }
    }

    #[test]
    fn chrome_trace_nests_children_inside_parents_exactly() {
        let trace = Profile::from_events(&sample_spans()).chrome_trace();
        let parsed = Json::parse(&trace.render()).expect("trace JSON parses");
        let spans = intervals(&parsed);
        let names: Vec<&str> = spans.iter().map(|s| s.0.as_str()).collect();
        assert_eq!(names, ["run", "build", "decompose", "output.y0"], "ordered by start");
        let inside = |child: usize, parent: usize| {
            let ((_, cs, ce), (_, ps, pe)) = (&spans[child], &spans[parent]);
            ps <= cs && ce <= pe
        };
        for child in 1..4 {
            assert!(inside(child, 0), "{spans:?}");
        }
        assert!(inside(3, 2), "{spans:?}");
        assert!(spans[1].2 <= spans[2].1, "siblings do not overlap: {spans:?}");
    }

    #[test]
    fn empty_profile_exports_cleanly() {
        assert_eq!(Profile::from_events(&[]).chrome_trace(), Json::Arr(vec![]));
    }
}
