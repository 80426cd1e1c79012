//! Profile export: span trees → Chrome `trace_event` JSON and
//! collapsed-stack flamegraph text.
//!
//! The recorder's event stream is ordered but timeless; [`ProfileSink`]
//! stamps every event with the wall-clock offset since the sink was
//! created, and [`Profile::from_events`] folds the stamped stream back
//! into the span tree. Two exporters consume the tree:
//!
//! * [`Profile::chrome_trace`] — an array of complete (`"ph": "X"`)
//!   `trace_event` objects loadable in `chrome://tracing` or Perfetto.
//! * [`Profile::collapsed_stacks`] — `root;child;leaf self_us` lines in
//!   the format `flamegraph.pl` and speedscope accept (values are
//!   *self*-time in microseconds, so stack totals reconstruct exactly).
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
//! let profile = Profile::from_events(&sink.events());
//! assert_eq!(profile.roots.len(), 1);
//! assert_eq!(profile.roots[0].children[0].name, "run.phase");
//! let trace = profile.chrome_trace();
//! assert_eq!(trace.as_arr().unwrap().len(), 2);
//! assert!(profile.collapsed_stacks().contains("run;run.phase "));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::sink::{Event, Sink};

/// An [`Event`] stamped with the wall-clock offset since the capturing
/// [`ProfileSink`] was created.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Offset from the sink's creation instant.
    pub at: Duration,
    /// The recorded event.
    pub event: Event,
}

/// A sink that timestamps events for later profile export.
///
/// Clones share the captured buffer, so tests and exporters can keep a
/// handle while the recorder owns the boxed sink.
#[derive(Clone)]
pub struct ProfileSink {
    events: Rc<RefCell<Vec<TimedEvent>>>,
    origin: Instant,
}

impl Default for ProfileSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileSink {
    /// Creates an empty sink; timestamps are relative to this call.
    pub fn new() -> Self {
        ProfileSink { events: Rc::new(RefCell::new(Vec::new())), origin: Instant::now() }
    }

    /// A snapshot of the captured, timestamped events.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events.borrow().clone()
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl Sink for ProfileSink {
    fn accept(&mut self, event: &Event) {
        self.events
            .borrow_mut()
            .push(TimedEvent { at: self.origin.elapsed(), event: event.clone() });
    }
}

/// One node of the reconstructed span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start offset (from the sink's origin).
    pub start: Duration,
    /// Wall-clock duration (from the `SpanEnd` event).
    pub duration: Duration,
    /// Nested spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this span but not in any child (saturating).
    pub fn self_time(&self) -> Duration {
        let nested: Duration = self.children.iter().map(|c| c.duration).sum();
        self.duration.saturating_sub(nested)
    }

    /// This node plus all descendants.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }
}

/// A reconstructed profile: the span forest.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Top-level spans in start order.
    pub roots: Vec<SpanNode>,
}

impl Profile {
    /// Folds a timestamped event stream back into the span tree.
    ///
    /// Span starts and ends pair up by nesting order (the recorder emits
    /// them strictly nested). A stream with unclosed spans — e.g. a
    /// process that exited mid-run — still produces a tree: open spans
    /// are closed at their deepest captured timestamp. [`Event::Point`]s
    /// carry no span and are skipped.
    pub fn from_events(events: &[TimedEvent]) -> Profile {
        struct Open {
            node: SpanNode,
        }
        let mut stack: Vec<Open> = Vec::new();
        let mut profile = Profile::default();
        let mut last_at = Duration::ZERO;
        let attach =
            |stack: &mut Vec<Open>, profile: &mut Profile, node: SpanNode| match stack.last_mut() {
                Some(parent) => parent.node.children.push(node),
                None => profile.roots.push(node),
            };
        for te in events {
            last_at = last_at.max(te.at);
            match &te.event {
                Event::SpanStart { name, .. } => stack.push(Open {
                    node: SpanNode {
                        name: name.clone(),
                        start: te.at,
                        duration: Duration::ZERO,
                        children: Vec::new(),
                    },
                }),
                Event::SpanEnd { duration, .. } => {
                    if let Some(mut open) = stack.pop() {
                        open.node.duration = *duration;
                        attach(&mut stack, &mut profile, open.node);
                    }
                }
                Event::Point { .. } => {}
            }
        }
        // Close any spans left open (truncated stream): give them the span
        // from their start to the last event seen.
        while let Some(mut open) = stack.pop() {
            open.node.duration = last_at.saturating_sub(open.node.start);
            match stack.last_mut() {
                Some(parent) => parent.node.children.push(open.node),
                None => profile.roots.push(open.node),
            }
        }
        profile
    }

    /// Total spans in the forest.
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }

    /// The profile as a Chrome `trace_event` JSON array: one complete
    /// (`"ph": "X"`) event per span with microsecond `ts`/`dur`. The array
    /// form is accepted directly by `chrome://tracing` and Perfetto.
    pub fn chrome_trace(&self) -> Json {
        fn us(d: Duration) -> f64 {
            d.as_secs_f64() * 1e6
        }
        fn emit(node: &SpanNode, out: &mut Vec<Json>) {
            out.push(
                Json::obj()
                    .field("name", node.name.as_str())
                    .field("cat", "span")
                    .field("ph", "X")
                    .field("ts", us(node.start))
                    .field("dur", us(node.duration))
                    .field("pid", 1u64)
                    .field("tid", 1u64),
            );
            for child in &node.children {
                emit(child, out);
            }
        }
        let mut events = Vec::new();
        for root in &self.roots {
            emit(root, &mut events);
        }
        Json::Arr(events)
    }

    /// The profile as collapsed flamegraph stacks: one
    /// `root;child;leaf value` line per distinct stack, where `value` is
    /// the stack's *self*-time in microseconds summed over all its
    /// occurrences. Lines are sorted, so output is deterministic.
    pub fn collapsed_stacks(&self) -> String {
        fn walk(node: &SpanNode, prefix: &str, agg: &mut BTreeMap<String, u128>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            *agg.entry(path.clone()).or_insert(0) += node.self_time().as_micros();
            for child in &node.children {
                walk(child, &path, agg);
            }
        }
        let mut agg = BTreeMap::new();
        for root in &self.roots {
            walk(root, "", &mut agg);
        }
        let mut out = String::new();
        for (stack, us) in agg {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_profile() -> (Profile, ProfileSink) {
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
        (Profile::from_events(&sink.events()), sink)
    }

    #[test]
    fn tree_matches_nesting() {
        let (profile, sink) = sample_profile();
        assert!(!sink.is_empty());
        assert_eq!(sink.len(), 8, "4 starts, 4 ends");
        assert_eq!(profile.roots.len(), 1);
        let run = &profile.roots[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.children.len(), 2);
        assert_eq!(run.children[0].name, "build");
        assert_eq!(run.children[1].children[0].name, "output.y0");
        assert_eq!(profile.span_count(), 4);
        assert!(run.duration >= run.children[0].duration);
        assert!(run.children[0].duration >= Duration::from_millis(1));
        // Children start within the parent span.
        assert!(run.children[0].start >= run.start);
        assert!(run.self_time() <= run.duration);
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let (profile, _) = sample_profile();
        let trace = profile.chrome_trace();
        // Round-trip through the serializer: what we write must parse.
        let parsed = Json::parse(&trace.render()).expect("trace JSON parses");
        let events = parsed.as_arr().expect("top level is an array");
        assert_eq!(events.len(), 4, "one complete event per span");
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(e.get("name").and_then(Json::as_str).is_some());
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= 0.0);
            assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
            assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        }
    }

    #[test]
    fn chrome_trace_nesting_is_consistent() {
        let (profile, _) = sample_profile();
        let trace = profile.chrome_trace();
        let events = trace.as_arr().unwrap();
        // The first event is the root and spans every other event.
        let root_ts = events[0].get("ts").and_then(Json::as_f64).unwrap();
        let root_end = root_ts + events[0].get("dur").and_then(Json::as_f64).unwrap();
        for e in &events[1..] {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            assert!(ts >= root_ts);
            // Timestamps are stamped by the sink while durations are
            // measured inside the span; allow scheduling slack.
            assert!(ts + dur <= root_end + 500.0, "child escapes the root span");
        }
    }

    #[test]
    fn collapsed_stacks_sum_self_times() {
        let (profile, _) = sample_profile();
        let text = profile.collapsed_stacks();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one line per distinct stack");
        assert!(lines.iter().any(|l| l.starts_with("run ")));
        assert!(lines.iter().any(|l| l.starts_with("run;build ")));
        assert!(lines.iter().any(|l| l.starts_with("run;decompose;output.y0 ")));
        // Every line ends in a non-negative integer value.
        let mut total: u128 = 0;
        for line in &lines {
            let value: u128 = line.rsplit(' ').next().unwrap().parse().expect("integer value");
            total += value;
        }
        // Self times sum back to (at most) the root's duration in µs.
        let root_us = profile.roots[0].duration.as_micros();
        assert!(total <= root_us + 1);
    }

    #[test]
    fn truncated_streams_still_build_a_tree() {
        let rec = Recorder::new();
        let sink = ProfileSink::new();
        rec.add_sink(Box::new(sink.clone()));
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        // Simulate a crash: take the events while both spans are open.
        let events = sink.events();
        let profile = Profile::from_events(&events);
        drop(inner);
        drop(outer);
        assert_eq!(profile.roots.len(), 1);
        assert_eq!(profile.roots[0].name, "outer");
        assert_eq!(profile.roots[0].children[0].name, "inner");
    }

    #[test]
    fn empty_profile_exports_cleanly() {
        let profile = Profile::from_events(&[]);
        assert_eq!(profile.span_count(), 0);
        assert_eq!(profile.chrome_trace(), Json::Arr(vec![]));
        assert_eq!(profile.collapsed_stacks(), "");
    }
}
