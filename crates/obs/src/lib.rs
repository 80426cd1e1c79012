//! **obs** — zero-dependency telemetry for the BI-DECOMP workspace.
//!
//! Every layer of the system (BDD manager, decomposer, netlist passes,
//! ATPG, bench harness) reports into this crate:
//!
//! * [`Recorder`] — a cheap-to-clone handle aggregating named counters
//!   and gauges, with RAII hierarchical timing [`Span`]s.
//! * [`Sink`] — where events go: [`TextSink`] renders an indented
//!   human-readable log, [`JsonlSink`] writes one JSON object per line,
//!   [`MemorySink`] captures events for tests.
//! * [`json`] — a hand-rolled JSON value (writer *and* parser) used for
//!   the machine-readable `BENCH_*.json` run reports.
//! * [`profile`] — span-tree exporters: Chrome `trace_event` JSON and
//!   collapsed-stack flamegraph text.
//! * [`report`] — the shared rate/percentage formatting helpers.
//! * [`bench`](mod@bench) — a small micro-benchmark harness (criterion substitute).
//!
//! Telemetry is strictly opt-in: a layer holding `Option<Recorder>` pays
//! one branch per event when disabled and allocates nothing.
//!
//! Run reports are built from counters, which repeat exactly from run to
//! run; the crate keeps no latency histograms or sampled time series.
//! The only clocks are span durations, read once per span. End-to-end
//! wall time is measured by the `bdbench` harness, with telemetry off.
//!
//! ```
//! use obs::{JsonlSink, Recorder, SharedBuf};
//!
//! let rec = Recorder::new();
//! let buf = SharedBuf::new();
//! rec.add_sink(Box::new(JsonlSink::new(buf.clone())));
//! {
//!     let _outer = rec.span("decompose");
//!     let _inner = rec.span("decompose.output");
//!     rec.count("calls", 17);
//! }
//! let lines: Vec<String> = buf.contents().lines().map(String::from).collect();
//! assert_eq!(lines.len(), 5); // 2 starts, 1 counter, 2 ends
//! let first = obs::json::Json::parse(&lines[0]).unwrap();
//! assert_eq!(first.get("type").unwrap().as_str(), Some("span_start"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod profile;
mod recorder;
pub mod report;
mod sink;

pub use recorder::{Recorder, Span};
pub use sink::{Event, JsonlSink, MemorySink, SharedBuf, Sink, TextSink, WriteErrors};

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    #[test]
    fn counters_and_gauges_aggregate() {
        let rec = Recorder::new();
        rec.count("a", 2);
        rec.count("a", 3);
        rec.gauge("load", 0.5);
        assert_eq!(rec.counter("a"), 5);
        assert_eq!(rec.counter("missing"), 0);
        assert_eq!(rec.gauge_value("load"), Some(0.5));
        assert_eq!(rec.counters().len(), 1);
        assert_eq!(rec.gauges().len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let other = rec.clone();
        other.count("shared", 1);
        assert_eq!(rec.counter("shared"), 1);
    }

    #[test]
    fn spans_nest_and_unwind() {
        let rec = Recorder::new();
        let sink = MemorySink::new();
        rec.add_sink(Box::new(sink.clone()));
        {
            let _a = rec.span("a");
            let _b = rec.span("b");
        }
        let _c = rec.span("c");
        drop(_c);
        let depths: Vec<(String, usize)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, depth } => Some((name, depth)),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![("a".into(), 0), ("b".into(), 1), ("c".into(), 0)]);
    }

    #[test]
    fn span_end_carries_duration() {
        let rec = Recorder::new();
        let sink = MemorySink::new();
        rec.add_sink(Box::new(sink.clone()));
        {
            let span = rec.span("timed");
            assert!(span.elapsed() >= std::time::Duration::ZERO);
            span.close();
        }
        let ends: Vec<Event> =
            sink.events().into_iter().filter(|e| matches!(e, Event::SpanEnd { .. })).collect();
        assert_eq!(ends.len(), 1);
        match &ends[0] {
            Event::SpanEnd { name, depth, .. } => {
                assert_eq!(name, "timed");
                assert_eq!(*depth, 0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn jsonl_sink_emits_parseable_records_in_order() {
        let rec = Recorder::new();
        let buf = SharedBuf::new();
        rec.add_sink(Box::new(JsonlSink::new(buf.clone())));
        {
            let _outer = rec.span("outer");
            rec.count("n", 1);
            let _inner = rec.span("inner");
        }
        let text = buf.contents();
        let records: Vec<Json> =
            text.lines().map(|l| Json::parse(l).expect("valid jsonl")).collect();
        assert_eq!(records.len(), 5);
        let kinds: Vec<&str> =
            records.iter().map(|r| r.get("type").unwrap().as_str().unwrap()).collect();
        // Inner spans close before outer ones (RAII order).
        assert_eq!(kinds, ["span_start", "counter", "span_start", "span_end", "span_end"]);
        assert_eq!(records[2].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(records[3].get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(records[4].get("name").unwrap().as_str(), Some("outer"));
        assert!(records[4].get("elapsed_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn jsonl_sink_escapes_hostile_names() {
        let rec = Recorder::new();
        let buf = SharedBuf::new();
        rec.add_sink(Box::new(JsonlSink::new(buf.clone())));
        let hostile = "bench \"quoted\"\\path\nwith\tcontrol\u{1}chars";
        rec.count(hostile, 7);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "escaping must keep one record per line");
        let parsed = Json::parse(lines[0]).expect("escaped record parses");
        assert_eq!(parsed.get("name").unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn sinks_flush_buffered_output_on_drop() {
        use std::io::BufWriter;
        let buf = SharedBuf::new();
        {
            let rec = Recorder::new();
            let writer = BufWriter::with_capacity(1 << 16, buf.clone());
            rec.add_sink(Box::new(JsonlSink::new(writer)));
            rec.count("n", 1);
            // The record is still sitting in the BufWriter.
            assert_eq!(buf.contents(), "");
            // `rec` (and with it the sink) drops here without an explicit
            // flush — as a process exiting mid-run would.
        }
        let text = buf.contents();
        assert!(text.contains("counter"), "JsonlSink must flush on drop, got {text:?}");
        assert!(json::Json::parse(text.lines().next().unwrap()).is_ok());

        let buf = SharedBuf::new();
        {
            let rec = Recorder::new();
            rec.add_sink(Box::new(TextSink::new(BufWriter::with_capacity(1 << 16, buf.clone()))));
            rec.count("n", 2);
        }
        assert!(buf.contents().contains("n += 2"), "TextSink must flush on drop");
    }

    #[test]
    fn jsonl_sink_counts_failed_writes() {
        use std::io::{self, Write};

        /// A writer whose disk is always full.
        struct BrokenWriter;
        impl Write for BrokenWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let rec = Recorder::new();
        let sink = JsonlSink::new(BrokenWriter);
        let errors = sink.write_errors();
        rec.add_sink(Box::new(sink));
        assert_eq!(errors.get(), 0);
        rec.count("a", 1);
        rec.count("b", 1);
        rec.count("c", 1);
        // Every line fails and is counted — the handle outlives our
        // access to the sink itself.
        assert_eq!(errors.get(), 3, "failed lines must be counted, not swallowed");

        // A healthy sink stays at zero.
        let healthy = JsonlSink::new(SharedBuf::new());
        let clean = healthy.write_errors();
        let rec2 = Recorder::new();
        rec2.add_sink(Box::new(healthy));
        rec2.count("ok", 1);
        assert_eq!(clean.get(), 0);
    }

    #[test]
    fn text_sink_indents_by_depth() {
        let rec = Recorder::new();
        let buf = SharedBuf::new();
        rec.add_sink(Box::new(TextSink::new(buf.clone())));
        {
            let _a = rec.span("outer");
            let _b = rec.span("inner");
        }
        rec.flush();
        let text = buf.contents();
        assert!(text.contains("▸ outer"));
        assert!(text.contains("  ▸ inner"));
        assert!(text.contains("◂ outer"));
    }

    #[test]
    fn json_roundtrip() {
        let doc = Json::obj()
            .field("name", "9sym")
            .field("gates", 42u64)
            .field("rate", 0.257)
            .field("ok", true)
            .field("tags", Json::Arr(vec![Json::from("a"), Json::Null]))
            .field("nested", Json::obj().field("k", "v\nwith \"escapes\""));
        let text = doc.render();
        let back = Json::parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        assert_eq!(back.keys(), vec!["name", "gates", "rate", "ok", "tags", "nested"]);
        assert_eq!(back.get("gates").unwrap().as_f64(), Some(42.0));
        assert_eq!(back.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("tags").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("nope").is_err());
        let err = Json::parse("").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn json_parses_interchange_extras() {
        let doc = Json::parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u0041\\u00e9\" ] } ").unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("Aé"));
    }
}
