//! **obs** — zero-dependency telemetry for the BI-DECOMP workspace.
//!
//! Every layer of the system (BDD manager, decomposer, netlist passes,
//! ATPG, bench harness) reports into this crate:
//!
//! * [`Recorder`] — a cheap-to-clone handle that opens RAII timing
//!   [`Span`]s. It carries spans only: every count lives in a typed stats
//!   struct of its layer.
//! * [`profile`] — where closed spans go: a [`ProfileSink`] keeps each
//!   one once, as its name, start and duration, and a [`Profile`] writes
//!   them as Chrome `trace_event` JSON.
//! * [`json`] — a hand-rolled JSON value (writer *and* parser) used for
//!   the machine-readable `BENCH_*.json` run reports.
//! * [`report`] — the shared rate/percentage formatting helpers.
//! * [`bench`](mod@bench) — a small micro-benchmark harness (criterion substitute).
//!
//! [`ProfileSink`]: profile::ProfileSink
//! [`Profile`]: profile::Profile
//!
//! Telemetry is strictly opt-in: a layer holding `Option<Recorder>` pays
//! one branch per span when disabled and allocates nothing.
//!
//! Run reports are built from counters, which repeat exactly from run to
//! run; the crate keeps no latency histograms or sampled time series.
//! The only clocks are span bounds, two `Instant`s per span. End-to-end
//! wall time is measured by the `bdbench` harness, with telemetry off.
//!
//! ```
//! use obs::profile::{Profile, ProfileSink};
//! use obs::Recorder;
//!
//! let rec = Recorder::new();
//! let sink = ProfileSink::new();
//! rec.add_sink(Box::new(sink.clone()));
//! {
//!     let _outer = rec.span("decompose");
//!     let _inner = rec.span("decompose.output");
//! }
//! let spans = sink.events();
//! assert_eq!(spans.len(), 2); // one record per span, kept when it closes
//! assert_eq!(spans[0].name, "decompose.output");
//! let trace = Profile::from_events(&spans).chrome_trace();
//! assert_eq!(trace.as_arr().unwrap()[0].get("name").unwrap().as_str(), Some("decompose"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod profile;
mod recorder;
pub mod report;

pub use recorder::{Recorder, Span};

#[cfg(test)]
mod tests {
    use crate::json::Json;

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
