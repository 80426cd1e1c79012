//! Decomposition tracing: a structured record of the recursion — the
//! paper's "decomposition tree" (`AddGateToDecompositionTree`), exposed
//! for inspection, debugging and documentation.
//!
//! Each [`TraceEvent`] optionally carries a [`CallCost`]: per-call wall
//! time, BDD nodes allocated, computed-cache traffic and theorem-check
//! counts, captured as deltas on the manager's counters when both
//! `Options::trace` and `Options::telemetry` are on. The [`tree`]
//! submodule reconstructs the decomposition tree from the flat event
//! stream and rolls those costs up inclusively/exclusively.

use std::fmt::Write as _;

use bdd::{VarId, VarSet};
use obs::json::Json;
use obs::Event;

use crate::GateChoice;

pub mod tree;

/// What one recursive `BiDecompose` call did.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Resolved from the component cache (§6).
    CacheHit {
        /// Whether the cached component was used complemented.
        complemented: bool,
    },
    /// Terminal case: a constant, literal or single gate (`FindGate`).
    Terminal {
        /// Human-readable description of the leaf (e.g. `and(x0, ¬x1)`).
        desc: String,
    },
    /// Strong bi-decomposition with the given gate and dedicated sets.
    Strong {
        /// The decomposition gate.
        gate: GateChoice,
        /// Variables dedicated to component A.
        xa: VarSet,
        /// Variables dedicated to component B.
        xb: VarSet,
    },
    /// Weak bi-decomposition (X_B empty).
    Weak {
        /// OR or AND.
        gate: GateChoice,
        /// The dedicated set of component A (a single variable in the
        /// paper's configuration).
        xa: VarSet,
    },
    /// Shannon-expansion safeguard on one variable.
    Shannon {
        /// The expanded variable.
        var: VarId,
    },
}

/// Measured cost of one recursive `BiDecompose` call, captured as deltas
/// on the manager's counters around the call. All figures are
/// *inclusive* (they cover the whole subtree rooted at the call); use
/// [`tree::DecompTree`] for exclusive (own-cost) figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CallCost {
    /// Wall-clock time of the call, nanoseconds.
    pub elapsed_ns: u64,
    /// BDD nodes constructed (fresh unique-table insertions).
    pub nodes_allocated: u64,
    /// Computed-cache lookups issued.
    pub cache_lookups: u64,
    /// Computed-cache hits among those lookups.
    pub cache_hits: u64,
    /// Theorem checks evaluated (Theorems 1/2 and weak-usefulness).
    pub theorem_checks: u64,
}

impl std::ops::Add for CallCost {
    type Output = CallCost;

    /// Component-wise sum.
    fn add(self, other: CallCost) -> CallCost {
        CallCost {
            elapsed_ns: self.elapsed_ns + other.elapsed_ns,
            nodes_allocated: self.nodes_allocated + other.nodes_allocated,
            cache_lookups: self.cache_lookups + other.cache_lookups,
            cache_hits: self.cache_hits + other.cache_hits,
            theorem_checks: self.theorem_checks + other.theorem_checks,
        }
    }
}

impl CallCost {
    /// Component-wise saturating difference (used for exclusive costs,
    /// where timer jitter could otherwise underflow).
    pub fn saturating_sub(self, other: CallCost) -> CallCost {
        CallCost {
            elapsed_ns: self.elapsed_ns.saturating_sub(other.elapsed_ns),
            nodes_allocated: self.nodes_allocated.saturating_sub(other.nodes_allocated),
            cache_lookups: self.cache_lookups.saturating_sub(other.cache_lookups),
            cache_hits: self.cache_hits.saturating_sub(other.cache_hits),
            theorem_checks: self.theorem_checks.saturating_sub(other.theorem_checks),
        }
    }

    /// The cost as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("elapsed_ns", self.elapsed_ns)
            .field("nodes_allocated", self.nodes_allocated)
            .field("cache_lookups", self.cache_lookups)
            .field("cache_hits", self.cache_hits)
            .field("theorem_checks", self.theorem_checks)
    }
}

/// One trace record: the recursion depth, the step taken, and (when
/// telemetry is on) the measured cost of the call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Recursion depth of the `BiDecompose` call (0 = a top-level call).
    pub depth: usize,
    /// What the call did.
    pub step: Step,
    /// Inclusive per-call cost; `None` unless both tracing and telemetry
    /// were enabled for the run.
    pub cost: Option<CallCost>,
}

impl TraceEvent {
    /// An event with no cost attribution (the plain-tracing shape).
    pub fn new(depth: usize, step: Step) -> Self {
        TraceEvent { depth, step, cost: None }
    }
    /// The event as a JSON object (the `fields` of its
    /// [`to_point`](TraceEvent::to_point) event).
    pub fn to_json(&self) -> Json {
        let base = Json::obj().field("depth", self.depth);
        let base = match &self.step {
            Step::CacheHit { complemented } => {
                base.field("step", "cache_hit").field("complemented", *complemented)
            }
            Step::Terminal { desc } => base.field("step", "terminal").field("leaf", desc.as_str()),
            Step::Strong { gate, xa, xb } => base
                .field("step", "strong")
                .field("gate", gate.name())
                .field("xa", xa.to_string())
                .field("xb", xb.to_string()),
            Step::Weak { gate, xa } => {
                base.field("step", "weak").field("gate", gate.name()).field("xa", xa.to_string())
            }
            Step::Shannon { var } => base.field("step", "shannon").field("var", *var as u64),
        };
        match &self.cost {
            Some(cost) => base.field("cost", cost.to_json()),
            None => base,
        }
    }

    /// The event wrapped as an [`obs::Event`] point, for streaming through
    /// any sink (`stats --trace-out` feeds these to an [`obs::JsonlSink`]).
    pub fn to_point(&self) -> Event {
        Event::Point { name: "trace".to_owned(), fields: self.to_json() }
    }
}

/// Renders a trace as an indented tree, one line per recursive call.
///
/// ```
/// use bidecomp::trace::{render_trace, Step, TraceEvent};
/// use bidecomp::GateChoice;
/// use bdd::VarSet;
///
/// let trace = vec![
///     TraceEvent::new(0, Step::Strong {
///         gate: GateChoice::Or,
///         xa: VarSet::from_iter([2u32, 3]),
///         xb: VarSet::from_iter([0u32, 1]),
///     }),
///     TraceEvent::new(1, Step::Terminal { desc: "and(x2, x3)".into() }),
///     TraceEvent::new(1, Step::Terminal { desc: "and(x0, x1)".into() }),
/// ];
/// let text = render_trace(&trace);
/// assert!(text.contains("or  XA={x2,x3} XB={x0,x1}"));
/// ```
pub fn render_trace(trace: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in trace {
        for _ in 0..event.depth {
            out.push_str("  ");
        }
        match &event.step {
            Step::CacheHit { complemented } => {
                let _ = writeln!(
                    out,
                    "cache hit{}",
                    if *complemented { " (complemented)" } else { "" }
                );
            }
            Step::Terminal { desc } => {
                let _ = writeln!(out, "leaf {desc}");
            }
            Step::Strong { gate, xa, xb } => {
                let _ = writeln!(out, "{gate:<3} XA={xa} XB={xb}");
            }
            Step::Weak { gate, xa } => {
                let _ = writeln!(out, "weak {gate} XA={xa}");
            }
            Step::Shannon { var } => {
                let _ = writeln!(out, "shannon x{var}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Sink as _;

    #[test]
    fn rendering_indents_by_depth() {
        let trace = vec![
            TraceEvent::new(
                0,
                Step::Strong {
                    gate: GateChoice::Exor,
                    xa: VarSet::singleton(0),
                    xb: VarSet::singleton(1),
                },
            ),
            TraceEvent::new(1, Step::Terminal { desc: "x0".into() }),
            TraceEvent::new(1, Step::CacheHit { complemented: true }),
        ];
        let text = render_trace(&trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("exor"));
        assert!(lines[1].starts_with("  leaf x0"));
        assert!(lines[2].contains("(complemented)"));
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(render_trace(&[]), "");
    }

    #[test]
    fn cost_attribution_serializes_only_when_present() {
        let mut ev = TraceEvent::new(0, Step::Shannon { var: 1 });
        assert!(ev.to_json().get("cost").is_none(), "no cost field without telemetry");
        ev.cost = Some(CallCost {
            elapsed_ns: 5,
            nodes_allocated: 2,
            cache_lookups: 3,
            cache_hits: 1,
            theorem_checks: 4,
        });
        let json = ev.to_json();
        let cost = json.get("cost").expect("cost object");
        assert_eq!(cost.get("elapsed_ns").and_then(Json::as_f64), Some(5.0));
        assert_eq!(cost.get("nodes_allocated").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cost.get("theorem_checks").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn call_cost_arithmetic_saturates() {
        let a = CallCost {
            elapsed_ns: 10,
            nodes_allocated: 5,
            cache_lookups: 8,
            cache_hits: 2,
            theorem_checks: 1,
        };
        let b = CallCost { elapsed_ns: 15, ..CallCost::default() };
        assert_eq!((a + b).elapsed_ns, 25);
        let d = a.saturating_sub(b);
        assert_eq!(d.elapsed_ns, 0, "timer jitter must not underflow");
        assert_eq!(d.nodes_allocated, 5);
    }

    #[test]
    fn trace_events_round_trip_through_jsonl() {
        let trace = vec![
            TraceEvent::new(
                0,
                Step::Strong {
                    gate: GateChoice::Or,
                    xa: VarSet::singleton(2),
                    xb: VarSet::singleton(0),
                },
            ),
            TraceEvent::new(1, Step::Terminal { desc: "and(x0, ¬x1)".into() }),
            TraceEvent::new(1, Step::CacheHit { complemented: true }),
            TraceEvent::new(2, Step::Shannon { var: 3 }),
        ];
        let buf = obs::SharedBuf::new();
        let mut sink = obs::JsonlSink::new(buf.clone());
        for event in &trace {
            sink.accept(&event.to_point());
        }
        assert_eq!(sink.write_errors().get(), 0);
        drop(sink);
        let contents = buf.contents();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 4);
        for (line, event) in lines.iter().zip(&trace) {
            let parsed = Json::parse(line).expect("sink output must parse");
            assert_eq!(parsed.get("type").and_then(Json::as_str), Some("point"));
            assert_eq!(parsed.get("name").and_then(Json::as_str), Some("trace"));
            let fields = parsed.get("fields").expect("payload");
            assert_eq!(fields.get("depth").and_then(Json::as_f64), Some(event.depth as f64));
        }
        // Spot-check the per-step payloads (including the non-ASCII leaf).
        let first = Json::parse(lines[0]).unwrap();
        let fields = first.get("fields").unwrap();
        assert_eq!(fields.get("step").and_then(Json::as_str), Some("strong"));
        assert_eq!(fields.get("gate").and_then(Json::as_str), Some("or"));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(
            second.get("fields").and_then(|f| f.get("leaf")).and_then(Json::as_str),
            Some("and(x0, ¬x1)")
        );
        let fourth = Json::parse(lines[3]).unwrap();
        assert_eq!(
            fourth.get("fields").and_then(|f| f.get("var")).and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
