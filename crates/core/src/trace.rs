//! Decomposition tracing: a structured record of the recursion — the
//! paper's "decomposition tree" (`AddGateToDecompositionTree`), exposed
//! for inspection, debugging and documentation.
//!
//! Each [`TraceEvent`] carries a [`CallCost`]: per-call wall time, BDD
//! nodes allocated and theorem checks, captured as deltas on the
//! manager's counters whenever `Options::trace` is on. A trace has two
//! renderings, both from the one [`Step`] vocabulary: indented text for
//! people ([`render_trace`]) and JSON lines for tools
//! ([`TraceEvent::to_json`]). The [`tree`] submodule reconstructs the
//! decomposition tree from the flat event stream and rolls those costs up
//! inclusively/exclusively.

use std::fmt::{self, Write as _};

use bdd::{VarId, VarSet};
use netlist::Gate2;
use obs::json::Json;

use crate::GateChoice;

pub mod tree;

/// A terminal-case leaf (`FindGate` of Fig. 7): a constant, a literal or
/// one two-input gate over two literals. A literal is a variable and its
/// polarity (`true` = positive). Displays as `const 0`, `¬x1` or
/// `and(x0, ¬x1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Leaf {
    /// A constant function.
    Const(bool),
    /// A single literal.
    Lit(VarId, bool),
    /// One gate over two literals.
    Gate(Gate2, (VarId, bool), (VarId, bool)),
}

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn lit(f: &mut fmt::Formatter<'_>, v: VarId, pos: bool) -> fmt::Result {
            write!(f, "{}x{v}", if pos { "" } else { "¬" })
        }
        match *self {
            Leaf::Const(v) => write!(f, "const {}", u8::from(v)),
            Leaf::Lit(v, pos) => lit(f, v, pos),
            Leaf::Gate(op, (x, px), (y, py)) => {
                write!(f, "{}(", op.name())?;
                lit(f, x, px)?;
                f.write_str(", ")?;
                lit(f, y, py)?;
                f.write_str(")")
            }
        }
    }
}

/// What one recursive `BiDecompose` call did. Displays as one line of
/// [`render_trace`] (without the indentation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Resolved from the component cache (§6).
    CacheHit {
        /// Whether the cached component was used complemented.
        complemented: bool,
    },
    /// Terminal case: a constant, literal or single gate (`FindGate`).
    Terminal {
        /// The chosen leaf.
        leaf: Leaf,
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

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::CacheHit { complemented } => {
                write!(f, "cache hit{}", if *complemented { " (complemented)" } else { "" })
            }
            Step::Terminal { leaf } => write!(f, "leaf {leaf}"),
            Step::Strong { gate, xa, xb } => write!(f, "{gate:<3} XA={xa} XB={xb}"),
            Step::Weak { gate, xa } => write!(f, "weak {gate} XA={xa}"),
            Step::Shannon { var } => write!(f, "shannon x{var}"),
        }
    }
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
    /// Theorem checks evaluated (Theorems 1/2 and their duals).
    pub theorem_checks: u64,
}

impl CallCost {
    /// Component-wise saturating difference (used for exclusive costs,
    /// where timer jitter could otherwise underflow).
    pub fn saturating_sub(self, other: CallCost) -> CallCost {
        CallCost {
            elapsed_ns: self.elapsed_ns.saturating_sub(other.elapsed_ns),
            nodes_allocated: self.nodes_allocated.saturating_sub(other.nodes_allocated),
            theorem_checks: self.theorem_checks.saturating_sub(other.theorem_checks),
        }
    }

    /// The cost as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("elapsed_ns", self.elapsed_ns)
            .field("nodes_allocated", self.nodes_allocated)
            .field("theorem_checks", self.theorem_checks)
    }
}

/// One trace record: the recursion depth, the step taken, and the
/// measured cost of the call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Recursion depth of the `BiDecompose` call (0 = a top-level call).
    pub depth: usize,
    /// What the call did.
    pub step: Step,
    /// Inclusive cost of the call (its whole subtree).
    pub cost: CallCost,
}

impl TraceEvent {
    /// An event with a zero cost; the decomposer fills in the measured
    /// cost when the call returns.
    pub fn new(depth: usize, step: Step) -> Self {
        TraceEvent { depth, step, cost: CallCost::default() }
    }
    /// The event as a JSON object (one `stats --trace-out` line, before
    /// `stats` adds the benchmark's name).
    pub fn to_json(&self) -> Json {
        let base = Json::obj().field("depth", self.depth);
        let base = match &self.step {
            Step::CacheHit { complemented } => {
                base.field("step", "cache_hit").field("complemented", *complemented)
            }
            Step::Terminal { leaf } => {
                base.field("step", "terminal").field("leaf", leaf.to_string())
            }
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
        base.field("cost", self.cost.to_json())
    }
}

/// Renders a trace as an indented tree, one line per recursive call.
///
/// ```
/// use bidecomp::trace::{render_trace, Leaf, Step, TraceEvent};
/// use bidecomp::GateChoice;
/// use bdd::VarSet;
/// use netlist::Gate2;
///
/// let trace = vec![
///     TraceEvent::new(0, Step::Strong {
///         gate: GateChoice::Or,
///         xa: VarSet::from_iter([2u32, 3]),
///         xb: VarSet::from_iter([0u32, 1]),
///     }),
///     TraceEvent::new(1, Step::Terminal { leaf: Leaf::Gate(Gate2::And, (2, true), (3, true)) }),
///     TraceEvent::new(1, Step::Terminal { leaf: Leaf::Gate(Gate2::And, (0, true), (1, true)) }),
/// ];
/// let text = render_trace(&trace);
/// assert!(text.contains("or  XA={x2,x3} XB={x0,x1}"));
/// assert!(text.contains("\n  leaf and(x2, x3)\n"));
/// ```
pub fn render_trace(trace: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in trace {
        let _ = writeln!(out, "{:indent$}{}", "", event.step, indent = 2 * event.depth);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
            TraceEvent::new(1, Step::Terminal { leaf: Leaf::Lit(0, true) }),
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
    fn every_event_serializes_its_cost() {
        let mut ev = TraceEvent::new(0, Step::Shannon { var: 1 });
        ev.cost = CallCost { elapsed_ns: 5, nodes_allocated: 2, theorem_checks: 4 };
        let json = ev.to_json();
        let cost = json.get("cost").expect("cost object");
        assert_eq!(cost.get("elapsed_ns").and_then(Json::as_f64), Some(5.0));
        assert_eq!(cost.get("nodes_allocated").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cost.get("theorem_checks").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn call_cost_difference_saturates() {
        let a = CallCost { elapsed_ns: 10, nodes_allocated: 5, theorem_checks: 1 };
        let b = CallCost { elapsed_ns: 15, ..CallCost::default() };
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
            TraceEvent::new(
                1,
                Step::Terminal { leaf: Leaf::Gate(Gate2::And, (0, true), (1, false)) },
            ),
            TraceEvent::new(1, Step::CacheHit { complemented: true }),
            TraceEvent::new(2, Step::Shannon { var: 3 }),
        ];
        let lines: Vec<String> = trace.iter().map(|event| event.to_json().render()).collect();
        for (line, event) in lines.iter().zip(&trace) {
            assert!(!line.contains('\n'), "one record per line: {line}");
            let parsed = Json::parse(line).expect("rendered event must parse");
            assert_eq!(parsed.get("depth").and_then(Json::as_f64), Some(event.depth as f64));
        }
        // Spot-check the per-step payloads (including the non-ASCII leaf).
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("step").and_then(Json::as_str), Some("strong"));
        assert_eq!(first.get("gate").and_then(Json::as_str), Some("or"));
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("leaf").and_then(Json::as_str), Some("and(x0, ¬x1)"));
        let fourth = Json::parse(&lines[3]).unwrap();
        assert_eq!(fourth.get("var").and_then(Json::as_f64), Some(3.0));
    }
}
