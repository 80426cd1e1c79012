//! Reporting helpers: gate histograms, DOT export, one-line summaries.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::graph::{Gate, Gate2, Netlist};

impl Netlist {
    /// Live gate counts per two-input gate type.
    pub fn gate_histogram(&self) -> HashMap<Gate2, usize> {
        let mut histogram = HashMap::new();
        for &s in &self.live_signals() {
            if let Gate::Binary(op, _, _) = self.gate(s) {
                *histogram.entry(*op).or_insert(0) += 1;
            }
        }
        histogram
    }

    /// Renders the live netlist as a Graphviz `digraph` (inputs as boxes,
    /// gates labelled by type, outputs as plaintext tags).
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        out.push_str("  rankdir=LR;\n");
        for &s in &self.live_signals() {
            match self.gate(s) {
                Gate::Input(n) => {
                    let _ = writeln!(out, "  n{s} [label=\"{n}\", shape=box];");
                }
                Gate::Const(v) => {
                    let _ = writeln!(out, "  n{s} [label=\"{}\", shape=box];", u8::from(*v));
                }
                Gate::Not(a) => {
                    let _ = writeln!(out, "  n{s} [label=\"not\", shape=invtriangle];");
                    let _ = writeln!(out, "  n{a} -> n{s};");
                }
                Gate::Binary(op, a, b) => {
                    let _ = writeln!(out, "  n{s} [label=\"{op}\", shape=ellipse];");
                    let _ = writeln!(out, "  n{a} -> n{s};");
                    let _ = writeln!(out, "  n{b} -> n{s};");
                }
            }
        }
        for (oname, s) in self.outputs() {
            let _ = writeln!(out, "  out_{oname} [label=\"{oname}\", shape=plaintext];");
            let _ = writeln!(out, "  n{s} -> out_{oname};");
        }
        out.push_str("}\n");
        out
    }

    /// One-line human-readable summary, e.g. for example binaries.
    pub fn summary(&self) -> String {
        let s = self.stats();
        format!(
            "{} in / {} out, {} gates ({} exor, {} inv), {} levels, area {}, delay {:.1}",
            s.inputs, s.outputs, s.gates, s.exors, s.inverters, s.cascades, s.area, s.delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(Gate2::And, a, b);
        let f = nl.add_gate(Gate2::Xor, ab, c);
        let g = nl.add_gate(Gate2::Nor, a, c);
        nl.add_output("f", f);
        nl.add_output("g", g);
        nl
    }

    #[test]
    fn histogram_counts_by_type() {
        let nl = sample();
        let h = nl.gate_histogram();
        assert_eq!(h.get(&Gate2::And), Some(&1));
        assert_eq!(h.get(&Gate2::Xor), Some(&1));
        assert_eq!(h.get(&Gate2::Nor), Some(&1));
        assert_eq!(h.get(&Gate2::Or), None);
        assert_eq!(h.values().sum::<usize>(), nl.stats().gates);
    }

    #[test]
    fn dot_mentions_everything() {
        let nl = sample();
        let dot = nl.to_dot("sample");
        assert!(dot.starts_with("digraph sample"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"xor\""));
        assert!(dot.contains("out_f"));
        assert!(dot.contains("out_g"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn summary_is_informative() {
        let nl = sample();
        let s = nl.summary();
        assert!(s.contains("3 in / 2 out"));
        assert!(s.contains("3 gates (1 exor"));
    }
}
