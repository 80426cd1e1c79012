//! The paper's area/delay cost model and netlist statistics.

use crate::graph::{Gate, Netlist};

// The cost model of §8 of the paper: "the ratio of area and delay of EXOR
// and NOR is assumed to be 5/2 and 2.1/1.0 respectively". Inverters are
// free (the paper counts only two-input gates; inverter polarity is
// assumed absorbed into NAND/NOR-style cells).

/// Area of an AND/OR/NAND/NOR gate.
const SIMPLE_AREA: f64 = 2.0;
/// Area of an XOR/XNOR gate.
const EXOR_AREA: f64 = 5.0;
/// Delay through an AND/OR/NAND/NOR gate.
const SIMPLE_DELAY: f64 = 1.0;
/// Delay through an XOR/XNOR gate.
const EXOR_DELAY: f64 = 2.1;

/// Summary statistics of a netlist — the columns of the paper's Table 2.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NetlistStats {
    /// Number of primary inputs ("ins").
    pub inputs: usize,
    /// Number of primary outputs ("outs").
    pub outputs: usize,
    /// Number of live two-input gates ("gates").
    pub gates: usize,
    /// Number of live EXOR-family gates ("exors").
    pub exors: usize,
    /// Number of live inverters (not counted in `gates`).
    pub inverters: usize,
    /// Number of logic levels counting two-input gates ("cascades").
    pub cascades: usize,
    /// Total area under the paper's cost model ("area").
    pub area: f64,
    /// Critical-path delay under the paper's cost model ("delay").
    pub delay: f64,
}

impl NetlistStats {
    /// The statistics as a JSON object (one Table 2 row, used by the bench
    /// report writer).
    pub fn to_json(&self) -> obs::json::Json {
        obs::json::Json::obj()
            .field("inputs", self.inputs as u64)
            .field("outputs", self.outputs as u64)
            .field("gates", self.gates as u64)
            .field("exors", self.exors as u64)
            .field("inverters", self.inverters as u64)
            .field("cascades", self.cascades as u64)
            .field("area", self.area)
            .field("delay", self.delay)
    }
}

impl Netlist {
    /// Statistics under the paper's cost model. Only logic reachable from
    /// the outputs is counted.
    pub fn stats(&self) -> NetlistStats {
        let live = self.live_signals();
        let mut stats = NetlistStats {
            inputs: self.inputs().len(),
            outputs: self.outputs().len(),
            ..Default::default()
        };
        // Per-signal (levels, delay) accumulated in topological order.
        let mut level = vec![0usize; self.nodes().len()];
        let mut arrival = vec![0f64; self.nodes().len()];
        for &s in &live {
            match *self.gate(s) {
                Gate::Input(_) | Gate::Const(_) => {}
                Gate::Not(a) => {
                    stats.inverters += 1;
                    level[s as usize] = level[a as usize];
                    arrival[s as usize] = arrival[a as usize];
                }
                Gate::Binary(op, a, b) => {
                    stats.gates += 1;
                    let (area, delay) = if op.is_exor() {
                        stats.exors += 1;
                        (EXOR_AREA, EXOR_DELAY)
                    } else {
                        (SIMPLE_AREA, SIMPLE_DELAY)
                    };
                    stats.area += area;
                    level[s as usize] = 1 + level[a as usize].max(level[b as usize]);
                    arrival[s as usize] = delay + arrival[a as usize].max(arrival[b as usize]);
                }
            }
        }
        for &(_, s) in self.outputs() {
            stats.cascades = stats.cascades.max(level[s as usize]);
            stats.delay = stats.delay.max(arrival[s as usize]);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Gate2;

    #[test]
    fn model_matches_paper_ratios() {
        // One gate of each kind between two inputs: EXOR/NOR area 5/2,
        // delay 2.1/1.0, and every simple gate costs the same.
        let gate = |op: Gate2| {
            let mut nl = Netlist::new();
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let g = nl.add_gate(op, a, b);
            nl.add_output("f", g);
            nl.stats()
        };
        let (xor, xnor, nor) = (gate(Gate2::Xor), gate(Gate2::Xnor), gate(Gate2::Nor));
        assert_eq!(xor.area / nor.area, 5.0 / 2.0);
        assert_eq!(xor.delay / nor.delay, 2.1);
        assert_eq!((xnor.area, xnor.delay), (xor.area, xor.delay));
        for op in [Gate2::And, Gate2::Or, Gate2::Nand] {
            assert_eq!((gate(op).area, gate(op).delay), (nor.area, nor.delay));
        }
    }

    #[test]
    fn stats_count_live_logic_only() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.add_gate(Gate2::And, a, b);
        let f = nl.add_gate(Gate2::Xor, ab, c);
        let _dead = nl.add_gate(Gate2::Or, a, c);
        nl.add_output("f", f);
        let s = nl.stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 2, "dead OR gate not counted");
        assert_eq!(s.exors, 1);
        assert_eq!(s.cascades, 2);
        assert_eq!(s.area, 2.0 + 5.0);
        assert!((s.delay - (1.0 + 2.1)).abs() < 1e-12);
    }

    #[test]
    fn inverters_are_free() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let na = nl.add_not(a);
        let f = nl.add_gate(Gate2::And, na, b);
        nl.add_output("f", f);
        let s = nl.stats();
        assert_eq!(s.inverters, 1);
        assert_eq!(s.gates, 1);
        assert_eq!(s.area, 2.0);
        assert_eq!(s.cascades, 1, "inverters do not add levels");
        assert_eq!(s.delay, 1.0, "nor delay");
    }

    #[test]
    fn delay_takes_worst_path() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let x1 = nl.add_gate(Gate2::Xor, a, b); // 2.1
        let x2 = nl.add_gate(Gate2::Xor, x1, c); // 4.2
        let cheap = nl.add_gate(Gate2::And, c, d); // 1.0
        nl.add_output("slow", x2);
        nl.add_output("fast", cheap);
        let s = nl.stats();
        assert!((s.delay - 4.2).abs() < 1e-12);
        assert_eq!(s.cascades, 2);
    }

    #[test]
    fn empty_netlist_stats() {
        let nl = Netlist::new();
        let s = nl.stats();
        assert_eq!(s.gates, 0);
        assert_eq!(s.delay, 0.0);
    }
}
