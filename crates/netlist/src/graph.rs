//! The gate graph, with structural hashing and constant folding.

use std::collections::HashMap;
use std::fmt;

/// Index of a signal (the output of a gate, an input, or a constant).
pub type SignalId = u32;

/// Two-input gate types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate2 {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Equivalence.
    Xnor,
}

impl Gate2 {
    /// Evaluates the gate on two bit-vectors of input values.
    #[inline]
    pub fn eval_words(self, a: u64, b: u64) -> u64 {
        match self {
            Gate2::And => a & b,
            Gate2::Or => a | b,
            Gate2::Xor => a ^ b,
            Gate2::Nand => !(a & b),
            Gate2::Nor => !(a | b),
            Gate2::Xnor => !(a ^ b),
        }
    }

    /// Evaluates the gate on two scalar values.
    pub fn eval(self, a: bool, b: bool) -> bool {
        self.eval_words(a as u64, b as u64) & 1 != 0
    }

    /// Is this one of the EXOR-family gates (XOR/XNOR)?
    pub fn is_exor(self) -> bool {
        matches!(self, Gate2::Xor | Gate2::Xnor)
    }

    /// The gate computing the complement of this gate.
    pub fn complement(self) -> Gate2 {
        match self {
            Gate2::And => Gate2::Nand,
            Gate2::Nand => Gate2::And,
            Gate2::Or => Gate2::Nor,
            Gate2::Nor => Gate2::Or,
            Gate2::Xor => Gate2::Xnor,
            Gate2::Xnor => Gate2::Xor,
        }
    }

    /// Lowercase name used in reports and BLIF comments.
    pub fn name(self) -> &'static str {
        match self {
            Gate2::And => "and",
            Gate2::Or => "or",
            Gate2::Xor => "xor",
            Gate2::Nand => "nand",
            Gate2::Nor => "nor",
            Gate2::Xnor => "xnor",
        }
    }
}

impl fmt::Display for Gate2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A node of the netlist DAG.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Primary input with its name.
    Input(String),
    /// Constant 0 or 1.
    Const(bool),
    /// Inverter.
    Not(SignalId),
    /// Two-input gate.
    Binary(Gate2, SignalId, SignalId),
}

/// A combinational network of two-input gates.
///
/// Gates are created through the `add_*` methods, which perform structural
/// hashing (identical gates share one node), constant folding, and local
/// simplifications (`x·x = x`, `x·¬x = 0`, double-negation elimination, …).
#[derive(Clone, Default)]
pub struct Netlist {
    nodes: Vec<Gate>,
    outputs: Vec<(String, SignalId)>,
    strash: HashMap<(Gate2, SignalId, SignalId), SignalId>,
    not_cache: HashMap<SignalId, SignalId>,
    consts: [Option<SignalId>; 2],
    inputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a primary input and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = self.push(Gate::Input(name.into()));
        self.inputs.push(id);
        id
    }

    /// The constant signal `value` (created on first use).
    pub fn constant(&mut self, value: bool) -> SignalId {
        if let Some(id) = self.consts[value as usize] {
            return id;
        }
        let id = self.push(Gate::Const(value));
        self.consts[value as usize] = Some(id);
        id
    }

    /// Adds (or reuses) an inverter on `a`.
    ///
    /// Double negations cancel and constants fold.
    pub fn add_not(&mut self, a: SignalId) -> SignalId {
        match self.nodes[a as usize] {
            Gate::Const(v) => return self.constant(!v),
            Gate::Not(inner) => return inner,
            _ => {}
        }
        if let Some(&id) = self.not_cache.get(&a) {
            return id;
        }
        let id = self.push(Gate::Not(a));
        self.not_cache.insert(a, id);
        self.not_cache.insert(id, a);
        id
    }

    /// Adds (or reuses) a two-input gate.
    ///
    /// Applies constant folding and the local identities
    /// `x∘x`, `x∘¬x` for every connective before hashing.
    pub fn add_gate(&mut self, op: Gate2, a: SignalId, b: SignalId) -> SignalId {
        // Constant folding.
        let const_of = |nl: &Self, s: SignalId| match nl.nodes[s as usize] {
            Gate::Const(v) => Some(v),
            _ => None,
        };
        if let (Some(va), Some(vb)) = (const_of(self, a), const_of(self, b)) {
            return self.constant(op.eval(va, vb));
        }
        if let Some(v) = const_of(self, a) {
            return self.fold_with_const(op, b, v);
        }
        if let Some(v) = const_of(self, b) {
            return self.fold_with_const(op, a, v);
        }
        // Idempotence / complement identities.
        let complement_pair = self.is_complement_pair(a, b);
        match op {
            Gate2::And if a == b => return a,
            Gate2::Or if a == b => return a,
            Gate2::Xor if a == b => return self.constant(false),
            Gate2::Xnor if a == b => return self.constant(true),
            Gate2::Nand if a == b => return self.add_not(a),
            Gate2::Nor if a == b => return self.add_not(a),
            Gate2::And if complement_pair => return self.constant(false),
            Gate2::Or if complement_pair => return self.constant(true),
            Gate2::Xor if complement_pair => return self.constant(true),
            Gate2::Xnor if complement_pair => return self.constant(false),
            Gate2::Nand if complement_pair => return self.constant(true),
            Gate2::Nor if complement_pair => return self.constant(false),
            _ => {}
        }
        // All our connectives are commutative: normalize operand order.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(op, a, b)) {
            return id;
        }
        let id = self.push(Gate::Binary(op, a, b));
        self.strash.insert((op, a, b), id);
        id
    }

    fn fold_with_const(&mut self, op: Gate2, x: SignalId, v: bool) -> SignalId {
        match (op, v) {
            (Gate2::And, true) => x,
            (Gate2::And, false) => self.constant(false),
            (Gate2::Or, false) => x,
            (Gate2::Or, true) => self.constant(true),
            (Gate2::Xor, false) => x,
            (Gate2::Xor, true) => self.add_not(x),
            (Gate2::Xnor, true) => x,
            (Gate2::Xnor, false) => self.add_not(x),
            (Gate2::Nand, true) => self.add_not(x),
            (Gate2::Nand, false) => self.constant(true),
            (Gate2::Nor, false) => self.add_not(x),
            (Gate2::Nor, true) => self.constant(false),
        }
    }

    fn is_complement_pair(&self, a: SignalId, b: SignalId) -> bool {
        matches!(self.nodes[a as usize], Gate::Not(x) if x == b)
            || matches!(self.nodes[b as usize], Gate::Not(x) if x == a)
    }

    /// Declares a named primary output driven by `signal`.
    pub fn add_output(&mut self, name: impl Into<String>, signal: SignalId) {
        self.outputs.push((name.into(), signal));
    }

    fn push(&mut self, gate: Gate) -> SignalId {
        let id = self.nodes.len() as SignalId;
        self.nodes.push(gate);
        id
    }

    /// All nodes, indexable by [`SignalId`]. Nodes appear in topological
    /// order (fanins precede fanouts) by construction.
    pub fn nodes(&self) -> &[Gate] {
        &self.nodes
    }

    /// The node driving `signal`.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is out of range.
    pub fn gate(&self, signal: SignalId) -> &Gate {
        &self.nodes[signal as usize]
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Named primary outputs in declaration order.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// The name of an input signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is not an input.
    pub fn input_name(&self, signal: SignalId) -> &str {
        match &self.nodes[signal as usize] {
            Gate::Input(name) => name,
            other => panic!("signal {signal} is not an input: {other:?}"),
        }
    }

    /// Signals actually reachable from the outputs (live logic), in
    /// topological order.
    pub fn live_signals(&self) -> Vec<SignalId> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<SignalId> = self.outputs.iter().map(|&(_, s)| s).collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut live[s as usize], true) {
                continue;
            }
            match self.nodes[s as usize] {
                Gate::Not(a) => stack.push(a),
                Gate::Binary(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => {}
            }
        }
        (0..self.nodes.len() as SignalId).filter(|&s| live[s as usize]).collect()
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Netlist")
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("gates", &stats.gates)
            .field("exors", &stats.exors)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_hashing_shares_gates() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(Gate2::And, a, b);
        let g2 = nl.add_gate(Gate2::And, b, a); // commuted
        assert_eq!(g1, g2);
        let n1 = nl.add_not(g1);
        let n2 = nl.add_not(g1);
        assert_eq!(n1, n2);
        assert_eq!(nl.add_not(n1), g1, "double negation cancels");
    }

    #[test]
    fn constant_folding() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.add_gate(Gate2::And, a, zero), zero);
        assert_eq!(nl.add_gate(Gate2::And, a, one), a);
        assert_eq!(nl.add_gate(Gate2::Or, a, one), one);
        assert_eq!(nl.add_gate(Gate2::Or, zero, a), a);
        assert_eq!(nl.add_gate(Gate2::Xor, a, zero), a);
        let na = nl.add_not(a);
        assert_eq!(nl.add_gate(Gate2::Xor, a, one), na);
        assert_eq!(nl.add_gate(Gate2::Nand, a, zero), one);
        assert_eq!(nl.add_gate(Gate2::Nor, a, zero), na);
        assert_eq!(nl.add_gate(Gate2::Xnor, one, a), a);
        let f = nl.add_gate(Gate2::And, one, zero);
        assert_eq!(f, zero);
        assert_eq!(nl.add_not(zero), one);
    }

    #[test]
    fn local_identities() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let na = nl.add_not(a);
        assert_eq!(nl.add_gate(Gate2::And, a, a), a);
        assert_eq!(nl.add_gate(Gate2::Or, a, a), a);
        let xaa = nl.add_gate(Gate2::Xor, a, a);
        assert!(matches!(nl.gate(xaa), Gate::Const(false)));
        let and_compl = nl.add_gate(Gate2::And, a, na);
        assert!(matches!(nl.gate(and_compl), Gate::Const(false)));
        let or_compl = nl.add_gate(Gate2::Or, na, a);
        assert!(matches!(nl.gate(or_compl), Gate::Const(true)));
        let xor_compl = nl.add_gate(Gate2::Xor, a, na);
        assert!(matches!(nl.gate(xor_compl), Gate::Const(true)));
        assert_eq!(nl.add_gate(Gate2::Nand, a, a), na);
    }

    #[test]
    fn gate2_eval_and_complement() {
        for op in [Gate2::And, Gate2::Or, Gate2::Xor, Gate2::Nand, Gate2::Nor, Gate2::Xnor] {
            for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(op.complement().eval(a, b), !op.eval(a, b), "{op} {a} {b}");
            }
        }
        assert!(Gate2::Xor.is_exor() && Gate2::Xnor.is_exor());
        assert!(!Gate2::And.is_exor());
    }

    #[test]
    fn live_signals_skip_dead_logic() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let keep = nl.add_gate(Gate2::And, a, b);
        let _dead = nl.add_gate(Gate2::Xor, a, b);
        nl.add_output("f", keep);
        let live = nl.live_signals();
        assert!(live.contains(&keep));
        assert!(!live.contains(&_dead));
        assert!(live.contains(&a) && live.contains(&b));
    }

    #[test]
    fn input_bookkeeping() {
        let mut nl = Netlist::new();
        let a = nl.add_input("alpha");
        assert_eq!(nl.input_name(a), "alpha");
        assert_eq!(nl.inputs(), &[a]);
        nl.add_output("out", a);
        assert_eq!(nl.outputs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "is not an input")]
    fn input_name_of_gate_panics() {
        let mut nl = Netlist::new();
        let a = nl.add_input("a");
        let na = nl.add_not(a);
        let _ = nl.input_name(na);
    }
}
