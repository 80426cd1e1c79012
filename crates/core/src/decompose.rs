//! The recursive `BiDecompose` procedure — Fig. 7 of the paper — together
//! with the component-reuse cache of Section 6.

use std::collections::HashMap;

use bdd::{Bdd, Func, VarId, VarSet};
use netlist::{Gate2, Netlist, SignalId};

use crate::grouping::{self, Grouping};
use crate::trace::{Step, TraceEvent};
use crate::{derive, exor, GateChoice, Isf, Options, Stats};

/// A decomposed component: the completely specified function it realizes
/// (as a BDD) and the netlist signal computing it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Component {
    /// The CSF implemented by the netlist cone.
    pub func: Func,
    /// The driving signal in the decomposer's netlist.
    pub signal: SignalId,
}

/// Occupancy of the §6 component cache (one bucket of candidate
/// components per support set). Its hits are counted once, in
/// [`Stats::cache_hits`] and [`Stats::cache_hits_complement`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ComponentCacheStats {
    /// Distinct support sets with at least one cached component.
    pub support_sets: usize,
    /// Total cached components across all buckets.
    pub components: usize,
    /// Largest bucket (components sharing one support set).
    pub max_bucket: usize,
}

impl ComponentCacheStats {
    /// The stats as a JSON object (the `component_cache` part of the
    /// report's `analytics` section).
    pub fn to_json(&self) -> obs::json::Json {
        obs::json::Json::obj()
            .field("support_sets", self.support_sets)
            .field("components", self.components)
            .field("max_bucket", self.max_bucket)
    }
}

/// The bi-decomposition engine.
///
/// Owns the BDD manager and the netlist under construction. Typical use:
/// build the specification ISFs through [`manager`](Decomposer::manager),
/// call [`decompose`](Decomposer::decompose) per output, then take the
/// result with [`into_netlist`](Decomposer::into_netlist).
///
/// ```
/// use bidecomp::{Decomposer, Isf};
///
/// let mut dec = Decomposer::new(3, None);
/// let f = {
///     let mgr = dec.manager();
///     let a = mgr.var(0);
///     let b = mgr.var(1);
///     let c = mgr.var(2);
///     let ab = mgr.and(a, b);
///     mgr.or(ab, c)
/// };
/// let isf = Isf::from_csf(dec.manager(), f);
/// let comp = dec.decompose(isf);
/// dec.add_output("f", comp);
/// assert_eq!(dec.netlist().stats().gates, 2);
/// ```
pub struct Decomposer {
    mgr: Bdd,
    netlist: Netlist,
    inputs: Vec<SignalId>,
    cache: HashMap<VarSet, Vec<Component>>,
    stats: Stats,
    options: Options,
    trace: Option<Vec<TraceEvent>>,
    /// Run telemetry, `Some` when [`Options::telemetry`] is on: `[d]` =
    /// recursive calls entered at depth `d`.
    depth_hist: Option<Vec<u64>>,
    depth: usize,
}

impl std::fmt::Debug for Decomposer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Decomposer")
            .field("mgr", &self.mgr)
            .field("stats", &self.stats)
            .field("options", &self.options)
            .field("telemetry", &self.depth_hist.is_some())
            .finish_non_exhaustive()
    }
}

impl Decomposer {
    /// Creates a decomposer for functions of `num_vars` inputs with
    /// default [`Options`]. Input `k` is named after `input_names[k]`, or
    /// `x{k}` if no names are given.
    ///
    /// # Panics
    ///
    /// Panics if `input_names` is provided with the wrong length.
    pub fn new(num_vars: usize, input_names: Option<&[String]>) -> Self {
        Self::with_options(num_vars, input_names, Options::default())
    }

    /// Creates a decomposer with explicit [`Options`].
    ///
    /// # Panics
    ///
    /// Panics if `input_names` is provided with the wrong length.
    pub fn with_options(num_vars: usize, input_names: Option<&[String]>, options: Options) -> Self {
        if let Some(names) = input_names {
            assert_eq!(names.len(), num_vars, "one name per input required");
        }
        let mut netlist = Netlist::new();
        let inputs = (0..num_vars)
            .map(|k| match input_names {
                Some(names) => netlist.add_input(names[k].clone()),
                None => netlist.add_input(format!("x{k}")),
            })
            .collect();
        Decomposer {
            mgr: Bdd::new(num_vars),
            netlist,
            inputs,
            cache: HashMap::new(),
            stats: Stats::default(),
            options,
            trace: options.trace.then(Vec::new),
            depth_hist: options.telemetry.then(Vec::new),
            depth: 0,
        }
    }

    /// Recursive calls per depth (`[d]` = calls entered at depth `d`).
    /// Empty unless [`Options::telemetry`] is on.
    pub fn depth_histogram(&self) -> &[u64] {
        self.depth_hist.as_deref().unwrap_or(&[])
    }

    /// Deepest recursion level reached (0 when telemetry is off or no
    /// decomposition has run).
    pub fn max_depth(&self) -> usize {
        self.depth_histogram().len()
    }

    fn record(&mut self, step: Step) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::new(self.depth.saturating_sub(1), step));
        }
    }

    /// Takes the recorded decomposition trace (empty unless
    /// [`Options::trace`] is on). Subsequent calls start a fresh trace.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.trace {
            Some(trace) => std::mem::take(trace),
            None => Vec::new(),
        }
    }

    /// The BDD manager in which specification ISFs must be built.
    /// Manager variable `k` corresponds to netlist input `k`.
    pub fn manager(&mut self) -> &mut Bdd {
        &mut self.mgr
    }

    /// Applies a variable order to the (still empty) manager.
    ///
    /// # Panics
    ///
    /// Panics if any BDD node has already been built, or if `order` is not
    /// a permutation of the variables.
    pub fn set_variable_order(&mut self, order: &[VarId]) {
        self.mgr.set_order(order);
    }

    /// The netlist built so far.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Occupancy of the component cache (cheap: one pass over the
    /// bucket lengths).
    pub fn component_cache_stats(&self) -> ComponentCacheStats {
        ComponentCacheStats {
            support_sets: self.cache.len(),
            components: self.cache.values().map(Vec::len).sum(),
            max_bucket: self.cache.values().map(Vec::len).max().unwrap_or(0),
        }
    }

    /// Declares a named primary output driven by a decomposed component.
    pub fn add_output(&mut self, name: impl Into<String>, component: Component) {
        self.netlist.add_output(name, component.signal);
    }

    /// Consumes the decomposer, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Consumes the decomposer, returning netlist, statistics and manager
    /// (the manager still holds the component BDDs for verification).
    pub fn into_parts(self) -> (Netlist, Stats, Bdd) {
        (self.netlist, self.stats, self.mgr)
    }

    /// Garbage-collects the BDD manager, keeping the cached components and
    /// any `extra_roots` alive. Safe only between top-level
    /// [`decompose`](Decomposer::decompose) calls.
    pub fn gc(&mut self, extra_roots: &[Func]) -> usize {
        let mut protected: Vec<Func> = extra_roots.to_vec();
        for comps in self.cache.values() {
            protected.extend(comps.iter().map(|c| c.func));
        }
        for &f in &protected {
            self.mgr.protect(f);
        }
        let freed = self.mgr.gc();
        for &f in &protected {
            self.mgr.unprotect(f);
        }
        freed
    }

    /// Decomposes one ISF into two-input gates; returns the component
    /// realizing a compatible completely specified function.
    ///
    /// This is the paper's `BiDecompose` (Fig. 7). Idempotent across
    /// outputs: components are shared through the cache and through the
    /// netlist's structural hashing.
    pub fn decompose(&mut self, isf: Isf) -> Component {
        self.bidecompose(isf)
    }

    fn bidecompose(&mut self, isf_in: Isf) -> Component {
        self.stats.calls += 1;
        self.depth += 1;
        if let Some(hist) = &mut self.depth_hist {
            if hist.len() < self.depth {
                hist.resize(self.depth, 0);
            }
            hist[self.depth - 1] += 1;
        }
        // Cost attribution: only when *both* tracing (somewhere to put
        // the cost) and telemetry (the opt-in for measurement overhead)
        // are on; the disabled path pays these two `Option` tests and
        // nothing else.
        let probe = match (&self.trace, &self.depth_hist) {
            (Some(trace), Some(_)) => Some((
                trace.len(),
                std::time::Instant::now(),
                self.mgr.op_stats(),
                crate::check::theorem_checks(),
            )),
            _ => None,
        };
        let comp = self.bidecompose_inner(isf_in);
        if let Some((idx, start, ops_before, checks_before)) = probe {
            let ops = self.mgr.op_stats();
            let cost = crate::trace::CallCost {
                elapsed_ns: start.elapsed().as_nanos() as u64,
                nodes_allocated: ops.inserts - ops_before.inserts,
                cache_lookups: ops.cache_lookups - ops_before.cache_lookups,
                cache_hits: ops.cache_hits - ops_before.cache_hits,
                theorem_checks: crate::check::theorem_checks() - checks_before,
            };
            // Every call records exactly one event, and it is the first
            // one this call pushes — so `idx` is this call's event.
            if let Some(event) = self.trace.as_mut().and_then(|t| t.get_mut(idx)) {
                event.cost = Some(cost);
            }
        }
        self.depth -= 1;
        comp
    }

    fn bidecompose_inner(&mut self, isf_in: Isf) -> Component {
        // RemoveInessentialVariables (§7).
        let isf = if self.options.remove_inessential {
            let (isf, removed) = isf_in.remove_inessential(&mut self.mgr);
            if removed > 0 {
                self.stats.calls_with_inessential += 1;
                self.stats.inessential_removed += removed;
            }
            isf
        } else {
            isf_in
        };
        let support = isf.support(&self.mgr);
        // LookupCacheForACompatibleComponent (§6, Theorem 6).
        if self.options.use_cache {
            if let Some(hit) = self.cache_lookup(&isf, &support) {
                return hit;
            }
        }
        // Terminal case: two or fewer support variables. `find_gate` can
        // decline only when EXOR gates are disabled and the interval
        // contains nothing but XOR/XNOR — then the normal machinery below
        // (ultimately Shannon expansion) takes over.
        if support.len() <= 2 {
            if let Some((comp, leaf)) = self.find_gate(&isf, &support) {
                self.stats.terminal_cases += 1;
                if self.trace.is_some() {
                    self.record(Step::Terminal { desc: leaf.describe() });
                }
                self.cache_insert(comp);
                return comp;
            }
        }
        let comp = if self.options.use_strong {
            match grouping::best_grouping(&mut self.mgr, &isf, &support, self.options.use_exor) {
                Some((gate, grouping)) => self.decompose_strong(&isf, gate, &grouping),
                None => self.decompose_weak_or_shannon(&isf, &support),
            }
        } else {
            self.decompose_weak_or_shannon(&isf, &support)
        };
        debug_assert!(
            isf.contains(&mut self.mgr, comp.func),
            "decomposed component must be compatible with its ISF"
        );
        self.cache_insert(comp);
        comp
    }

    fn decompose_strong(&mut self, isf: &Isf, gate: GateChoice, grouping: &Grouping) -> Component {
        let (xa, xb) = (grouping.xa, grouping.xb);
        match gate {
            GateChoice::Or => {
                self.stats.strong_or += 1;
                self.record(Step::Strong { gate: GateChoice::Or, xa, xb });
                let isf_a = derive::or_component_a(&mut self.mgr, isf, &xa, &xb);
                let a = self.bidecompose(isf_a);
                let isf_b = derive::or_component_b(&mut self.mgr, isf, a.func, &xa);
                let b = self.bidecompose(isf_b);
                self.combine(Gate2::Or, a, b)
            }
            GateChoice::And => {
                self.stats.strong_and += 1;
                self.record(Step::Strong { gate: GateChoice::And, xa, xb });
                let isf_a = derive::and_component_a(&mut self.mgr, isf, &xa, &xb);
                let a = self.bidecompose(isf_a);
                let isf_b = derive::and_component_b(&mut self.mgr, isf, a.func, &xa);
                let b = self.bidecompose(isf_b);
                self.combine(Gate2::And, a, b)
            }
            GateChoice::Exor => {
                self.stats.strong_exor += 1;
                self.record(Step::Strong { gate: GateChoice::Exor, xa, xb });
                let comps = exor::check_exor_bidecomp(&mut self.mgr, isf, &xa, &xb)
                    .expect("grouping guarantees EXOR decomposability");
                let a = self.bidecompose(comps.a);
                let b = self.bidecompose(comps.b);
                self.combine(Gate2::Xor, a, b)
            }
        }
    }

    fn decompose_weak_or_shannon(&mut self, isf: &Isf, support: &VarSet) -> Component {
        if let Some((gate, xa)) = grouping::group_variables_weak(&mut self.mgr, isf, support) {
            self.stats.weak += 1;
            self.record(Step::Weak { gate, xa });
            match gate {
                GateChoice::Or => {
                    let isf_a = derive::weak_or_component_a(&mut self.mgr, isf, &xa);
                    let a = self.bidecompose(isf_a);
                    let isf_b = derive::weak_or_component_b(&mut self.mgr, isf, a.func, &xa);
                    let b = self.bidecompose(isf_b);
                    self.combine(Gate2::Or, a, b)
                }
                _ => {
                    let isf_a = derive::weak_and_component_a(&mut self.mgr, isf, &xa);
                    let a = self.bidecompose(isf_a);
                    let isf_b = derive::weak_and_component_b(&mut self.mgr, isf, a.func, &xa);
                    let b = self.bidecompose(isf_b);
                    self.combine(Gate2::And, a, b)
                }
            }
        } else {
            // Shannon fallback: F = x·F₁ + ¬x·F₀. The paper claims a weak
            // decomposition always exists; this branch keeps the algorithm
            // total even on adversarial intervals (e.g. parity-like ISFs
            // with EXOR disabled).
            self.stats.shannon += 1;
            let v = support.first().expect("support non-empty beyond terminal case");
            self.record(Step::Shannon { var: v });
            let isf1 = isf.cofactor(&mut self.mgr, v, true);
            let isf0 = isf.cofactor(&mut self.mgr, v, false);
            let c1 = self.bidecompose(isf1);
            let c0 = self.bidecompose(isf0);
            let x = self.mgr.var(v);
            let x_sig = self.inputs[v as usize];
            let hi_func = self.mgr.and(x, c1.func);
            let hi_sig = self.netlist.add_gate(Gate2::And, x_sig, c1.signal);
            let nx = self.mgr.not(x);
            let nx_sig = self.netlist.add_not(x_sig);
            let lo_func = self.mgr.and(nx, c0.func);
            let lo_sig = self.netlist.add_gate(Gate2::And, nx_sig, c0.signal);
            let func = self.mgr.or(hi_func, lo_func);
            let signal = self.netlist.add_gate(Gate2::Or, hi_sig, lo_sig);
            Component { func, signal }
        }
    }

    fn combine(&mut self, op: Gate2, a: Component, b: Component) -> Component {
        let func = match op {
            Gate2::Or => self.mgr.or(a.func, b.func),
            Gate2::And => self.mgr.and(a.func, b.func),
            Gate2::Xor => self.mgr.xor(a.func, b.func),
            _ => unreachable!("decomposition gates are AND/OR/XOR"),
        };
        let signal = self.netlist.add_gate(op, a.signal, b.signal);
        Component { func, signal }
    }

    fn cache_lookup(&mut self, isf: &Isf, support: &VarSet) -> Option<Component> {
        let candidates = self.cache.get(support)?.clone();
        for comp in candidates {
            if isf.contains(&mut self.mgr, comp.func) {
                self.stats.cache_hits += 1;
                self.record(Step::CacheHit { complemented: false });
                return Some(comp);
            }
            if isf.contains_complement(&mut self.mgr, comp.func) {
                self.stats.cache_hits_complement += 1;
                self.record(Step::CacheHit { complemented: true });
                let func = self.mgr.not(comp.func);
                let signal = self.netlist.add_not(comp.signal);
                return Some(Component { func, signal });
            }
        }
        None
    }

    fn cache_insert(&mut self, comp: Component) {
        if !self.options.use_cache {
            return;
        }
        let support = self.mgr.support(comp.func);
        let entry = self.cache.entry(support).or_default();
        if !entry.iter().any(|c| c.func == comp.func) {
            entry.push(comp);
        }
    }

    /// Terminal case (`FindGate` of Fig. 7): picks the cheapest constant,
    /// literal or single two-input gate compatible with an ISF of at most
    /// two support variables. Returns the chosen leaf with the component,
    /// so the caller formats its description only when tracing.
    ///
    /// Returns `None` only when [`Options::use_exor`] is off and the
    /// interval contains nothing but the two EXOR-family functions.
    fn find_gate(&mut self, isf: &Isf, support: &VarSet) -> Option<(Component, Leaf)> {
        debug_assert!(support.len() <= 2);
        let vars: Vec<VarId> = support.iter().collect();
        // Candidates in increasing cost order; with EXOR enabled the 16
        // two-variable functions are all reachable.
        let mut candidates: Vec<Leaf> = vec![Leaf::Const(false), Leaf::Const(true)];
        for &v in &vars {
            candidates.push(Leaf::Lit(v, true));
            candidates.push(Leaf::Lit(v, false));
        }
        if let [x, y] = vars[..] {
            for op in [Gate2::And, Gate2::Or] {
                for (px, py) in [(true, true), (true, false), (false, true), (false, false)] {
                    candidates.push(Leaf::Gate(op, (x, px), (y, py)));
                }
            }
            if self.options.use_exor {
                candidates.push(Leaf::Gate(Gate2::Xor, (x, true), (y, true)));
                candidates.push(Leaf::Gate(Gate2::Xnor, (x, true), (y, true)));
            }
        }
        for leaf in candidates {
            let func = leaf.func(&mut self.mgr);
            if isf.contains(&mut self.mgr, func) {
                let signal = leaf.signal(&mut self.netlist, &self.inputs);
                return Some((Component { func, signal }, leaf));
            }
        }
        None
    }
}

/// A terminal-case candidate.
#[derive(Clone, Copy, Debug)]
enum Leaf {
    Const(bool),
    Lit(VarId, bool),
    Gate(Gate2, (VarId, bool), (VarId, bool)),
}

impl Leaf {
    fn describe(&self) -> String {
        let lit = |v: VarId, pos: bool| if pos { format!("x{v}") } else { format!("¬x{v}") };
        match *self {
            Leaf::Const(v) => format!("const {}", u8::from(v)),
            Leaf::Lit(v, pos) => lit(v, pos),
            Leaf::Gate(op, (x, px), (y, py)) => {
                format!("{}({}, {})", op.name(), lit(x, px), lit(y, py))
            }
        }
    }

    fn func(self, mgr: &mut Bdd) -> Func {
        match self {
            Leaf::Const(v) => mgr.constant(v),
            Leaf::Lit(v, pos) => mgr.literal(v, pos),
            Leaf::Gate(op, (x, px), (y, py)) => {
                let fx = mgr.literal(x, px);
                let fy = mgr.literal(y, py);
                match op {
                    Gate2::And => mgr.and(fx, fy),
                    Gate2::Or => mgr.or(fx, fy),
                    Gate2::Xor => mgr.xor(fx, fy),
                    Gate2::Xnor => mgr.xnor(fx, fy),
                    Gate2::Nand => mgr.nand(fx, fy),
                    Gate2::Nor => mgr.nor(fx, fy),
                }
            }
        }
    }

    fn signal(self, nl: &mut Netlist, inputs: &[SignalId]) -> SignalId {
        let lit = |nl: &mut Netlist, v: VarId, pos: bool| {
            let s = inputs[v as usize];
            if pos {
                s
            } else {
                nl.add_not(s)
            }
        };
        match self {
            Leaf::Const(v) => nl.constant(v),
            Leaf::Lit(v, pos) => lit(nl, v, pos),
            Leaf::Gate(op, (x, px), (y, py)) => {
                let sx = lit(nl, x, px);
                let sy = lit(nl, y, py);
                nl.add_gate(op, sx, sy)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csf_isf(dec: &mut Decomposer, build: impl FnOnce(&mut Bdd) -> Func) -> Isf {
        let mgr = dec.manager();
        let f = build(mgr);
        Isf::from_csf(mgr, f)
    }

    /// Decomposes a CSF and verifies the netlist implements it exactly.
    fn roundtrip(num_vars: usize, build: impl FnOnce(&mut Bdd) -> Func) -> Decomposer {
        let mut dec = Decomposer::new(num_vars, None);
        let isf = csf_isf(&mut dec, build);
        let comp = dec.decompose(isf);
        assert_eq!(comp.func, isf.q, "CSF must be implemented exactly");
        dec.add_output("f", comp);
        // Cross-check the netlist against the BDD on every assignment.
        let bdds = dec.netlist.to_bdds(&mut dec.mgr);
        assert_eq!(bdds[0], isf.q, "netlist must compute the same function");
        dec
    }

    #[test]
    fn or_of_ands() {
        let dec = roundtrip(4, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let cd = mgr.and(c, d);
            mgr.or(ab, cd)
        });
        let stats = dec.netlist().stats();
        assert_eq!(stats.gates, 3, "optimal: two ANDs and one OR");
        assert_eq!(stats.exors, 0);
        assert_eq!(stats.cascades, 2);
    }

    #[test]
    fn parity_uses_exor_chain() {
        let dec = roundtrip(6, |mgr| {
            let mut f = Func::ZERO;
            for v in 0..6 {
                let x = mgr.var(v);
                f = mgr.xor(f, x);
            }
            f
        });
        let stats = dec.netlist().stats();
        assert_eq!(stats.gates, 5, "n-input parity needs n-1 gates");
        assert_eq!(stats.exors, 5, "and they are all EXORs");
        assert_eq!(stats.cascades, 3, "balanced tree, not a chain");
    }

    #[test]
    fn parity_without_exor_still_correct() {
        let mut dec =
            Decomposer::with_options(4, None, Options { use_exor: false, ..Options::default() });
        let isf = csf_isf(&mut dec, |mgr| {
            let mut f = Func::ZERO;
            for v in 0..4 {
                let x = mgr.var(v);
                f = mgr.xor(f, x);
            }
            f
        });
        let comp = dec.decompose(isf);
        assert_eq!(comp.func, isf.q);
        dec.add_output("f", comp);
        let stats = dec.netlist().stats();
        assert_eq!(stats.exors, 0, "EXOR disabled");
        assert!(stats.gates > 3, "AND/OR realization of parity is bigger");
    }

    #[test]
    fn majority_decomposes_via_weak() {
        let dec = roundtrip(3, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let ab = mgr.and(a, b);
            let ac = mgr.and(a, c);
            let bc = mgr.and(b, c);
            let t = mgr.or(ab, ac);
            mgr.or(t, bc)
        });
        assert!(dec.stats().weak > 0, "majority needs the weak path");
    }

    #[test]
    fn dont_cares_shrink_the_netlist() {
        // ISF: must be 1 on a·b·c, 0 on ¬a·¬b·¬c — a single literal fits.
        let mut dec = Decomposer::new(3, None);
        let isf = {
            let mgr = dec.manager();
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let ab = mgr.and(a, b);
            let abc = mgr.and(ab, c);
            let na = mgr.not(a);
            let nb = mgr.not(b);
            let nc = mgr.not(c);
            let nanb = mgr.and(na, nb);
            let none = mgr.and(nanb, nc);
            Isf::new(mgr, abc, none)
        };
        let comp = dec.decompose(isf);
        assert!(isf.contains(dec.manager(), comp.func));
        dec.add_output("f", comp);
        assert_eq!(dec.netlist().stats().gates, 0, "a literal suffices");
    }

    #[test]
    fn cache_shares_components_across_outputs() {
        // Two outputs sharing the subfunction a·b.
        let mut dec = Decomposer::new(4, None);
        let (isf1, isf2) = {
            let mgr = dec.manager();
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let f1 = mgr.or(ab, c);
            let f2 = mgr.or(ab, d);
            (Isf::from_csf(mgr, f1), Isf::from_csf(mgr, f2))
        };
        let c1 = dec.decompose(isf1);
        let c2 = dec.decompose(isf2);
        dec.add_output("f1", c1);
        dec.add_output("f2", c2);
        let stats = dec.netlist().stats();
        assert_eq!(stats.gates, 3, "a·b built once, two ORs");
    }

    #[test]
    fn complemented_cache_hits() {
        let mut dec = Decomposer::new(2, None);
        let (isf, nisf) = {
            let mgr = dec.manager();
            let a = mgr.var(0);
            let b = mgr.var(1);
            let f = mgr.and(a, b);
            let isf = Isf::from_csf(mgr, f);
            (isf, isf.complement())
        };
        let c1 = dec.decompose(isf);
        let c2 = dec.decompose(nisf);
        dec.add_output("f", c1);
        dec.add_output("nf", c2);
        // The complement is realized with an inverter on the shared gate
        // (cache hit) or a NAND leaf; either way at most 2 binary gates.
        assert!(dec.netlist().stats().gates <= 2);
        let expected = dec.manager().not(c1.func);
        assert_eq!(expected, c2.func);
    }

    #[test]
    fn find_gate_covers_all_two_var_functions() {
        // Exhaustive: every one of the 16 two-variable CSFs decomposes to
        // a compatible component with at most one binary gate.
        for truth in 0..16u32 {
            let mut dec = Decomposer::new(2, None);
            let isf = {
                let mgr = dec.manager();
                let mut f = Func::ZERO;
                for m in 0..4u32 {
                    if truth & (1 << m) != 0 {
                        let la = mgr.literal(0, m & 1 != 0);
                        let lb = mgr.literal(1, m & 2 != 0);
                        let cube = mgr.and(la, lb);
                        f = mgr.or(f, cube);
                    }
                }
                Isf::from_csf(mgr, f)
            };
            let comp = dec.decompose(isf);
            assert_eq!(comp.func, isf.q, "truth table {truth:04b}");
            dec.add_output("f", comp);
            assert!(dec.netlist().stats().gates <= 1, "truth {truth:04b}");
        }
    }

    #[test]
    fn gc_keeps_cache_alive() {
        let mut dec = Decomposer::new(4, None);
        let isf = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let ab = mgr.and(a, b);
            mgr.or(ab, c)
        });
        let comp = dec.decompose(isf);
        dec.gc(&[comp.func]);
        // The manager and cache must still be usable after collection.
        let isf2 = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            mgr.and(a, b)
        });
        let c2 = dec.decompose(isf2);
        assert!(dec.stats().cache_hits > 0, "a·b must come from the cache");
        dec.add_output("f", comp);
        dec.add_output("g", c2);
    }

    #[test]
    fn stats_track_strong_gates() {
        let dec = roundtrip(4, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let cd = mgr.and(c, d);
            mgr.or(ab, cd)
        });
        let s = dec.stats();
        assert!(s.strong_or >= 1);
        assert!(s.calls >= 3);
    }

    #[test]
    #[should_panic(expected = "one name per input")]
    fn wrong_name_count_panics() {
        let _ = Decomposer::new(2, Some(&["only".to_owned()]));
    }

    #[test]
    fn trace_records_the_decomposition_tree() {
        use crate::trace::{render_trace, Step};
        let mut dec =
            Decomposer::with_options(4, None, Options { trace: true, ..Options::default() });
        let isf = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let cd = mgr.and(c, d);
            mgr.or(ab, cd)
        });
        let _ = dec.decompose(isf);
        let trace = dec.take_trace();
        assert!(!trace.is_empty());
        // The root step is the strong OR split.
        assert!(matches!(&trace[0].step, Step::Strong { gate: GateChoice::Or, .. }));
        assert_eq!(trace[0].depth, 0);
        // Two terminal leaves at depth 1.
        let leaves: Vec<_> =
            trace.iter().filter(|e| matches!(e.step, Step::Terminal { .. })).collect();
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|e| e.depth == 1));
        let rendered = render_trace(&trace);
        assert!(rendered.contains("or"));
        assert!(rendered.contains("leaf and("), "{rendered}");
        // The trace resets after take_trace.
        assert!(dec.take_trace().is_empty());
    }

    #[test]
    fn telemetry_collects_recursion_shape() {
        let mut dec =
            Decomposer::with_options(4, None, Options { telemetry: true, ..Options::default() });
        let isf = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            let c = mgr.var(2);
            let d = mgr.var(3);
            let ab = mgr.and(a, b);
            let cd = mgr.and(c, d);
            mgr.or(ab, cd)
        });
        let comp = dec.decompose(isf);
        dec.add_output("f", comp);
        let hist = dec.depth_histogram();
        assert_eq!(hist[0], 1, "exactly one top-level call");
        assert!(dec.max_depth() >= 2, "the OR split recurses");
        assert_eq!(
            hist.iter().sum::<u64>(),
            dec.stats().calls as u64,
            "every recursive call lands in exactly one bucket"
        );
    }

    #[test]
    fn telemetry_off_collects_nothing() {
        let mut dec = Decomposer::new(3, None);
        let isf = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            mgr.and(a, b)
        });
        let _ = dec.decompose(isf);
        assert!(dec.depth_histogram().is_empty());
        assert_eq!(dec.max_depth(), 0);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut dec = Decomposer::new(2, None);
        let isf = csf_isf(&mut dec, |mgr| {
            let a = mgr.var(0);
            let b = mgr.var(1);
            mgr.and(a, b)
        });
        let _ = dec.decompose(isf);
        assert!(dec.take_trace().is_empty());
    }
}
