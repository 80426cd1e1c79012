//! The BDS-substitute: BDD-driven, weak-only decomposition.
//!
//! §8 of the paper conjectures that BDS loses to BI-DECOMP because it
//! "applies only weak bi-decomposition (when one of the decomposed
//! functions can potentially depend on all input variables)". This
//! baseline realizes exactly that discipline: every split dedicates a
//! *single* variable — the BDD's top variable — using dominator-style
//! special cases (OR for a 1-child, AND for a 0-child, EXOR for
//! complemented children) and a multiplexer otherwise. The shared BDD DAG
//! gives the structural reuse BDS gets from its global BDD.

use std::collections::HashMap;

use bdd::{Bdd, Func};
use bidecomp::{isfs_from_pla, signal_names};
use netlist::{Gate2, Netlist, SignalId};
use pla::Pla;

/// Decomposes a PLA by mapping each output's BDD to gates, one top
/// variable at a time (weak-only splits). Don't-cares are assigned to 0
/// up front (BDS consumes completely specified functions): each output
/// is the on-set of BI-DECOMP's own specification ([`isfs_from_pla`]).
pub fn bds_like(pla: &Pla) -> Netlist {
    let mut mgr = Bdd::new(pla.num_inputs());
    let isfs = isfs_from_pla(&mut mgr, pla);
    let (input_names, output_names) = signal_names(pla);
    let mut nl = Netlist::new();
    let inputs: Vec<SignalId> = input_names.into_iter().map(|name| nl.add_input(name)).collect();
    let mut memo: HashMap<Func, SignalId> = HashMap::new();
    for (isf, name) in isfs.iter().zip(output_names) {
        let signal = map_node(&mut mgr, &mut nl, &inputs, isf.q, &mut memo);
        nl.add_output(name, signal);
    }
    nl
}

/// Maps one BDD node to gates, memoized on the node so the shared DAG
/// stays shared in the netlist.
fn map_node(
    mgr: &mut Bdd,
    nl: &mut Netlist,
    inputs: &[SignalId],
    f: Func,
    memo: &mut HashMap<Func, SignalId>,
) -> SignalId {
    if f.is_zero() {
        return nl.constant(false);
    }
    if f.is_one() {
        return nl.constant(true);
    }
    if let Some(&hit) = memo.get(&f) {
        return hit;
    }
    let v = mgr.root_var(f).expect("non-constant");
    let (low, high) = (mgr.low(f), mgr.high(f));
    let x = inputs[v as usize];
    let signal = if high.is_one() {
        // f = x + low  (1-dominator → weak OR split on x).
        let lo = map_node(mgr, nl, inputs, low, memo);
        nl.add_gate(Gate2::Or, x, lo)
    } else if high.is_zero() {
        // f = ¬x · low (0-dominator → weak AND split).
        let lo = map_node(mgr, nl, inputs, low, memo);
        let nx = nl.add_not(x);
        nl.add_gate(Gate2::And, nx, lo)
    } else if low.is_one() {
        // f = ¬x + high.
        let hi = map_node(mgr, nl, inputs, high, memo);
        let nx = nl.add_not(x);
        nl.add_gate(Gate2::Or, nx, hi)
    } else if low.is_zero() {
        // f = x · high.
        let hi = map_node(mgr, nl, inputs, high, memo);
        nl.add_gate(Gate2::And, x, hi)
    } else if mgr.not(high) == low {
        // f = x ⊕ low (x-dominator → weak EXOR split).
        let lo = map_node(mgr, nl, inputs, low, memo);
        nl.add_gate(Gate2::Xor, x, lo)
    } else {
        // General case: a multiplexer on x.
        let hi = map_node(mgr, nl, inputs, high, memo);
        let lo = map_node(mgr, nl, inputs, low, memo);
        let t = nl.add_gate(Gate2::And, x, hi);
        let nx = nl.add_not(x);
        let e = nl.add_gate(Gate2::And, nx, lo);
        nl.add_gate(Gate2::Or, t, e)
    };
    memo.insert(f, signal);
    signal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_implements(pla: &Pla, nl: &Netlist) {
        let n = pla.num_inputs();
        for m in 0..1u64 << n {
            let vals: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            let got = nl.eval_all(&vals);
            for (out, &bit) in got.iter().enumerate() {
                // BDS-substitute assigns don't-cares to 0.
                let expected = pla.eval(out, m).unwrap_or(false);
                assert_eq!(bit, expected, "m={m:b} out={out}");
            }
        }
    }

    #[test]
    fn simple_functions_map_correctly() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let nl = bds_like(&pla);
        check_implements(&pla, &nl);
    }

    #[test]
    fn parity_uses_xor_chain_via_x_dominators() {
        let pla = benchmarks::pla_from_fn(4, 1, |m| u64::from(m.count_ones() % 2 == 1));
        let nl = bds_like(&pla);
        check_implements(&pla, &nl);
        let s = nl.stats();
        assert_eq!(s.exors, 3, "BDD of parity is a pure x-dominator chain");
        assert_eq!(s.gates, 3);
        // But it is a *chain* — depth n-1, unlike BI-DECOMP's balanced tree.
        assert_eq!(s.cascades, 3);
    }

    #[test]
    fn shared_nodes_shared_gates() {
        // Two outputs equal except for a top variable share the sub-DAG.
        let pla: Pla = ".i 3\n.o 2\n-11 11\n1-- 10\n.e\n".parse().expect("valid");
        let nl = bds_like(&pla);
        check_implements(&pla, &nl);
        let alone: Pla = ".i 3\n.o 1\n-11 1\n1-- 1\n.e\n".parse().expect("valid");
        let nl1 = bds_like(&alone);
        assert!(
            nl.stats().gates < nl1.stats().gates + nl1.stats().gates,
            "outputs must share gates through the BDD DAG"
        );
    }

    #[test]
    fn loses_to_strong_decomposition_on_balanced_or() {
        // OR(a·b, c·d): BI-DECOMP finds the balanced strong split (3 gates,
        // 2 levels); the weak-only baseline also finds 3 gates here but in
        // a deeper chain shape on wider versions. Use the 6-input variant.
        let pla: Pla = ".i 6\n.o 1\n11---- 1\n--11-- 1\n----11 1\n.e\n".parse().expect("valid");
        let weak = bds_like(&pla);
        check_implements(&pla, &weak);
        let strong = bidecomp::decompose_pla(&pla, &bidecomp::Options::default());
        assert!(strong.verified);
        let (ws, ss) = (weak.stats(), strong.netlist.stats());
        assert!(
            ss.cascades <= ws.cascades,
            "strong decomposition must be at least as shallow: {} vs {}",
            ss.cascades,
            ws.cascades
        );
        assert!(ss.gates <= ws.gates);
    }

    #[test]
    fn constant_outputs() {
        let pla: Pla = ".i 2\n.o 2\n-- 1-\n.e\n".parse().expect("valid");
        let nl = bds_like(&pla);
        assert_eq!(nl.eval_all(&[true, false]), vec![true, false]);
        assert_eq!(nl.stats().gates, 0);
    }
}
