//! The SIS-substitute: two-level minimization plus AND/OR tree mapping.

use bdd::{Bdd, Func};
use bidecomp::{isfs_from_pla, signal_names};
use netlist::{Gate2, Netlist, SignalId};
use pla::Pla;

/// A cube as a sorted list of `(variable, polarity)` literals.
type LitCube = Vec<(u32, bool)>;

/// Decomposes a PLA into two-input AND/OR/NOT gates the way a classic
/// two-level flow does: per output, expand each on-set cube against the
/// off-set (don't-cares enlarge the expansion room), drop redundant
/// cubes, then map the cover with structural sharing. The on- and
/// off-sets are BI-DECOMP's own specification ([`isfs_from_pla`]), so
/// the overlaps of a PLA resolve the same way for both systems. No EXOR gates are
/// ever used. The mapping is area-oriented, as in the paper's SIS
/// configuration: products are small AND trees, but the OR plane is a
/// chain, so the gate count is minimal and no effort is spent on depth.
pub fn sis_like(pla: &Pla) -> Netlist {
    let mut mgr = Bdd::new(pla.num_inputs());
    let isfs = isfs_from_pla(&mut mgr, pla);
    let (input_names, output_names) = signal_names(pla);
    let mut nl = Netlist::new();
    let inputs: Vec<SignalId> = input_names.into_iter().map(|name| nl.add_input(name)).collect();
    for (out, (isf, name)) in isfs.iter().zip(output_names).enumerate() {
        let on: Vec<LitCube> = pla.on_cubes(out).map(|c| c.literals().collect()).collect();
        let cover = minimize_cover(&mut mgr, on, isf.q, isf.r);
        let signal = map_cover(&mut nl, &inputs, &cover);
        nl.add_output(name, signal);
    }
    nl
}

/// EXPAND + deduplicate + IRREDUNDANT (greedy, BDD-backed). `cubes`
/// cover the on-set `on_bdd`; `off_bdd` is disjoint from it, and the
/// rest is don't-care.
fn minimize_cover(mgr: &mut Bdd, cubes: Vec<LitCube>, on_bdd: Func, off_bdd: Func) -> Vec<LitCube> {
    // EXPAND: greedily raise literals while the cube avoids the off-set.
    let mut expanded: Vec<LitCube> = Vec::with_capacity(cubes.len());
    for cube in cubes {
        let mut kept = cube;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            let c = mgr.cover_function([&candidate]);
            if mgr.disjoint(c, off_bdd) {
                kept = candidate; // literal was removable
            } else {
                i += 1;
            }
        }
        kept.sort_unstable();
        expanded.push(kept);
    }
    // Deduplicate exactly (cheap), then drop cubes contained in another
    // cube (quadratic — capped, like espresso's effort limits).
    expanded.sort_unstable();
    expanded.dedup();
    expanded.sort_by_key(Vec::len);
    let primes: Vec<LitCube> = if expanded.len() <= CONTAINMENT_CAP {
        let mut primes: Vec<LitCube> = Vec::new();
        'next: for cube in expanded {
            for p in &primes {
                if p.iter().all(|lit| cube.contains(lit)) {
                    continue 'next; // cube ⊆ p
                }
            }
            primes.push(cube);
        }
        primes
    } else {
        expanded
    };
    // IRREDUNDANT: greedily drop cubes whose on-set points the rest
    // still cover (quadratic in cover size — capped as well). The
    // don't-cares lie outside the on-set, so they cover none of it.
    if primes.len() > IRREDUNDANT_CAP {
        return primes;
    }
    let mut keep = vec![true; primes.len()];
    for i in 0..primes.len() {
        keep[i] = false;
        let kept =
            mgr.cover_function(primes.iter().zip(&keep).filter(|&(_, &k)| k).map(|(c, _)| c));
        if !mgr.implies(on_bdd, kept) {
            keep[i] = true;
        }
    }
    primes.into_iter().zip(keep).filter_map(|(c, k)| k.then_some(c)).collect()
}

/// Effort cap for the quadratic containment pass.
const CONTAINMENT_CAP: usize = 4000;
/// Effort cap for the quadratic irredundant pass.
const IRREDUNDANT_CAP: usize = 1200;

/// Maps a cover into AND trees ORed together. Sorted literals and
/// structural hashing share common sub-products across cubes and outputs.
fn map_cover(nl: &mut Netlist, inputs: &[SignalId], cover: &[LitCube]) -> SignalId {
    if cover.is_empty() {
        return nl.constant(false);
    }
    if cover.iter().any(|c| c.is_empty()) {
        return nl.constant(true); // tautological cube
    }
    let products: Vec<SignalId> = cover
        .iter()
        .map(|cube| {
            let mut terms: Vec<SignalId> = cube
                .iter()
                .map(|&(v, pos)| {
                    let s = inputs[v as usize];
                    if pos {
                        s
                    } else {
                        nl.add_not(s)
                    }
                })
                .collect();
            balanced(nl, &mut terms, Gate2::And)
        })
        .collect();
    // Chain accumulation: the OR plane of a PLA, gate by gate.
    let mut acc = products[0];
    for &p in &products[1..] {
        acc = nl.add_gate(Gate2::Or, acc, p);
    }
    acc
}

fn balanced(nl: &mut Netlist, terms: &mut Vec<SignalId>, op: Gate2) -> SignalId {
    debug_assert!(!terms.is_empty());
    while terms.len() > 1 {
        let mut next = Vec::with_capacity(terms.len().div_ceil(2));
        for pair in terms.chunks(2) {
            next.push(if pair.len() == 2 { nl.add_gate(op, pair[0], pair[1]) } else { pair[0] });
        }
        *terms = next;
    }
    terms[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_implements(pla: &Pla, nl: &Netlist) {
        let n = pla.num_inputs();
        assert!(n <= 16, "exhaustive check limited");
        for m in 0..1u64 << n {
            let vals: Vec<bool> = (0..n).map(|k| m & (1 << k) != 0).collect();
            let got = nl.eval_all(&vals);
            for (out, &bit) in got.iter().enumerate() {
                if let Some(expected) = pla.eval(out, m) {
                    assert_eq!(bit, expected, "m={m:b} out={out}");
                }
            }
        }
    }

    #[test]
    fn simple_sop_maps_correctly() {
        let pla: Pla = ".i 4\n.o 1\n11-- 1\n--11 1\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        let s = nl.stats();
        assert_eq!(s.gates, 3);
        assert_eq!(s.exors, 0, "SIS-substitute never uses EXOR");
    }

    #[test]
    fn expansion_merges_minterms() {
        // Minterm PLA of f = a (4 minterms over 3 vars) must collapse to
        // the single literal.
        let pla: Pla = "\
.i 3
.o 1
100 1
101 1
110 1
111 1
.e
"
        .parse()
        .expect("valid");
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        assert_eq!(nl.stats().gates, 0, "f = a needs no gates");
    }

    #[test]
    fn dont_cares_enlarge_expansion() {
        // On: 11, dc: 10 → cube expands to just `a`.
        let pla: Pla = ".i 2\n.o 1\n11 1\n10 d\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        assert_eq!(nl.stats().gates, 0);
    }

    #[test]
    fn parity_has_no_exor_and_is_large() {
        // 4-input odd parity as minterms: SIS-substitute must build an
        // AND/OR cover (8 cubes × 4 literals), far bigger than the 3-XOR
        // netlist BI-DECOMP produces.
        let pla = benchmarks::pla_from_fn(4, 1, |m| u64::from(m.count_ones() % 2 == 1));
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        let s = nl.stats();
        assert_eq!(s.exors, 0);
        assert!(s.gates >= 10, "two-level parity is large, got {}", s.gates);
    }

    #[test]
    fn multi_output_shares_products() {
        // Both outputs contain the product a·b; structural hashing shares it.
        let pla: Pla = ".i 3\n.o 2\n11- 11\n--1 10\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        assert_eq!(nl.stats().gates, 2, "a·b shared, one OR");
    }

    #[test]
    fn redundant_cube_is_removed() {
        // Third cube is covered by the other two.
        let pla: Pla = ".i 3\n.o 1\n1-- 1\n-1- 1\n11- 1\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
        assert_eq!(nl.stats().gates, 1, "only OR(a, b) remains");
    }

    #[test]
    fn on_set_wins_where_a_dont_care_cube_overlaps_it() {
        // `111` is both on-set and don't-care; the on-set wins, so the
        // netlist must output 1 there.
        let pla: Pla = ".i 3\n.o 1\n111 1\n000 1\n111 d\n.e\n".parse().expect("valid");
        assert_eq!(pla.eval(0, 0b111), Some(true));
        let nl = sis_like(&pla);
        check_implements(&pla, &nl);
    }

    #[test]
    fn empty_and_tautological_outputs() {
        let pla: Pla = ".i 2\n.o 2\n-- 1-\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        assert_eq!(nl.eval_all(&[false, true]), vec![true, false]);
        assert_eq!(nl.stats().gates, 0);
    }
}
