//! The SIS-substitute: two-level minimization plus AND/OR tree mapping.

use bdd::{Bdd, Func};
use netlist::{Gate2, Netlist, SignalId};
use pla::Pla;

/// A cube as a sorted list of `(variable, polarity)` literals.
type LitCube = Vec<(u32, bool)>;

/// How the cover is mapped into two-input gates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MappingStyle {
    /// Area-oriented (the paper's SIS configuration): products are built
    /// as small AND trees but the OR plane is accumulated as a chain —
    /// the gate count is minimal and no effort is spent on depth.
    #[default]
    AreaOriented,
    /// Delay-idealized: both planes as perfectly balanced trees (the best
    /// depth any mapper could get from the same cover). Used as a
    /// sensitivity variant in EXPERIMENTS.md.
    Balanced,
}

/// Decomposes a PLA into two-input AND/OR/NOT gates the way a classic
/// two-level flow does: per output, expand each on-set cube against the
/// off-set (don't-cares enlarge the expansion room), drop redundant
/// cubes, then map the cover with structural sharing. No EXOR gates are
/// ever used. Uses the paper's area-oriented mapping style.
pub fn sis_like(pla: &Pla) -> Netlist {
    sis_like_with(pla, MappingStyle::AreaOriented)
}

/// [`sis_like`] with an explicit [`MappingStyle`].
pub fn sis_like_with(pla: &Pla, style: MappingStyle) -> Netlist {
    let n = pla.num_inputs();
    let mut mgr = Bdd::new(n);
    let mut nl = Netlist::new();
    let inputs: Vec<SignalId> = (0..n)
        .map(|k| {
            let name = pla.input_labels().map(|l| l[k].clone()).unwrap_or_else(|| format!("x{k}"));
            nl.add_input(name)
        })
        .collect();
    let output_names: Vec<String> = (0..pla.num_outputs())
        .map(|k| pla.output_labels().map(|l| l[k].clone()).unwrap_or_else(|| format!("y{k}")))
        .collect();

    for (out, output_name) in output_names.iter().enumerate() {
        let on: Vec<LitCube> = pla.on_cubes(out).map(|c| c.literals().collect()).collect();
        let on_bdd = mgr.cover_function(&on);
        let dc_bdd = mgr.cover_function(pla.dc_cubes(out).map(pla::Cube::literals));
        let covered = mgr.or(on_bdd, dc_bdd);
        let off_bdd = if pla.pla_type().rest_is_offset() {
            mgr.not(covered)
        } else {
            let explicit = mgr.cover_function(pla.off_cubes(out).map(pla::Cube::literals));
            mgr.diff(explicit, covered)
        };
        let cover = minimize_cover(&mut mgr, on, on_bdd, dc_bdd, off_bdd);
        let signal = map_cover(&mut nl, &inputs, &cover, style);
        nl.add_output(output_name.clone(), signal);
    }
    nl
}

/// EXPAND + deduplicate + IRREDUNDANT (greedy, BDD-backed).
fn minimize_cover(
    mgr: &mut Bdd,
    cubes: Vec<LitCube>,
    on_bdd: Func,
    dc_bdd: Func,
    off_bdd: Func,
) -> Vec<LitCube> {
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
    // IRREDUNDANT: greedily drop cubes covered by the rest plus
    // don't-cares (quadratic in cover size — capped as well).
    if primes.len() > IRREDUNDANT_CAP {
        return primes;
    }
    let care_target = mgr.diff(on_bdd, dc_bdd);
    let mut keep = vec![true; primes.len()];
    for i in 0..primes.len() {
        keep[i] = false;
        let kept =
            mgr.cover_function(primes.iter().zip(&keep).filter(|&(_, &k)| k).map(|(c, _)| c));
        let rest = mgr.or(dc_bdd, kept);
        if !mgr.implies(care_target, rest) {
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
fn map_cover(
    nl: &mut Netlist,
    inputs: &[SignalId],
    cover: &[LitCube],
    style: MappingStyle,
) -> SignalId {
    if cover.is_empty() {
        return nl.constant(false);
    }
    if cover.iter().any(|c| c.is_empty()) {
        return nl.constant(true); // tautological cube
    }
    let mut products: Vec<SignalId> = cover
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
    match style {
        MappingStyle::Balanced => balanced(nl, &mut products, Gate2::Or),
        MappingStyle::AreaOriented => {
            // Chain accumulation: the OR plane of a PLA, gate by gate.
            let mut acc = products[0];
            for &p in &products[1..] {
                acc = nl.add_gate(Gate2::Or, acc, p);
            }
            acc
        }
    }
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
    fn empty_and_tautological_outputs() {
        let pla: Pla = ".i 2\n.o 2\n-- 1-\n.e\n".parse().expect("valid");
        let nl = sis_like(&pla);
        assert_eq!(nl.eval_all(&[false, true]), vec![true, false]);
        assert_eq!(nl.stats().gates, 0);
    }
}
