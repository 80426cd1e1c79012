//! Enumeration-based decomposability oracles.
//!
//! These deciders answer "is the ISF `(Q, R)` bi-decomposable with variable
//! sets `(X_A, X_B)`?" by working directly from the *definition*
//! (existence of component functions), not from the paper's quantified
//! formulas — which makes them a fair referee for the BDD implementations
//! in the `bidecomp` crate.
//!
//! Variable sets are bitmasks over the table's variables. An ISF is a pair
//! of disjoint truth tables: on-set `Q`, off-set `R` (minterms in neither
//! are don't-cares).

use crate::TruthTable;

/// Checks the bitmask preconditions shared by all deciders.
///
/// # Panics
///
/// Panics if `q` and `r` overlap, have different arities, or the variable
/// sets overlap.
fn validate(q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) {
    assert_eq!(q.num_vars(), r.num_vars(), "Q and R must share a domain");
    assert!(q.disjoint(r), "on-set and off-set of an ISF must be disjoint");
    assert_eq!(xa & xb, 0, "X_A and X_B must be disjoint");
    let all = if q.num_vars() == 32 { u32::MAX } else { (1u32 << q.num_vars()) - 1 };
    assert_eq!(xa & !all, 0, "X_A mentions variables outside the domain");
    assert_eq!(xb & !all, 0, "X_B mentions variables outside the domain");
}

/// Is `(Q, R)` OR-bi-decomposable with sets `(X_A, X_B)` — i.e. does a
/// completion `F = A + B` exist with `A` independent of `X_B` and `B`
/// independent of `X_A`?
///
/// Decided via the maximal components: `A_max = ∀X_B ¬R` and
/// `B_max = ∀X_A ¬R` are the largest candidates not intersecting the
/// off-set, and a decomposition exists iff `Q ≤ A_max + B_max`.
///
/// # Panics
///
/// Panics on malformed inputs (see the crate docs): overlapping `Q`/`R`,
/// arity mismatch, overlapping variable sets.
pub fn or_bidecomposable(q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) -> bool {
    validate(q, r, xa, xb);
    let a_max = r.exists(xb).complement();
    let b_max = r.exists(xa).complement();
    q.implies(&a_max.or(&b_max))
}

/// Is `(Q, R)` AND-bi-decomposable with sets `(X_A, X_B)`?
///
/// Dual of [`or_bidecomposable`] (swap on-set and off-set).
///
/// # Panics
///
/// As [`or_bidecomposable`].
pub fn and_bidecomposable(q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) -> bool {
    or_bidecomposable(r, q, xa, xb)
}

/// Is `(Q, R)` EXOR-bi-decomposable with sets `(X_A, X_B)` — does a
/// completion `F = A ⊕ B` exist with `A` independent of `X_B` and `B`
/// independent of `X_A`?
///
/// Decided by two-colouring: for every assignment γ of the common
/// variables, the specified minterms connect `X_A`-assignments α and
/// `X_B`-assignments β with parity constraints `a(α,γ) ⊕ b(β,γ) = F(α,β,γ)`;
/// a decomposition exists iff no connected component carries an odd cycle.
///
/// # Panics
///
/// As [`or_bidecomposable`].
pub fn exor_bidecomposable(q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) -> bool {
    validate(q, r, xa, xb);
    let n = q.num_vars();
    let all = (1u32 << n) - 1;
    let xc = all & !(xa | xb);
    let positions =
        |mask: u32| -> Vec<u32> { (0..n as u32).filter(|v| mask & (1 << v) != 0).collect() };
    let (pa, pb, pc) = (positions(xa), positions(xb), positions(xc));
    let spread = |bits: u32, pos: &[u32]| -> u32 {
        pos.iter().enumerate().fold(0, |acc, (k, &p)| acc | (((bits >> k) & 1) << p))
    };
    let na = 1usize << pa.len();
    let nb = 1usize << pb.len();
    for gamma in 0..1u32 << pc.len() {
        let gbits = spread(gamma, &pc);
        // colour[i]: 0 = unassigned, 1 = value false, 2 = value true.
        // Nodes 0..na are the α side, na..na+nb the β side.
        let mut colour = vec![0u8; na + nb];
        for start in 0..na {
            if colour[start] != 0 {
                continue;
            }
            // Does this component touch any constraint at all?
            colour[start] = 1;
            let mut queue = vec![start];
            while let Some(node) = queue.pop() {
                let my = colour[node];
                debug_assert_ne!(my, 0);
                if node < na {
                    let abit = spread(node as u32, &pa);
                    for beta in 0..nb {
                        let m = abit | spread(beta as u32, &pb) | gbits;
                        let parity = if q.get(m) {
                            true
                        } else if r.get(m) {
                            false
                        } else {
                            continue;
                        };
                        // a ⊕ b = parity  ⇒  b = a ⊕ parity.
                        let want = if (my == 2) ^ parity { 2 } else { 1 };
                        let other = na + beta;
                        if colour[other] == 0 {
                            colour[other] = want;
                            queue.push(other);
                        } else if colour[other] != want {
                            return false;
                        }
                    }
                } else {
                    let beta = node - na;
                    let bbit = spread(beta as u32, &pb);
                    #[allow(clippy::needless_range_loop)]
                    for alpha in 0..na {
                        let m = spread(alpha as u32, &pa) | bbit | gbits;
                        let parity = if q.get(m) {
                            true
                        } else if r.get(m) {
                            false
                        } else {
                            continue;
                        };
                        let want = if (my == 2) ^ parity { 2 } else { 1 };
                        if colour[alpha] == 0 {
                            colour[alpha] = want;
                            queue.push(alpha);
                        } else if colour[alpha] != want {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Exhaustive referee for the referees: decides OR-bi-decomposability by
/// enumerating *every* pair of candidate components `(A, B)` and testing
/// the definition `Q ≤ A + B ≤ ¬R` directly. Doubly exponential; intended
/// for at most 3 variables outside each of `X_B` and `X_A`.
///
/// # Panics
///
/// Panics if either candidate space exceeds 2^8 functions, or on malformed
/// inputs as [`or_bidecomposable`].
pub fn or_bidecomposable_exhaustive(q: &TruthTable, r: &TruthTable, xa: u32, xb: u32) -> bool {
    validate(q, r, xa, xb);
    let n = q.num_vars();
    let free_a: Vec<u32> = (0..n as u32).filter(|v| xb & (1 << v) == 0).collect();
    let free_b: Vec<u32> = (0..n as u32).filter(|v| xa & (1 << v) == 0).collect();
    assert!(
        free_a.len() <= 3 && free_b.len() <= 3,
        "exhaustive oracle limited to |X_A ∪ X_C| ≤ 3 and |X_B ∪ X_C| ≤ 3"
    );
    let candidates = |free: &[u32]| -> Vec<TruthTable> {
        let slots = 1usize << free.len();
        (0..1u64 << slots)
            .map(|bits| {
                TruthTable::from_fn(n, |m| {
                    let idx = free
                        .iter()
                        .enumerate()
                        .fold(0usize, |acc, (k, &v)| acc | ((((m >> v) & 1) as usize) << k));
                    bits & (1 << idx) != 0
                })
            })
            .collect()
    };
    let not_r = r.complement();
    let bs = candidates(&free_b);
    for a in candidates(&free_a) {
        if !a.implies(&not_r) {
            continue;
        }
        for b in &bs {
            let f = a.or(b);
            if q.implies(&f) && f.implies(&not_r) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// The CSF of the paper's Fig. 3 (left): F = OR(a·b, c·d) with
    /// variables a,b (X_B) and c,d (X_A).
    fn fig3_left() -> (TruthTable, TruthTable) {
        let f = TruthTable::from_fn(4, |m| {
            let (a, b, c, d) = (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0);
            (a && b) || (c && d)
        });
        let r = f.complement();
        (f, r)
    }

    #[test]
    fn fig3_or_decomposable() {
        let (q, r) = fig3_left();
        // X_A = {c, d} = bits 2,3; X_B = {a, b} = bits 0,1.
        assert!(or_bidecomposable(&q, &r, 0b1100, 0b0011));
        // The same function is not AND-decomposable with those sets.
        assert!(!and_bidecomposable(&q, &r, 0b1100, 0b0011));
        // Mixing the sets breaks OR-decomposability.
        assert!(!or_bidecomposable(&q, &r, 0b0101, 0b1010));
    }

    #[test]
    fn fig3_with_dont_cares_still_decomposable() {
        // Fig. 3 (right): remove some minterms from both sets; the ISF
        // remains OR-decomposable with the same grouping.
        let (q, r) = fig3_left();
        let mut q2 = q.clone();
        q2.set(0b0011, false); // make a·b=1,c·d=0 minterm a don't-care
        let mut r2 = r.clone();
        r2.set(0b0100, false);
        assert!(or_bidecomposable(&q2, &r2, 0b1100, 0b0011));
    }

    #[test]
    fn xor_is_exor_decomposable_not_or() {
        let q = builders::parity(4);
        let r = q.complement();
        assert!(exor_bidecomposable(&q, &r, 0b0011, 0b1100));
        assert!(exor_bidecomposable(&q, &r, 0b0001, 0b0010));
        assert!(!or_bidecomposable(&q, &r, 0b0011, 0b1100));
        assert!(!and_bidecomposable(&q, &r, 0b0011, 0b1100));
    }

    #[test]
    fn and_function_is_and_decomposable() {
        let q = TruthTable::from_fn(4, |m| m & 0b0011 == 0b0011 && m & 0b1100 != 0);
        let r = q.complement();
        // F = (a·b)·(c+d): AND-decomposable with X_A={a,b}, X_B={c,d}.
        assert!(and_bidecomposable(&q, &r, 0b0011, 0b1100));
        assert!(!or_bidecomposable(&q, &r, 0b0011, 0b1100));
    }

    #[test]
    fn majority_is_not_strongly_decomposable() {
        // maj(a,b,c) has no strong OR/AND/EXOR bi-decomposition for any
        // single-variable split.
        let q = builders::majority(3);
        let r = q.complement();
        for xa in [0b001u32, 0b010, 0b100] {
            for xb in [0b001u32, 0b010, 0b100] {
                if xa & xb != 0 {
                    continue;
                }
                assert!(!or_bidecomposable(&q, &r, xa, xb), "{xa:03b}/{xb:03b}");
                assert!(!and_bidecomposable(&q, &r, xa, xb));
                assert!(!exor_bidecomposable(&q, &r, xa, xb));
            }
        }
    }

    #[test]
    fn dont_cares_enable_decomposition() {
        // Fully specified majority is undecomposable (above), but freeing
        // enough minterms makes it OR-decomposable.
        let maj = builders::majority(3);
        let q = TruthTable::from_fn(3, |m| maj.get(m) && m != 0b011);
        let r = TruthTable::from_fn(3, |m| !maj.get(m) && m != 0b100 && m != 0b010);
        assert!(or_bidecomposable(&q, &r, 0b001, 0b110));
    }

    #[test]
    fn exhaustive_agrees_with_fast_oracle() {
        // Cross-validate on a sweep of small random ISFs.
        for seed in 0..40u64 {
            let f = TruthTable::random(4, 0.5, seed);
            let care = TruthTable::random(4, 0.8, seed.wrapping_add(1000));
            let q = f.and(&care);
            let r = f.complement().and(&care);
            for (xa, xb) in [(0b0011u32, 0b1100u32), (0b0101, 0b1010), (0b0001, 0b1110)] {
                assert_eq!(
                    or_bidecomposable(&q, &r, xa, xb),
                    or_bidecomposable_exhaustive(&q, &r, xa, xb),
                    "seed {seed}, sets {xa:04b}/{xb:04b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn overlapping_sets_panic() {
        let q = builders::parity(3);
        let r = q.complement();
        let _ = or_bidecomposable(&q, &r, 0b011, 0b010);
    }

    #[test]
    #[should_panic(expected = "on-set and off-set")]
    fn overlapping_isf_panics() {
        let q = builders::parity(3);
        let _ = or_bidecomposable(&q, &q, 0b001, 0b010);
    }
}
