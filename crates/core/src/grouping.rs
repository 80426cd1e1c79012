//! Variable grouping — Section 5 of the paper (Figs. 5 and 6).
//!
//! Grouping proceeds in two steps: [`find_initial_grouping`] seeds
//! `X_A`/`X_B` with one variable each, then [`group_variables`] greedily
//! grows them, always trying the smaller set first so the final sets stay
//! balanced ("the closer their sizes are, the better" — balanced sets give
//! balanced netlists and short delay).
//!
//! The search is incremental: it gives the same verdict as checking every
//! candidate from scratch, for less work.
//! - OR/AND carry `∃X_A R` and `∃X_B R` (`Q` for AND) from candidate to
//!   candidate, so a candidate `z` costs one `∃z` of one side plus a
//!   non-allocating Theorem 1 test.
//! - EXOR answers all Theorem 2 pairs of a variable from one blocked set
//!   (one [`Bdd::essential_vars`] query on its derivative), and a pair
//!   from either of its variables' sets, since Theorem 2 is symmetric. It
//!   skips the Fig. 4 propagation when a pair test already rules the
//!   candidate out: EXOR decomposability with `(X_A ∪ {z}, X_B)` implies
//!   it for every pair `({z}, {y})`, `y ∈ X_B`. On a completely specified
//!   function the pair tests decide alone.
//!
//! [`best_grouping`] runs the three searches of Fig. 7 with a bound: a
//! search stops once the variables it can still add cannot make its
//! grouping beat the one an earlier search found, in the Fig. 5 pair scan
//! as in the Fig. 6 growth.

use bdd::{Bdd, Func, VarId, VarSet};

use crate::check;
use crate::exor;
use crate::{GateChoice, Isf};

/// A variable grouping: the dedicated input sets of components A and B.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grouping {
    /// Variables feeding only component A.
    pub xa: VarSet,
    /// Variables feeding only component B.
    pub xb: VarSet,
}

impl Grouping {
    /// Total number of dedicated variables.
    pub fn total(&self) -> usize {
        self.xa.len() + self.xb.len()
    }

    /// Size difference between the two sets (0 = perfectly balanced).
    pub fn imbalance(&self) -> usize {
        self.xa.len().abs_diff(self.xb.len())
    }

    fn pair(x: VarId, y: VarId) -> Self {
        Grouping { xa: VarSet::singleton(x), xb: VarSet::singleton(y) }
    }
}

/// The interval that Theorem 1 tests in its OR form: the ISF itself for
/// OR, its complement for AND.
fn theorem1_isf(isf: &Isf, gate: GateChoice) -> Isf {
    match gate {
        GateChoice::And => isf.complement(),
        _ => *isf,
    }
}

/// Fig. 5: finds singleton sets `({x}, {y})` for which the ISF is strongly
/// bi-decomposable with gate `gate`, or `None` if no pair works.
///
/// For EXOR the cheap Theorem 2 pair test is used instead of the full
/// Fig. 4 propagation.
pub fn find_initial_grouping(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    gate: GateChoice,
) -> Option<Grouping> {
    let vars: Vec<VarId> = support.iter().collect();
    match gate {
        GateChoice::Exor => {
            let mut pairs = PairTests::new(mgr, isf, &vars);
            let (i, j) = pairs.first_pair(mgr, isf, &vars, None)?;
            Some(Grouping::pair(vars[i], vars[j]))
        }
        _ => theorem1_initial(mgr, &theorem1_isf(isf, gate), &vars, None)
            .map(|(i, j, _, _)| Grouping::pair(vars[i], vars[j])),
    }
}

/// Fig. 6: grows the initial grouping greedily, trying to add each
/// remaining support variable to the smaller set first.
///
/// Returns `None` if the function has no strong bi-decomposition with
/// `gate` under any grouping.
pub fn group_variables(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    gate: GateChoice,
) -> Option<Grouping> {
    let vars: Vec<VarId> = support.iter().collect();
    search(mgr, isf, &vars, gate, None)
}

/// `FindBestVariableGrouping` of Fig. 7: the choice [`find_best_grouping`]
/// makes over the [`group_variables`] results for OR, AND and (if
/// `use_exor`) EXOR, with the later searches bounded by the earlier ones.
///
/// AND runs against OR's grouping, EXOR against the better of OR's and
/// AND's. A bounded search gives up as soon as its total plus the
/// candidates it has not rejected is below the incumbent's total, or
/// equal to it while the incumbent's imbalance is already `total % 2`. A
/// search that gives up could not have been picked, so the choice is the
/// unbounded one.
pub fn best_grouping(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    use_exor: bool,
) -> Option<(GateChoice, Grouping)> {
    let vars: Vec<VarId> = support.iter().collect();
    let or = search(mgr, isf, &vars, GateChoice::Or, None);
    let and = search(mgr, isf, &vars, GateChoice::And, or.as_ref());
    let best = find_best_grouping([
        (GateChoice::Or, or),
        (GateChoice::And, and),
        (GateChoice::Exor, None),
    ]);
    let exor = if use_exor {
        search(mgr, isf, &vars, GateChoice::Exor, best.map(|(_, g)| g).as_ref())
    } else {
        None
    };
    find_best_grouping([(GateChoice::Or, or), (GateChoice::And, and), (GateChoice::Exor, exor)])
}

/// Figs. 5–6 for one gate. With an `incumbent`, gives up (`None`) once
/// the grouping cannot beat it even if every candidate not yet rejected
/// joins it.
fn search(
    mgr: &mut Bdd,
    isf: &Isf,
    vars: &[VarId],
    gate: GateChoice,
    incumbent: Option<&Grouping>,
) -> Option<Grouping> {
    if !can_win(incumbent, vars.len()) {
        return None;
    }
    match gate {
        GateChoice::Exor => group_exor(mgr, isf, vars, incumbent),
        _ => group_theorem1(mgr, &theorem1_isf(isf, gate), vars, incumbent),
    }
}

/// Can a grouping of at most `reachable` variables still beat `incumbent`
/// in [`find_best_grouping`]? Later gates win only with a strictly larger
/// total, or the same total and a strictly smaller imbalance — and no
/// grouping of `t` variables is more balanced than `t % 2`.
///
/// At row `i` of a Fig. 5 pair scan, `reachable` is `n − i`: the rows
/// before `i` found no partner, and no grouping holds a variable without
/// one. Theorem 1 is monotone in the sets, and Fig. 6 adds an EXOR
/// candidate only after its Theorem 2 pair tests pass.
fn can_win(incumbent: Option<&Grouping>, reachable: usize) -> bool {
    incumbent.is_none_or(|b| {
        reachable > b.total() || (reachable == b.total() && b.imbalance() > reachable % 2)
    })
}

/// Does the smaller set (`X_A` on a tie) come first for the next
/// candidate? Keeps the grouping balanced.
fn a_first(grouping: &Grouping) -> bool {
    grouping.xa.len() <= grouping.xb.len()
}

/// Fig. 5 for Theorem 1: the positions `(i, j)` of the first pair with
/// `Q · ∃x R · ∃y R = 0`, with both quantified sides. With an
/// `incumbent`, gives up at the first row that cannot beat it
/// ([`can_win`]).
fn theorem1_initial(
    mgr: &mut Bdd,
    isf: &Isf,
    vars: &[VarId],
    incumbent: Option<&Grouping>,
) -> Option<(usize, usize, Func, Func)> {
    // Each variable's sides, built when the pair loop first reaches it.
    // The checks are symmetric in (X_A, X_B), so unordered pairs suffice
    // (the paper's double loop tests both orders; same outcome).
    let mut sides: Vec<(Func, Func)> = Vec::with_capacity(vars.len());
    for i in 0..vars.len() {
        if !can_win(incumbent, vars.len() - i) {
            return None;
        }
        for j in i + 1..vars.len() {
            while sides.len() <= j {
                let cube = mgr.cube(&VarSet::singleton(vars[sides.len()]));
                let ra = mgr.exists(isf.r, cube);
                let rb = check::quantify_b(mgr, isf.r, cube);
                sides.push((ra, rb));
            }
            let (ra, rb) = (sides[i].0, sides[j].1);
            if check::theorem1(mgr, isf.q, ra, rb) {
                return Some((i, j, ra, rb));
            }
        }
    }
    None
}

/// Fig. 6 for Theorem 1, carrying `∃X_A R` and `∃X_B R` across candidates.
///
/// The growth starts after the Fig. 5 row `i`: the rows before it found no
/// partner, and Theorem 1 is monotone in the sets, so they are rejected
/// without a test.
fn group_theorem1(
    mgr: &mut Bdd,
    isf: &Isf,
    vars: &[VarId],
    incumbent: Option<&Grouping>,
) -> Option<Grouping> {
    let (i, j, mut ra, mut rb) = theorem1_initial(mgr, isf, vars, incumbent)?;
    let mut grouping = Grouping::pair(vars[i], vars[j]);
    let mut rejected = i;
    for z in (i + 1..vars.len()).filter(|&k| k != j).map(|k| vars[k]) {
        let total = grouping.total();
        let cube = mgr.cube(&VarSet::singleton(z));
        let to_a_first = a_first(&grouping);
        for to_a in [to_a_first, !to_a_first] {
            if to_a {
                let ra_z = mgr.exists(ra, cube);
                if check::theorem1(mgr, isf.q, ra_z, rb) {
                    ra = ra_z;
                    grouping.xa.insert(z);
                    break;
                }
            } else {
                let rb_z = check::quantify_b(mgr, rb, cube);
                if check::theorem1(mgr, isf.q, ra, rb_z) {
                    rb = rb_z;
                    grouping.xb.insert(z);
                    break;
                }
            }
        }
        if grouping.total() == total {
            rejected += 1;
            if !can_win(incumbent, vars.len() - rejected) {
                return None;
            }
        }
    }
    Some(grouping)
}

/// Theorem 2 pair tests over one support. Each variable's blocked set —
/// the partners it fails Theorem 2 with — is built at most once, by one
/// [`check::theorem2_blocked`] query over the rest of the support, from
/// the care set `Q + R` built once here.
struct PairTests {
    support: VarSet,
    care: Func,
    blocked: Vec<Option<VarSet>>,
}

impl PairTests {
    fn new(mgr: &mut Bdd, isf: &Isf, vars: &[VarId]) -> Self {
        PairTests {
            support: vars.iter().copied().collect(),
            care: isf.care(mgr),
            blocked: vec![None; vars.len()],
        }
    }

    /// Is the ISF EXOR-decomposable with `({vars[k]}, {vars[m]})`?
    ///
    /// Theorem 2 is exact, so the test is symmetric: it reads whichever of
    /// the two blocked sets exists, and builds the one of `vars[k]` only
    /// when neither does.
    fn test(&mut self, mgr: &mut Bdd, isf: &Isf, vars: &[VarId], k: usize, m: usize) -> bool {
        let (k, m) =
            if self.blocked[k].is_none() && self.blocked[m].is_some() { (m, k) } else { (k, m) };
        let blocked = match self.blocked[k] {
            Some(b) => b,
            None => {
                let mut others = self.support;
                others.remove(vars[k]);
                let b = check::theorem2_blocked(mgr, isf, self.care, vars[k], &others);
                self.blocked[k] = Some(b);
                b
            }
        };
        check::theorem2(&blocked, vars[m])
    }

    /// Fig. 5 for EXOR: the positions of the first decomposable pair.
    /// With an `incumbent`, gives up at the first row that cannot beat it
    /// ([`can_win`]).
    fn first_pair(
        &mut self,
        mgr: &mut Bdd,
        isf: &Isf,
        vars: &[VarId],
        incumbent: Option<&Grouping>,
    ) -> Option<(usize, usize)> {
        for i in 0..vars.len() {
            if !can_win(incumbent, vars.len() - i) {
                return None;
            }
            for j in i + 1..vars.len() {
                if self.test(mgr, isf, vars, i, j) {
                    return Some((i, j));
                }
            }
        }
        None
    }
}

/// Fig. 6 for EXOR: each candidate runs the Fig. 4 check only after the
/// necessary Theorem 2 pair tests against the other set pass.
///
/// A pair test reads the member's blocked set unless the candidate's
/// already exists (a Fig. 5 row), so every later candidate reuses it.
/// On a completely specified function (`Q + R = 1`) the pair tests are
/// the whole check: every cross pair passing means all mixed second
/// derivatives `∂²f/∂a∂b` vanish, which is `f = A(X_A, X_C) ⊕ B(X_B, X_C)`.
/// With don't-cares the pairs can each pass while Fig. 4 still rejects.
///
/// As for Theorem 1, the growth starts after the Fig. 5 row `i`: the rows
/// before it failed every pair test, and Theorem 2 is symmetric.
fn group_exor(
    mgr: &mut Bdd,
    isf: &Isf,
    vars: &[VarId],
    incumbent: Option<&Grouping>,
) -> Option<Grouping> {
    let mut pairs = PairTests::new(mgr, isf, vars);
    let (i, j) = pairs.first_pair(mgr, isf, vars, incumbent)?;
    let completely_specified = pairs.care.is_one();
    let position = |y: VarId| vars.binary_search(&y).expect("members come from vars");
    let mut grouping = Grouping::pair(vars[i], vars[j]);
    let mut rejected = i;
    for k in (i + 1..vars.len()).filter(|&k| k != j) {
        let total = grouping.total();
        let zs = VarSet::singleton(vars[k]);
        let to_a_first = a_first(&grouping);
        for to_a in [to_a_first, !to_a_first] {
            let (xa, xb, other) = if to_a {
                (grouping.xa.union(&zs), grouping.xb, grouping.xb)
            } else {
                (grouping.xa, grouping.xb.union(&zs), grouping.xa)
            };
            if other.iter().all(|y| pairs.test(mgr, isf, vars, position(y), k))
                && (completely_specified || exor::exor_decomposable(mgr, isf, &xa, &xb))
            {
                grouping = Grouping { xa, xb };
                break;
            }
        }
        if grouping.total() == total {
            rejected += 1;
            if !can_win(incumbent, vars.len() - rejected) {
                return None;
            }
        }
    }
    Some(grouping)
}

/// `FindBestVariableGrouping` of Fig. 7: picks the best of the candidate
/// groupings found for OR, AND and EXOR.
///
/// The cost function follows §7: more included variables is better;
/// among equals, better balance is better. Ties prefer OR, then AND, then
/// EXOR (EXOR gates are the most expensive in the §8 cost model).
pub fn find_best_grouping(
    candidates: [(GateChoice, Option<Grouping>); 3],
) -> Option<(GateChoice, Grouping)> {
    let mut best: Option<(GateChoice, Grouping)> = None;
    for (gate, candidate) in candidates {
        let Some(g) = candidate else { continue };
        let better = match &best {
            None => true,
            Some((_, b)) => {
                g.total() > b.total() || (g.total() == b.total() && g.imbalance() < b.imbalance())
            }
        };
        if better {
            best = Some((gate, g));
        }
    }
    best
}

/// Weak variable grouping (§7): chooses the single dedicated variable
/// `X_A = {x}` and the gate (weak OR or weak AND) that move the most
/// on-/off-set minterms into component A's don't-care set.
///
/// Returns `None` when no weak decomposition is useful for any variable —
/// the caller must then fall back to Shannon expansion (the paper states
/// one of the weak forms always exists for non-trivial functions; the
/// fallback keeps the implementation total regardless).
pub fn group_variables_weak(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
) -> Option<(GateChoice, VarSet)> {
    let mut best: Option<(GateChoice, VarSet, f64)> = None;
    let (q_count, r_count) = (mgr.sat_count(isf.q), mgr.sat_count(isf.r));
    for x in support.iter() {
        let xs = VarSet::singleton(x);
        let cube = mgr.cube(&xs);
        // Weak OR gain: on-set minterms whose row has no off-set point.
        let er = mgr.exists(isf.r, cube);
        let qa = mgr.and(isf.q, er);
        let gain_or = q_count - mgr.sat_count(qa);
        if gain_or > 0.0 && best.as_ref().is_none_or(|&(_, _, g)| gain_or > g) {
            best = Some((GateChoice::Or, xs, gain_or));
        }
        // Weak AND gain: dual.
        let eq = mgr.exists(isf.q, cube);
        let ra = mgr.and(isf.r, eq);
        let gain_and = r_count - mgr.sat_count(ra);
        if gain_and > 0.0 && best.as_ref().is_none_or(|&(_, _, g)| gain_and > g) {
            best = Some((GateChoice::And, xs, gain_and));
        }
    }
    best.map(|(gate, xs, _)| (gate, xs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdd::Func;

    #[test]
    fn fig3_grouping_found() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        let g =
            group_variables(&mut mgr, &isf, &support, GateChoice::Or).expect("OR grouping exists");
        // The greedy growth must find the full balanced split {a,b}/{c,d}
        // (in some order).
        assert_eq!(g.total(), 4);
        assert_eq!(g.imbalance(), 0);
        let split_ok = (g.xa == VarSet::from_iter([0u32, 1])
            && g.xb == VarSet::from_iter([2u32, 3]))
            || (g.xa == VarSet::from_iter([2u32, 3]) && g.xb == VarSet::from_iter([0u32, 1]));
        assert!(split_ok, "got {:?}", g);
    }

    #[test]
    fn parity_grouping_is_exor_and_total() {
        let mut mgr = Bdd::new(6);
        let mut f = Func::ZERO;
        for v in 0..6 {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        assert!(group_variables(&mut mgr, &isf, &support, GateChoice::Or).is_none());
        assert!(group_variables(&mut mgr, &isf, &support, GateChoice::And).is_none());
        let g = group_variables(&mut mgr, &isf, &support, GateChoice::Exor)
            .expect("parity is EXOR-decomposable");
        assert_eq!(g.total(), 6, "every variable lands in a dedicated set");
        assert!(g.imbalance() <= 1);
    }

    #[test]
    fn majority_has_no_strong_grouping() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let ac = mgr.and(a, c);
        let bc = mgr.and(b, c);
        let t = mgr.or(ab, ac);
        let maj = mgr.or(t, bc);
        let isf = Isf::from_csf(&mut mgr, maj);
        let support = isf.support(&mgr);
        for gate in [GateChoice::Or, GateChoice::And, GateChoice::Exor] {
            assert!(find_initial_grouping(&mut mgr, &isf, &support, gate).is_none());
        }
        // But a weak grouping exists.
        assert!(group_variables_weak(&mut mgr, &isf, &support).is_some());
    }

    #[test]
    fn best_grouping_prefers_more_variables_then_balance() {
        let g22 = Grouping { xa: VarSet::from_iter([0u32, 1]), xb: VarSet::from_iter([2u32, 3]) };
        let g31 = Grouping { xa: VarSet::from_iter([0u32, 1, 2]), xb: VarSet::singleton(3) };
        let g21 = Grouping { xa: VarSet::from_iter([0u32, 1]), xb: VarSet::singleton(2) };
        // Same total: balance wins.
        let best = find_best_grouping([
            (GateChoice::Or, Some(g31)),
            (GateChoice::And, Some(g22)),
            (GateChoice::Exor, None),
        ])
        .expect("candidates exist");
        assert_eq!(best.0, GateChoice::And);
        assert_eq!(best.1, g22);
        // Larger total wins over balance.
        let best = find_best_grouping([
            (GateChoice::Or, Some(g21)),
            (GateChoice::And, None),
            (GateChoice::Exor, Some(g31)),
        ])
        .expect("candidates exist");
        assert_eq!(best.0, GateChoice::Exor);
        // No candidates → none.
        assert!(find_best_grouping([
            (GateChoice::Or, None),
            (GateChoice::And, None),
            (GateChoice::Exor, None),
        ])
        .is_none());
    }

    #[test]
    fn weak_grouping_picks_most_dont_cares() {
        // F = a·b + c. Quantifying a (or b) out of R leaves only rows with
        // an off-set point in the ¬c half-space, freeing 4 of the 5 on-set
        // minterms; quantifying c frees only 2. The weak grouping must
        // therefore pick X_A = {a} (the first maximal-gain variable).
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        let (gate, xa) = group_variables_weak(&mut mgr, &isf, &support).expect("useful");
        assert_eq!(gate, GateChoice::Or);
        assert_eq!(xa, VarSet::singleton(0));
        // Sanity: the gain of {a} beats the gain of {c}.
        let gain = |mgr: &mut Bdd, xs: &VarSet| {
            let cube = mgr.cube(xs);
            let er = mgr.exists(isf.r, cube);
            let qa = mgr.and(isf.q, er);
            mgr.sat_count(isf.q) - mgr.sat_count(qa)
        };
        let ga = gain(&mut mgr, &VarSet::singleton(0));
        let gc = gain(&mut mgr, &VarSet::singleton(2));
        assert!(ga > gc, "gain(a)={ga} must exceed gain(c)={gc}");
    }

    /// The from-scratch Figs. 5–6 loop the incremental search replaced:
    /// every candidate re-quantifies both sides, and EXOR runs the paper's
    /// Fig. 4 derivation on every candidate.
    fn group_from_scratch(
        mgr: &mut Bdd,
        isf: &Isf,
        support: &VarSet,
        gate: GateChoice,
    ) -> Option<Grouping> {
        let decomposable = |mgr: &mut Bdd, xa: &VarSet, xb: &VarSet| match gate {
            GateChoice::Or => check::or_decomposable(mgr, isf, xa, xb),
            GateChoice::And => check::and_decomposable(mgr, isf, xa, xb),
            GateChoice::Exor => exor::check_exor_bidecomp(mgr, isf, xa, xb).is_some(),
        };
        let vars: Vec<u32> = support.iter().collect();
        let mut initial = None;
        'pairs: for (i, &x) in vars.iter().enumerate() {
            for &y in &vars[i + 1..] {
                let ok = match gate {
                    GateChoice::Exor => check::exor_decomposable_pair(mgr, isf, x, y),
                    _ => decomposable(mgr, &VarSet::singleton(x), &VarSet::singleton(y)),
                };
                if ok {
                    initial = Some(Grouping::pair(x, y));
                    break 'pairs;
                }
            }
        }
        let mut grouping = initial?;
        let rest = support.difference(&grouping.xa.union(&grouping.xb));
        for z in rest.iter() {
            let zs = VarSet::singleton(z);
            let to_a_first = a_first(&grouping);
            for to_a in [to_a_first, !to_a_first] {
                let (xa, xb) = if to_a {
                    (grouping.xa.union(&zs), grouping.xb)
                } else {
                    (grouping.xa, grouping.xb.union(&zs))
                };
                if decomposable(mgr, &xa, &xb) {
                    grouping = Grouping { xa, xb };
                    break;
                }
            }
        }
        Some(grouping)
    }

    #[test]
    fn incremental_search_returns_the_from_scratch_grouping() {
        use boolfn::TruthTable;
        let n = 7;
        let (mut found, mut grown) = (0, 0);
        for seed in 0..120u64 {
            // Halves combined with the gate under test make strong
            // decompositions (and their growth) common; seed % 4 == 3 is
            // an unstructured function. From seed 90 on the functions are
            // completely specified, where the EXOR growth skips Fig. 4.
            let left = TruthTable::random(n, 0.5, seed).exists(0b1110000);
            let right = TruthTable::random(n, 0.5, seed ^ 0x5eed).exists(0b0001111);
            let f = match seed % 4 {
                0 => left.or(&right),
                1 => left.and(&right),
                2 => left.xor(&right),
                _ => TruthTable::random(n, 0.5, seed ^ 0xf),
            };
            let care = match seed {
                0..90 => TruthTable::random(n, 0.5 + 0.1 * (seed % 5) as f64, seed ^ 0xca4e),
                _ => TruthTable::ones(n),
            };
            let mut mgr = Bdd::new(n);
            let q = f.and(&care).to_bdd(&mut mgr);
            let r = f.complement().and(&care).to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let support = isf.support(&mgr);
            let mut unbounded =
                [(GateChoice::Or, None), (GateChoice::And, None), (GateChoice::Exor, None)];
            for (gate, result) in &mut unbounded {
                let gate = *gate;
                let want = group_from_scratch(&mut mgr, &isf, &support, gate);
                let got = group_variables(&mut mgr, &isf, &support, gate);
                assert_eq!(got, want, "seed {seed} gate {gate:?}");
                let initial = find_initial_grouping(&mut mgr, &isf, &support, gate);
                assert_eq!(initial.is_some(), want.is_some(), "seed {seed} gate {gate:?}");
                if let Some(g) = got {
                    found += 1;
                    grown += usize::from(g.total() > 2);
                }
                *result = got;
            }
            let want = find_best_grouping(unbounded);
            assert_eq!(best_grouping(&mut mgr, &isf, &support, true), want, "seed {seed}");
            unbounded[2].1 = None;
            let want = find_best_grouping(unbounded);
            assert_eq!(best_grouping(&mut mgr, &isf, &support, false), want, "seed {seed} no EXOR");
        }
        assert!(found >= 60 && grown >= 40, "sweep too easy: {found} found, {grown} grown");
    }

    /// The EXOR growth's shortcut: on a completely specified function,
    /// every cross pair passing Theorem 2 is the whole Fig. 4 verdict.
    #[test]
    fn cross_pairs_decide_exor_exactly_without_dont_cares() {
        use boolfn::{oracle, TruthTable};
        let n = 6;
        let (mut decomposable, mut not_decomposable, mut pairs_only) = (0, 0, 0);
        for seed in 0..200u64 {
            // Each variable lands in X_A, X_B or X_C, drawn from the seed.
            let draw = (seed ^ 0x5eed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
            let side = |v: u32| draw >> (2 * v) & 3;
            let xam = (0..n as u32).filter(|&v| side(v) == 0).fold(0, |m, v| m | 1 << v);
            let xbm = (0..n as u32).filter(|&v| side(v) == 1).fold(0, |m, v| m | 1 << v);
            if xam == 0 || xbm == 0 {
                continue;
            }
            let f = if seed % 2 == 0 {
                // A(X_A, X_C) ⊕ B(X_B, X_C), so that decompositions are common.
                let a = TruthTable::random(n, 0.5, seed).exists(xbm);
                let b = TruthTable::random(n, 0.5, seed ^ 0xb).exists(xam);
                a.xor(&b)
            } else {
                TruthTable::random(n, 0.5, seed)
            };
            let mask_set =
                |m: u32| -> VarSet { (0..n as u32).filter(|v| m & (1 << v) != 0).collect() };
            let (xa, xb) = (mask_set(xam), mask_set(xbm));
            // Completely specified first, then with don't-cares.
            for care in [
                TruthTable::ones(n),
                TruthTable::random(n, 0.3 + 0.1 * (seed % 5) as f64, seed ^ 0xca4e),
            ] {
                let (qt, rt) = (f.and(&care), f.complement().and(&care));
                let mut mgr = Bdd::new(n);
                let q = qt.to_bdd(&mut mgr);
                let r = rt.to_bdd(&mut mgr);
                let isf = Isf::new(&mut mgr, q, r);
                let pairs_pass = xa.iter().all(|a| {
                    xb.iter().all(|b| check::exor_decomposable_pair(&mut mgr, &isf, a, b))
                });
                let fig4 = exor::exor_decomposable(&mut mgr, &isf, &xa, &xb);
                let want = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);
                let what = format!("seed {seed} sets {xam:b}/{xbm:b}");
                assert_eq!(fig4, want, "Fig. 4, {what}");
                if care.is_one() {
                    assert_eq!(pairs_pass, want, "cross pairs, {what}");
                    decomposable += usize::from(want);
                    not_decomposable += usize::from(!want);
                } else {
                    assert!(pairs_pass || !want, "a decomposition passes its pairs, {what}");
                    pairs_only += usize::from(pairs_pass && !want);
                }
            }
        }
        assert!(decomposable >= 20 && not_decomposable >= 20, "{decomposable}/{not_decomposable}");
        assert!(pairs_only >= 1, "no ISF passed every cross pair yet failed Fig. 4");
    }

    #[test]
    fn weak_grouping_returns_none_for_parity() {
        let mut mgr = Bdd::new(4);
        let mut f = Func::ZERO;
        for v in 0..4 {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        assert!(group_variables_weak(&mut mgr, &isf, &support).is_none());
    }
}
