//! Variable reordering.
//!
//! The manager supports reordering by *rebuild*: a set of root functions is
//! transferred into a fresh node store under a new variable order
//! ([`Bdd::reorder`]). On top of that, [`order_by_frequency`] provides the
//! classic static ordering heuristic (most frequently used variables near
//! the top).
//!
//! The decomposer applies the frequency order once, to the empty manager,
//! before it builds the specification BDDs. Dynamic reordering (BuDDy 1.9
//! had sifting) is not implemented: BI-DECOMP did not invoke it.

use std::collections::HashMap;

use crate::hash::FxHashMap;
use crate::manager::{Bdd, Func};
use crate::VarId;

impl Bdd {
    /// Rebuilds `roots` under the variable order `level2var` (top to
    /// bottom) and adopts that order.
    ///
    /// Returns the remapped root handles, in the same order as `roots`.
    /// **All other handles become invalid**, protections are dropped, and
    /// the computed cache is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `level2var` is not a permutation of `0..num_vars`.
    pub fn reorder(&mut self, level2var: &[VarId], roots: &[Func]) -> Vec<Func> {
        let n = self.num_vars();
        assert_eq!(level2var.len(), n, "order must mention every variable once");
        let mut seen = vec![false; n];
        for &v in level2var {
            assert!(
                (v as usize) < n && !std::mem::replace(&mut seen[v as usize], true),
                "order must be a permutation of 0..{n}"
            );
        }
        let mut fresh = Bdd::new(n);
        fresh.take_cache_from(self);
        let order: Vec<VarId> = level2var.to_vec();
        fresh.set_order(&order);
        let mut memo: FxHashMap<u32, Func> = HashMap::default();
        let new_roots: Vec<Func> =
            roots.iter().map(|&r| transfer(self, &mut fresh, r, &mut memo)).collect();
        fresh.carry_instrumentation_from(self);
        *self = fresh;
        new_roots
    }

    fn set_order(&mut self, level2var: &[VarId]) {
        // Only callable on an empty manager (no nodes built yet).
        debug_assert_eq!(self.total_nodes(), 2);
        let mut var2level = vec![0u32; level2var.len()];
        for (level, &v) in level2var.iter().enumerate() {
            var2level[v as usize] = level as u32;
        }
        self.replace_order(var2level, level2var.to_vec());
    }

    pub(crate) fn replace_order(&mut self, var2level: Vec<u32>, level2var: Vec<VarId>) {
        self.set_order_raw(var2level, level2var);
    }
}

/// Transfers `f` from `src` into `dst` (which may use a different order).
fn transfer(src: &Bdd, dst: &mut Bdd, f: Func, memo: &mut FxHashMap<u32, Func>) -> Func {
    if f.is_const() {
        return f;
    }
    if let Some(&hit) = memo.get(&f.index()) {
        return hit;
    }
    let var = src.root_var(f).expect("non-constant");
    let low = transfer(src, dst, src.low(f), memo);
    let high = transfer(src, dst, src.high(f), memo);
    let x = dst.var(var);
    let result = dst.ite(x, high, low);
    memo.insert(f.index(), result);
    result
}

/// Static ordering heuristic: variables sorted by decreasing weight
/// (e.g. how often a variable appears in the cubes of a PLA — frequent
/// variables go near the top of the BDD).
///
/// Ties are broken by the original index, making the order deterministic.
///
/// ```
/// let order = bdd::reorder::order_by_frequency(&[1.0, 5.0, 3.0]);
/// assert_eq!(order, vec![1, 2, 0]);
/// ```
pub fn order_by_frequency(weights: &[f64]) -> Vec<VarId> {
    let mut idx: Vec<VarId> = (0..weights.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        weights[b as usize]
            .partial_cmp(&weights[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_keeps_recorder_and_counters() {
        let mut mgr = Bdd::new(3);
        let rec = obs::Recorder::new();
        mgr.set_recorder(Some(rec.clone()));
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let mk_before = mgr.op_stats().mk_calls;
        assert!(mk_before > 0);
        mgr.protect(f);
        let _ = mgr.gc();
        mgr.unprotect(f);
        assert_eq!(mgr.gc_runs(), 1);
        let new = mgr.reorder(&[2, 1, 0], &[f]);
        // The recorder, the lifetime GC count and the op counters all
        // survive the rebuild (the rebuild's own mk calls add on top).
        assert!(mgr.recorder().is_some());
        assert_eq!(mgr.gc_runs(), 1);
        assert_eq!(mgr.op_stats().gc_runs, 1);
        assert!(mgr.op_stats().mk_calls >= mk_before);
        mgr.emit_gauges();
        assert!(rec.gauge_value("bdd.total_nodes").is_some());
        assert!(mgr.eval(new[0], &[true, true, false]));
    }

    #[test]
    fn reorder_preserves_semantics() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let g = mgr.xor(a, d);
        let new = mgr.reorder(&[3, 1, 2, 0], &[f, g]);
        for bits in 0..16u32 {
            let vals = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0];
            let expect_f = (vals[0] && vals[1]) || (vals[2] && vals[3]);
            let expect_g = vals[0] ^ vals[3];
            assert_eq!(mgr.eval(new[0], &vals), expect_f);
            assert_eq!(mgr.eval(new[1], &vals), expect_g);
        }
        assert_eq!(mgr.order(), &[3, 1, 2, 0]);
    }

    #[test]
    fn interleaving_beats_bad_order_for_comparator() {
        // The classic example: x0·y0 + x1·y1 + x2·y2 is linear with the
        // interleaved order and exponential with the separated order.
        let n = 6; // 6 pairs = 12 vars
        let mut mgr = Bdd::new(2 * n);
        // Separated order: x0..x5 y0..y5 (identity).
        let mut f = Func::ZERO;
        for i in 0..n as u32 {
            let x = mgr.var(i);
            let y = mgr.var(n as u32 + i);
            let t = mgr.and(x, y);
            f = mgr.or(f, t);
        }
        let bad = mgr.node_count(f);
        // Interleaved order: x0 y0 x1 y1 ...
        let mut order = Vec::new();
        for i in 0..n as u32 {
            order.push(i);
            order.push(n as u32 + i);
        }
        let new = mgr.reorder(&order, &[f]);
        let good = mgr.node_count(new[0]);
        assert!(good < bad, "interleaved ({good}) must beat separated ({bad})");
    }

    #[test]
    fn order_by_frequency_sorts_descending() {
        assert_eq!(order_by_frequency(&[0.5, 2.0, 1.0, 2.0]), vec![1, 3, 2, 0]);
        assert_eq!(order_by_frequency(&[]), Vec::<VarId>::new());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn reorder_rejects_non_permutation() {
        let mut mgr = Bdd::new(3);
        let _ = mgr.reorder(&[0, 0, 1], &[]);
    }
}
