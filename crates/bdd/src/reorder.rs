//! Variable ordering.
//!
//! The order is fixed once, on the empty manager ([`Bdd::set_order`]),
//! before any node is built; [`order_by_frequency`] provides the classic
//! static ordering heuristic (most frequently used variables near the
//! top). The decomposer applies the frequency order that way, before it
//! builds the specification BDDs. Dynamic reordering (BuDDy 1.9 had
//! sifting) is not implemented: BI-DECOMP did not invoke it.

use crate::manager::Bdd;
use crate::VarId;

impl Bdd {
    /// Adopts the variable order `level2var` (top to bottom) on a manager
    /// that holds no node yet.
    ///
    /// # Panics
    ///
    /// Panics if the manager already holds a node, or if `level2var` is
    /// not a permutation of `0..num_vars`.
    pub fn set_order(&mut self, level2var: &[VarId]) {
        assert_eq!(self.total_nodes(), 2, "set the order before building BDDs");
        let n = self.num_vars();
        assert_eq!(level2var.len(), n, "order must mention every variable once");
        let mut var2level = vec![u32::MAX; n];
        for (level, &v) in level2var.iter().enumerate() {
            assert!(
                (v as usize) < n && var2level[v as usize] == u32::MAX,
                "order must be a permutation of 0..{n}"
            );
            var2level[v as usize] = level as u32;
        }
        self.set_order_raw(var2level, level2var.to_vec());
    }
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
    use crate::Func;

    #[test]
    fn set_order_preserves_semantics() {
        let mut mgr = Bdd::new(4);
        mgr.set_order(&[3, 1, 2, 0]);
        assert_eq!(mgr.order(), &[3, 1, 2, 0]);
        assert_eq!((mgr.level_of_var(3), mgr.var_at_level(3)), (0, 0));
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let g = mgr.xor(a, d);
        assert_eq!(mgr.root_var(f), Some(3), "x3 sits on top");
        for bits in 0..16u32 {
            let vals = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0];
            assert_eq!(mgr.eval(f, &vals), (vals[0] && vals[1]) || (vals[2] && vals[3]));
            assert_eq!(mgr.eval(g, &vals), vals[0] ^ vals[3]);
        }
    }

    /// x0·y0 + … + x5·y5 built in a manager under `order`; returns its size.
    fn comparator_size(order: &[VarId]) -> usize {
        let n = 6;
        let mut mgr = Bdd::new(2 * n);
        mgr.set_order(order);
        let mut f = Func::ZERO;
        for i in 0..n as u32 {
            let x = mgr.var(i);
            let y = mgr.var(n as u32 + i);
            let t = mgr.and(x, y);
            f = mgr.or(f, t);
        }
        mgr.node_count(f)
    }

    #[test]
    fn interleaving_beats_bad_order_for_comparator() {
        // The classic example: linear under the interleaved order
        // x0 y0 x1 y1 …, exponential under the separated x0..x5 y0..y5.
        let separated: Vec<VarId> = (0..12).collect();
        let interleaved: Vec<VarId> = (0..6).flat_map(|i| [i, 6 + i]).collect();
        let (bad, good) = (comparator_size(&separated), comparator_size(&interleaved));
        assert!(good < bad, "interleaved ({good}) must beat separated ({bad})");
    }

    #[test]
    fn order_by_frequency_sorts_descending() {
        assert_eq!(order_by_frequency(&[0.5, 2.0, 1.0, 2.0]), vec![1, 3, 2, 0]);
        assert_eq!(order_by_frequency(&[]), Vec::<VarId>::new());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn set_order_rejects_non_permutation() {
        let mut mgr = Bdd::new(3);
        mgr.set_order(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "before building")]
    fn set_order_rejects_a_manager_that_holds_a_node() {
        let mut mgr = Bdd::new(3);
        let _ = mgr.var(1);
        mgr.set_order(&[2, 1, 0]);
    }
}
