//! Microbenchmarks of the BDD substrate: the operators the decomposition
//! formulas lean on (apply, quantification, derivation of component ISFs)
//! and the cube-list build of the specification BDDs.

use bdd::{Bdd, Func, VarSet};
use obs::bench::Harness;
use std::hint::black_box;

fn sym9_bdd(mgr: &mut Bdd) -> Func {
    // 9sym built arithmetically: ones-count in 3..=6 via a chain of adders
    // is overkill; build from minterms of the symmetric structure instead.
    let minterms = (0..1u32 << 9).filter(|m| (3..=6).contains(&m.count_ones()));
    mgr.cover_function(minterms.map(|m| (0..9).map(move |v| (v, m & (1 << v) != 0))))
}

fn main() {
    let mut h = Harness::new("bdd").samples(20).warmup(3);

    {
        let mut mgr = Bdd::new(9);
        let f = sym9_bdd(&mut mgr);
        let g = mgr.not(f);
        h.bench("and_or_xor_sym9", || {
            mgr.clear_computed_cache();
            let x = mgr.and(black_box(f), black_box(g));
            let y = mgr.or(f, g);
            let z = mgr.xor(f, g);
            black_box((x, y, z))
        });
    }

    {
        let mut mgr = Bdd::new(9);
        let f = sym9_bdd(&mut mgr);
        let cube = mgr.cube(&VarSet::from_iter([0u32, 2, 4, 6]));
        h.bench("exists_forall_sym9", || {
            mgr.clear_computed_cache();
            let e = mgr.exists(black_box(f), cube);
            let a = mgr.forall(f, cube);
            black_box((e, a))
        });
    }

    {
        // The spec build of 16sym8: its 51,952 on-set minterms (ones-count
        // polarity 0000111101111110), each a 16-literal cube, into a fresh
        // manager.
        let polarity = b"0000111101111110";
        let minterms: Vec<Vec<(u32, bool)>> = (0..1u32 << 16)
            .filter(|m| polarity.get(m.count_ones() as usize) == Some(&b'1'))
            .map(|m| (0..16).map(|v| (v, m & (1 << v) != 0)).collect())
            .collect();
        h.bench("cover_sym16_minterms", || {
            let mut mgr = Bdd::new(16);
            black_box(mgr.cover_function(black_box(&minterms)))
        });
    }

    {
        // The Theorem 1 check on a decomposable structure.
        let mut mgr = Bdd::new(16);
        let mut f = Func::ZERO;
        for i in 0..4 {
            let mut t = Func::ONE;
            for v in 4 * i..4 * i + 4 {
                let x = mgr.var(v);
                t = mgr.and(t, x);
            }
            f = mgr.or(f, t);
        }
        let r = mgr.not(f);
        let ca = mgr.cube(&VarSet::from_iter(0u32..8));
        let cb = mgr.cube(&VarSet::from_iter(8u32..16));
        h.bench("theorem1_check", || {
            mgr.clear_computed_cache();
            let ra = mgr.exists(black_box(r), ca);
            let rb = mgr.exists(r, cb);
            let t = mgr.and(ra, rb);
            black_box(mgr.disjoint(f, t))
        });
    }
}
