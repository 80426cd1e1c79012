//! Seeded property tests for the kernel-grade BDD manager.
//!
//! Two guarantees the kernel rework must not bend:
//!
//! * **Canonicity** — the intrusive unique table keeps the manager
//!   canonical (one node per distinct cofactor triple) across any
//!   interleaving of `mk`-heavy operator calls and mark-and-sweep GC
//!   (which freelists slots and rebuilds the bucket array), under any
//!   variable order. Checked by re-deriving every live root from its
//!   truth table: a canonical manager must hand back the identical
//!   handle.
//! * **Lossy-cache transparency** — the 4-way computed cache only
//!   memoizes; evictions change speed, never results. The same operator
//!   script replayed under a one-bucket cache, the default cache and a
//!   2^20-entry cache that never evicts must produce bit-identical handles
//!   at every step.
//!
//! These live in the fuzz crate because `bdd` cannot depend on `boolfn`
//! (the oracle layers depend on `bdd`).

use bdd::{Bdd, BinOp, Func, VarId};
use benchmarks::SplitMix64;
use boolfn::TruthTable;
use fuzz::oracle::tt_apply;

const OPS: [BinOp; 8] = [
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Nand,
    BinOp::Nor,
    BinOp::Xnor,
    BinOp::Diff,
    BinOp::Imp,
];

fn random_table(rng: &mut SplitMix64, n: usize) -> TruthTable {
    TruthTable::random(n, 0.2 + 0.6 * (rng.gen_range(7) as f64 / 10.0), rng.next_u64())
}

/// A canonical manager must return the *same handle* when a live function
/// is rebuilt from scratch — `to_bdd` bottoms out in `mk`, so any
/// duplicate or stale unique-table entry shows up as a second handle.
fn assert_canonical(mgr: &mut Bdd, pool: &[(Func, TruthTable)], what: &str) {
    for (k, (f, tt)) in pool.iter().enumerate() {
        let rebuilt = tt.to_bdd(mgr);
        assert_eq!(rebuilt, *f, "{what}: root {k} rebuilt to a different handle (canonicity lost)");
    }
}

#[test]
fn unique_table_stays_canonical_under_interleaved_mk_and_gc() {
    let mut rng = SplitMix64::new(0x5eed_cafe);
    for case in 0..12 {
        let n = 4 + rng.gen_range(4); // 4..=7
        let mut order: Vec<VarId> = (0..n as VarId).collect();
        rng.shuffle(&mut order);
        let mut mgr = Bdd::new(n);
        mgr.set_order(&order);
        let mut pool: Vec<(Func, TruthTable)> = (0..3)
            .map(|_| {
                let tt = random_table(&mut rng, n);
                let f = tt.to_bdd(&mut mgr);
                mgr.protect(f);
                (f, tt)
            })
            .collect();
        for step in 0..40 {
            match rng.gen_range(8) {
                // GC: freelists dead slots, compacts the bucket array.
                6 | 7 => {
                    mgr.gc();
                    let what = format!("case {case} step {step} post-gc under {order:?}");
                    assert_canonical(&mut mgr, &pool, &what);
                }
                // mk-heavy path: a random binary operator over the pool,
                // cross-checked against the enumeration oracle.
                _ => {
                    let op = OPS[rng.gen_range(OPS.len())];
                    let i = rng.gen_range(pool.len());
                    let j = rng.gen_range(pool.len());
                    let f = mgr.apply(op, pool[i].0, pool[j].0);
                    let tt = tt_apply(op, &pool[i].1, &pool[j].1);
                    assert_eq!(
                        TruthTable::from_bdd(&mgr, f, n),
                        tt,
                        "case {case} step {step}: {op:?} disagrees with the oracle"
                    );
                    mgr.protect(f);
                    pool.push((f, tt));
                }
            }
        }
        assert_canonical(&mut mgr, &pool, &format!("case {case} final"));
    }
}

/// Replays one seeded operator script on managers that differ only in
/// computed-cache configuration, or that clear the cache after every step,
/// and asserts bit-identical handles.
///
/// Handle identity (not just semantic equality) is the strong form: a
/// cache that influenced *allocation order* would renumber nodes even if
/// every function stayed correct.
#[test]
fn computed_cache_size_never_changes_results() {
    let mut rng = SplitMix64::new(0xd1ff_5eed);
    for case in 0..10 {
        let n = 4 + rng.gen_range(4); // 4..=7
        let mut tiny = Bdd::new(n);
        tiny.set_cache_capacity(1); // one 4-way bucket: constant eviction
        let mut default = Bdd::new(n);
        let mut huge = Bdd::new(n);
        huge.set_cache_capacity(1 << 20); // large enough never to evict
        let mut cleared = Bdd::new(n); // default size, cleared after every step
        let mut managers = [&mut tiny, &mut default, &mut huge, &mut cleared];

        let mut pool: Vec<Func> = Vec::new();
        for _ in 0..3 {
            let tt = random_table(&mut rng, n);
            let handles: Vec<Func> = managers.iter_mut().map(|m| tt.to_bdd(m)).collect();
            assert!(handles.windows(2).all(|w| w[0] == w[1]), "case {case}: seeds diverge");
            pool.push(handles[0]);
        }
        for step in 0..60 {
            let handles: Vec<Func> = if rng.gen_range(4) == 0 {
                let (i, j, k) = (
                    rng.gen_range(pool.len()),
                    rng.gen_range(pool.len()),
                    rng.gen_range(pool.len()),
                );
                managers.iter_mut().map(|m| m.ite(pool[i], pool[j], pool[k])).collect()
            } else {
                let op = OPS[rng.gen_range(OPS.len())];
                let (i, j) = (rng.gen_range(pool.len()), rng.gen_range(pool.len()));
                managers.iter_mut().map(|m| m.apply(op, pool[i], pool[j])).collect()
            };
            assert!(
                handles.windows(2).all(|w| w[0] == w[1]),
                "case {case} step {step}: cache size or clearing changed a result \
                 handle (tiny={:?} default={:?} huge={:?} cleared={:?})",
                handles[0],
                handles[1],
                handles[2],
                handles[3]
            );
            pool.push(handles[0]);
            managers[3].clear_computed_cache();
        }
        // Same script, same allocations: the node stores must agree too.
        let nodes: Vec<usize> = managers.iter().map(|m| m.total_nodes()).collect();
        assert!(
            nodes.windows(2).all(|w| w[0] == w[1]),
            "case {case}: node counts diverge across cache configurations: {nodes:?}"
        );
        // The one-bucket cache must actually have been under pressure, or
        // this test proves nothing.
        assert!(
            tiny.op_stats().cache_evictions > 0,
            "case {case}: the one-bucket cache never evicted"
        );
        assert_eq!(huge.op_stats().cache_evictions, 0, "case {case}: the 2^20-entry cache evicted");
    }
}
