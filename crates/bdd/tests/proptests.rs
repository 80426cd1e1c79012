//! Property-based tests: random expression trees are built both as BDDs and
//! as dense truth tables; every operator and structural query must agree.
//!
//! The random cases are driven by a seeded splitmix64 stream (the workspace
//! carries no external property-testing dependency), so every run explores
//! exactly the same expressions — a failure reproduces from its seed alone.

use bdd::{Bdd, Func, VarSet};
use benchmarks::SplitMix64;

const NUM_VARS: usize = 6;

/// Seeded random cases per property (mirrors the old proptest case count).
const CASES: u64 = 64;

/// A random Boolean expression over `NUM_VARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

/// Draws a random expression tree of depth ≤ `depth`, biased toward
/// internal nodes so the trees exercise sharing and reduction.
fn random_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.2) {
        return if rng.gen_bool(0.15) {
            Expr::Const(rng.gen_bool(0.5))
        } else {
            Expr::Var(rng.gen_range(NUM_VARS) as u32)
        };
    }
    match rng.gen_range(4) {
        0 => Expr::Not(Box::new(random_expr(rng, depth - 1))),
        1 => {
            Expr::And(Box::new(random_expr(rng, depth - 1)), Box::new(random_expr(rng, depth - 1)))
        }
        2 => Expr::Or(Box::new(random_expr(rng, depth - 1)), Box::new(random_expr(rng, depth - 1))),
        _ => {
            Expr::Xor(Box::new(random_expr(rng, depth - 1)), Box::new(random_expr(rng, depth - 1)))
        }
    }
}

fn expr_for_seed(seed: u64) -> Expr {
    random_expr(&mut SplitMix64::new(seed), 5)
}

fn build(mgr: &mut Bdd, e: &Expr) -> Func {
    match e {
        Expr::Var(v) => mgr.var(*v),
        Expr::Const(b) => mgr.constant(*b),
        Expr::Not(a) => {
            let fa = build(mgr, a);
            mgr.not(fa)
        }
        Expr::And(a, b) => {
            let fa = build(mgr, a);
            let fb = build(mgr, b);
            mgr.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let fa = build(mgr, a);
            let fb = build(mgr, b);
            mgr.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let fa = build(mgr, a);
            let fb = build(mgr, b);
            mgr.xor(fa, fb)
        }
    }
}

fn eval_expr(e: &Expr, vals: &[bool]) -> bool {
    match e {
        Expr::Var(v) => vals[*v as usize],
        Expr::Const(b) => *b,
        Expr::Not(a) => !eval_expr(a, vals),
        Expr::And(a, b) => eval_expr(a, vals) && eval_expr(b, vals),
        Expr::Or(a, b) => eval_expr(a, vals) || eval_expr(b, vals),
        Expr::Xor(a, b) => eval_expr(a, vals) ^ eval_expr(b, vals),
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NUM_VARS).map(|bits| (0..NUM_VARS).map(|k| bits & (1 << k) != 0).collect())
}

#[test]
fn bdd_matches_expression_semantics() {
    for seed in 0..CASES {
        let e = expr_for_seed(seed);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        for vals in assignments() {
            assert_eq!(mgr.eval(f, &vals), eval_expr(&e, &vals), "seed {seed}");
        }
    }
}

#[test]
fn canonicity_equal_semantics_equal_handles() {
    for seed in 0..CASES {
        let a = expr_for_seed(2 * seed);
        let b = expr_for_seed(2 * seed + 1);
        let mut mgr = Bdd::new(NUM_VARS);
        let fa = build(&mut mgr, &a);
        let fb = build(&mut mgr, &b);
        let semantically_equal =
            assignments().all(|vals| eval_expr(&a, &vals) == eval_expr(&b, &vals));
        assert_eq!(fa == fb, semantically_equal, "seed {seed}");
    }
}

#[test]
fn sat_count_matches_enumeration() {
    for seed in 0..CASES {
        let e = expr_for_seed(seed);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        let expected = assignments().filter(|vals| eval_expr(&e, vals)).count();
        assert_eq!(mgr.sat_count(f) as usize, expected, "seed {seed}");
    }
}

#[test]
fn quantifiers_match_enumeration() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = random_expr(&mut rng, 5);
        let mask = rng.gen_range(1 << NUM_VARS) as u32;
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        let vars: VarSet = (0..NUM_VARS as u32).filter(|v| mask & (1 << v) != 0).collect();
        let ex = mgr.exists_set(f, &vars);
        let all = mgr.forall_set(f, &vars);
        for vals in assignments() {
            // Enumerate all reassignments of the quantified variables.
            let mut any = false;
            let mut every = true;
            let quantified: Vec<usize> = vars.iter().map(|v| v as usize).collect();
            for sub in 0..1u32 << quantified.len() {
                let mut vals2 = vals.clone();
                for (k, &q) in quantified.iter().enumerate() {
                    vals2[q] = sub & (1 << k) != 0;
                }
                let r = eval_expr(&e, &vals2);
                any |= r;
                every &= r;
            }
            assert_eq!(mgr.eval(ex, &vals), any, "seed {seed}");
            assert_eq!(mgr.eval(all, &vals), every, "seed {seed}");
        }
    }
}

#[test]
fn and_exists_matches_sequential() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let a = random_expr(&mut rng, 5);
        let b = random_expr(&mut rng, 5);
        let mask = rng.gen_range(1 << NUM_VARS) as u32;
        let mut mgr = Bdd::new(NUM_VARS);
        let fa = build(&mut mgr, &a);
        let fb = build(&mut mgr, &b);
        let vars: VarSet = (0..NUM_VARS as u32).filter(|v| mask & (1 << v) != 0).collect();
        let cube = mgr.cube(&vars);
        let fused = mgr.and_exists(fa, fb, cube);
        let conj = mgr.and(fa, fb);
        let seq = mgr.exists(conj, cube);
        assert_eq!(fused, seq, "seed {seed}");
    }
}

#[test]
fn support_is_semantic_dependence() {
    for seed in 0..CASES {
        let e = expr_for_seed(seed);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        let support = mgr.support(f);
        for v in 0..NUM_VARS as u32 {
            let c0 = mgr.cofactor(f, v, false);
            let c1 = mgr.cofactor(f, v, true);
            assert_eq!(support.contains(v), c0 != c1, "seed {seed}, x{v}");
        }
    }
}

#[test]
fn pick_cube_lies_inside_f() {
    for seed in 0..CASES {
        let e = expr_for_seed(seed);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        match mgr.pick_cube(f) {
            None => assert!(f.is_zero(), "seed {seed}"),
            Some(cube) => {
                assert!(mgr.is_cube(cube), "seed {seed}");
                assert!(mgr.implies(cube, f), "seed {seed}");
            }
        }
    }
}

#[test]
fn random_orders_preserve_semantics() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = random_expr(&mut rng, 5);
        let mut order: Vec<u32> = (0..NUM_VARS as u32).collect();
        rng.shuffle(&mut order);
        let mut mgr = Bdd::new(NUM_VARS);
        mgr.set_order(&order);
        let f = build(&mut mgr, &e);
        for vals in assignments() {
            assert_eq!(mgr.eval(f, &vals), eval_expr(&e, &vals), "seed {seed} order {order:?}");
        }
    }
}

#[test]
fn isop_covers_are_sound_and_inside() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let lo = random_expr(&mut rng, 5);
        let extra = random_expr(&mut rng, 5);
        let mut mgr = Bdd::new(NUM_VARS);
        let flo_raw = build(&mut mgr, &lo);
        let fextra = build(&mut mgr, &extra);
        let fhi = mgr.or(flo_raw, fextra); // guarantees lower ≤ upper
        let (f, cubes) = mgr.isop(flo_raw, fhi);
        let built = mgr.cover_function(&cubes);
        assert_eq!(built, f, "seed {seed}");
        assert!(mgr.implies(flo_raw, f), "seed {seed}");
        assert!(mgr.implies(f, fhi), "seed {seed}");
        // Irredundancy: dropping any cube loses part of the lower bound.
        for skip in 0..cubes.len() {
            let reduced: Vec<_> = cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.clone())
                .collect();
            let g = mgr.cover_function(&reduced);
            assert!(!mgr.implies(flo_raw, g), "seed {seed}: cube {skip} redundant");
        }
    }
}

#[test]
fn gc_preserves_protected_functions() {
    for seed in 0..CASES {
        let e = expr_for_seed(seed);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        mgr.protect(f);
        mgr.gc();
        for vals in assignments() {
            assert_eq!(mgr.eval(f, &vals), eval_expr(&e, &vals), "seed {seed}");
        }
        // After GC the manager must still be fully usable.
        let g = build(&mut mgr, &e);
        assert_eq!(g, f, "seed {seed}");
        mgr.unprotect(f);
    }
}

/// Variables of the random cube lists fed to `cover_function`.
const COVER_VARS: usize = 8;

/// A random cube list over `COVER_VARS` variables: 0–40 cubes whose
/// literal density is drawn per list from a 0.0–1.0 sweep (so the empty
/// list, the empty cube and full minterms all occur), with duplicate
/// cubes, shuffled literal order and the odd repeated or contradictory
/// literal.
fn random_cover(rng: &mut SplitMix64) -> Vec<Vec<(u32, bool)>> {
    let density = rng.gen_range(11) as f64 / 10.0;
    let count = rng.gen_range(41);
    let mut cubes: Vec<Vec<(u32, bool)>> = Vec::with_capacity(count);
    for _ in 0..count {
        if !cubes.is_empty() && rng.gen_bool(0.1) {
            let dup = cubes[rng.gen_range(cubes.len())].clone();
            cubes.push(dup);
            continue;
        }
        let mut cube = Vec::new();
        for v in 0..COVER_VARS as u32 {
            if rng.gen_bool(density) {
                cube.push((v, rng.gen_bool(0.5)));
            }
        }
        if !cube.is_empty() && rng.gen_bool(0.05) {
            let (v, pos) = cube[rng.gen_range(cube.len())];
            cube.push((v, pos ^ rng.gen_bool(0.5)));
        }
        rng.shuffle(&mut cube);
        cubes.push(cube);
    }
    cubes
}

/// The cover as a sequential fold: AND each cube's literals, OR the cubes.
fn fold_cover(mgr: &mut Bdd, cubes: &[Vec<(u32, bool)>]) -> Func {
    let mut f = Func::ZERO;
    for cube in cubes {
        let mut prod = Func::ONE;
        for &(v, pos) in cube {
            let lit = mgr.literal(v, pos);
            prod = mgr.and(prod, lit);
        }
        f = mgr.or(f, prod);
    }
    f
}

/// A manager over `COVER_VARS` variables under a seeded random order.
fn shuffled_manager(rng: &mut SplitMix64) -> Bdd {
    let mut mgr = Bdd::new(COVER_VARS);
    let mut order: Vec<u32> = (0..COVER_VARS as u32).collect();
    rng.shuffle(&mut order);
    mgr.set_order(&order);
    mgr
}

#[test]
fn cover_function_matches_the_and_or_fold_and_pointwise_semantics() {
    for seed in 0..4 * CASES {
        let mut rng = SplitMix64::new(seed);
        let cubes = random_cover(&mut rng);
        let mut mgr = shuffled_manager(&mut rng);
        let f = mgr.cover_function(&cubes);
        assert_eq!(f, fold_cover(&mut mgr, &cubes), "seed {seed}: {cubes:?}");
        for bits in 0..1u32 << COVER_VARS {
            let vals: Vec<bool> = (0..COVER_VARS).map(|k| bits & (1 << k) != 0).collect();
            let want = cubes.iter().any(|c| c.iter().all(|&(v, pos)| vals[v as usize] == pos));
            assert_eq!(mgr.eval(f, &vals), want, "seed {seed}: {cubes:?} at {bits:b}");
        }
    }
}

#[test]
fn cover_function_constants() {
    let mut mgr = Bdd::new(3);
    let empty: Vec<(u32, bool)> = Vec::new();
    assert_eq!(mgr.cover_function(Vec::<Vec<(u32, bool)>>::new()), Func::ZERO, "empty list");
    assert_eq!(mgr.cover_function([empty]), Func::ONE, "the empty cube is 1");
    let with_empty = vec![vec![(0, true), (2, false)], vec![]];
    assert_eq!(mgr.cover_function(&with_empty), Func::ONE, "the empty cube absorbs the rest");
    let contradictory = vec![vec![(1, true), (0, false), (1, false)]];
    assert_eq!(mgr.cover_function(&contradictory), Func::ZERO, "x·¬x is 0");
}

#[test]
fn cover_function_ignores_cube_order() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let cubes = random_cover(&mut rng);
        let mut shuffled = cubes.clone();
        rng.shuffle(&mut shuffled);
        let mut order: Vec<u32> = (0..COVER_VARS as u32).collect();
        rng.shuffle(&mut order);
        let mut built = Vec::new();
        for list in [&cubes, &shuffled] {
            let mut mgr = Bdd::new(COVER_VARS);
            mgr.set_order(&order);
            let f = mgr.cover_function(list);
            built.push((f, mgr.op_stats()));
        }
        assert_eq!(built[0], built[1], "seed {seed}: {cubes:?}");
    }
}

#[test]
fn cover_function_keys_span_word_boundaries() {
    // Reversed order: variable `v` sits at level `69 - v`, so these
    // cubes constrain levels 31, 32, 63, 64 and 69.
    let mut mgr = Bdd::new(70);
    let order: Vec<u32> = (0..70).rev().collect();
    mgr.set_order(&order);
    let at = |level: u32, pos: bool| (69 - level, pos);
    let cubes = [
        vec![at(31, true), at(32, false)],
        vec![at(32, true), at(63, true), at(64, false)],
        vec![at(63, false), at(69, true)],
        vec![at(31, false), at(64, true), at(69, false)],
        vec![at(64, true), at(31, true)],
        vec![at(69, true)],
    ];
    for k in 1..=cubes.len() {
        let f = mgr.cover_function(&cubes[..k]);
        assert_eq!(f, fold_cover(&mut mgr, &cubes[..k]), "first {k} cubes");
    }
    // The last level of the widest manager.
    let mut mgr = Bdd::new(256);
    let cubes = [vec![(255, true)], vec![(0, false), (255, false)], vec![(127, true)]];
    for k in 1..=cubes.len() {
        let f = mgr.cover_function(&cubes[..k]);
        assert_eq!(f, fold_cover(&mut mgr, &cubes[..k]), "first {k} cubes at level 255");
    }
}

#[test]
fn cover_function_with_the_empty_cube_allocates_nothing() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut cubes = random_cover(&mut rng);
        let at = rng.gen_range(cubes.len() + 1);
        cubes.insert(at, Vec::new());
        let mut mgr = shuffled_manager(&mut rng);
        let (nodes, stats) = (mgr.total_nodes(), mgr.op_stats());
        let f = mgr.cover_function(&cubes);
        assert_eq!(f, Func::ONE, "seed {seed}: {cubes:?}");
        assert_eq!(mgr.total_nodes(), nodes, "seed {seed}: no node for a tautology");
        assert_eq!(mgr.op_stats(), stats, "seed {seed}: no work either");
    }
}

#[test]
fn cover_function_handles_duplicate_and_contradictory_cubes() {
    let mut mgr = Bdd::new(4);
    let ab = vec![(0, true), (1, true)];
    let c = vec![(2, false)];
    let dd = vec![(3, true), (3, false)];
    let want = mgr.cover_function([&ab, &c]);
    for cubes in [
        vec![ab.clone(), ab.clone(), c.clone()],
        vec![c.clone(), ab.clone(), c.clone(), ab.clone()],
        vec![dd.clone(), ab.clone(), c.clone()],
        vec![ab.clone(), dd.clone(), c.clone(), dd.clone()],
        vec![vec![(1, true), (0, true), (1, true)], c.clone()],
    ] {
        assert_eq!(mgr.cover_function(&cubes), want, "{cubes:?}");
        assert_eq!(fold_cover(&mut mgr, &cubes), want, "{cubes:?}");
    }
    assert_eq!(mgr.cover_function([&dd, &dd]), Func::ZERO, "only x·¬x cubes");
}

#[test]
fn full_minterm_covers_allocate_only_their_result() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut mgr = shuffled_manager(&mut rng);
        let density = rng.gen_range(11) as f64 / 10.0;
        let mut minterms = Vec::new();
        for m in 0..1u32 << COVER_VARS {
            if rng.gen_bool(density) {
                let mut cube: Vec<(u32, bool)> =
                    (0..COVER_VARS as u32).map(|v| (v, m & (1 << v) != 0)).collect();
                rng.shuffle(&mut cube);
                minterms.push(cube);
            }
        }
        let (nodes_before, stats_before) = (mgr.total_nodes(), mgr.op_stats());
        let f = mgr.cover_function(&minterms);
        let stats = mgr.op_stats();
        assert_eq!(
            mgr.total_nodes() - nodes_before,
            mgr.node_count(f),
            "seed {seed}: every allocated node belongs to the result"
        );
        assert_eq!(stats.cache_lookups, stats_before.cache_lookups, "seed {seed}: no apply ran");
        assert_eq!(f, fold_cover(&mut mgr, &minterms), "seed {seed}");
    }
}

/// `∃v q · ∃v r ≠ 0` for every `v` of `within`, one variable at a time:
/// the definition `essential_vars` answers in one walk.
fn essential_by_definition(mgr: &mut Bdd, q: Func, r: Func, within: &VarSet) -> VarSet {
    within
        .iter()
        .filter(|&v| {
            let vs = VarSet::singleton(v);
            let eq = mgr.exists_set(q, &vs);
            let er = mgr.exists_set(r, &vs);
            !mgr.disjoint(eq, er)
        })
        .collect()
}

/// A random disjoint pair `(q, r) = (f·c₁, ¬f·c₂)` under a random order of
/// `NUM_VARS + 1` variables; variable `NUM_VARS` occurs in neither.
fn random_interval(rng: &mut SplitMix64) -> (Bdd, Func, Func) {
    let mut mgr = Bdd::new(NUM_VARS + 1);
    let mut order: Vec<u32> = (0..=NUM_VARS as u32).collect();
    rng.shuffle(&mut order);
    mgr.set_order(&order);
    let [f, c1, c2] = [0; 3].map(|_| {
        let e = random_expr(rng, 5);
        build(&mut mgr, &e)
    });
    let q = mgr.and(f, c1);
    let nf = mgr.not(f);
    let r = mgr.and(nf, c2);
    (mgr, q, r)
}

#[test]
fn essential_vars_matches_the_per_variable_definition() {
    let all = VarSet::first_n(NUM_VARS + 1);
    let (mut found_all, mut partial) = (0, 0);
    for seed in 0..4 * CASES {
        let mut rng = SplitMix64::new(seed);
        let (mut mgr, q, r) = random_interval(&mut rng);
        let mask = rng.gen_range(1 << (NUM_VARS + 1)) as u32;
        let subset: VarSet = all.iter().filter(|v| mask & (1 << v) != 0).collect();
        let support = mgr.support(q).union(&mgr.support(r));
        for within in [all, subset, support, VarSet::new()] {
            let got = mgr.essential_vars(q, r, &within);
            let want = essential_by_definition(&mut mgr, q, r, &within);
            assert_eq!(got, want, "seed {seed} within {within:?}");
            assert!(!got.contains(NUM_VARS as u32), "seed {seed}: absent variable");
        }
        let essential = mgr.essential_vars(q, r, &support);
        if essential == support {
            found_all += 1;
        } else {
            partial += 1;
        }
    }
    assert!(
        found_all >= 20 && partial >= 20,
        "sweep too easy: {found_all} full, {partial} partial"
    );
}

#[test]
fn essential_vars_constants_and_zero_operands() {
    let mut mgr = Bdd::new(3);
    let all = VarSet::first_n(3);
    let a = mgr.var(0);
    let b = mgr.var(1);
    let ab = mgr.and(a, b);
    let na = mgr.not(a);
    for (q, r) in [
        (Func::ZERO, Func::ZERO),
        (Func::ONE, Func::ZERO),
        (Func::ZERO, Func::ONE),
        (ab, Func::ZERO),
        (Func::ZERO, ab),
    ] {
        assert!(mgr.essential_vars(q, r, &all).is_empty(), "({q:?}, {r:?})");
    }
    // [a·b, ¬a]: only `a` is needed (f = a fits); `b` and `c` are not.
    assert_eq!(mgr.essential_vars(ab, na, &all), VarSet::singleton(0));
    assert!(mgr.essential_vars(ab, na, &VarSet::new()).is_empty());
}

#[test]
fn essential_vars_stops_once_within_is_found() {
    // Parity over all variables: every variable is essential. Asking only
    // for the root variable settles at the root pair; asking also for an
    // absent variable walks every pair.
    let n = 8;
    let mut mgr = Bdd::new(n + 1);
    let mut f = Func::ZERO;
    for v in 0..n as u32 {
        let x = mgr.var(v);
        f = mgr.xor(f, x);
    }
    let nf = mgr.not(f);
    let mut steps = |within: &VarSet| {
        let before = mgr.op_stats().apply_steps;
        let got = mgr.essential_vars(f, nf, within);
        (got, mgr.op_stats().apply_steps - before)
    };
    let support = VarSet::first_n(n);
    let mut with_absent = support;
    with_absent.insert(n as u32);
    let (full, full_steps) = steps(&with_absent);
    assert_eq!(full, support);
    let (root, root_steps) = steps(&VarSet::singleton(0));
    assert_eq!(root, VarSet::singleton(0));
    // One visited pair and one disjointness test: `q₀ = r₁` at the root.
    assert_eq!(root_steps, 2, "the walk must stop at the root pair");
    let (early, early_steps) = steps(&support);
    assert_eq!(early, support);
    assert!(early_steps < full_steps, "{early_steps} steps vs {full_steps} for the full walk");
}
