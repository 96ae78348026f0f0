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
fn restrict_agrees_on_care() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let f = random_expr(&mut rng, 5);
        let care = random_expr(&mut rng, 5);
        let mut mgr = Bdd::new(NUM_VARS);
        let ff = build(&mut mgr, &f);
        let cc = build(&mut mgr, &care);
        let g = mgr.restrict(ff, cc);
        let lhs = mgr.and(g, cc);
        let rhs = mgr.and(ff, cc);
        assert_eq!(lhs, rhs, "seed {seed}");
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

/// `pick_cube_per_slice` against truth tables on random 4–8-variable
/// functions under random variable orders, for the empty cube set, the set
/// of all variables and a random set in between.
#[test]
fn pick_cube_per_slice_keeps_one_cube_per_slice() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed ^ 0x51ce);
        let n = 4 + rng.gen_range(5);
        let density = [0.05, 0.2, 0.5, 0.8][rng.gen_range(4)];
        let table: Vec<bool> = (0..1usize << n).map(|_| rng.gen_bool(density)).collect();
        let mut mgr = Bdd::new(n);
        let mut f = Func::ZERO;
        for m in (0..1usize << n).filter(|&m| table[m]) {
            let mut minterm = Func::ONE;
            for v in 0..n {
                let lit = mgr.literal(v as u32, m & (1 << v) != 0);
                minterm = mgr.and(minterm, lit);
            }
            f = mgr.or(f, minterm);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let f = mgr.reorder(&order, &[f])[0];
        let all = (1usize << n) - 1;
        for mask in [0, all, rng.gen_range(all + 1)] {
            let ctx = format!("seed {seed}, order {order:?}, cube set {mask:b}");
            let vars: VarSet = (0..n as u32).filter(|v| mask & (1 << v) != 0).collect();
            let cube = mgr.cube(&vars);
            let g = mgr.pick_cube_per_slice(f, cube);
            let bits = |m: usize| -> Vec<bool> { (0..n).map(|v| m & (1 << v) != 0).collect() };
            let g_table: Vec<bool> = (0..=all).map(|m| mgr.eval(g, &bits(m))).collect();
            for m in 0..=all {
                assert!(!g_table[m] || table[m], "{ctx}: result must imply f at {m:b}");
            }
            // A slice fixes the variables outside the cube set.
            for outer in (0..=all).filter(|m| m & mask == 0) {
                let slice = || (0..=all).filter(move |m| m & !mask == outer);
                assert_eq!(
                    slice().any(|m| g_table[m]),
                    slice().any(|m| table[m]),
                    "{ctx}: ∃cube result must equal ∃cube f on slice {outer:b}"
                );
                let mut s = g;
                for v in (0..n).filter(|v| mask & (1 << v) == 0) {
                    s = mgr.cofactor(s, v as u32, outer & (1 << v) != 0);
                }
                assert!(s.is_zero() || mgr.is_cube(s), "{ctx}: slice {outer:b} is not a cube");
            }
            if mask == 0 {
                assert_eq!(g, f, "{ctx}: with no cube variables every slice is constant");
            }
            if mask == all {
                assert_eq!(Some(g), mgr.pick_cube(f).or(Some(Func::ZERO)), "{ctx}: one slice");
            }
        }
    }
}

#[test]
fn reorder_preserves_semantics_random_order() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let e = random_expr(&mut rng, 5);
        let mut mgr = Bdd::new(NUM_VARS);
        let f = build(&mut mgr, &e);
        // A random permutation by Fisher–Yates over the same stream.
        let mut order: Vec<u32> = (0..NUM_VARS as u32).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(i + 1);
            order.swap(i, j);
        }
        let roots = mgr.reorder(&order, &[f]);
        for vals in assignments() {
            assert_eq!(mgr.eval(roots[0], &vals), eval_expr(&e, &vals), "seed {seed}");
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
