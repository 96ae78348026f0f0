//! Operator-level differential checks: every BDD operation the
//! decomposer relies on, cross-checked against `boolfn` enumeration.
//!
//! The reference semantics of a case come straight from [`Pla::eval`]
//! (espresso resolution: on beats don't-care beats off), enumerated into
//! dense [`TruthTable`]s. Everything downstream — `isfs_from_pla`, the
//! `apply` family, ITE, quantification, cofactor, compose, `isop`, and
//! reordering — must agree with the table algebra exactly.

use bdd::{reorder, Bdd, BinOp, Func, VarId, VarSet};
use benchmarks::SplitMix64;
use bidecomp::isfs_from_pla;
use boolfn::TruthTable;
use pla::Pla;

use crate::Failure;

/// All eight binary connectives of [`BinOp`].
pub const ALL_OPS: [BinOp; 8] = [
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Nand,
    BinOp::Nor,
    BinOp::Xnor,
    BinOp::Diff,
    BinOp::Imp,
];

/// Per-output `(on, off)` reference tables of a PLA, by enumeration of
/// [`Pla::eval`] over all minterms. The tables are disjoint by
/// construction; their complement union is the don't-care set.
pub fn reference_tables(pla: &Pla) -> Vec<(TruthTable, TruthTable)> {
    let n = pla.num_inputs();
    (0..pla.num_outputs())
        .map(|o| {
            let on = TruthTable::from_fn(n, |m| pla.eval(o, m as u64) == Some(true));
            let off = TruthTable::from_fn(n, |m| pla.eval(o, m as u64) == Some(false));
            (on, off)
        })
        .collect()
}

/// The truth-table semantics of one [`BinOp`].
pub fn tt_apply(op: BinOp, a: &TruthTable, b: &TruthTable) -> TruthTable {
    match op {
        BinOp::And => a.and(b),
        BinOp::Or => a.or(b),
        BinOp::Xor => a.xor(b),
        BinOp::Nand => a.and(b).complement(),
        BinOp::Nor => a.or(b).complement(),
        BinOp::Xnor => a.xor(b).complement(),
        BinOp::Diff => a.diff(b),
        BinOp::Imp => a.diff(b).complement(),
    }
}

fn varset_mask(set: &VarSet) -> u32 {
    set.iter().fold(0u32, |m, v| m | (1 << v))
}

fn mask_varset(mask: u32, n: usize) -> VarSet {
    (0..n as u32).filter(|v| mask & (1 << v) != 0).collect()
}

/// The first assignment `outer` of the variables outside `mask` whose
/// slice of `t` (the minterms `m` with `m & !mask == outer`) is neither
/// empty nor a cube, if any.
fn first_non_cube_slice(t: &TruthTable, mask: u32) -> Option<u32> {
    let all = (1u32 << t.num_vars()) - 1;
    (0..=all).filter(|outer| outer & mask == 0).find(|&outer| {
        let members: Vec<u32> = t.minterms().filter(|m| m & !mask == outer).collect();
        let (and, or) = members.iter().fold((all, 0), |(a, o), &m| (a & m, o | m));
        // A cube holds every point between its common bits and its span.
        !members.is_empty() && members.len() != 1 << (and ^ or).count_ones()
    })
}

/// Compares a BDD against its expected table; on mismatch reports the
/// first differing minterm.
fn expect_tt(
    mgr: &Bdd,
    f: Func,
    want: &TruthTable,
    kind: &'static str,
    what: &str,
) -> Result<(), Failure> {
    let got = TruthTable::from_bdd(mgr, f, want.num_vars());
    if got == *want {
        return Ok(());
    }
    let m = (0..1u32 << want.num_vars())
        .find(|&m| got.get(m) != want.get(m))
        .expect("tables differ somewhere");
    Err(Failure::new(
        kind,
        format!("{what}: minterm {m} is {} but oracle says {}", got.get(m), want.get(m)),
    ))
}

/// Runs every operator-level differential check on one case. Returns the
/// number of individual comparisons performed.
///
/// `seed` drives the auxiliary random choices (operand pairs, quantifier
/// masks, reorder permutations); equal `(pla, seed)` runs are identical.
pub fn check_operators(pla: &Pla, seed: u64) -> Result<u64, Failure> {
    let n = pla.num_inputs();
    let mut rng = SplitMix64::new(seed);
    let mut checks = 0u64;
    let refs = reference_tables(pla);

    // 1. ISF construction: `isfs_from_pla` must reproduce the espresso
    //    resolution order of `Pla::eval` exactly.
    let mut mgr = Bdd::new(n);
    let isfs = isfs_from_pla(&mut mgr, pla);
    if isfs.len() != refs.len() {
        return Err(Failure::new(
            "isf_build",
            format!("{} ISFs for {} outputs", isfs.len(), refs.len()),
        ));
    }
    for (k, (isf, (on, off))) in isfs.iter().zip(&refs).enumerate() {
        expect_tt(&mgr, isf.q, on, "isf_build", &format!("output {k} on-set"))?;
        expect_tt(&mgr, isf.r, off, "isf_build", &format!("output {k} off-set"))?;
        checks += 2;
    }

    // Operand pool: the first output's interval plus decorrelated random
    // functions — mixes structured and unstructured operands.
    let (on0, off0) = refs[0].clone();
    let dc0 = on0.or(&off0).complement();
    let rnd1 = TruthTable::random(n, 0.3 + 0.4 * (rng.gen_range(5) as f64 / 10.0), rng.next_u64());
    let rnd2 = TruthTable::random(n, 0.5, rng.next_u64());
    let pool: Vec<(TruthTable, Func)> = [on0, off0, dc0, rnd1, rnd2]
        .into_iter()
        .map(|tt| {
            let f = tt.to_bdd(&mut mgr);
            (tt, f)
        })
        .collect();

    // 2. The full `apply` family over a few operand pairs, plus NOT/ITE.
    for (ai, bi) in [(0, 1), (3, 4), (0, 3)] {
        let (ta, fa) = &pool[ai];
        let (tb, fb) = &pool[bi];
        let (ta, fa, tb, fb) = (ta.clone(), *fa, tb.clone(), *fb);
        for op in ALL_OPS {
            let f = mgr.apply(op, fa, fb);
            expect_tt(&mgr, f, &tt_apply(op, &ta, &tb), "apply", &format!("{op:?}"))?;
            checks += 1;
        }
        let f = mgr.not(fa);
        expect_tt(&mgr, f, &ta.complement(), "apply", "Not")?;
        let (tc, fc) = (pool[2].0.clone(), pool[2].1);
        let f = mgr.ite(fa, fb, fc);
        let want = ta.and(&tb).or(&ta.complement().and(&tc));
        expect_tt(&mgr, f, &want, "apply", "Ite")?;
        checks += 2;
    }

    // 3. Quantification over random non-empty variable subsets, and one
    //    cube per slice over the same subsets: the picked function lies
    //    inside the operand, has its existential projection, and holds at
    //    most one cube in every assignment of the other variables.
    for _ in 0..3 {
        let mask = 1 + rng.gen_range((1usize << n) - 1);
        let mask = mask as u32;
        let set = mask_varset(mask, n);
        let cube = mgr.cube(&set);
        let (ta, fa) = &pool[rng.gen_range(pool.len())];
        let (ta, fa) = (ta.clone(), *fa);
        let f = mgr.exists(fa, cube);
        expect_tt(&mgr, f, &ta.exists(mask), "quantify", &format!("exists {mask:b}"))?;
        let f = mgr.forall(fa, cube);
        expect_tt(&mgr, f, &ta.forall(mask), "quantify", &format!("forall {mask:b}"))?;
        let f = mgr.exists_set(fa, &set);
        expect_tt(&mgr, f, &ta.exists(mask), "quantify", &format!("exists_set {mask:b}"))?;
        let g = mgr.pick_cube_per_slice(fa, cube);
        let tg = TruthTable::from_bdd(&mgr, g, n);
        let what = format!("pick_cube_per_slice {mask:b}");
        if !tg.implies(&ta) {
            return Err(Failure::new("quantify", format!("{what}: result leaves the operand")));
        }
        if tg.exists(mask) != ta.exists(mask) {
            return Err(Failure::new("quantify", format!("{what}: projection differs")));
        }
        if let Some(outer) = first_non_cube_slice(&tg, mask) {
            return Err(Failure::new("quantify", format!("{what}: slice {outer:b} is no cube")));
        }
        checks += 6;
    }

    // 4. Cofactor and functional composition.
    for _ in 0..3 {
        let v = rng.gen_range(n);
        let value = rng.gen_bool(0.5);
        let (ta, fa) = &pool[rng.gen_range(pool.len())];
        let (tg, fg) = &pool[rng.gen_range(pool.len())];
        let (ta, fa, tg, fg) = (ta.clone(), *fa, tg.clone(), *fg);
        let f = mgr.cofactor(fa, v as VarId, value);
        expect_tt(&mgr, f, &ta.cofactor(v, value), "cofactor", &format!("x{v}={value}"))?;
        let f = mgr.compose(fa, v as VarId, fg);
        expect_tt(&mgr, f, &ta.compose(v, &tg), "compose", &format!("x{v} := g"))?;
        checks += 2;
    }

    // 5. `isop` on every output interval: the result must lie in
    //    `[Q, ¬R]` and equal the function of its own cube list.
    for (k, (isf, (on, off))) in isfs.iter().zip(&refs).enumerate() {
        let upper = mgr.not(isf.r);
        let (f, cubes) = mgr.isop(isf.q, upper);
        let ft = TruthTable::from_bdd(&mgr, f, n);
        if !on.implies(&ft) {
            return Err(Failure::new("isop", format!("output {k}: cover misses the on-set")));
        }
        if !ft.disjoint(off) {
            return Err(Failure::new("isop", format!("output {k}: cover touches the off-set")));
        }
        let g = mgr.cover_function(&cubes);
        if g != f {
            return Err(Failure::new(
                "isop",
                format!("output {k}: cube list denotes a different function"),
            ));
        }
        checks += 3;
    }

    // 6. Reorder invariance: rebuilding under a random order and sifting
    //    must preserve semantics, support and satisfy counts.
    {
        let (ta, _) = &pool[3];
        let ta = ta.clone();
        let mut mgr2 = Bdd::new(n);
        let f2 = ta.to_bdd(&mut mgr2);
        let mut perm: Vec<VarId> = (0..n as VarId).collect();
        rng.shuffle(&mut perm);
        let roots = mgr2.reorder(&perm, &[f2]);
        expect_tt(&mgr2, roots[0], &ta, "reorder", &format!("rebuild under {perm:?}"))?;
        if varset_mask(&mgr2.support(roots[0])) != ta.support_mask() {
            return Err(Failure::new("reorder", "support changed across reorder".to_string()));
        }
        if mgr2.sat_count(roots[0]) != ta.count_ones() as f64 {
            return Err(Failure::new("reorder", "sat_count changed across reorder".to_string()));
        }
        let roots = reorder::greedy_sift(&mut mgr2, &roots, 2);
        expect_tt(&mgr2, roots[0], &ta, "reorder", "greedy_sift")?;
        if mgr2.sat_count(roots[0]) != ta.count_ones() as f64 {
            return Err(Failure::new("reorder", "sat_count changed across sifting".to_string()));
        }
        checks += 5;
    }

    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn reference_tables_partition_the_space() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..30 {
            let case = gen::generate(&mut rng, &[]);
            for (on, off) in reference_tables(&case.pla) {
                assert!(on.disjoint(&off), "on- and off-set overlap");
            }
        }
    }

    #[test]
    fn tt_apply_matches_pointwise_definitions() {
        let a = TruthTable::random(4, 0.5, 1);
        let b = TruthTable::random(4, 0.5, 2);
        for op in ALL_OPS {
            let c = tt_apply(op, &a, &b);
            for m in 0..16u32 {
                let (x, y) = (a.get(m), b.get(m));
                let want = match op {
                    BinOp::And => x && y,
                    BinOp::Or => x || y,
                    BinOp::Xor => x ^ y,
                    BinOp::Nand => !(x && y),
                    BinOp::Nor => !(x || y),
                    BinOp::Xnor => !(x ^ y),
                    BinOp::Diff => x && !y,
                    BinOp::Imp => !x || y,
                };
                assert_eq!(c.get(m), want, "{op:?} at {m}");
            }
        }
    }

    #[test]
    fn operator_checks_pass_on_generated_cases() {
        let mut rng = SplitMix64::new(5);
        for i in 0..25 {
            let case = gen::generate(&mut rng, &[]);
            let checks = check_operators(&case.pla, 1000 + i)
                .unwrap_or_else(|f| panic!("case {i} ({}) failed: {f}\n{}", case.mode, case.pla));
            assert!(checks > 10, "sweep ran");
        }
    }
}
