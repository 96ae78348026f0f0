//! EXOR bi-decomposition with arbitrary variable sets — Fig. 4 of the
//! paper (`CheckExorBiDecomp`).
//!
//! The procedure simultaneously *checks* decomposability and *derives* the
//! component ISFs: starting from a seed cube of the on-set it alternately
//! propagates forced values between the A-side (functions over
//! `X_A ∪ X_C`) and the B-side (functions over `X_B ∪ X_C`), subtracting
//! decided constraint minterms from the working on/off-sets. A conflict
//! (`q ∧ r ≠ 0` on either side) proves non-decomposability; exhaustion of
//! the on-set yields the component intervals.
//!
//! Propagation quantifies only `X_A` or `X_B`, so it never changes the
//! assignment of the common variables `X_C`: every `X_C` slice is an
//! independent colouring problem. [`check_exor_bidecomp`] seeds one cube
//! at a time, as the paper does, and so derives the paper's components;
//! [`exor_decomposable`] only needs the verdict and seeds one cube in
//! every slice at once.

use bdd::{Bdd, Func, VarSet};

use crate::Isf;

/// Result of a successful EXOR decomposition: the component ISFs.
#[derive(Clone, Copy, Debug)]
pub struct ExorComponents {
    /// Component A, a function of `X_A ∪ X_C`.
    pub a: Isf,
    /// Component B, a function of `X_B ∪ X_C`.
    pub b: Isf,
}

/// The paper's `CheckExorBiDecomp` (Fig. 4): checks EXOR-decomposability
/// of the ISF with arbitrary disjoint sets `(X_A, X_B)` and, on success,
/// returns the component ISFs.
///
/// Returns `None` if no decomposition with these sets exists.
///
/// # Panics
///
/// Panics (in debug builds) if `X_A` and `X_B` overlap.
pub fn check_exor_bidecomp(
    mgr: &mut Bdd,
    isf: &Isf,
    xa: &VarSet,
    xb: &VarSet,
) -> Option<ExorComponents> {
    // The paper's `SelectOneCube`: one component per seed.
    propagate(mgr, isf, xa, xb, |mgr, q| mgr.pick_cube(q).expect("q is non-zero"))
}

/// Does an EXOR decomposition with these sets exist?
///
/// Same verdict as [`check_exor_bidecomp`], reached with fewer rounds: the
/// seed holds one on-set cube over `X_A ∪ X_B` in every `X_C` slice. The
/// slices share no constraint, whether a component 2-colours does not
/// depend on the point that seeds it, and a cube inside `Q` forces one
/// consistent polarity, so this is exact.
pub fn exor_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    let dedicated = mgr.cube(&xa.union(xb));
    propagate(mgr, isf, xa, xb, |mgr, q| mgr.pick_cube_per_slice(q, dedicated)).is_some()
}

/// The Fig. 4 propagation loop; `seed` picks the on-set cubes that start
/// each round of connected components.
fn propagate(
    mgr: &mut Bdd,
    isf: &Isf,
    xa: &VarSet,
    xb: &VarSet,
    seed: impl Fn(&mut Bdd, Func) -> Func,
) -> Option<ExorComponents> {
    debug_assert!(xa.is_disjoint(xb), "X_A and X_B must be disjoint");
    let ca = mgr.cube(xa);
    let cb = mgr.cube(xb);

    // Working constraint sets (minterms of the full space not yet decided).
    let mut q = isf.q;
    let mut r = isf.r;
    // Accumulated component sets.
    let mut qa_all = Func::ZERO;
    let mut ra_all = Func::ZERO;
    let mut qb_all = Func::ZERO;
    let mut rb_all = Func::ZERO;

    while !q.is_zero() {
        // Seed new connected components: force A = 1 on the X_B-projection
        // of on-set cubes (any polarity works within a component; 1 is
        // the paper's choice).
        let cubes = seed(mgr, q);
        let mut q_a = mgr.exists(cubes, cb);
        let mut r_a = Func::ZERO;
        while !q_a.is_zero() || !r_a.is_zero() {
            // Propagate A-side decisions to the B side. Where A = 1,
            // B = ¬F; where A = 0, B = F. The quantifier distributes over
            // the disjunction, so each term uses the fused and-exists.
            let t1 = mgr.and_exists(q, r_a, ca);
            let t2 = mgr.and_exists(r, q_a, ca);
            let q_b = mgr.or(t1, t2);
            let t3 = mgr.and_exists(q, q_a, ca);
            let t4 = mgr.and_exists(r, r_a, ca);
            let r_b = mgr.or(t3, t4);
            if !mgr.disjoint(q_b, r_b) {
                return None;
            }
            // The constraints inside decided A-regions are now satisfied.
            let decided_a = mgr.or(q_a, r_a);
            q = mgr.diff(q, decided_a);
            r = mgr.diff(r, decided_a);
            qa_all = mgr.or(qa_all, q_a);
            ra_all = mgr.or(ra_all, r_a);
            // Propagate the fresh B-side decisions back to the A side.
            let t1 = mgr.and_exists(q, r_b, cb);
            let t2 = mgr.and_exists(r, q_b, cb);
            q_a = mgr.or(t1, t2);
            let t3 = mgr.and_exists(q, q_b, cb);
            let t4 = mgr.and_exists(r, r_b, cb);
            r_a = mgr.or(t3, t4);
            if !mgr.disjoint(q_a, r_a) {
                return None;
            }
            let decided_b = mgr.or(q_b, r_b);
            q = mgr.diff(q, decided_b);
            r = mgr.diff(r, decided_b);
            qb_all = mgr.or(qb_all, q_b);
            rb_all = mgr.or(rb_all, r_b);
        }
    }
    // Leftover off-set components never touched a constraint with the
    // on-set: force both components to 0 there (0 ⊕ 0 = 0).
    if !r.is_zero() {
        let pa = mgr.exists(r, cb);
        ra_all = mgr.or(ra_all, pa);
        let pb = mgr.exists(r, ca);
        rb_all = mgr.or(rb_all, pb);
    }
    if !mgr.disjoint(qa_all, ra_all) || !mgr.disjoint(qb_all, rb_all) {
        return None;
    }
    Some(ExorComponents {
        a: Isf::new_unchecked(qa_all, ra_all),
        b: Isf::new_unchecked(qb_all, rb_all),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parity_isf(mgr: &mut Bdd, n: u32) -> Isf {
        let mut f = Func::ZERO;
        for v in 0..n {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        Isf::from_csf(mgr, f)
    }

    /// Validates a returned decomposition end to end: supports are right,
    /// intervals are consistent, and minimal completions XOR back into the
    /// original interval.
    fn assert_valid(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet, comps: &ExorComponents) {
        assert!(mgr.disjoint(comps.a.q, comps.a.r));
        assert!(mgr.disjoint(comps.b.q, comps.b.r));
        assert!(mgr.support(comps.a.q).union(&mgr.support(comps.a.r)).is_disjoint(xb));
        assert!(mgr.support(comps.b.q).union(&mgr.support(comps.b.r)).is_disjoint(xa));
        // Any compatible completions must recompose. Try the minimal and
        // the maximal ones in all four combinations.
        let a_choices = [comps.a.q, {
            let dc = comps.a.dont_care(mgr);
            mgr.or(comps.a.q, dc)
        }];
        let b_choices = [comps.b.q, {
            let dc = comps.b.dont_care(mgr);
            mgr.or(comps.b.q, dc)
        }];
        for fa in a_choices {
            for fb in b_choices {
                let f = mgr.xor(fa, fb);
                assert!(isf.contains(mgr, f), "recomposition must fit the interval");
            }
        }
    }

    #[test]
    fn parity_decomposes_with_any_split() {
        let mut mgr = Bdd::new(6);
        let isf = parity_isf(&mut mgr, 6);
        let xa = VarSet::from_iter([0u32, 1, 2]);
        let xb = VarSet::from_iter([3u32, 4, 5]);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("parity splits");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
        // With common variables too.
        let xa = VarSet::from_iter([0u32, 1]);
        let xb = VarSet::from_iter([4u32, 5]);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("parity splits");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
    }

    #[test]
    fn and_of_vars_is_not_exor_decomposable() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        assert!(!exor_decomposable(&mut mgr, &isf, &VarSet::singleton(0), &VarSet::singleton(1)));
    }

    #[test]
    fn mixed_function_with_common_variables() {
        // F = (a ⊕ b) ⊕ (c · d) with X_A = {a}, X_B = {b}, X_C = {c, d}.
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.xor(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.xor(ab, cd);
        let isf = Isf::from_csf(&mut mgr, f);
        let xa = VarSet::singleton(0);
        let xb = VarSet::singleton(1);
        let comps = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).expect("decomposable");
        assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
    }

    #[test]
    fn matches_truth_table_oracle_on_random_isfs() {
        use boolfn::{oracle, TruthTable};
        let n = 5;
        let mut decomposable_seen = 0;
        for seed in 0..80u64 {
            // Generous don't-cares make decomposable instances common.
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.4, seed ^ 0xfeed);
            let qt = f.and(&care);
            let rt = f.complement().and(&care);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            for (xam, xbm) in [(0b00011u32, 0b11100u32), (0b00001, 0b00010), (0b01001, 0b00110)] {
                let xa: VarSet = (0..n as u32).filter(|v| xam & (1 << v) != 0).collect();
                let xb: VarSet = (0..n as u32).filter(|v| xbm & (1 << v) != 0).collect();
                let got = check_exor_bidecomp(&mut mgr, &isf, &xa, &xb);
                let expected = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);
                assert_eq!(got.is_some(), expected, "seed {seed} sets {xam:b}/{xbm:b}");
                if let Some(comps) = got {
                    decomposable_seen += 1;
                    assert_valid(&mut mgr, &isf, &xa, &xb, &comps);
                }
            }
        }
        assert!(decomposable_seen > 10, "sweep must exercise the success path");
    }

    /// The yes/no check, the derivation and the truth-table oracle agree
    /// on random ISFs with common variables under random variable orders.
    /// Each function is built as `A(X_A, X_C) ⊕ B(X_B, X_C)`, perturbed in
    /// up to two minterms and given don't-cares, so both verdicts are
    /// common.
    #[test]
    fn decision_agrees_with_derivation_and_oracle() {
        use benchmarks::SplitMix64;
        use boolfn::{oracle, TruthTable};
        let (mut yes, mut no) = (0, 0);
        for seed in 0..400u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 5 + rng.gen_range(4);
            // Non-empty X_A and X_B, and at least one common variable.
            let mut vars: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut vars);
            let ka = 1 + rng.gen_range(n - 2);
            let kb = 1 + rng.gen_range(n - 1 - ka);
            let mask = |vs: &[u32]| vs.iter().fold(0u32, |m, &v| m | 1 << v);
            let (xam, xbm) = (mask(&vars[..ka]), mask(&vars[ka..ka + kb]));
            let ta = TruthTable::random(n, 0.5, rng.next_u64());
            let tb = TruthTable::random(n, 0.5, rng.next_u64());
            let a = TruthTable::from_fn(n, |m| ta.get(m & !xbm));
            let b = TruthTable::from_fn(n, |m| tb.get(m & !xam));
            let mut f = a.xor(&b);
            for _ in 0..rng.gen_range(3) {
                let m = rng.gen_range(1 << n) as u32;
                f.set(m, !f.get(m));
            }
            let care = TruthTable::random(n, [0.5, 0.7, 0.9][rng.gen_range(3)], rng.next_u64());
            let (qt, rt) = (f.and(&care), f.complement().and(&care));
            let expected = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);

            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            let roots = mgr.reorder(&order, &[q, r]);
            let isf = Isf::new(&mut mgr, roots[0], roots[1]);
            let xa: VarSet = (0..n as u32).filter(|v| xam & (1 << v) != 0).collect();
            let xb: VarSet = (0..n as u32).filter(|v| xbm & (1 << v) != 0).collect();
            let ctx = format!("seed {seed} sets {xam:b}/{xbm:b} order {order:?}");
            assert_eq!(exor_decomposable(&mut mgr, &isf, &xa, &xb), expected, "{ctx}");
            assert_eq!(check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).is_some(), expected, "{ctx}");
            if expected {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes > 100 && no > 100, "sweep must hit both verdicts: {yes} yes, {no} no");
    }

    #[test]
    fn fully_unspecified_function_decomposes_trivially() {
        let mut mgr = Bdd::new(3);
        let isf = Isf::new(&mut mgr, Func::ZERO, Func::ZERO);
        let comps =
            check_exor_bidecomp(&mut mgr, &isf, &VarSet::singleton(0), &VarSet::singleton(1))
                .expect("everything is compatible");
        assert!(comps.a.q.is_zero() && comps.a.r.is_zero());
        assert!(comps.b.q.is_zero() && comps.b.r.is_zero());
    }
}
