//! Decomposability checks — Section 3 of the paper.
//!
//! All checks take the variable sets as [`VarSet`]s and build the
//! quantifier cubes internally; the caller can also use the `_cubes`
//! variants inside grouping loops to reuse pre-built cubes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bdd::{Bdd, Func, VarId, VarSet};

use crate::Isf;

/// Process-global count of theorem checks evaluated (Theorem 1 and its
/// AND dual, Theorem 2 pairs, weak-usefulness tests). Monotonic; cost
/// attribution reads *deltas* around each recursive call, so the absolute
/// value (shared across tests in one process) never matters. Follows the
/// same process-global pattern as the mutation switch below — the check
/// functions only see a `&mut Bdd`, so there is nowhere per-run to hang
/// the counter without widening every grouping-loop signature.
static THEOREM_CHECKS: AtomicU64 = AtomicU64::new(0);

/// Total theorem checks evaluated by this process so far.
pub fn theorem_checks() -> u64 {
    THEOREM_CHECKS.load(Ordering::Relaxed)
}

#[inline]
fn note_check() {
    THEOREM_CHECKS.fetch_add(1, Ordering::Relaxed);
}

/// Deliberate-fault switch used by the differential fuzz harness to prove
/// it can catch real bugs: when enabled, [`or_decomposable_cubes`]
/// quantifies the `X_B` side of Theorem 1 universally instead of
/// existentially. `∀X_B R ⊆ ∃X_B R`, so the intersection with `∃X_A R`
/// shrinks and the check wrongly *accepts* groupings the true condition
/// rejects, producing components that violate the `[Q, ¬R]` interval.
///
/// Process-global; never enabled in production paths.
static MUTATE_OR_CHECK: AtomicBool = AtomicBool::new(false);

/// Enables or disables the deliberate Theorem 1 mutation (see
/// [`or_check_mutation_enabled`]). Only the fuzz harness self-check and the
/// `fuzz --mutate` binary flip this; remember to restore `false`.
pub fn set_or_check_mutation(enabled: bool) {
    MUTATE_OR_CHECK.store(enabled, Ordering::SeqCst);
}

/// Is the deliberate Theorem 1 mutation currently enabled?
pub fn or_check_mutation_enabled() -> bool {
    MUTATE_OR_CHECK.load(Ordering::SeqCst)
}

/// Theorem 1: is the ISF OR-bi-decomposable with sets `(X_A, X_B)`?
///
/// Condition: `Q · ∃X_A R · ∃X_B R = 0`.
pub fn or_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    let ca = mgr.cube(xa);
    let cb = mgr.cube(xb);
    or_decomposable_cubes(mgr, isf, ca, cb)
}

/// [`or_decomposable`] with pre-built quantifier cubes.
pub fn or_decomposable_cubes(mgr: &mut Bdd, isf: &Isf, xa_cube: Func, xb_cube: Func) -> bool {
    note_check();
    let ra = mgr.exists(isf.r, xa_cube);
    let rb = if or_check_mutation_enabled() {
        mgr.forall(isf.r, xb_cube)
    } else {
        mgr.exists(isf.r, xb_cube)
    };
    let t = mgr.and(ra, rb);
    mgr.disjoint(isf.q, t)
}

/// Dual of Theorem 1: is the ISF AND-bi-decomposable with `(X_A, X_B)`?
///
/// Condition: `R · ∃X_A Q · ∃X_B Q = 0`.
pub fn and_decomposable(mgr: &mut Bdd, isf: &Isf, xa: &VarSet, xb: &VarSet) -> bool {
    or_decomposable(mgr, &isf.complement(), xa, xb)
}

/// [`and_decomposable`] with pre-built quantifier cubes.
pub fn and_decomposable_cubes(mgr: &mut Bdd, isf: &Isf, xa_cube: Func, xb_cube: Func) -> bool {
    or_decomposable_cubes(mgr, &isf.complement(), xa_cube, xb_cube)
}

/// Theorem 2: is the ISF EXOR-bi-decomposable with the singleton sets
/// `X_A = {xa}`, `X_B = {xb}`?
///
/// Uses the Boolean derivative of the interval w.r.t. `xa`:
/// `Q_D = ∃xa Q · ∃xa R` (derivative must be 1), `R_D = ∀xa Q + ∀xa R`
/// (derivative must be 0). Decomposable iff `Q_D · ∃xb R_D = 0`.
pub fn exor_decomposable_pair(mgr: &mut Bdd, isf: &Isf, xa: VarId, xb: VarId) -> bool {
    let derivative = derivative(mgr, isf, xa);
    exor_decomposable_pair_derivative(mgr, derivative, xb)
}

/// [`exor_decomposable_pair`] with the derivative `(Q_D, R_D)` w.r.t. `xa`
/// already built by [`derivative`], so a caller testing many partners of
/// one variable derives it once.
pub fn exor_decomposable_pair_derivative(mgr: &mut Bdd, (qd, rd): (Func, Func), xb: VarId) -> bool {
    note_check();
    let cb = mgr.cube(&VarSet::singleton(xb));
    let erd = mgr.exists(rd, cb);
    mgr.disjoint(qd, erd)
}

/// The on-set and off-set of the Boolean derivative of the ISF w.r.t. `v`.
///
/// `Q_D` marks the points (of the space without `v`) where every
/// compatible completion must change value when `v` flips; `R_D` where it
/// must not.
pub fn derivative(mgr: &mut Bdd, isf: &Isf, v: VarId) -> (Func, Func) {
    let cube = mgr.cube(&VarSet::singleton(v));
    let eq = mgr.exists(isf.q, cube);
    let er = mgr.exists(isf.r, cube);
    let qd = mgr.and(eq, er);
    let aq = mgr.forall(isf.q, cube);
    let ar = mgr.forall(isf.r, cube);
    let rd = mgr.or(aq, ar);
    (qd, rd)
}

/// Is a *weak* OR-bi-decomposition with dedicated set `X_A` useful — does
/// it strictly increase the don't-cares of component A?
///
/// Condition (Table 1): `Q · ∃X_A R ≠ Q`.
pub fn weak_or_useful(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> bool {
    note_check();
    let ca = mgr.cube(xa);
    let er = mgr.exists(isf.r, ca);
    let qa = mgr.and(isf.q, er);
    qa != isf.q
}

/// Dual: is a weak AND-bi-decomposition with dedicated set `X_A` useful?
pub fn weak_and_useful(mgr: &mut Bdd, isf: &Isf, xa: &VarSet) -> bool {
    weak_or_useful(mgr, &isf.complement(), xa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_isf(mgr: &mut Bdd) -> Isf {
        // F = OR(a·b, c·d) with a,b,c,d = vars 0..3.
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        Isf::from_csf(mgr, f)
    }

    #[test]
    fn fig3_or_decomposability() {
        let mut mgr = Bdd::new(4);
        let isf = fig3_isf(&mut mgr);
        let xa = VarSet::from_iter([2u32, 3]);
        let xb = VarSet::from_iter([0u32, 1]);
        assert!(or_decomposable(&mut mgr, &isf, &xa, &xb));
        assert!(!and_decomposable(&mut mgr, &isf, &xa, &xb));
        // Mixed groups are not OR-decomposable.
        let xa_bad = VarSet::from_iter([0u32, 2]);
        let xb_bad = VarSet::from_iter([1u32, 3]);
        assert!(!or_decomposable(&mut mgr, &isf, &xa_bad, &xb_bad));
    }

    #[test]
    fn parity_is_exor_decomposable_only() {
        let mut mgr = Bdd::new(4);
        let vars: Vec<Func> = (0..4).map(|i| mgr.var(i)).collect();
        let f = vars.iter().skip(1).fold(vars[0], |acc, &v| mgr.xor(acc, v));
        let isf = Isf::from_csf(&mut mgr, f);
        assert!(exor_decomposable_pair(&mut mgr, &isf, 0, 1));
        assert!(exor_decomposable_pair(&mut mgr, &isf, 2, 3));
        let xa = VarSet::singleton(0);
        let xb = VarSet::singleton(1);
        assert!(!or_decomposable(&mut mgr, &isf, &xa, &xb));
        assert!(!and_decomposable(&mut mgr, &isf, &xa, &xb));
    }

    #[test]
    fn majority_has_no_strong_pairwise_decomposition() {
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
        for xa in 0..3u32 {
            for xb in 0..3u32 {
                if xa == xb {
                    continue;
                }
                let sa = VarSet::singleton(xa);
                let sb = VarSet::singleton(xb);
                assert!(!or_decomposable(&mut mgr, &isf, &sa, &sb));
                assert!(!and_decomposable(&mut mgr, &isf, &sa, &sb));
                assert!(!exor_decomposable_pair(&mut mgr, &isf, xa, xb));
            }
        }
    }

    #[test]
    fn derivative_of_xor_is_constant_one() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (qd, rd) = derivative(&mut mgr, &isf, 0);
        assert!(qd.is_one(), "xor always toggles");
        assert!(rd.is_zero());
    }

    #[test]
    fn derivative_of_and_depends_on_other_input() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.and(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (qd, rd) = derivative(&mut mgr, &isf, 0);
        assert_eq!(qd, b, "a·b toggles with a exactly when b=1");
        let nb = mgr.not(b);
        assert_eq!(rd, nb);
    }

    #[test]
    fn weak_usefulness_conditions() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let isf = Isf::from_csf(&mut mgr, f);
        // Quantifying X_A = {c}: rows with c=1 are pure on-set rows.
        assert!(weak_or_useful(&mut mgr, &isf, &VarSet::singleton(2)));
        // For parity nothing is useful.
        let p = {
            let t = mgr.xor(a, b);
            mgr.xor(t, c)
        };
        let pisf = Isf::from_csf(&mut mgr, p);
        for v in 0..3 {
            assert!(!weak_or_useful(&mut mgr, &pisf, &VarSet::singleton(v)));
            assert!(!weak_and_useful(&mut mgr, &pisf, &VarSet::singleton(v)));
        }
    }

    #[test]
    fn checks_agree_with_truth_table_oracle() {
        // Randomized cross-check of Theorems 1 and 2 against the
        // enumeration oracles from `boolfn`.
        use boolfn::{oracle, TruthTable};
        for seed in 0..30u64 {
            let n = 5;
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.75, seed ^ 0xdead);
            let qt = f.and(&care);
            let rt = f.complement().and(&care);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            for (xa_mask, xb_mask) in
                [(0b00011u32, 0b11100u32), (0b00101, 0b01010), (0b00001, 0b00010)]
            {
                let xa: VarSet = (0..n as u32).filter(|v| xa_mask & (1 << v) != 0).collect();
                let xb: VarSet = (0..n as u32).filter(|v| xb_mask & (1 << v) != 0).collect();
                assert_eq!(
                    or_decomposable(&mut mgr, &isf, &xa, &xb),
                    oracle::or_bidecomposable(&qt, &rt, xa_mask, xb_mask),
                    "OR seed {seed} sets {xa_mask:b}/{xb_mask:b}"
                );
                assert_eq!(
                    and_decomposable(&mut mgr, &isf, &xa, &xb),
                    oracle::and_bidecomposable(&qt, &rt, xa_mask, xb_mask),
                    "AND seed {seed} sets {xa_mask:b}/{xb_mask:b}"
                );
            }
            assert_eq!(
                exor_decomposable_pair(&mut mgr, &isf, 0, 1),
                oracle::exor_bidecomposable(&qt, &rt, 0b1, 0b10),
                "EXOR seed {seed}"
            );
        }
    }
}
