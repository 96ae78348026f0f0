//! Incompletely specified functions as intervals over a BDD manager.

use bdd::{Bdd, Func, VarId, VarSet};

/// An incompletely specified Boolean function (ISF), represented by its
/// on-set `Q` and off-set `R` as BDDs in a shared manager.
///
/// The ISF denotes the interval of completely specified functions
/// `[Q, ¬R]`: a CSF `f` is *compatible* with the ISF iff `Q ≤ f ≤ ¬R`.
/// `Q` and `R` must be disjoint (checked by [`Isf::new`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Isf {
    /// The on-set: where every compatible function must be 1.
    pub q: Func,
    /// The off-set: where every compatible function must be 0.
    pub r: Func,
}

impl Isf {
    /// Creates an ISF from its on-set and off-set.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `r` overlap.
    pub fn new(mgr: &mut Bdd, q: Func, r: Func) -> Self {
        assert!(mgr.disjoint(q, r), "ISF on-set and off-set must be disjoint");
        Isf { q, r }
    }

    /// The ISF of a completely specified function (`Q = f`, `R = ¬f`).
    pub fn from_csf(mgr: &mut Bdd, f: Func) -> Self {
        Isf { q: f, r: mgr.not(f) }
    }

    /// Creates an ISF without the disjointness check.
    ///
    /// Only for callers that guarantee disjointness structurally (e.g. the
    /// derivation formulas); debug builds still assert.
    pub(crate) fn new_unchecked(q: Func, r: Func) -> Self {
        Isf { q, r }
    }

    /// The care set `Q + R`.
    pub fn care(&self, mgr: &mut Bdd) -> Func {
        mgr.or(self.q, self.r)
    }

    /// The don't-care set `¬(Q + R)`.
    pub fn dont_care(&self, mgr: &mut Bdd) -> Func {
        let care = self.care(mgr);
        mgr.not(care)
    }

    /// Is the ISF completely specified (no don't-cares)?
    pub fn is_completely_specified(&self, mgr: &mut Bdd) -> bool {
        self.care(mgr).is_one()
    }

    /// Theorem 6: is the CSF `f` compatible with this ISF
    /// (`Q·¬f = 0` and `R·f = 0`)?
    pub fn contains(&self, mgr: &mut Bdd, f: Func) -> bool {
        mgr.implies(self.q, f) && mgr.disjoint(self.r, f)
    }

    /// Theorem 6 (second half): is the *complement* of `f` compatible
    /// (`Q·f = 0` and `R·¬f = 0`)? Tested on `f` itself, so no BDD for
    /// `¬f` is built.
    pub fn contains_complement(&self, mgr: &mut Bdd, f: Func) -> bool {
        mgr.disjoint(self.q, f) && mgr.implies(self.r, f)
    }

    /// The complemented ISF (swap on-set and off-set).
    pub fn complement(&self) -> Isf {
        Isf { q: self.r, r: self.q }
    }

    /// Cofactor of the interval w.r.t. one literal.
    pub fn cofactor(&self, mgr: &mut Bdd, v: VarId, value: bool) -> Isf {
        Isf { q: mgr.cofactor(self.q, v, value), r: mgr.cofactor(self.r, v, value) }
    }

    /// The *essential* support: variables on which at least one of `Q`, `R`
    /// structurally depends.
    pub fn support(&self, mgr: &Bdd) -> VarSet {
        mgr.support(self.q).union(&mgr.support(self.r))
    }

    /// Is variable `v` inessential — does the interval contain a function
    /// independent of `v`? (`∃v Q` and `∃v R` must not overlap.)
    pub fn is_inessential(&self, mgr: &mut Bdd, v: VarId) -> bool {
        let vs = VarSet::singleton(v);
        let eq = mgr.exists_set(self.q, &vs);
        let er = mgr.exists_set(self.r, &vs);
        mgr.disjoint(eq, er)
    }

    /// Removes inessential variables with the paper's simple greedy sweep
    /// (§7: `RemoveInessentialVariables`): each variable of the support is
    /// tested once and, if inessential, existentially quantified out of
    /// both sets.
    ///
    /// Returns the reduced ISF and the number of variables removed.
    pub fn remove_inessential(&self, mgr: &mut Bdd) -> (Isf, usize) {
        let mut isf = *self;
        let mut removed = 0;
        for v in isf.support(mgr).iter() {
            if isf.is_inessential(mgr, v) {
                let vs = VarSet::singleton(v);
                isf = Isf { q: mgr.exists_set(isf.q, &vs), r: mgr.exists_set(isf.r, &vs) };
                removed += 1;
            }
        }
        (isf, removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_membership() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let ab = mgr.and(a, b);
        let aorb = mgr.or(a, b);
        let nor = mgr.nor(a, b);
        // ISF: must be 1 on a·b, must be 0 on ¬a·¬b; a+b and a·b both fit.
        let isf = Isf::new(&mut mgr, ab, nor);
        assert!(isf.contains(&mut mgr, ab));
        assert!(isf.contains(&mut mgr, aorb));
        assert!(isf.contains(&mut mgr, a));
        assert!(!isf.contains(&mut mgr, nor));
        let n_ab = mgr.not(ab);
        assert!(!isf.contains(&mut mgr, n_ab));
        assert!(isf.contains_complement(&mut mgr, n_ab), "¬(¬(a·b)) = a·b fits");
    }

    #[test]
    fn contains_complement_matches_contains_of_the_complement() {
        use boolfn::TruthTable;
        let n = 4;
        for seed in 0..40u64 {
            let f = TruthTable::random(n, 0.5, seed);
            let care = TruthTable::random(n, 0.3, seed ^ 0x5eed);
            let mut mgr = Bdd::new(n);
            let q = f.and(&care).to_bdd(&mut mgr);
            let r = f.complement().and(&care).to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let g = TruthTable::random(n, 0.5, !seed).to_bdd(&mut mgr);
            for h in [g, f.to_bdd(&mut mgr), q, r] {
                let nh = mgr.not(h);
                assert_eq!(isf.contains_complement(&mut mgr, h), isf.contains(&mut mgr, nh));
            }
        }
    }

    #[test]
    fn csf_isf_has_no_dont_cares() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let isf = Isf::from_csf(&mut mgr, a);
        assert!(isf.is_completely_specified(&mut mgr));
        assert!(isf.dont_care(&mut mgr).is_zero());
        assert!(isf.contains(&mut mgr, a));
        let na = mgr.not(a);
        assert!(!isf.contains(&mut mgr, na));
    }

    #[test]
    fn complement_swaps_sets() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let isf = Isf::from_csf(&mut mgr, a);
        let c = isf.complement();
        let na = mgr.not(a);
        assert!(c.contains(&mut mgr, na));
        assert!(!c.contains(&mut mgr, a));
    }

    #[test]
    fn inessential_variable_removal() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        // Q = a·b·c, R = ¬a·b — variable c is inessential (choose f = a·b).
        let abc = {
            let ab = mgr.and(a, b);
            mgr.and(ab, c)
        };
        let nab = {
            let na = mgr.not(a);
            mgr.and(na, b)
        };
        let isf = Isf::new(&mut mgr, abc, nab);
        assert!(isf.is_inessential(&mut mgr, 2));
        assert!(!isf.is_inessential(&mut mgr, 0));
        // Greedy sweep: removing c makes b inessential too (f = a fits the
        // interval), so two variables go.
        let (reduced, removed) = isf.remove_inessential(&mut mgr);
        assert_eq!(removed, 2);
        assert!(!reduced.support(&mgr).contains(2));
        assert!(!reduced.support(&mgr).contains(1));
        assert!(reduced.contains(&mut mgr, a));
        // Every completion of the reduced interval fits the original.
        assert!(isf.contains(&mut mgr, a));
    }

    #[test]
    fn completely_specified_has_no_inessential_support_vars() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let isf = Isf::from_csf(&mut mgr, f);
        let (reduced, removed) = isf.remove_inessential(&mut mgr);
        assert_eq!(removed, 0);
        assert_eq!(reduced.support(&mgr), isf.support(&mgr));
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn overlapping_sets_panic() {
        let mut mgr = Bdd::new(1);
        let a = mgr.var(0);
        let _ = Isf::new(&mut mgr, a, a);
    }
}
