//! Variable grouping — Section 5 of the paper (Figs. 5 and 6).
//!
//! Grouping proceeds in two steps: [`find_initial_grouping`] seeds
//! `X_A`/`X_B` with one variable each, then [`group_variables`] greedily
//! grows them, always trying the smaller set first so the final sets stay
//! balanced ("the closer their sizes are, the better" — balanced sets give
//! balanced netlists and short delay).

use std::collections::HashMap;

use bdd::{Bdd, Func, VarId, VarSet};

use crate::check;
use crate::exor;
use crate::{GateChoice, Isf};

/// A variable grouping: the dedicated input sets of components A and B.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grouping {
    /// Variables feeding only component A.
    pub xa: VarSet,
    /// Variables feeding only component B.
    pub xb: VarSet,
}

impl Grouping {
    /// Total number of dedicated variables.
    pub fn total(&self) -> usize {
        self.xa.len() + self.xb.len()
    }

    /// Size difference between the two sets (0 = perfectly balanced).
    pub fn imbalance(&self) -> usize {
        self.xa.len().abs_diff(self.xb.len())
    }
}

/// Theorem 2 pair verdicts of one ISF, filled lazily and shared by the
/// Fig. 5 seed search and the Fig. 6 growth of an EXOR grouping.
///
/// A candidate `(X_A, X_B)` is decided without Fig. 4 where that is exact:
///
/// * If some pair `(a, b)` in `X_A × X_B` fails Theorem 2, no decomposition
///   exists: the components of one with `(X_A, X_B)` also decompose the
///   ISF with `({a}, {b})`, the other variables becoming common.
/// * If the ISF is completely specified and every pair passes, one exists:
///   `∂²F/∂a∂b ≡ 0` for every such pair means no monomial of the
///   algebraic normal form of `F` mixes `X_A` and `X_B`, so
///   `F = A(X_A, X_C) ⊕ B(X_B, X_C)`.
///
/// Otherwise the full Fig. 4 check runs. It stays the only source of EXOR
/// components; this table only answers yes/no.
struct ExorPairs {
    isf: Isf,
    /// `Q + R = 1`, computed on first use.
    complete: Option<bool>,
    /// `(Q_D, R_D)` of [`check::derivative`] per variable.
    derivatives: HashMap<VarId, (Func, Func)>,
    /// Theorem 2 verdicts keyed by `(min, max)`: the test is symmetric.
    verdicts: HashMap<(VarId, VarId), bool>,
}

impl ExorPairs {
    fn new(isf: &Isf) -> Self {
        ExorPairs {
            isf: *isf,
            complete: None,
            derivatives: HashMap::new(),
            verdicts: HashMap::new(),
        }
    }

    /// Theorem 2: is the ISF EXOR-decomposable with `({x}, {y})`?
    fn pair(&mut self, mgr: &mut Bdd, x: VarId, y: VarId) -> bool {
        let key = (x.min(y), x.max(y));
        if let Some(&verdict) = self.verdicts.get(&key) {
            return verdict;
        }
        let isf = &self.isf;
        let derivative =
            *self.derivatives.entry(key.0).or_insert_with(|| check::derivative(mgr, isf, key.0));
        let verdict = check::exor_decomposable_pair_derivative(mgr, derivative, key.1);
        self.verdicts.insert(key, verdict);
        verdict
    }

    /// Is the ISF EXOR-decomposable with `(X_A, X_B)`?
    fn decomposable(&mut self, mgr: &mut Bdd, xa: &VarSet, xb: &VarSet) -> bool {
        if !xa.iter().all(|a| xb.iter().all(|b| self.pair(mgr, a, b))) {
            return false;
        }
        let isf = self.isf;
        *self.complete.get_or_insert_with(|| isf.is_completely_specified(mgr))
            || exor::exor_decomposable(mgr, &isf, xa, xb)
    }
}

/// Dispatches the gate-specific strong decomposability check.
fn decomposable(
    mgr: &mut Bdd,
    isf: &Isf,
    gate: GateChoice,
    pairs: &mut ExorPairs,
    xa: &VarSet,
    xb: &VarSet,
) -> bool {
    match gate {
        GateChoice::Or => check::or_decomposable(mgr, isf, xa, xb),
        GateChoice::And => check::and_decomposable(mgr, isf, xa, xb),
        GateChoice::Exor => pairs.decomposable(mgr, xa, xb),
    }
}

/// Fig. 5: finds singleton sets `({x}, {y})` for which the ISF is strongly
/// bi-decomposable with gate `gate`, or `None` if no pair works.
///
/// For EXOR the cheap Theorem 2 pair test is used instead of the full
/// Fig. 4 propagation.
pub fn find_initial_grouping(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    gate: GateChoice,
) -> Option<Grouping> {
    seed_grouping(mgr, isf, support, gate, &mut ExorPairs::new(isf))
}

fn seed_grouping(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    gate: GateChoice,
    pairs: &mut ExorPairs,
) -> Option<Grouping> {
    let vars: Vec<u32> = support.iter().collect();
    // All three checks are symmetric in (X_A, X_B), so unordered pairs
    // suffice (the paper's double loop tests both orders; same outcome).
    for (i, &x) in vars.iter().enumerate() {
        for &y in &vars[i + 1..] {
            let (xa, xb) = (VarSet::singleton(x), VarSet::singleton(y));
            let ok = match gate {
                GateChoice::Exor => pairs.pair(mgr, x, y),
                _ => decomposable(mgr, isf, gate, pairs, &xa, &xb),
            };
            if ok {
                return Some(Grouping { xa, xb });
            }
        }
    }
    None
}

/// Fig. 6: grows the initial grouping greedily, trying to add each
/// remaining support variable to the smaller set first.
///
/// Returns `None` if the function has no strong bi-decomposition with
/// `gate` under any grouping.
pub fn group_variables(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
    gate: GateChoice,
) -> Option<Grouping> {
    let mut pairs = ExorPairs::new(isf);
    let mut grouping = seed_grouping(mgr, isf, support, gate, &mut pairs)?;
    let rest = support.difference(&grouping.xa.union(&grouping.xb));
    for z in rest.iter() {
        let zs = VarSet::singleton(z);
        // Try the smaller set first to keep the grouping balanced.
        let (first_a, second_a) =
            if grouping.xa.len() <= grouping.xb.len() { (true, false) } else { (false, true) };
        for to_a in [first_a, second_a] {
            let (xa, xb) = if to_a {
                (grouping.xa.union(&zs), grouping.xb)
            } else {
                (grouping.xa, grouping.xb.union(&zs))
            };
            if decomposable(mgr, isf, gate, &mut pairs, &xa, &xb) {
                grouping = Grouping { xa, xb };
                break;
            }
        }
    }
    Some(grouping)
}

/// `FindBestVariableGrouping` of Fig. 7: picks the best of the candidate
/// groupings found for OR, AND and EXOR.
///
/// The cost function follows §7: more included variables is better;
/// among equals, better balance is better. Ties prefer OR, then AND, then
/// EXOR (EXOR gates are the most expensive in the §8 cost model).
pub fn find_best_grouping(
    candidates: [(GateChoice, Option<Grouping>); 3],
) -> Option<(GateChoice, Grouping)> {
    let mut best: Option<(GateChoice, Grouping)> = None;
    for (gate, candidate) in candidates {
        let Some(g) = candidate else { continue };
        let better = match &best {
            None => true,
            Some((_, b)) => {
                g.total() > b.total() || (g.total() == b.total() && g.imbalance() < b.imbalance())
            }
        };
        if better {
            best = Some((gate, g));
        }
    }
    best
}

/// Weak variable grouping (§7): chooses the single dedicated variable
/// `X_A = {x}` and the gate (weak OR or weak AND) that move the most
/// on-/off-set minterms into component A's don't-care set.
///
/// Returns `None` when no weak decomposition is useful for any variable —
/// the caller must then fall back to Shannon expansion (the paper states
/// one of the weak forms always exists for non-trivial functions; the
/// fallback keeps the implementation total regardless).
pub fn group_variables_weak(
    mgr: &mut Bdd,
    isf: &Isf,
    support: &VarSet,
) -> Option<(GateChoice, VarSet)> {
    let mut best: Option<(GateChoice, VarSet, f64)> = None;
    for x in support.iter() {
        let xs = VarSet::singleton(x);
        let cube = mgr.cube(&xs);
        // Weak OR gain: on-set minterms whose row has no off-set point.
        let er = mgr.exists(isf.r, cube);
        let qa = mgr.and(isf.q, er);
        let gain_or = mgr.sat_count(isf.q) - mgr.sat_count(qa);
        if gain_or > 0.0 && best.as_ref().is_none_or(|&(_, _, g)| gain_or > g) {
            best = Some((GateChoice::Or, xs, gain_or));
        }
        // Weak AND gain: dual.
        let eq = mgr.exists(isf.q, cube);
        let ra = mgr.and(isf.r, eq);
        let gain_and = mgr.sat_count(isf.r) - mgr.sat_count(ra);
        if gain_and > 0.0 && best.as_ref().is_none_or(|&(_, _, g)| gain_and > g) {
            best = Some((GateChoice::And, xs, gain_and));
        }
    }
    best.map(|(gate, xs, _)| (gate, xs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfn::{oracle, TruthTable};

    #[test]
    fn fig3_grouping_found() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let d = mgr.var(3);
        let ab = mgr.and(a, b);
        let cd = mgr.and(c, d);
        let f = mgr.or(ab, cd);
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        let g =
            group_variables(&mut mgr, &isf, &support, GateChoice::Or).expect("OR grouping exists");
        // The greedy growth must find the full balanced split {a,b}/{c,d}
        // (in some order).
        assert_eq!(g.total(), 4);
        assert_eq!(g.imbalance(), 0);
        let split_ok = (g.xa == VarSet::from_iter([0u32, 1])
            && g.xb == VarSet::from_iter([2u32, 3]))
            || (g.xa == VarSet::from_iter([2u32, 3]) && g.xb == VarSet::from_iter([0u32, 1]));
        assert!(split_ok, "got {:?}", g);
    }

    #[test]
    fn parity_grouping_is_exor_and_total() {
        let mut mgr = Bdd::new(6);
        let mut f = Func::ZERO;
        for v in 0..6 {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        assert!(group_variables(&mut mgr, &isf, &support, GateChoice::Or).is_none());
        assert!(group_variables(&mut mgr, &isf, &support, GateChoice::And).is_none());
        let g = group_variables(&mut mgr, &isf, &support, GateChoice::Exor)
            .expect("parity is EXOR-decomposable");
        assert_eq!(g.total(), 6, "every variable lands in a dedicated set");
        assert!(g.imbalance() <= 1);
    }

    #[test]
    fn majority_has_no_strong_grouping() {
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
        let support = isf.support(&mgr);
        for gate in [GateChoice::Or, GateChoice::And, GateChoice::Exor] {
            assert!(find_initial_grouping(&mut mgr, &isf, &support, gate).is_none());
        }
        // But a weak grouping exists.
        assert!(group_variables_weak(&mut mgr, &isf, &support).is_some());
    }

    #[test]
    fn best_grouping_prefers_more_variables_then_balance() {
        let g22 = Grouping { xa: VarSet::from_iter([0u32, 1]), xb: VarSet::from_iter([2u32, 3]) };
        let g31 = Grouping { xa: VarSet::from_iter([0u32, 1, 2]), xb: VarSet::singleton(3) };
        let g21 = Grouping { xa: VarSet::from_iter([0u32, 1]), xb: VarSet::singleton(2) };
        // Same total: balance wins.
        let best = find_best_grouping([
            (GateChoice::Or, Some(g31)),
            (GateChoice::And, Some(g22)),
            (GateChoice::Exor, None),
        ])
        .expect("candidates exist");
        assert_eq!(best.0, GateChoice::And);
        assert_eq!(best.1, g22);
        // Larger total wins over balance.
        let best = find_best_grouping([
            (GateChoice::Or, Some(g21)),
            (GateChoice::And, None),
            (GateChoice::Exor, Some(g31)),
        ])
        .expect("candidates exist");
        assert_eq!(best.0, GateChoice::Exor);
        // No candidates → none.
        assert!(find_best_grouping([
            (GateChoice::Or, None),
            (GateChoice::And, None),
            (GateChoice::Exor, None),
        ])
        .is_none());
    }

    #[test]
    fn weak_grouping_picks_most_dont_cares() {
        // F = a·b + c. Quantifying a (or b) out of R leaves only rows with
        // an off-set point in the ¬c half-space, freeing 4 of the 5 on-set
        // minterms; quantifying c frees only 2. The weak grouping must
        // therefore pick X_A = {a} (the first maximal-gain variable).
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        let (gate, xa) = group_variables_weak(&mut mgr, &isf, &support).expect("useful");
        assert_eq!(gate, GateChoice::Or);
        assert_eq!(xa, VarSet::singleton(0));
        // Sanity: the gain of {a} beats the gain of {c}.
        let gain = |mgr: &mut Bdd, xs: &VarSet| {
            let cube = mgr.cube(xs);
            let er = mgr.exists(isf.r, cube);
            let qa = mgr.and(isf.q, er);
            mgr.sat_count(isf.q) - mgr.sat_count(qa)
        };
        let ga = gain(&mut mgr, &VarSet::singleton(0));
        let gc = gain(&mut mgr, &VarSet::singleton(2));
        assert!(ga > gc, "gain(a)={ga} must exceed gain(c)={gc}");
    }

    /// One splitmix64 step, for reproducible test parameters.
    fn mix(z: u64) -> u64 {
        let z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random disjoint `(X_A, X_B)` masks over `n ≥ 5` variables, each set
    /// of size at least 2.
    fn random_split(n: usize, seed: u64) -> (u32, u32) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut s = seed;
        for i in (1..n).rev() {
            s = mix(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        s = mix(s);
        let ka = 2 + (s % (n as u64 - 3)) as usize;
        s = mix(s);
        let kb = 2 + (s % ((n - ka) as u64 - 1)) as usize;
        let mask = |vs: &[u32]| vs.iter().fold(0u32, |m, &v| m | 1 << v);
        (mask(&order[..ka]), mask(&order[ka..ka + kb]))
    }

    /// A function of `n` variables: by seed, `A(X_A, X_C) ⊕ B(X_B, X_C)`
    /// (decomposable), the same with one minterm flipped (a near miss), or
    /// uniformly random.
    fn random_function(n: usize, xa: u32, xb: u32, seed: u64) -> TruthTable {
        let a = TruthTable::from_fn(n, |m| mix(seed ^ 0xa ^ u64::from(m & !xb) << 8) & 1 == 1);
        let b = TruthTable::from_fn(n, |m| mix(seed ^ 0xb ^ u64::from(m & !xa) << 8) & 1 == 1);
        let mut f = a.xor(&b);
        match seed % 3 {
            0 => f,
            1 => {
                let m = (mix(seed) % (1u64 << n)) as u32;
                f.set(m, !f.get(m));
                f
            }
            _ => TruthTable::random(n, 0.5, seed),
        }
    }

    fn var_set(mask: u32) -> VarSet {
        (0..32u32).filter(|v| mask & (1 << v) != 0).collect()
    }

    fn all_pairs_pass(mgr: &mut Bdd, pairs: &mut ExorPairs, xa: &VarSet, xb: &VarSet) -> bool {
        xa.iter().all(|a| xb.iter().all(|b| pairs.pair(mgr, a, b)))
    }

    #[test]
    fn pair_table_is_exact_on_completely_specified_functions() {
        let (mut yes, mut no) = (0, 0);
        for seed in 0..300u64 {
            let n = 5 + (seed % 3) as usize;
            let (xam, xbm) = random_split(n, seed);
            let f = random_function(n, xam, xbm, seed);
            let expected = oracle::exor_bidecomposable(&f, &f.complement(), xam, xbm);
            let mut mgr = Bdd::new(n);
            let fb = f.to_bdd(&mut mgr);
            let isf = Isf::from_csf(&mut mgr, fb);
            let (xa, xb) = (var_set(xam), var_set(xbm));
            let mut pairs = ExorPairs::new(&isf);
            let ctx = format!("seed {seed} sets {xam:b}/{xbm:b}");
            assert_eq!(all_pairs_pass(&mut mgr, &mut pairs, &xa, &xb), expected, "{ctx}");
            assert_eq!(pairs.decomposable(&mut mgr, &xa, &xb), expected, "{ctx}");
            assert_eq!(
                exor::check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).is_some(),
                expected,
                "{ctx}"
            );
            if expected {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes > 50 && no > 50, "sweep must hit both verdicts: {yes} yes, {no} no");
    }

    #[test]
    fn failing_pair_rules_out_exor_on_incompletely_specified_functions() {
        let (mut failing, mut fig4_needed) = (0, 0);
        for seed in 0..300u64 {
            let n = 5 + (seed % 3) as usize;
            let (xam, xbm) = random_split(n, seed);
            let f = random_function(n, xam, xbm, seed);
            let care = TruthTable::random(n, [0.5, 0.75, 0.9][(seed / 3 % 3) as usize], !seed);
            let (qt, rt) = (f.and(&care), f.complement().and(&care));
            let expected = oracle::exor_bidecomposable(&qt, &rt, xam, xbm);
            let mut mgr = Bdd::new(n);
            let q = qt.to_bdd(&mut mgr);
            let r = rt.to_bdd(&mut mgr);
            let isf = Isf::new(&mut mgr, q, r);
            let (xa, xb) = (var_set(xam), var_set(xbm));
            let mut pairs = ExorPairs::new(&isf);
            let fig4 = exor::check_exor_bidecomp(&mut mgr, &isf, &xa, &xb).is_some();
            let ctx = format!("seed {seed} sets {xam:b}/{xbm:b}");
            if all_pairs_pass(&mut mgr, &mut pairs, &xa, &xb) {
                fig4_needed += usize::from(!fig4);
            } else {
                failing += 1;
                assert!(!fig4, "a failing pair must rule out Fig. 4: {ctx}");
            }
            assert_eq!(pairs.decomposable(&mut mgr, &xa, &xb), expected, "{ctx}");
        }
        assert!(failing > 50, "sweep must exercise failing pairs: {failing}");
        // With don't-cares, passing pairs do not prove decomposability: the
        // sweep must contain cases only Fig. 4 rejects.
        assert!(fig4_needed > 0, "sweep must show where Fig. 4 is still needed");
    }

    #[test]
    fn weak_grouping_returns_none_for_parity() {
        let mut mgr = Bdd::new(4);
        let mut f = Func::ZERO;
        for v in 0..4 {
            let x = mgr.var(v);
            f = mgr.xor(f, x);
        }
        let isf = Isf::from_csf(&mut mgr, f);
        let support = isf.support(&mgr);
        assert!(group_variables_weak(&mut mgr, &isf, &support).is_none());
    }
}
