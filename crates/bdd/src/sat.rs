//! Satisfiability helpers: evaluation, counting, cube picking.

use std::collections::HashMap;

use crate::hash::FxHashMap;
use crate::manager::{Bdd, CacheKey, CacheOp, Func, TERMINAL_LEVEL};

impl Bdd {
    /// Evaluates `f` under a complete assignment (`assignment[v]` is the
    /// value of variable `v`).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the largest variable index
    /// occurring in `f`.
    pub fn eval(&self, f: Func, assignment: &[bool]) -> bool {
        let mut g = f;
        while !g.is_const() {
            let n = self.node(g);
            g = if assignment[n.var as usize] { n.high } else { n.low };
        }
        g.is_one()
    }

    /// Number of satisfying assignments of `f` over all
    /// [`num_vars`](Bdd::num_vars) variables, as an `f64` (exact up to 2^53).
    pub fn sat_count(&self, f: Func) -> f64 {
        let mut memo: FxHashMap<u32, f64> = HashMap::default();
        let total_levels = self.num_vars() as u32;
        let frac = self.sat_frac(f, &mut memo);
        frac * 2f64.powi(total_levels as i32)
    }

    /// Fraction of the input space on which `f` is true (in `[0, 1]`).
    pub fn sat_fraction(&self, f: Func) -> f64 {
        let mut memo: FxHashMap<u32, f64> = HashMap::default();
        self.sat_frac(f, &mut memo)
    }

    fn sat_frac(&self, f: Func, memo: &mut FxHashMap<u32, f64>) -> f64 {
        if f.is_zero() {
            return 0.0;
        }
        if f.is_one() {
            return 1.0;
        }
        if let Some(&hit) = memo.get(&f.0) {
            return hit;
        }
        let n = self.node(f);
        let result = 0.5 * self.sat_frac(n.low, memo) + 0.5 * self.sat_frac(n.high, memo);
        memo.insert(f.0, result);
        result
    }

    /// Picks one satisfying path cube of `f`, returned as a cube function
    /// (conjunction of the literals on the path; variables not on the path
    /// are don't-cares of the cube).
    ///
    /// Returns `None` iff `f = 0`. This is the paper's `SelectOneCube`.
    /// Deterministic: prefers the high branch.
    pub fn pick_cube(&mut self, f: Func) -> Option<Func> {
        if f.is_zero() {
            return None;
        }
        let mut lits: Vec<(crate::VarId, bool)> = Vec::new();
        let mut g = f;
        while !g.is_const() {
            let n = *self.node(g);
            if !n.high.is_zero() {
                lits.push((n.var, true));
                g = n.high;
            } else {
                lits.push((n.var, false));
                g = n.low;
            }
        }
        // Build the cube bottom-up (literals were collected top-down).
        let mut cube = Func::ONE;
        for (v, positive) in lits.into_iter().rev() {
            cube =
                if positive { self.mk(v, Func::ZERO, cube) } else { self.mk(v, cube, Func::ZERO) };
        }
        Some(cube)
    }

    /// Picks one path cube of `f` over the variables of `cube` for every
    /// assignment of the other variables (one [`pick_cube`](Bdd::pick_cube)
    /// per *slice*).
    ///
    /// The result `g` satisfies `g ≤ f` and `∃cube . g = ∃cube . f`, and
    /// its cofactor at any complete assignment of the variables outside
    /// `cube` is 0 or a single cube. Like `pick_cube` it prefers the high
    /// branch: at a cube variable `v` it keeps the high slices and picks
    /// from the low branch only where the high one is empty,
    /// `mk(v, pick(f0 · ¬∃sub . f1), pick(f1))`.
    ///
    /// `cube` must be a positive cube as produced by [`Bdd::cube`].
    pub fn pick_cube_per_slice(&mut self, f: Func, cube: Func) -> Func {
        if f.is_const() || cube.is_one() {
            return f;
        }
        let top = self.level(f);
        // Skip cube variables above f's top variable: they do not occur in f.
        let mut cube = cube;
        while !cube.is_one() && self.level(cube) < top {
            cube = self.node(cube).high;
        }
        if cube.is_one() {
            return f;
        }
        let key = CacheKey { op: CacheOp::PickSlice, a: f.0, b: cube.0, c: 0 };
        if let Some(hit) = self.cache_get(&key) {
            return hit;
        }
        let node = *self.node(f);
        let (low, high) = if self.level(cube) == top {
            let sub = self.node(cube).high;
            let high = self.pick_cube_per_slice(node.high, sub);
            let taken = self.exists(node.high, sub);
            let rest = self.diff(node.low, taken);
            (self.pick_cube_per_slice(rest, sub), high)
        } else {
            (self.pick_cube_per_slice(node.low, cube), self.pick_cube_per_slice(node.high, cube))
        };
        let result = self.mk(node.var, low, high);
        self.cache_put(key, result);
        result
    }

    /// Picks one satisfying *minterm* of `f` as a complete assignment over
    /// all manager variables (don't-care variables default to `false`).
    ///
    /// Returns `None` iff `f = 0`.
    pub fn pick_minterm(&self, f: Func) -> Option<Vec<bool>> {
        if f.is_zero() {
            return None;
        }
        let mut assignment = vec![false; self.num_vars()];
        let mut g = f;
        while !g.is_const() {
            let n = self.node(g);
            if !n.high.is_zero() {
                assignment[n.var as usize] = true;
                g = n.high;
            } else {
                g = n.low;
            }
        }
        Some(assignment)
    }

    /// Enumerates all satisfying path cubes of `f` as literal vectors
    /// (`(var, polarity)` pairs), in depth-first order.
    ///
    /// Exponential in the worst case; intended for small functions, tests
    /// and PLA export.
    pub fn all_cubes(&self, f: Func) -> Vec<Vec<(crate::VarId, bool)>> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        self.cubes_rec(f, &mut path, &mut out);
        out
    }

    fn cubes_rec(
        &self,
        f: Func,
        path: &mut Vec<(crate::VarId, bool)>,
        out: &mut Vec<Vec<(crate::VarId, bool)>>,
    ) {
        if f.is_zero() {
            return;
        }
        if f.is_one() {
            out.push(path.clone());
            return;
        }
        let n = *self.node(f);
        path.push((n.var, false));
        self.cubes_rec(n.low, path, out);
        path.pop();
        path.push((n.var, true));
        self.cubes_rec(n.high, path, out);
        path.pop();
    }

    /// Returns `true` if `f` is a cube (a single conjunction of literals).
    pub fn is_cube(&self, f: Func) -> bool {
        if f.is_zero() {
            return false;
        }
        let mut g = f;
        while !g.is_const() {
            let n = self.node(g);
            if n.low.is_zero() {
                g = n.high;
            } else if n.high.is_zero() {
                g = n.low;
            } else {
                return false;
            }
        }
        g.is_one()
    }

    #[allow(dead_code)]
    pub(crate) fn is_terminal_level(&self, level: u32) -> bool {
        level == TERMINAL_LEVEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_walks_paths() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let f = mgr.or(ab, c);
        assert!(mgr.eval(f, &[true, true, false]));
        assert!(mgr.eval(f, &[false, false, true]));
        assert!(!mgr.eval(f, &[true, false, false]));
    }

    #[test]
    fn sat_count_examples() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        assert_eq!(mgr.sat_count(Func::ZERO), 0.0);
        assert_eq!(mgr.sat_count(Func::ONE), 8.0);
        assert_eq!(mgr.sat_count(a), 4.0);
        let f = mgr.and(a, b);
        assert_eq!(mgr.sat_count(f), 2.0);
        let g = mgr.xor(a, b);
        assert_eq!(mgr.sat_count(g), 4.0);
        assert!((mgr.sat_fraction(g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pick_cube_satisfies_f() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let nb = mgr.not(b);
        let anb = mgr.and(a, nb);
        let f = mgr.or(anb, c);
        let cube = mgr.pick_cube(f).expect("satisfiable");
        assert!(mgr.is_cube(cube));
        assert!(mgr.implies(cube, f), "picked cube must be inside f");
        assert_eq!(mgr.pick_cube(Func::ZERO), None);
        let one_cube = mgr.pick_cube(Func::ONE).expect("tautology");
        assert!(one_cube.is_one());
    }

    #[test]
    fn pick_minterm_satisfies_f() {
        let mut mgr = Bdd::new(4);
        let a = mgr.var(0);
        let d = mgr.var(3);
        let nd = mgr.not(d);
        let f = mgr.and(a, nd);
        let m = mgr.pick_minterm(f).expect("satisfiable");
        assert!(mgr.eval(f, &m));
        assert_eq!(mgr.pick_minterm(Func::ZERO), None);
    }

    #[test]
    fn all_cubes_cover_exactly_f() {
        let mut mgr = Bdd::new(3);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let ab = mgr.and(a, b);
        let nc = mgr.not(c);
        let f = mgr.or(ab, nc);
        let cubes = mgr.all_cubes(f);
        // Rebuild f from its cubes.
        let mut rebuilt = Func::ZERO;
        for cube in &cubes {
            let mut prod = Func::ONE;
            for &(v, pos) in cube {
                let lit = mgr.literal(v, pos);
                prod = mgr.and(prod, lit);
            }
            rebuilt = mgr.or(rebuilt, prod);
        }
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn is_cube_rejects_non_cubes() {
        let mut mgr = Bdd::new(2);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.or(a, b);
        assert!(!mgr.is_cube(f));
        let g = mgr.and(a, b);
        assert!(mgr.is_cube(g));
        assert!(mgr.is_cube(Func::ONE));
        assert!(!mgr.is_cube(Func::ZERO));
    }
}
