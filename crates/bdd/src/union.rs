//! The §2.3 union step as one five-operand kernel.
//!
//! The paper's union of two Boolean functional vectors walks the
//! components in order, carrying two *exclusion conditions* `fˣ, gˣ`
//! (operand `F` resp. `G` has been ruled out by an earlier selection).
//! Per component it needs the new component `h` and the updated
//! exclusions. Written through forced conditions that costs four
//! cofactors and a dozen `ite` calls, several of which build whole
//! intermediate BDDs only to feed the next one. Every one of those
//! quantities is, however, a pointwise Boolean function of the five
//! operands `(f, g, fˣ, gˣ, v)`, so [`BddManager::union_step`] computes
//! all three results in a single simultaneous Shannon expansion with one
//! memo, the way `ite` computes one result from three operands.
//!
//! The memo (the `union` table of [`crate::cache`]) is keyed on all five
//! edges. The choice variable enters as its literal edge — or as the
//! constant it has become once the walk is below its level — so entries
//! name functions, not levels, and persist across calls until a sweep or
//! a reorder flushes them, like the `cofactor` memo.
//!
//! [`BddManager::quantify_step`] fuses the §2.6 re-parameterization step
//! into the same expansion. Quantifying a parameter `p` out of a
//! component `n` is the union step on its two cofactors `n|p=0, n|p=1`;
//! the fused kernel walks `n` once and splits it only where it meets
//! `p`'s level, so neither cofactor is built and the subgraphs the two
//! would share are never rediscovered. Its `quantify` memo is keyed on
//! `(n, fˣ, gˣ, v)` plus `p`'s literal edge.
//!
//! [`BddManager::union_point`] is the union with one point, the case of
//! every iteration whose image is a single state. There the expansion
//! degenerates to one path: the point meets the vector's forced
//! conditions at one component `k`, and the union re-routes the point's
//! own path from `k` on. Each changed component is rebuilt along that
//! path with one `mk` per level, so the kernel needs neither exclusion
//! BDDs nor a persistent memo.

use crate::hash::FxHashMap;
use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::Result;

impl BddManager {
    /// One component of the paper's §2.3 set union: given the operand
    /// components `f, g` with choice variable `v` and the exclusion
    /// conditions `fˣ, gˣ` accumulated so far, returns the union's
    /// component and the updated exclusions `(h, fˣ', gˣ')`:
    ///
    /// ```text
    /// h   = ite(gˣ, f, ite(fˣ, g, MAJ(f, g, v)))
    /// fˣ' = fˣ ∨ (¬gˣ ∧ (f ⊕ g) ∧ (v ↔ g))
    /// gˣ' = gˣ ∨ (¬fˣ ∧ (f ⊕ g) ∧ (v ↔ f))
    /// ```
    ///
    /// These are the pointwise closed forms of the paper's recurrence
    /// (`h¹ = f¹g¹ ∨ f¹gˣ ∨ fˣg¹`, `h⁰` alike, `h = ite(v, ¬h⁰, h¹)`, and
    /// an operand is excluded once the selected bit contradicts its
    /// forced value). They agree with it whenever
    ///
    /// * `f` and `g` are monotone in `v` (`f|v=0 ≤ f|v=1`), as every
    ///   component of a canonical vector is, and every component that
    ///   does not read `v` at all;
    /// * `fˣ` and `gˣ` do not depend on `v`; and
    /// * `fˣ ∧ gˣ = ⊥`, which the update preserves.
    ///
    /// The kernel relies on the last invariant for its terminal cases:
    /// `fˣ = ⊤` yields `(g, ⊤, ⊥)` and `gˣ = ⊤` yields `(f, ⊥, ⊤)`.
    /// Identical operands `f = g` yield `(f, fˣ, gˣ)` at any sub-node, not
    /// only at the component's root. The union of two cofactors of one
    /// function, which §2.6 needs, is cheaper still through
    /// [`Self::quantify_step`], which never builds them.
    ///
    /// ```
    /// use bfvr_bdd::{Bdd, BddManager, Var};
    ///
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(1);
    /// // {0} ∪ {1} over one bit: the union leaves the bit free.
    /// let (h, fx, gx) = m.union_step(Bdd::FALSE, Bdd::TRUE, Bdd::FALSE, Bdd::FALSE, Var(0))?;
    /// assert_eq!(h, m.var(Var(0)));
    /// // Choosing 1 excludes F, choosing 0 excludes G.
    /// assert_eq!((fx, gx), (m.var(Var(0)), m.nvar(Var(0))));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion — after a reclaim-before-fail
    /// pass if the node limit was the cause; all three results are
    /// pinned like any other operation's.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range.
    pub fn union_step(
        &mut self,
        f: Bdd,
        g: Bdd,
        fx: Bdd,
        gx: Bdd,
        v: Var,
    ) -> Result<(Bdd, Bdd, Bdd)> {
        debug_assert_eq!(
            self.ite_constant(fx, gx, Bdd::FALSE),
            Some(false),
            "union_step: the exclusion conditions must be disjoint"
        );
        let lit = self.var(v);
        let [h, fx, gx] = self.recover(&[f, g, fx, gx], |m| m.union_rec(f, g, fx, gx, lit))?;
        Ok((h, fx, gx))
    }

    fn union_rec(&mut self, f: Bdd, g: Bdd, fx: Bdd, gx: Bdd, v: Bdd) -> Result<[Bdd; 3]> {
        if fx.is_true() {
            return Ok([g, Bdd::TRUE, Bdd::FALSE]);
        }
        if gx.is_true() {
            return Ok([f, Bdd::FALSE, Bdd::TRUE]);
        }
        if f == g {
            return Ok([f, fx, gx]);
        }
        if [f, g, fx, gx, v].iter().all(|b| b.is_const()) {
            // Here fˣ = gˣ = ⊥ and f = ¬g: h = MAJ(f, ¬f, v) = v, and the
            // operand whose bit was not selected is excluded.
            let constant = |b: bool| if b { Bdd::TRUE } else { Bdd::FALSE };
            return Ok([v, constant(v == g), constant(v == f)]);
        }
        // Complementing f, g and v complements h and leaves both
        // exclusion updates unchanged, so both polarities share one entry
        // keyed on a regular f.
        let neg = f.is_complemented();
        let (f, g, v) = if neg {
            (f.complement(), g.complement(), v.complement())
        } else {
            (f, g, v)
        };
        let key = [f.0, g.0, fx.0, gx.0, v.0];
        if let Some([h, fx1, gx1]) = self.caches.union.lookup(key) {
            let h = Bdd(h);
            return Ok([if neg { h.complement() } else { h }, Bdd(fx1), Bdd(gx1)]);
        }
        let (fv, fl, fh) = self.expand(f);
        let (gv, gl, gh) = self.expand(g);
        let (xv, xl, xh) = self.expand(fx);
        let (yv, yl, yh) = self.expand(gx);
        let (vv, vl, vh) = self.expand(v);
        let lvl = fv.min(gv).min(xv).min(yv).min(vv);
        let split =
            |at: u32, op: Bdd, lo: Bdd, hi: Bdd| if at == lvl { (lo, hi) } else { (op, op) };
        let (f0, f1) = split(fv, f, fl, fh);
        let (g0, g1) = split(gv, g, gl, gh);
        let (x0, x1) = split(xv, fx, xl, xh);
        let (y0, y1) = split(yv, gx, yl, yh);
        let (v0, v1) = split(vv, v, vl, vh);
        let [h1, fx1, gx1] = self.union_rec(f1, g1, x1, y1, v1)?;
        let [h0, fx0, gx0] = self.union_rec(f0, g0, x0, y0, v0)?;
        let h = self.mk(lvl, h0, h1)?;
        let fx = self.mk(lvl, fx0, fx1)?;
        let gx = self.mk(lvl, gx0, gx1)?;
        let limit = self.caches.limit;
        self.caches.union.insert(key, [h.0, fx.0, gx.0], limit);
        Ok([if neg { h.complement() } else { h }, fx, gx])
    }

    /// One component of the §2.6 re-parameterization step: quantifies the
    /// parameter `p` out of `n` by the union of its cofactors, returning
    /// exactly [`Self::union_step`]`(n|p=0, n|p=1, fˣ, gˣ, v)` without
    /// building either cofactor.
    ///
    /// The walk expands `n`, `fˣ`, `gˣ` and `v` together, like the union
    /// step, down to `p`'s level. There it hands `n`'s two children to the
    /// union step's recursion. Where `n`'s top lies below `p` the two
    /// cofactors are the same function, and the result is `(n, fˣ, gˣ)`.
    /// Under an exclusion of `⊤` only one cofactor survives, and it is
    /// read from the `cofactor` memo.
    ///
    /// The `quantify` memo is keyed on `(n, fˣ, gˣ, v)` and `p`'s literal
    /// edge. The key is sound only because `fˣ` and `gˣ` do not depend on
    /// `p`: the §2.6 loop builds them from `p`-free cofactors, and debug
    /// builds check it. The exclusions must be disjoint, as for the union
    /// step, and `p` must differ from `v`.
    ///
    /// ```
    /// use bfvr_bdd::{Bdd, BddManager, Var};
    ///
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(2);
    /// // n = p (variable 1): one output bit driven by a parameter.
    /// let n = m.var(Var(1));
    /// let fused = m.quantify_step(n, Bdd::FALSE, Bdd::FALSE, Var(0), Var(1))?;
    /// let split = m.union_step(Bdd::FALSE, Bdd::TRUE, Bdd::FALSE, Bdd::FALSE, Var(0))?;
    /// assert_eq!(fused, split);
    /// assert_eq!(fused.0, m.var(Var(0)));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion, like [`Self::union_step`]; all
    /// three results are pinned.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `p` is outside the manager's variable range.
    pub fn quantify_step(
        &mut self,
        n: Bdd,
        fx: Bdd,
        gx: Bdd,
        v: Var,
        p: Var,
    ) -> Result<(Bdd, Bdd, Bdd)> {
        debug_assert_ne!(v, p, "quantify_step: p must not be the choice variable");
        debug_assert_eq!(
            self.ite_constant(fx, gx, Bdd::FALSE),
            Some(false),
            "quantify_step: the exclusion conditions must be disjoint"
        );
        debug_assert!(
            !self.support(fx).contains(p) && !self.support(gx).contains(p),
            "quantify_step: the exclusion conditions must not depend on p"
        );
        let lit = self.var(v);
        let at = (self.var_to_level(p), self.var(p).0);
        let [h, fx, gx] = self.recover(&[n, fx, gx], |m| m.quantify_rec(n, fx, gx, lit, at))?;
        Ok((h, fx, gx))
    }

    /// The recursion of [`Self::quantify_step`]; `p` is the parameter's
    /// level and literal edge.
    fn quantify_rec(
        &mut self,
        n: Bdd,
        fx: Bdd,
        gx: Bdd,
        v: Bdd,
        p: (u32, u32),
    ) -> Result<[Bdd; 3]> {
        let (plvl, plit) = p;
        if fx.is_true() {
            let h = self.cofactor_rec(n, plvl, plit, true)?;
            return Ok([h, Bdd::TRUE, Bdd::FALSE]);
        }
        if gx.is_true() {
            let h = self.cofactor_rec(n, plvl, plit, false)?;
            return Ok([h, Bdd::FALSE, Bdd::TRUE]);
        }
        // Complementing n complements both cofactors; with v complemented
        // too, h is complemented and the exclusions are unchanged, as in
        // `union_rec`.
        let neg = n.is_complemented();
        let (n, v) = if neg {
            (n.complement(), v.complement())
        } else {
            (n, v)
        };
        let fix = |[h, fx, gx]: [Bdd; 3]| [if neg { h.complement() } else { h }, fx, gx];
        let (nv, nl, nh) = self.expand(n);
        if nv > plvl {
            // n does not read p (a constant's level is u32::MAX): its two
            // cofactors are n itself.
            return Ok(fix([n, fx, gx]));
        }
        let (xv, xl, xh) = self.expand(fx);
        let (yv, yl, yh) = self.expand(gx);
        let (vv, vl, vh) = self.expand(v);
        let lvl = nv.min(xv).min(yv).min(vv);
        if lvl == plvl {
            // Only n reads p: its children are the two cofactors here.
            return Ok(fix(self.union_rec(nl, nh, fx, gx, v)?));
        }
        let key = [n.0, fx.0, gx.0, v.0, plit];
        if let Some([h, fx1, gx1]) = self.caches.quantify.lookup(key) {
            return Ok(fix([Bdd(h), Bdd(fx1), Bdd(gx1)]));
        }
        let split =
            |at: u32, op: Bdd, lo: Bdd, hi: Bdd| if at == lvl { (lo, hi) } else { (op, op) };
        let (n0, n1) = split(nv, n, nl, nh);
        let (x0, x1) = split(xv, fx, xl, xh);
        let (y0, y1) = split(yv, gx, yl, yh);
        let (v0, v1) = split(vv, v, vl, vh);
        let [h1, fx1, gx1] = self.quantify_rec(n1, x1, y1, v1, p)?;
        let [h0, fx0, gx0] = self.quantify_rec(n0, x0, y0, v0, p)?;
        let h = self.mk(lvl, h0, h1)?;
        let fx = self.mk(lvl, fx0, fx1)?;
        let gx = self.mk(lvl, gx0, gx1)?;
        let limit = self.caches.limit;
        self.caches.quantify.insert(key, [h.0, fx.0, gx.0], limit);
        Ok(fix([h, fx, gx]))
    }

    /// The §2.3 union `F ∪ {s}` of a canonical, parameter-free vector
    /// with one point, by a path graft; bit for bit the vector the
    /// five-operand union would return.
    ///
    /// `comps[i]` is the component with choice variable `vars[i]`, and
    /// `point[i]` is the point's bit there. The kernel walks `F` at `s`,
    /// every choice variable set to its bit of `s`. Let `k` be the first
    /// component forced to `¬s_k` there. If there is none, `s ∈ F` and
    /// the result is `comps` itself, with no node allocated. Otherwise,
    /// with `C` the cube of the positions before `k` that are free along
    /// `s`, each fixed to its bit of `s`:
    ///
    /// ```text
    /// f'_i = f_i                         for i < k
    /// f'_k = ite(C, v_k, f_k)
    /// f'_i = ite(C ∧ (v_k ↔ s_k), s_i, f_i)   for i > k
    /// ```
    ///
    /// Under `C` the component `f_k` is forced to `¬s_k`, so `f'_k` is
    /// also `ite(C ∧ (v_k ↔ s_k), s_k, f_k)`: every changed component is
    /// one graft of a constant onto the same cube `D = C ∧ (v_k ↔ s_k)`.
    /// The graft imposes every literal of `D`, also on a variable the
    /// component does not read. Where a component reads a variable that
    /// `D` leaves free above the cube's next literal (a forced position
    /// before `k`, or any variable under a permuted order), it takes both
    /// branches, with a memo scoped to the one call.
    ///
    /// *Precondition:* `F` is canonical over `vars` and reads no other
    /// variable. The walk evaluates the components at one assignment, so
    /// a parameterized vector (§2.6) gives a wrong result; the union of
    /// such vectors is `bfvr_bfv::ops::union`'s. Debug builds check the
    /// supports.
    ///
    /// ```
    /// use bfvr_bdd::{Bdd, BddManager, Var};
    ///
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(2);
    /// let vars = [Var(0), Var(1)];
    /// // {01} ∪ {10}: the first bit becomes free, the second its negation.
    /// let f = [Bdd::FALSE, Bdd::TRUE];
    /// let u = m.union_point(&f, &vars, &[true, false])?;
    /// assert_eq!(u, vec![m.var(Var(0)), m.nvar(Var(0))]);
    /// // A member point changes nothing.
    /// assert_eq!(m.union_point(&u, &vars, &[false, true])?, u);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion — after a reclaim-before-fail
    /// pass if the node limit was the cause. The deadline is polled
    /// through node allocation. Every result is pinned.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a variable is
    /// outside the manager's range.
    pub fn union_point(&mut self, comps: &[Bdd], vars: &[Var], point: &[bool]) -> Result<Vec<Bdd>> {
        assert!(
            comps.len() == vars.len() && point.len() == vars.len(),
            "union_point: {} components, {} variables, {} bits",
            comps.len(),
            vars.len(),
            point.len()
        );
        debug_assert!(
            comps.iter().enumerate().all(|(i, &f)| {
                let sup = self.support(f);
                sup.vars().iter().all(|v| vars[..=i].contains(v))
            }),
            "union_point: component i must read only the choice variables v_0..v_i"
        );
        let mut asg = vec![false; self.num_vars() as usize];
        for (v, &b) in vars.iter().zip(point) {
            asg[v.0 as usize] = b;
        }
        // The cube D as (level, value) literals, built along the walk.
        let mut cube = Vec::new();
        let mut forced = None;
        for (i, (&f, &v)) in comps.iter().zip(vars).enumerate() {
            let b = point[i];
            let lit = (self.var_to_level(v), b);
            if self.eval(f, &asg) != b {
                forced = Some(i);
                cube.push(lit);
                break;
            }
            // Monotone in v_i and equal to s_i at s: free iff flipping
            // v_i flips the component.
            asg[v.0 as usize] = !b;
            if self.eval(f, &asg) != b {
                cube.push(lit);
            }
            asg[v.0 as usize] = b;
        }
        let Some(k) = forced else {
            return Ok(comps.to_vec());
        };
        cube.sort_unstable();
        let mut memo = FxHashMap::default();
        self.recover(comps, |m| {
            let mut out = comps[..k].to_vec();
            for (&f, &b) in comps[k..].iter().zip(&point[k..]) {
                memo.clear();
                out.push(m.graft_rec(f, &cube, b, &mut memo)?);
            }
            Ok(out)
        })
    }

    /// `ite(D, b, f)` for the cube `D` given as `(level, value)` literals
    /// in level order. `memo` holds the results at the nodes where the
    /// walk takes both branches. There `D` is every literal below the
    /// node's level, so the node's edge alone is the key.
    fn graft_rec(
        &mut self,
        f: Bdd,
        cube: &[(u32, bool)],
        b: bool,
        memo: &mut FxHashMap<u32, Bdd>,
    ) -> Result<Bdd> {
        let leaf = if b { Bdd::TRUE } else { Bdd::FALSE };
        let Some((&(lvl, val), rest)) = cube.split_first() else {
            return Ok(leaf);
        };
        if f == leaf {
            return Ok(f);
        }
        let (top, lo, hi) = self.expand(f);
        if top < lvl {
            // f reads a variable the cube leaves free: both branches keep
            // the whole cube.
            if let Some(&r) = memo.get(&f.0) {
                return Ok(r);
            }
            let lo = self.graft_rec(lo, cube, b, memo)?;
            let hi = self.graft_rec(hi, cube, b, memo)?;
            let r = self.mk(top, lo, hi)?;
            memo.insert(f.0, r);
            return Ok(r);
        }
        // The cube's next literal, imposed whether or not f reads it (a
        // constant's level is u32::MAX).
        let (lo, hi) = if top == lvl { (lo, hi) } else { (f, f) };
        if val {
            let hi = self.graft_rec(hi, rest, b, memo)?;
            self.mk(lvl, lo, hi)
        } else {
            let lo = self.graft_rec(lo, rest, b, memo)?;
            self.mk(lvl, lo, hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_results_are_pinned() {
        // fˣ' and gˣ' are new functions, reachable from nothing but the
        // step's own results: unless all three are pinned, the leak
        // audit (which marks from the result pins) reports their nodes.
        let mut m = BddManager::new(6);
        let x: Vec<Bdd> = (0..6).map(|i| m.var(Var(i))).collect();
        let f = m.and(x[1], x[2]).unwrap();
        let g = m.xor(x[3], x[4]).unwrap();
        let fx = m.and(x[5], x[1]).unwrap();
        let (h, fx1, gx1) = m.union_step(f, g, fx, Bdd::FALSE, Var(0)).unwrap();
        assert!([h, fx1, gx1].iter().all(|r| !r.is_const()));
        assert_eq!(m.audit_leaks(&[]), vec![]);
    }

    #[test]
    fn every_grafted_component_is_pinned() {
        // {000, 100} ∪ {111}: the cube is v0 ∧ v1, so the last two
        // components become the new node v0 ∧ v1, which no operand
        // reaches.
        let mut m = BddManager::new(3);
        let vars = [Var(0), Var(1), Var(2)];
        let f = [m.var(Var(0)), Bdd::FALSE, Bdd::FALSE];
        let u = m.union_point(&f, &vars, &[true; 3]).unwrap();
        let m = &mut m;
        assert_eq!(m.audit_leaks(&[]), vec![]);
        let both = m.and(m.var(Var(0)), m.var(Var(1))).unwrap();
        assert_eq!(u, vec![f[0], both, both]);
    }
}
