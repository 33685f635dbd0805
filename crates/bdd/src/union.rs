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
}
