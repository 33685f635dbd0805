//! Logical operations through a single memoized ITE (if-then-else) core.
//!
//! Every binary connective is expressed as an `ite` instance, the classic
//! Brace–Rudell–Bryant construction (negation itself is free under
//! complement edges — see [`BddManager::not`]). One recursive core plus
//! one cache keeps the implementation small and uniformly correct; the
//! standard terminal simplifications and the two complement-edge
//! canonicalizations — regular `f` via `ite(¬f,g,h) = ite(f,h,g)` and
//! regular `g` via `ite(f,¬g,¬h) = ¬ite(f,g,h)` — quadruple the cache's
//! reach by folding equivalent calls onto one key.

use crate::manager::BddManager;
use crate::node::Bdd;
use crate::Result;

impl BddManager {
    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion ([`crate::BddError`]) — after a
    /// reclaim-before-fail pass if the node limit was the cause.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd> {
        self.recover(&[f, g, h], |m| m.ite_rec(f, g, h))
    }

    /// The memoized ITE recursion behind every connective.
    fn ite_rec(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Result<Bdd> {
        // Terminal cases.
        if f.is_true() || g == h {
            return Ok(g);
        }
        if f.is_false() {
            return Ok(h);
        }
        // Operand rewrites: a branch equal to (the complement of) the test
        // collapses to a constant.
        let mut g = g;
        let mut h = h;
        if g == f {
            g = Bdd::TRUE; // ite(f, f, h) = f ∨ h
        } else if g == f.complement() {
            g = Bdd::FALSE; // ite(f, ¬f, h) = ¬f ∧ h
        }
        if h == f {
            h = Bdd::FALSE; // ite(f, g, f) = f ∧ g
        } else if h == f.complement() {
            h = Bdd::TRUE; // ite(f, g, ¬f) = ¬f ∨ g
        }
        if g == h {
            return Ok(g);
        }
        if g.is_true() && h.is_false() {
            return Ok(f);
        }
        if g.is_false() && h.is_true() {
            return Ok(f.complement());
        }
        // Canonicalize to a regular test: ite(¬f, g, h) = ite(f, h, g).
        let mut f = f;
        if f.is_complemented() {
            f = f.complement();
            std::mem::swap(&mut g, &mut h);
        }
        // Canonicalize to a regular then-branch by complementing the
        // output: ite(f, ¬g, h) = ¬ite(f, g, ¬h).
        let neg = g.is_complemented();
        if neg {
            g = g.complement();
            h = h.complement();
        }
        let key = (f.0, g.0, h.0);
        if let Some(r) = self.caches.ite.get(key) {
            return Ok(if neg { r.complement() } else { r });
        }
        // One arena read per operand: level and children come from the
        // same fetched node, with the children discarded for operands
        // whose top variable sits below the split level.
        let (fv, fl, fh) = self.expand(f);
        let (gv, gl, gh) = self.expand(g);
        let (hv, hl, hh) = self.expand(h);
        let lvl = fv.min(gv).min(hv);
        let (f0, f1) = if fv == lvl { (fl, fh) } else { (f, f) };
        let (g0, g1) = if gv == lvl { (gl, gh) } else { (g, g) };
        let (h0, h1) = if hv == lvl { (hl, hh) } else { (h, h) };
        let t = self.ite_rec(f1, g1, h1)?;
        let e = self.ite_rec(f0, g0, h0)?;
        let r = self.mk(lvl, e, t)?;
        let limit = self.caches.limit;
        self.caches.ite.put(key, r, limit);
        Ok(if neg { r.complement() } else { r })
    }

    /// Conjunction `f ∧ g`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    #[inline]
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction `f ∨ g`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    #[inline]
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Equivalence `f ↔ g` (xnor).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// Difference `f ∧ ¬g`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Result<Bdd> {
        let ng = self.not(g);
        self.ite(f, ng, Bdd::FALSE)
    }

    /// N-ary conjunction of all operands (⊤ for an empty slice).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn and_all(&mut self, fs: &[Bdd]) -> Result<Bdd> {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.and(acc, f)?;
            if acc.is_false() {
                break;
            }
        }
        Ok(acc)
    }

    /// N-ary disjunction of all operands (⊥ for an empty slice).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn or_all(&mut self, fs: &[Bdd]) -> Result<Bdd> {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.or(acc, f)?;
            if acc.is_true() {
                break;
            }
        }
        Ok(acc)
    }

    /// Whether `f → g` holds for all assignments (set inclusion `f ⊆ g`).
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn leq(&mut self, f: Bdd, g: Bdd) -> Result<bool> {
        Ok(self.diff(f, g)?.is_false())
    }

    /// Decides whether `ite(f, g, h)` is a constant *without allocating
    /// any nodes*: returns `Some(true/false)` when it is, `None` when it
    /// depends on at least one variable.
    ///
    /// The classic `bdd_ite_constant` short-circuit used to answer
    /// implication/emptiness queries cheaply inside larger algorithms.
    pub fn ite_constant(&self, f: Bdd, g: Bdd, h: Bdd) -> Option<bool> {
        fn as_const(b: Bdd) -> Option<bool> {
            if b.is_true() {
                Some(true)
            } else if b.is_false() {
                Some(false)
            } else {
                None
            }
        }
        // Terminal resolutions, mirroring `ite`.
        if f.is_true() || g == h {
            return as_const(g);
        }
        if f.is_false() {
            return as_const(h);
        }
        let mut g = g;
        let mut h = h;
        if g == f {
            g = Bdd::TRUE;
        } else if g == f.complement() {
            g = Bdd::FALSE;
        }
        if h == f {
            h = Bdd::FALSE;
        } else if h == f.complement() {
            h = Bdd::TRUE;
        }
        if g == h {
            return as_const(g);
        }
        if (g.is_true() && h.is_false()) || (g.is_false() && h.is_true()) {
            return None; // result is ±f, non-constant here
        }
        let lvl = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.cofactors_at(f, lvl);
        let (g0, g1) = self.cofactors_at(g, lvl);
        let (h0, h1) = self.cofactors_at(h, lvl);
        let t = self.ite_constant(f1, g1, h1)?;
        let e = self.ite_constant(f0, g0, h0)?;
        if t == e {
            Some(t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    fn mgr() -> (BddManager, Bdd, Bdd, Bdd) {
        let m = BddManager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        (m, a, b, c)
    }

    #[test]
    fn truth_table_and() {
        let (mut m, a, b, _) = mgr();
        let f = m.and(a, b).unwrap();
        assert!(m.eval(f, &[true, true, false]));
        assert!(!m.eval(f, &[true, false, false]));
        assert!(!m.eval(f, &[false, true, false]));
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = mgr();
        let ab = m.and(a, b).unwrap();
        let lhs = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let rhs = m.or(na, nb).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation_is_identity() {
        let (mut m, a, b, c) = mgr();
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap();
        assert_eq!(m.not(m.not(f)), f);
    }

    #[test]
    fn not_is_constant_time_and_allocation_free() {
        let (mut m, a, b, c) = mgr();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let before = m.stats().mk_calls;
        let nf = m.not(f);
        assert_eq!(m.stats().mk_calls, before, "not must not allocate");
        assert_ne!(nf, f);
        assert!(m.eval(f, &[true, true, false]));
        assert!(!m.eval(nf, &[true, true, false]));
    }

    #[test]
    fn complement_shares_structure() {
        let (mut m, a, b, c) = mgr();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let nf = m.not(f);
        assert_eq!(
            m.live_from(&[f, nf]),
            m.live_from(&[f]),
            "f and ¬f must share one subgraph"
        );
    }

    #[test]
    fn xor_xnor_complementary() {
        let (mut m, a, b, _) = mgr();
        let x = m.xor(a, b).unwrap();
        let xn = m.xnor(a, b).unwrap();
        assert_eq!(xn, m.not(x));
    }

    #[test]
    fn ite_terminal_cases() {
        let (mut m, a, b, c) = mgr();
        assert_eq!(m.ite(Bdd::TRUE, b, c).unwrap(), b);
        assert_eq!(m.ite(Bdd::FALSE, b, c).unwrap(), c);
        assert_eq!(m.ite(a, b, b).unwrap(), b);
        assert_eq!(m.ite(a, Bdd::TRUE, Bdd::FALSE).unwrap(), a);
        assert_eq!(m.ite(a, Bdd::FALSE, Bdd::TRUE).unwrap(), m.not(a));
        let a_or_c = m.or(a, c).unwrap();
        assert_eq!(m.ite(a, a, c).unwrap(), a_or_c);
        let a_and_b = m.and(a, b).unwrap();
        assert_eq!(m.ite(a, b, a).unwrap(), a_and_b);
        // Complement-operand collapses.
        let na = m.not(a);
        let na_and_c = m.and(na, c).unwrap();
        assert_eq!(m.ite(a, na, c).unwrap(), na_and_c);
        let na_or_b = m.or(na, b).unwrap();
        assert_eq!(m.ite(a, b, na).unwrap(), na_or_b);
    }

    #[test]
    fn ite_duality_under_complement() {
        let (mut m, a, b, c) = mgr();
        let ab = m.and(a, b).unwrap();
        let bc = m.or(b, c).unwrap();
        for &f in &[a, ab, m.not(ab)] {
            for &g in &[b, bc, Bdd::TRUE] {
                for &h in &[c, m.not(bc), Bdd::FALSE] {
                    let lhs = m.ite(f, g, h).unwrap();
                    let nf = m.not(f);
                    let rhs = m.ite(nf, h, g).unwrap();
                    assert_eq!(lhs, rhs, "ite(f,g,h) == ite(¬f,h,g)");
                    let ng = m.not(g);
                    let nh = m.not(h);
                    let dual = m.ite(f, ng, nh).unwrap();
                    assert_eq!(dual, m.not(lhs), "ite(f,¬g,¬h) == ¬ite(f,g,h)");
                }
            }
        }
    }

    #[test]
    fn implication_and_leq() {
        let (mut m, a, b, _) = mgr();
        let ab = m.and(a, b).unwrap();
        assert!(m.leq(ab, a).unwrap());
        assert!(!m.leq(a, ab).unwrap());
        // f → g as ite(f, g, ⊤).
        let imp = m.ite(ab, a, Bdd::TRUE).unwrap();
        assert!(imp.is_true());
    }

    #[test]
    fn nary_ops() {
        let (mut m, a, b, c) = mgr();
        let all = m.and_all(&[a, b, c]).unwrap();
        assert_eq!(m.sat_count(all, 3), 1.0);
        let any = m.or_all(&[a, b, c]).unwrap();
        assert_eq!(m.sat_count(any, 3), 7.0);
        assert!(m.and_all(&[]).unwrap().is_true());
        assert!(m.or_all(&[]).unwrap().is_false());
    }

    #[test]
    fn diff_is_relative_complement() {
        let (mut m, a, b, _) = mgr();
        let d = m.diff(a, b).unwrap();
        assert!(m.eval(d, &[true, false, false]));
        assert!(!m.eval(d, &[true, true, false]));
        assert!(!m.eval(d, &[false, false, false]));
    }

    #[test]
    fn results_are_canonical_across_formulations() {
        let (mut m, a, b, c) = mgr();
        // (a→c) ∧ (b→c)  ==  (a∨b)→c, with f → g as ite(f, g, ⊤)
        let ac = m.ite(a, c, Bdd::TRUE).unwrap();
        let bc = m.ite(b, c, Bdd::TRUE).unwrap();
        let lhs = m.and(ac, bc).unwrap();
        let aob = m.or(a, b).unwrap();
        let rhs = m.ite(aob, c, Bdd::TRUE).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_constant_detects_constants_without_allocating() {
        let (mut m, a, b, _) = mgr();
        let ab = m.and(a, b).unwrap();
        let before = m.stats().mk_calls;
        // a∧b → a is a tautology: ite(ab, a, ⊤)… expressed as implication.
        assert_eq!(m.ite_constant(ab, a, Bdd::TRUE), Some(true));
        assert_eq!(m.ite_constant(ab, Bdd::FALSE, Bdd::FALSE), Some(false));
        assert_eq!(m.ite_constant(a, b, Bdd::FALSE), None);
        assert_eq!(m.ite_constant(Bdd::TRUE, a, Bdd::FALSE), None);
        assert_eq!(m.stats().mk_calls, before, "ite_constant allocated nodes");
        // Agreement with the allocating ite on a sample of triples,
        // including complemented operands.
        let nab = m.not(ab);
        let na = m.not(a);
        let xs = [Bdd::TRUE, Bdd::FALSE, a, na, b, ab, nab];
        for &f in &xs {
            for &g in &xs {
                for &h in &xs {
                    let full = m.ite(f, g, h).unwrap();
                    let expect = if full.is_true() {
                        Some(true)
                    } else if full.is_false() {
                        Some(false)
                    } else {
                        None
                    };
                    assert_eq!(m.ite_constant(f, g, h), expect, "{f:?} {g:?} {h:?}");
                }
            }
        }
    }

    #[test]
    fn cache_hits_accumulate() {
        let (mut m, a, b, c) = mgr();
        let ab = m.and(a, b).unwrap();
        let f1 = m.or(ab, c).unwrap();
        let before = m.stats().cache_hits;
        let ab2 = m.and(a, b).unwrap();
        let f2 = m.or(ab2, c).unwrap();
        assert_eq!(f1, f2);
        assert!(m.stats().cache_hits > before);
    }
}
