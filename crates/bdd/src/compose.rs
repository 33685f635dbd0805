//! Cofactoring, functional composition and variable renaming.
//!
//! Simultaneous (vector) composition is the engine behind the paper's
//! symbolic simulation step: next-state functions over state variables are
//! composed with the Boolean functional vector of the current reached set
//! in one pass (`bfvr-sim`). Memoized results are valid only for one
//! call's substitution map, so each call opens a fresh *scope* in the
//! lossy `subst` table of [`crate::cache`] — an O(1) generation bump —
//! instead of allocating a hash map per call.
//!
//! Shannon cofactors, which the §2.3 set union reads on every fixed-point
//! iteration, need no scope: a result depends only on the operand, the
//! variable and the polarity, all of which go into the key. Their
//! `cofactor` cache therefore persists across calls until a sweep or a
//! reorder flushes it, so cofactoring a reached set that grew by a few
//! nodes re-walks only the new ones.
//!
//! Both memos fold the two polarities of an operand onto one entry,
//! because cofactoring and substitution commute with complement:
//! `(¬f)[v ← g] = ¬(f[v ← g])`.

use crate::cache::Table;
use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::Result;

impl BddManager {
    /// Shannon cofactor `f|v=val`.
    ///
    /// Results are memoized across calls, keyed on the operand, the
    /// variable's literal and `val`; the memo lives until the next sweep
    /// or reorder, like the other operation caches.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range.
    pub fn cofactor(&mut self, f: Bdd, v: Var, val: bool) -> Result<Bdd> {
        assert!(v.0 < self.num_vars(), "variable {v} out of range");
        // Recursion walks by *level*; resolve the variable's current level
        // once up front (identity until a dynamic reorder). The memo key
        // names the variable by its literal edge instead, which stays
        // live and stays the same variable whatever the level map.
        let lvl = self.var_to_level(v);
        let lit = self.var(v).0;
        self.recover(&[f], |m| m.cofactor_rec(f, lvl, lit, val))
    }

    pub(crate) fn cofactor_rec(&mut self, f: Bdd, lvl: u32, lit: u32, val: bool) -> Result<Bdd> {
        if f.is_const() || self.level(f) > lvl {
            return Ok(f);
        }
        if self.level(f) == lvl {
            return Ok(if val { self.high(f) } else { self.low(f) });
        }
        // Cofactoring commutes with complement, so both polarities of a
        // node share one entry keyed on the regular edge.
        let reg = f.regular();
        let neg = f.is_complemented();
        let key = (reg.0, lit, u32::from(val));
        if let Some(r) = self.caches.cofactor.get(key) {
            return Ok(if neg { r.complement() } else { r });
        }
        let top = self.level(reg);
        let e = self.cofactor_rec(self.low(reg), lvl, lit, val)?;
        let t = self.cofactor_rec(self.high(reg), lvl, lit, val)?;
        let r = self.mk(top, e, t)?;
        let limit = self.caches.limit;
        self.caches.cofactor.put(key, r, limit);
        Ok(if neg { r.complement() } else { r })
    }

    /// Substitutes `g` for variable `v` in `f`: `f[v ← g]`.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range.
    pub fn compose(&mut self, f: Bdd, v: Var, g: Bdd) -> Result<Bdd> {
        assert!(v.0 < self.num_vars(), "variable {v} out of range");
        let mut map = vec![None; self.num_vars() as usize];
        map[v.0 as usize] = Some(g);
        self.vector_compose(f, &map)
    }

    /// Simultaneous composition: substitutes `map[v]` for every variable
    /// `v` with a `Some` entry, all at once.
    ///
    /// Unlike iterated [`BddManager::compose`], simultaneous composition is
    /// well defined even when substituted functions themselves depend on
    /// substituted variables — exactly the situation in symbolic simulation,
    /// where state variables are replaced by functional-vector components
    /// over those same variables.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `map` is shorter than the variable count.
    pub fn vector_compose(&mut self, f: Bdd, map: &[Option<Bdd>]) -> Result<Bdd> {
        assert!(
            map.len() >= self.num_vars() as usize,
            "substitution map must cover all {} variables",
            self.num_vars()
        );
        if f.is_const() {
            return Ok(f);
        }
        let mut roots: Vec<Bdd> = vec![f];
        roots.extend(map.iter().flatten().copied());
        self.recover(&roots, |m| {
            m.caches.subst.clear();
            m.vcompose_rec(f, map)
        })
    }

    fn vcompose_rec(&mut self, f: Bdd, map: &[Option<Bdd>]) -> Result<Bdd> {
        if f.is_const() {
            return Ok(f);
        }
        // Substitution commutes with complement, so both polarities of a
        // node share one scope entry keyed on the regular edge.
        let reg = f.regular();
        let neg = f.is_complemented();
        let key = (reg.0, 0, 0);
        if let Some(r) = self.caches.subst.get(key) {
            return Ok(if neg { r.complement() } else { r });
        }
        let e = self.vcompose_rec(self.low(reg), map)?;
        let t = self.vcompose_rec(self.high(reg), map)?;
        // `map` is indexed by semantic variable; the node label is a level.
        let v = self.top_var(reg);
        let sub = match map[v.0 as usize] {
            Some(g) => g,
            None => self.var(v),
        };
        let r = self.ite(sub, t, e)?;
        let limit = self.caches.limit;
        self.caches.subst.put(key, r, limit);
        Ok(if neg { r.complement() } else { r })
    }

    /// Renames variables according to `perm`, where `perm[old] = new`.
    ///
    /// `perm` must be injective on the support of `f` (typically a full
    /// permutation). Arbitrary permutations are allowed — the result is
    /// rebuilt in order, not just relabeled.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is shorter than the variable count or maps outside
    /// the variable range. A constant `f` is returned as is, before `perm`
    /// is checked.
    pub fn permute(&mut self, f: Bdd, perm: &[Var]) -> Result<Bdd> {
        if f.is_const() {
            return Ok(f);
        }
        let n = self.num_vars() as usize;
        assert!(perm.len() >= n, "permutation must cover all variables");
        let mut map: Vec<Option<Bdd>> = vec![None; n];
        for (old, &new) in perm.iter().enumerate().take(n) {
            assert!(
                new.0 < self.num_vars(),
                "permutation target {new} out of range"
            );
            if old as u32 != new.0 {
                map[old] = Some(self.var(new));
            }
        }
        self.vector_compose(f, &map)
    }

    /// Exchanges two blocks of variables: every `(a, b)` pair in `pairs`
    /// is swapped (`a ← b` and `b ← a` simultaneously).
    ///
    /// This is the classic next-state/current-state rename of reachability
    /// analysis.
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if any variable is out of range or appears twice. A constant
    /// `f` is returned as is, before `pairs` is checked.
    pub fn swap_vars(&mut self, f: Bdd, pairs: &[(Var, Var)]) -> Result<Bdd> {
        if f.is_const() {
            return Ok(f);
        }
        let n = self.num_vars() as usize;
        let mut perm: Vec<Var> = (0..n as u32).map(Var).collect();
        let mut seen = vec![false; n];
        for &(a, b) in pairs {
            assert!(
                a.0 < self.num_vars() && b.0 < self.num_vars(),
                "swap var out of range"
            );
            assert!(
                !seen[a.0 as usize] && !seen[b.0 as usize] && a != b,
                "swap pairs must be disjoint"
            );
            seen[a.0 as usize] = true;
            seen[b.0 as usize] = true;
            perm[a.0 as usize] = b;
            perm[b.0 as usize] = a;
        }
        self.permute(f, &perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let d = m.var(Var(3));
        let _ = (&mut m, d);
        (m, a, b, c, d)
    }

    #[test]
    fn cofactor_basics() {
        let (mut m, a, b, c, _) = setup();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let f_a1 = m.cofactor(f, Var(0), true).unwrap();
        let b_or_c = m.or(b, c).unwrap();
        assert_eq!(f_a1, b_or_c);
        let f_a0 = m.cofactor(f, Var(0), false).unwrap();
        assert_eq!(f_a0, c);
        // Cofactor on an absent variable is the identity.
        assert_eq!(m.cofactor(f, Var(3), true).unwrap(), f);
    }

    #[test]
    fn shannon_expansion_reconstructs() {
        let (mut m, a, b, c, d) = setup();
        let x = m.xor(a, c).unwrap();
        let y = m.and(b, d).unwrap();
        let f = m.or(x, y).unwrap();
        for v in 0..4 {
            let f0 = m.cofactor(f, Var(v), false).unwrap();
            let f1 = m.cofactor(f, Var(v), true).unwrap();
            let vv = m.var(Var(v));
            let back = m.ite(vv, f1, f0).unwrap();
            assert_eq!(back, f, "Shannon expansion failed on v{v}");
        }
    }

    #[test]
    fn cofactor_memo_keys_on_variable_and_polarity() {
        // z sits above x and y, so each of these cofactors consults the
        // persistent memo at f's root node: an entry keyed without the
        // variable or without the polarity would be served to the next.
        let (mut m, z, x, y, _) = setup();
        let xy = m.and(x, y).unwrap();
        let x_xor_y = m.xor(x, y).unwrap();
        let f = m.ite(z, xy, x_xor_y).unwrap();
        let nf = m.not(f);
        let got = [
            m.cofactor(f, Var(1), false).unwrap(),
            m.cofactor(f, Var(1), true).unwrap(),
            m.cofactor(f, Var(2), false).unwrap(),
            m.cofactor(nf, Var(1), false).unwrap(),
        ];
        let (nz, ny) = (m.not(z), m.not(y));
        let expect = [
            m.and(nz, y).unwrap(),
            m.xnor(z, y).unwrap(),
            m.and(nz, x).unwrap(),
            m.or(z, ny).unwrap(),
        ];
        assert_eq!(got, expect);
        for i in 0..got.len() {
            for j in i + 1..got.len() {
                assert_ne!(got[i], got[j], "cofactors {i} and {j} alias");
            }
        }
    }

    #[test]
    fn compose_substitutes() {
        let (mut m, a, b, c, _) = setup();
        let f = m.and(a, b).unwrap();
        // f[b ← c] = a ∧ c
        let g = m.compose(f, Var(1), c).unwrap();
        let ac = m.and(a, c).unwrap();
        assert_eq!(g, ac);
        // f[b ← ⊤] = a
        let h = m.compose(f, Var(1), Bdd::TRUE).unwrap();
        assert_eq!(h, a);
    }

    #[test]
    fn vector_compose_is_simultaneous() {
        let (mut m, a, b, _, _) = setup();
        // f = a ⊕ b; substitute a←b, b←a simultaneously: still a ⊕ b.
        let f = m.xor(a, b).unwrap();
        let mut map = vec![None; 4];
        map[0] = Some(b);
        map[1] = Some(a);
        let g = m.vector_compose(f, &map).unwrap();
        assert_eq!(g, f);
        // Sequential substitution would have collapsed it: (a⊕b)[a←b] = 0.
        let seq = m.compose(f, Var(0), b).unwrap();
        assert!(seq.is_false());
    }

    #[test]
    fn vector_compose_with_dependent_substituents() {
        let (mut m, a, b, _, _) = setup();
        // f = a ∧ b with a ← (a ∨ b): result (a ∨ b) ∧ b = b.
        let f = m.and(a, b).unwrap();
        let aob = m.or(a, b).unwrap();
        let mut map = vec![None; 4];
        map[0] = Some(aob);
        let g = m.vector_compose(f, &map).unwrap();
        assert_eq!(g, b);
    }

    #[test]
    fn permute_renames() {
        let (mut m, a, b, c, d) = setup();
        let f = m.and(a, b).unwrap();
        // a→c, b→d, c→a, d→b
        let perm = [Var(2), Var(3), Var(0), Var(1)];
        let g = m.permute(f, &perm).unwrap();
        let cd = m.and(c, d).unwrap();
        assert_eq!(g, cd);
        // Permuting twice with the involution restores f.
        let back = m.permute(g, &perm).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn swap_vars_roundtrip() {
        let (mut m, a, b, c, d) = setup();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, d).unwrap();
        let pairs = [(Var(0), Var(2)), (Var(1), Var(3))];
        let g = m.swap_vars(f, &pairs).unwrap();
        let cd = m.and(c, d).unwrap();
        let expect = m.or(cd, b).unwrap();
        assert_eq!(g, expect);
        assert_eq!(m.swap_vars(g, &pairs).unwrap(), f);
    }

    #[test]
    fn constants_pass_through_rename_and_compose() {
        let (mut m, a, ..) = setup();
        let pairs = [(Var(0), Var(2)), (Var(1), Var(3))];
        let perm = [Var(2), Var(3), Var(0), Var(1)];
        let map = [Some(a), None, None, None];
        for k in [Bdd::TRUE, Bdd::FALSE] {
            assert_eq!(m.swap_vars(k, &pairs).unwrap(), k);
            assert_eq!(m.permute(k, &perm).unwrap(), k);
            assert_eq!(m.vector_compose(k, &map).unwrap(), k);
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn swap_rejects_overlap() {
        let (mut m, a, ..) = setup();
        let _ = m.swap_vars(a, &[(Var(0), Var(1)), (Var(1), Var(2))]);
    }

    #[test]
    fn compose_visits_both_polarities_of_a_shared_node() {
        // xnor(a, b) reaches the b node through a regular edge on one
        // branch and a complemented edge on the other; the memo must not
        // serve the first polarity's result to the second.
        let (mut m, a, b, c, _) = setup();
        let f = m.xnor(a, b).unwrap();
        let g = m.compose(f, Var(1), c).unwrap();
        let expect = m.xnor(a, c).unwrap();
        assert_eq!(g, expect);
        // Same shape through cofactoring both polarities.
        let f1 = m.cofactor(f, Var(1), true).unwrap();
        assert_eq!(f1, a);
        let f0 = m.cofactor(f, Var(1), false).unwrap();
        assert_eq!(f0, m.not(a));
    }
}
