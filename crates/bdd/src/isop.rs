//! Irredundant sum-of-products (ISOP) cover extraction — the
//! Minato–Morreale algorithm.
//!
//! Produces a prime-and-irredundant cube cover of any function between a
//! lower and an upper bound (`on ⊆ cover ⊆ on ∨ dc`), the standard way to
//! render a BDD as two-level logic. Used by the CLI to print reached
//! state sets in readable cube form, and generally useful for exporting
//! functions to PLA-style formats.

use crate::manager::BddManager;
use crate::node::{Bdd, Var};
use crate::Result;

/// One cube of a cover: `Some(polarity)` per mentioned variable.
pub type Cube = Vec<(Var, bool)>;

impl BddManager {
    /// Computes an irredundant sum-of-products cover of `f`.
    ///
    /// The returned cubes are pairwise irredundant and each is prime with
    /// respect to `f`; their disjunction equals `f` exactly (the
    /// don't-care set is empty in this entry point).
    ///
    /// ```
    /// use bfvr_bdd::{BddManager, Var};
    /// # fn main() -> Result<(), bfvr_bdd::BddError> {
    /// let mut m = BddManager::new(3);
    /// let (a, b, c) = (m.var(Var(0)), m.var(Var(1)), m.var(Var(2)));
    /// let ab = m.and(a, b)?;
    /// let f = m.or(ab, c)?;
    /// let cover = m.isop(f)?;
    /// assert_eq!(cover.len(), 2); // the primes ab and c
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on resource-limit exhaustion.
    pub fn isop(&mut self, f: Bdd) -> Result<Vec<Cube>> {
        let mut cubes = Vec::new();
        let cover = self.isop_rec(f, f, &mut Vec::new(), &mut cubes)?;
        debug_assert_eq!(cover, f, "ISOP cover must equal the function exactly");
        Ok(cubes)
    }

    /// Minato–Morreale ISOP between bounds `l ⊆ u`; appends cubes under
    /// the current `path` prefix and returns the BDD of the cover built.
    fn isop_rec(
        &mut self,
        l: Bdd,
        u: Bdd,
        path: &mut Vec<(Var, bool)>,
        out: &mut Vec<Cube>,
    ) -> Result<Bdd> {
        if l.is_false() {
            return Ok(Bdd::FALSE);
        }
        if u.is_true() {
            out.push(path.clone());
            return Ok(Bdd::TRUE);
        }
        // No memoization: sharing a memoized subtree would lose its cube
        // emissions, so each (l, u) pair is expanded in place.
        let lvl = self.level(l).min(self.level(u));
        let v = Var(lvl);
        let (l0, l1) = self.cofactors_at(l, lvl);
        let (u0, u1) = self.cofactors_at(u, lvl);
        // Cubes that must contain ¬v: needed where l0 exceeds u1.
        let nu1 = self.not(u1);
        let lsub0 = self.and(l0, nu1)?;
        path.push((v, false));
        let c0 = self.isop_rec(lsub0, u0, path, out)?;
        path.pop();
        // Cubes that must contain v.
        let nu0 = self.not(u0);
        let lsub1 = self.and(l1, nu0)?;
        path.push((v, true));
        let c1 = self.isop_rec(lsub1, u1, path, out)?;
        path.pop();
        // Remainder, independent of v.
        let nc0 = self.not(c0);
        let nc1 = self.not(c1);
        let r0 = self.and(l0, nc0)?;
        let r1 = self.and(l1, nc1)?;
        let lr = self.or(r0, r1)?;
        let ur = self.and(u0, u1)?;
        let cr = self.isop_rec(lr, ur, path, out)?;
        // Cover = v̄·c0 ∨ v·c1 ∨ cr.
        let vc0 = {
            let nv = self.nvar(v);
            self.and(nv, c0)?
        };
        let vc1 = {
            let pv = self.var(v);
            self.and(pv, c1)?
        };
        let part = self.or(vc0, vc1)?;
        self.or(part, cr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_bdd(m: &mut BddManager, cubes: &[Cube]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for cube in cubes {
            let mut c = Bdd::TRUE;
            for &(v, pol) in cube {
                let lit = if pol { m.var(v) } else { m.nvar(v) };
                c = m.and(c, lit).unwrap();
            }
            acc = m.or(acc, c).unwrap();
        }
        acc
    }

    #[test]
    fn isop_of_simple_functions() {
        let mut m = BddManager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let cubes = m.isop(f).unwrap();
        assert_eq!(cover_bdd(&mut m, &cubes), f);
        // Two prime implicants: ab and c.
        assert_eq!(cubes.len(), 2);
        assert!(m.isop(Bdd::FALSE).unwrap().is_empty());
        let taut = m.isop(Bdd::TRUE).unwrap();
        assert_eq!(taut, vec![vec![]]);
    }

    #[test]
    fn isop_covers_equal_function_exhaustively() {
        // All 256 functions of 3 variables.
        let mut m = BddManager::new(3);
        for tt in 0u16..256 {
            let mut f = Bdd::FALSE;
            for row in 0..8u16 {
                if tt & (1 << row) != 0 {
                    let mut cube = Bdd::TRUE;
                    for i in 0..3 {
                        let bit = row >> (2 - i) & 1 == 1;
                        let v = Var(i);
                        let lit = if bit { m.var(v) } else { m.nvar(v) };
                        cube = m.and(cube, lit).unwrap();
                    }
                    f = m.or(f, cube).unwrap();
                }
            }
            let cubes = m.isop(f).unwrap();
            assert_eq!(cover_bdd(&mut m, &cubes), f, "tt={tt:#05b}");
        }
    }

    #[test]
    fn isop_finds_primes_not_minterms() {
        // f = a (independent of 7 other variables): one single-literal cube.
        let mut m = BddManager::new(8);
        let a = m.var(Var(3));
        let cubes = m.isop(a).unwrap();
        assert_eq!(cubes, vec![vec![(Var(3), true)]]);
        // Parity needs 2^(n-1) cubes — the worst case — sanity check n=3.
        let x = m.var(Var(0));
        let y = m.var(Var(1));
        let z = m.var(Var(2));
        let xy = m.xor(x, y).unwrap();
        let par = m.xor(xy, z).unwrap();
        assert_eq!(m.isop(par).unwrap().len(), 4);
    }
}
