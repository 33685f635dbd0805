//! Structural exploration: support, sizes, counting, evaluation, cubes.

use crate::hash::FxHashMap;
use crate::manager::BddManager;
use crate::node::{Bdd, Var};

/// The set of variables a function depends on, as a compact bitset.
///
/// Produced by [`BddManager::support`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Support {
    bits: Vec<u64>,
}

impl Support {
    /// An empty support over `num_vars` variables.
    #[must_use]
    pub fn empty(num_vars: u32) -> Self {
        Support {
            bits: vec![0; (num_vars as usize).div_ceil(64)],
        }
    }

    fn set(&mut self, v: u32) {
        self.bits[(v / 64) as usize] |= 1 << (v % 64);
    }

    /// Whether the function depends on `v`.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        let w = (v.0 / 64) as usize;
        w < self.bits.len() && self.bits[w] & (1 << (v.0 % 64)) != 0
    }

    /// Number of variables in the support.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the support is empty (a constant function).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The support variables in order, top to bottom.
    #[must_use]
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::with_capacity(self.len());
        for (i, &w) in self.bits.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push(Var(i as u32 * 64 + b));
                w &= w - 1;
            }
        }
        out
    }

    /// In-place union with another support.
    pub fn union_with(&mut self, other: &Support) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// Whether the two supports share any variable.
    #[must_use]
    pub fn intersects(&self, other: &Support) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }
}

impl BddManager {
    /// The set of variables `f` depends on.
    pub fn support(&self, f: Bdd) -> Support {
        let mut sup = Support::empty(self.num_vars());
        self.walk(|w| {
            // By node, not edge: f and ¬f have identical support.
            w.stack.push(f.node());
            while let Some(i) = w.stack.pop() {
                if i == 0 || !w.insert(i) {
                    continue;
                }
                let n = self.arena.get(i);
                sup.set(self.level2var[n.var as usize]);
                w.stack.push(n.lo >> 1);
                w.stack.push(n.hi >> 1);
            }
        });
        sup
    }

    /// Number of interior (non-terminal) nodes in the DAG rooted at `f`.
    ///
    /// Terminals are not counted, so constants have size 0 and a single
    /// literal has size 1 (CUDD counts terminals; the paper's "shared
    /// size" tables are insensitive to the convention).
    pub fn size(&self, f: Bdd) -> usize {
        self.live_from(&[f])
    }

    /// Number of interior nodes shared by all `roots` together — the
    /// "shared size" reported for Boolean functional vectors in the
    /// paper's Table 3.
    pub fn shared_size(&self, roots: &[Bdd]) -> usize {
        self.shared_size_capped(roots, usize::MAX)
    }

    /// Number of satisfying assignments over `num_vars` variables
    /// (levels `0..num_vars`), as a float.
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable at or beyond `num_vars`.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> f64 {
        let mut memo: FxHashMap<u32, f64> = FxHashMap::default();
        let frac = self.sat_frac(f, num_vars, &mut memo);
        frac * 2f64.powi(num_vars as i32)
    }

    /// Fraction of assignments satisfying `f` (density in `[0,1]`).
    fn sat_frac(&self, f: Bdd, num_vars: u32, memo: &mut FxHashMap<u32, f64>) -> f64 {
        if f.is_false() {
            return 0.0;
        }
        if f.is_true() {
            return 1.0;
        }
        assert!(
            self.level(f) < num_vars,
            "function depends on variables beyond num_vars"
        );
        if let Some(&r) = memo.get(&f.index()) {
            return r;
        }
        let lo = self.sat_frac(self.low(f), num_vars, memo);
        let hi = self.sat_frac(self.high(f), num_vars, memo);
        let r = 0.5 * (lo + hi);
        memo.insert(f.index(), r);
        r
    }

    /// Exact satisfying-assignment count over `num_vars ≤ 127` variables.
    ///
    /// Returns `None` if `num_vars > 127` (would overflow `u128`).
    ///
    /// # Panics
    ///
    /// Panics if `f` depends on a variable at or beyond `num_vars`.
    pub fn sat_count_exact(&self, f: Bdd, num_vars: u32) -> Option<u128> {
        if num_vars > 127 {
            return None;
        }
        fn rec(m: &BddManager, f: Bdd, num_vars: u32, memo: &mut FxHashMap<u32, u128>) -> u128 {
            // Count over variables strictly below f's level.
            if f.is_false() {
                return 0;
            }
            if f.is_true() {
                return 1;
            }
            if let Some(&r) = memo.get(&f.index()) {
                return r;
            }
            let lvl = m.level(f);
            let lo = m.low(f);
            let hi = m.high(f);
            let lvl_lo = if lo.is_const() { num_vars } else { m.level(lo) };
            let lvl_hi = if hi.is_const() { num_vars } else { m.level(hi) };
            let r = (rec(m, lo, num_vars, memo) << (lvl_lo - lvl - 1))
                + (rec(m, hi, num_vars, memo) << (lvl_hi - lvl - 1));
            memo.insert(f.index(), r);
            r
        }
        if f.is_false() {
            return Some(0);
        }
        if f.is_true() {
            return Some(1u128 << num_vars);
        }
        assert!(
            self.level(f) < num_vars,
            "function depends on variables beyond num_vars"
        );
        let mut memo = FxHashMap::default();
        let below = rec(self, f, num_vars, &mut memo);
        Some(below << self.level(f))
    }

    /// Evaluates `f` under a full assignment (`assignment[i]` = value of
    /// `Var(i)`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the deepest variable on
    /// the evaluation path.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut g = f;
        while !g.is_const() {
            let v = self.top_var(g).0 as usize;
            g = if assignment[v] {
                self.high(g)
            } else {
                self.low(g)
            };
        }
        g.is_true()
    }

    /// One satisfying assignment of `f`, or `None` if `f` is ⊥.
    ///
    /// Variables not constrained by the chosen path default to `false`;
    /// the chosen path prefers the low branch, so the result is the
    /// minimal satisfying assignment reading the top of the *current*
    /// variable order as the most significant bit (`Var(0)` until a
    /// dynamic reorder permutes the order).
    pub fn pick_minterm(&self, f: Bdd, num_vars: u32) -> Option<Vec<bool>> {
        if f.is_false() {
            return None;
        }
        let mut asg = vec![false; num_vars as usize];
        let mut g = f;
        while !g.is_const() {
            let v = self.top_var(g).0 as usize;
            if self.low(g).is_false() {
                asg[v] = true;
                g = self.high(g);
            } else {
                g = self.low(g);
            }
        }
        Some(asg)
    }

    /// Iterates over the cubes (paths to ⊤) of `f`.
    ///
    /// Each cube is a vector of length `num_vars` with `Some(value)` for
    /// variables on the path and `None` for don't-cares.
    pub fn cubes(&self, f: Bdd, num_vars: u32) -> CubeIter<'_> {
        CubeIter {
            mgr: self,
            num_vars,
            stack: if f.is_false() {
                vec![]
            } else {
                vec![(f, vec![None; num_vars as usize])]
            },
        }
    }

    /// All satisfying assignments of `f` over `num_vars` variables.
    ///
    /// Intended as a test oracle for small variable counts; the result has
    /// up to `2^num_vars` entries.
    pub fn all_sat(&self, f: Bdd, num_vars: u32) -> Vec<Vec<bool>> {
        let mut out = Vec::new();
        for cube in self.cubes(f, num_vars) {
            expand_cube(&cube, 0, &mut vec![false; num_vars as usize], &mut out);
        }
        out.sort();
        out
    }
}

fn expand_cube(cube: &[Option<bool>], i: usize, cur: &mut Vec<bool>, out: &mut Vec<Vec<bool>>) {
    if i == cube.len() {
        out.push(cur.clone());
        return;
    }
    match cube[i] {
        Some(v) => {
            cur[i] = v;
            expand_cube(cube, i + 1, cur, out);
        }
        None => {
            for v in [false, true] {
                cur[i] = v;
                expand_cube(cube, i + 1, cur, out);
            }
        }
    }
}

/// Iterator over the cubes of a function; see [`BddManager::cubes`].
#[derive(Debug)]
pub struct CubeIter<'a> {
    mgr: &'a BddManager,
    num_vars: u32,
    stack: Vec<(Bdd, Vec<Option<bool>>)>,
}

impl Iterator for CubeIter<'_> {
    type Item = Vec<Option<bool>>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((f, cube)) = self.stack.pop() {
            if f.is_true() {
                return Some(cube);
            }
            if f.is_false() {
                continue;
            }
            let v = self.mgr.top_var(f).0 as usize;
            debug_assert!(v < self.num_vars as usize);
            let mut hi_cube = cube.clone();
            hi_cube[v] = Some(true);
            let mut lo_cube = cube;
            lo_cube[v] = Some(false);
            // Push high first so low-first (lexicographic) order pops first.
            self.stack.push((self.mgr.high(f), hi_cube));
            self.stack.push((self.mgr.low(f), lo_cube));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let m = BddManager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        (m, a, b, c)
    }

    #[test]
    fn support_basics() {
        let (mut m, a, _, c) = setup();
        let f = m.and(a, c).unwrap();
        let sup = m.support(f);
        assert!(sup.contains(Var(0)));
        assert!(!sup.contains(Var(1)));
        assert!(sup.contains(Var(2)));
        assert_eq!(sup.len(), 2);
        assert_eq!(sup.vars(), vec![Var(0), Var(2)]);
        assert!(m.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn support_set_ops() {
        let (m, a, b, c) = setup();
        let mut sa = m.support(a);
        let sb = m.support(b);
        let sc = m.support(c);
        assert!(!sa.intersects(&sb));
        sa.union_with(&sb);
        assert!(sa.intersects(&sb));
        assert!(!sa.intersects(&sc));
        assert_eq!(sa.len(), 2);
    }

    #[test]
    fn sizes() {
        let (mut m, a, b, c) = setup();
        assert_eq!(m.size(Bdd::TRUE), 0);
        assert_eq!(m.size(a), 1);
        let ab = m.and(a, b).unwrap();
        assert_eq!(m.size(ab), 2);
        // Shared size counts common structure once: bc is a subgraph of f.
        let bc = m.and(b, c).unwrap();
        let f = m.or(a, bc).unwrap();
        assert_eq!(m.shared_size(&[f, bc]), m.size(f));
        assert!(m.shared_size(&[f, bc]) < m.size(f) + m.size(bc));
    }

    #[test]
    fn sat_counts() {
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        assert_eq!(m.sat_count(f, 3), 5.0);
        assert_eq!(m.sat_count_exact(f, 3), Some(5));
        assert_eq!(m.sat_count(Bdd::TRUE, 3), 8.0);
        assert_eq!(m.sat_count_exact(Bdd::FALSE, 3), Some(0));
        assert_eq!(m.sat_count_exact(Bdd::TRUE, 10), Some(1024));
        // Padding with unused variables scales the count.
        assert_eq!(m.sat_count(a, 3), 4.0);
        assert_eq!(m.sat_count_exact(a, 3), Some(4));
    }

    #[test]
    fn eval_matches_truth_table() {
        let (mut m, a, b, c) = setup();
        let x = m.xor(a, b).unwrap();
        let f = m.or(x, c).unwrap();
        for bits in 0u32..8 {
            let asg: Vec<bool> = (0..3).map(|i| (bits >> (2 - i)) & 1 == 1).collect();
            let expect = (asg[0] ^ asg[1]) || asg[2];
            assert_eq!(m.eval(f, &asg), expect);
        }
    }

    #[test]
    fn pick_minterm_is_minimal_and_satisfying() {
        let (mut m, a, b, _) = setup();
        let nb = m.not(b);
        let f = m.and(a, nb).unwrap();
        let p = m.pick_minterm(f, 3).unwrap();
        assert!(m.eval(f, &p));
        assert_eq!(p, vec![true, false, false]);
        assert_eq!(m.pick_minterm(Bdd::FALSE, 3), None);
        assert_eq!(
            m.pick_minterm(Bdd::TRUE, 3),
            Some(vec![false, false, false])
        );
    }

    #[test]
    fn cubes_and_all_sat() {
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let cubes: Vec<_> = m.cubes(f, 3).collect();
        assert!(!cubes.is_empty());
        // Every cube satisfies f after expansion; total count matches.
        let sats = m.all_sat(f, 3);
        assert_eq!(sats.len(), 5);
        for s in &sats {
            assert!(m.eval(f, s));
        }
        assert!(m.all_sat(Bdd::FALSE, 3).is_empty());
        assert_eq!(m.all_sat(Bdd::TRUE, 2).len(), 4);
    }
}
