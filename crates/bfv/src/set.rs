//! A state set: a canonical BFV or the (vector-less) empty set.

use bfvr_bdd::{Bdd, BddManager};

use crate::convert::{from_characteristic, to_characteristic};
use crate::ops;
use crate::vector::Bfv;
use crate::{BfvError, Result, Space};

/// A set of bit-vectors represented by a canonical Boolean functional
/// vector, with the empty set as the tagged special case the paper
/// prescribes (§2.1: "the empty set can be treated as a special case").
///
/// All set algebra is available as methods; they delegate to the
/// algorithms in [`crate::ops`] and handle emptiness uniformly
/// (`∅ ∪ S = S`, `∅ ∩ S = ∅`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateSet {
    /// The empty set (no functional vector exists for it).
    Empty,
    /// A non-empty set and its canonical vector.
    NonEmpty(Bfv),
}

impl StateSet {
    /// The singleton `{point}`.
    ///
    /// # Errors
    ///
    /// Fails on a wrong-sized point or BDD resource exhaustion.
    pub fn singleton(m: &mut BddManager, space: &Space, point: &[bool]) -> Result<Self> {
        debug_assert!(
            space.vars().iter().all(|v| v.0 < m.num_vars()),
            "space variables must exist in the manager"
        );
        if point.len() != space.len() {
            return Err(BfvError::DimensionMismatch {
                expected: space.len(),
                got: point.len(),
            });
        }
        let comps = point
            .iter()
            .map(|&b| if b { Bdd::TRUE } else { Bdd::FALSE })
            .collect();
        Ok(StateSet::NonEmpty(Bfv::from_components(space, comps)?))
    }

    /// The full space `{0,1}^n` (every component a free choice).
    pub fn universe(m: &BddManager, space: &Space) -> Result<Self> {
        let comps = space.vars().iter().map(|&v| m.var(v)).collect();
        Ok(StateSet::NonEmpty(Bfv::from_components(space, comps)?))
    }

    /// The set of all points matching a partial assignment (`None` = don't
    /// care) — a cube.
    ///
    /// # Errors
    ///
    /// Fails on a wrong-sized pattern or BDD resource exhaustion.
    pub fn from_cube(m: &BddManager, space: &Space, pattern: &[Option<bool>]) -> Result<Self> {
        if pattern.len() != space.len() {
            return Err(BfvError::DimensionMismatch {
                expected: space.len(),
                got: pattern.len(),
            });
        }
        let comps = pattern
            .iter()
            .enumerate()
            .map(|(i, &p)| match p {
                Some(true) => Bdd::TRUE,
                Some(false) => Bdd::FALSE,
                None => m.var(space.var(i)),
            })
            .collect();
        Ok(StateSet::NonEmpty(Bfv::from_components(space, comps)?))
    }

    /// The set containing exactly the given points.
    ///
    /// # Errors
    ///
    /// Fails on wrong-sized points or BDD resource exhaustion.
    pub fn from_points(m: &mut BddManager, space: &Space, points: &[Vec<bool>]) -> Result<Self> {
        let singletons = points
            .iter()
            .map(|p| StateSet::singleton(m, space, p))
            .collect::<Result<Vec<_>>>()?;
        StateSet::union_all(m, space, singletons)
    }

    /// N-ary union by balanced tree reduction (∅ for an empty input).
    ///
    /// Equivalent to folding [`StateSet::union`] but keeps intermediate
    /// operands small and balanced — the usual win when accumulating many
    /// frontier fragments or singletons.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn union_all(
        m: &mut BddManager,
        space: &Space,
        mut sets: Vec<StateSet>,
    ) -> Result<StateSet> {
        if sets.is_empty() {
            return Ok(StateSet::Empty);
        }
        while sets.len() > 1 {
            let mut next = Vec::with_capacity(sets.len().div_ceil(2));
            let mut iter = sets.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next.push(a.union(m, space, &b)?),
                    None => next.push(a),
                }
            }
            sets = next;
        }
        Ok(sets.pop().unwrap_or(StateSet::Empty))
    }

    /// Wraps a characteristic function (over the space's choice
    /// variables) into a canonical set.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn from_characteristic(m: &mut BddManager, space: &Space, chi: Bdd) -> Result<Self> {
        Ok(match from_characteristic(m, space, chi)? {
            None => StateSet::Empty,
            Some(f) => StateSet::NonEmpty(f),
        })
    }

    /// The characteristic function of this set (⊥ for the empty set).
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn to_characteristic(&self, m: &mut BddManager, space: &Space) -> Result<Bdd> {
        match self {
            StateSet::Empty => Ok(Bdd::FALSE),
            StateSet::NonEmpty(f) => to_characteristic(m, space, f),
        }
    }

    /// Whether this is the empty set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self, StateSet::Empty)
    }

    /// Borrows the canonical vector, or `None` for the empty set.
    #[must_use]
    pub fn as_bfv(&self) -> Option<&Bfv> {
        match self {
            StateSet::Empty => None,
            StateSet::NonEmpty(f) => Some(f),
        }
    }

    /// Membership test.
    ///
    /// # Errors
    ///
    /// Fails on a wrong-sized point.
    pub fn contains(&self, m: &BddManager, space: &Space, point: &[bool]) -> Result<bool> {
        match self {
            StateSet::Empty => Ok(false),
            StateSet::NonEmpty(f) => f.contains(m, space, point),
        }
    }

    /// Set union (paper §2.3; identity on the empty operand), through
    /// [`ops::union_canonical`].
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn union(&self, m: &mut BddManager, space: &Space, other: &StateSet) -> Result<StateSet> {
        Ok(match (self, other) {
            (StateSet::Empty, s) | (s, StateSet::Empty) => s.clone(),
            (StateSet::NonEmpty(f), StateSet::NonEmpty(g)) => {
                StateSet::NonEmpty(ops::union_canonical(m, space, f, g)?)
            }
        })
    }

    /// Set intersection (paper §2.4).
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn intersect(
        &self,
        m: &mut BddManager,
        space: &Space,
        other: &StateSet,
    ) -> Result<StateSet> {
        Ok(match (self, other) {
            (StateSet::Empty, _) | (_, StateSet::Empty) => StateSet::Empty,
            (StateSet::NonEmpty(f), StateSet::NonEmpty(g)) => {
                match ops::intersect(m, space, f, g)? {
                    None => StateSet::Empty,
                    Some(h) => StateSet::NonEmpty(h),
                }
            }
        })
    }

    /// Set difference `self ∖ other`.
    ///
    /// The paper has no direct negation algorithm for functional vectors,
    /// so this (like [`crate::convert::complement_via_characteristic`])
    /// takes the characteristic-function detour for the complement and
    /// then intersects directly — the cost asymmetry is intentional and
    /// documented.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn difference(
        &self,
        m: &mut BddManager,
        space: &Space,
        other: &StateSet,
    ) -> Result<StateSet> {
        match (self, other) {
            (StateSet::Empty, _) => Ok(StateSet::Empty),
            (s, StateSet::Empty) => Ok(s.clone()),
            (StateSet::NonEmpty(_), StateSet::NonEmpty(g)) => {
                match crate::convert::complement_via_characteristic(m, space, g)? {
                    None => Ok(StateSet::Empty), // other is the universe
                    Some(not_g) => self.intersect(m, space, &StateSet::NonEmpty(not_g)),
                }
            }
        }
    }

    /// Whether the two sets are disjoint.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn is_disjoint(&self, m: &mut BddManager, space: &Space, other: &StateSet) -> Result<bool> {
        Ok(self.intersect(m, space, other)?.is_empty())
    }

    /// Number of members (exact for spaces of ≤ 127 components, otherwise
    /// a floating-point count rounded to `u128`).
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn len(&self, m: &mut BddManager, space: &Space) -> Result<u128> {
        match self {
            StateSet::Empty => Ok(0),
            StateSet::NonEmpty(f) => {
                let chi = to_characteristic(m, space, f)?;
                let total_vars = m.num_vars();
                let pad = total_vars - space.len() as u32;
                match m.sat_count_exact(chi, total_vars) {
                    Some(c) => Ok(c >> pad),
                    None => {
                        let c = m.sat_count(chi, total_vars) / 2f64.powi(pad as i32);
                        Ok(c.round() as u128)
                    }
                }
            }
        }
    }

    /// Enumerates all members (test/debug helper; exponential output).
    ///
    /// # Errors
    ///
    /// Fails on BDD resource exhaustion.
    pub fn members(&self, m: &mut BddManager, space: &Space) -> Result<Vec<Vec<bool>>> {
        let f = match self {
            StateSet::Empty => return Ok(Vec::new()),
            StateSet::NonEmpty(f) => f,
        };
        let chi = to_characteristic(m, space, f)?;
        let mut out = Vec::new();
        let positions: Vec<usize> = space.vars().iter().map(|v| v.0 as usize).collect();
        for cube in m.cubes(chi, m.num_vars()) {
            // χ depends only on choice variables; project and expand.
            let partial: Vec<Option<bool>> = positions.iter().map(|&p| cube[p]).collect();
            expand(&partial, &mut Vec::new(), &mut out);
        }
        out.sort();
        out.dedup();
        Ok(out)
    }
}

fn expand(partial: &[Option<bool>], acc: &mut Vec<bool>, out: &mut Vec<Vec<bool>>) {
    match partial.split_first() {
        None => out.push(acc.clone()),
        Some((&Some(v), rest)) => {
            acc.push(v);
            expand(rest, acc, out);
            acc.pop();
        }
        Some((&None, rest)) => {
            for v in [false, true] {
                acc.push(v);
                expand(rest, acc, out);
                acc.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_bdd::Var;

    fn pts(bits: &[&str]) -> Vec<Vec<bool>> {
        bits.iter()
            .map(|s| s.chars().map(|c| c == '1').collect())
            .collect()
    }

    #[test]
    fn singleton_and_membership() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let s = StateSet::singleton(&mut m, &space, &[true, false, true]).unwrap();
        assert!(s.contains(&m, &space, &[true, false, true]).unwrap());
        assert!(!s.contains(&m, &space, &[true, true, true]).unwrap());
        assert_eq!(s.len(&mut m, &space).unwrap(), 1);
    }

    #[test]
    fn universe_counts() {
        let mut m = BddManager::new(4);
        let space = Space::contiguous(4);
        let u = StateSet::universe(&m, &space).unwrap();
        assert_eq!(u.len(&mut m, &space).unwrap(), 16);
    }

    #[test]
    fn cube_set() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let c = StateSet::from_cube(&m, &space, &[Some(true), None, Some(false)]).unwrap();
        assert_eq!(c.len(&mut m, &space).unwrap(), 2);
        assert_eq!(c.members(&mut m, &space).unwrap(), pts(&["100", "110"]));
    }

    #[test]
    fn from_points_builds_paper_set() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let s = StateSet::from_points(
            &mut m,
            &space,
            &pts(&["000", "001", "010", "011", "100", "101"]),
        )
        .unwrap();
        let f = s.as_bfv().unwrap();
        assert!(f.clone().is_canonical(&mut m, &space).unwrap());
        assert_eq!(s.len(&mut m, &space).unwrap(), 6);
        assert_eq!(
            s.members(&mut m, &space).unwrap(),
            pts(&["000", "001", "010", "011", "100", "101"])
        );
    }

    #[test]
    fn empty_set_behaviour() {
        let mut m = BddManager::new(2);
        let space = Space::contiguous(2);
        let e = StateSet::Empty;
        assert!(e.is_empty());
        assert_eq!(e.len(&mut m, &space).unwrap(), 0);
        assert!(e.members(&mut m, &space).unwrap().is_empty());
        assert!(e.as_bfv().is_none());
        let s = StateSet::singleton(&mut m, &space, &[false, true]).unwrap();
        assert_eq!(e.union(&mut m, &space, &s).unwrap(), s);
        assert!(e.intersect(&mut m, &space, &s).unwrap().is_empty());
        assert!(e.to_characteristic(&mut m, &space).unwrap().is_false());
    }

    #[test]
    fn union_intersection_algebra() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let a = StateSet::from_points(&mut m, &space, &pts(&["000", "011", "101"])).unwrap();
        let b = StateSet::from_points(&mut m, &space, &pts(&["011", "110"])).unwrap();
        let u = a.union(&mut m, &space, &b).unwrap();
        assert_eq!(
            u.members(&mut m, &space).unwrap(),
            pts(&["000", "011", "101", "110"])
        );
        let i = a.intersect(&mut m, &space, &b).unwrap();
        assert_eq!(i.members(&mut m, &space).unwrap(), pts(&["011"]));
        assert!(!a.is_disjoint(&mut m, &space, &b).unwrap());
        let c = StateSet::from_points(&mut m, &space, &pts(&["111"])).unwrap();
        assert!(a.is_disjoint(&mut m, &space, &c).unwrap());
    }

    #[test]
    fn len_with_padding_vars() {
        // Space uses only 2 of 6 manager variables; counting must not be
        // inflated by the unused levels.
        let mut m = BddManager::new(6);
        let space = Space::new(vec![Var(1), Var(4)]).unwrap();
        let u = StateSet::universe(&m, &space).unwrap();
        assert_eq!(u.len(&mut m, &space).unwrap(), 4);
        let s = StateSet::singleton(&mut m, &space, &[true, true]).unwrap();
        assert_eq!(s.len(&mut m, &space).unwrap(), 1);
        let un = u.union(&mut m, &space, &s).unwrap();
        assert_eq!(un.len(&mut m, &space).unwrap(), 4);
    }

    #[test]
    fn dimension_validation() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        assert!(matches!(
            StateSet::singleton(&mut m, &space, &[true]).unwrap_err(),
            BfvError::DimensionMismatch {
                expected: 3,
                got: 1
            }
        ));
        assert!(matches!(
            StateSet::from_cube(&m, &space, &[None]).unwrap_err(),
            BfvError::DimensionMismatch {
                expected: 3,
                got: 1
            }
        ));
    }
}

#[cfg(test)]
mod union_all_tests {
    use super::*;

    #[test]
    fn tree_union_matches_fold() {
        let mut m = BddManager::new(4);
        let space = Space::contiguous(4);
        let sets: Vec<StateSet> = (0..11u8)
            .map(|k| {
                let p: Vec<bool> = (0..4).map(|i| (k * 5 + 3) >> i & 1 == 1).collect();
                StateSet::singleton(&mut m, &space, &p).unwrap()
            })
            .collect();
        let tree = StateSet::union_all(&mut m, &space, sets.clone()).unwrap();
        let mut fold = StateSet::Empty;
        for s in &sets {
            fold = fold.union(&mut m, &space, s).unwrap();
        }
        // Canonicity ⇒ identical representation.
        assert_eq!(tree, fold);
        assert!(StateSet::union_all(&mut m, &space, vec![])
            .unwrap()
            .is_empty());
        let one = StateSet::union_all(&mut m, &space, vec![sets[0].clone()]).unwrap();
        assert_eq!(one, sets[0]);
    }
}

#[cfg(test)]
mod difference_tests {
    use super::*;

    fn pts(bits: &[&str]) -> Vec<Vec<bool>> {
        bits.iter()
            .map(|s| s.chars().map(|c| c == '1').collect())
            .collect()
    }

    #[test]
    fn difference_basics() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let a = StateSet::from_points(&mut m, &space, &pts(&["000", "011", "101"])).unwrap();
        let b = StateSet::from_points(&mut m, &space, &pts(&["011", "110"])).unwrap();
        let d = a.difference(&mut m, &space, &b).unwrap();
        assert_eq!(d.members(&mut m, &space).unwrap(), pts(&["000", "101"]));
    }

    #[test]
    fn difference_edge_cases() {
        let mut m = BddManager::new(2);
        let space = Space::contiguous(2);
        let a = StateSet::from_points(&mut m, &space, &pts(&["01", "10"])).unwrap();
        let u = StateSet::universe(&m, &space).unwrap();
        // a \ a = ∅; a \ ∅ = a; ∅ \ a = ∅; a \ U = ∅; U \ a = complement.
        assert!(a.difference(&mut m, &space, &a).unwrap().is_empty());
        assert_eq!(a.difference(&mut m, &space, &StateSet::Empty).unwrap(), a);
        assert!(StateSet::Empty
            .difference(&mut m, &space, &a)
            .unwrap()
            .is_empty());
        assert!(a.difference(&mut m, &space, &u).unwrap().is_empty());
        let c = u.difference(&mut m, &space, &a).unwrap();
        assert_eq!(c.members(&mut m, &space).unwrap(), pts(&["00", "11"]));
    }
}
