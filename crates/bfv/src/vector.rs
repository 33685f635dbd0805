//! The Boolean functional vector type and its structural queries.

use bfvr_bdd::{Bdd, BddManager, Func, Var};

use crate::{BfvError, Result, Space};

/// A Boolean functional vector: one component function per state bit.
///
/// A `Bfv` produced by this crate's constructors and set operations is in
/// the *canonical form* of the paper (§2.1) with respect to its
/// [`Space`]; a freshly assembled [`Bfv::from_components`] vector need not
/// be — canonicalize it with [`crate::reparam::reparameterize`].
///
/// `Bfv` is a plain value (a vector of node handles); all semantics live
/// in the owning [`bfvr_bdd::BddManager`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Bfv {
    components: Vec<Bdd>,
}

/// The three mutually exclusive selection conditions of one component
/// (paper §2.2): forced-to-one, forced-to-zero and free-choice.
///
/// All three are functions of the *earlier* choice variables only when the
/// vector is canonical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conditions {
    /// `f_i¹` — the component is forced to 1 by earlier choices.
    pub one: Bdd,
    /// `f_i⁰` — the component is forced to 0 by earlier choices.
    pub zero: Bdd,
    /// `f_iᶜ` — the component is a free choice (`f_i = v_i` here).
    pub choice: Bdd,
}

impl Bfv {
    /// Wraps raw component functions (no canonicity is implied).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::DimensionMismatch`] if the component count does
    /// not match the space.
    pub fn from_components(space: &Space, components: Vec<Bdd>) -> Result<Self> {
        if components.len() != space.len() {
            return Err(BfvError::DimensionMismatch {
                expected: space.len(),
                got: components.len(),
            });
        }
        Ok(Bfv { components })
    }

    /// Number of components.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always false: vectors have at least one component.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Component function `f_{i+1}` (0-based index).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn component(&self, i: usize) -> Bdd {
        self.components[i]
    }

    /// All component functions in component order.
    #[inline]
    #[must_use]
    pub fn components(&self) -> &[Bdd] {
        &self.components
    }

    /// Extracts the selection conditions of component `i` (paper §2.2).
    ///
    /// For a canonical vector, `f_i = f_i¹ ∨ (f_iᶜ ∧ v_i)`, so the
    /// conditions are recovered from the two cofactors on the component's
    /// own choice variable:
    /// `f_i¹ = f_i|v_i=0`, `f_iᶜ = f_i|v_i=1 ∧ ¬f_i|v_i=0`,
    /// `f_i⁰ = ¬f_i|v_i=1`.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource-limit exhaustion.
    pub fn conditions(&self, m: &mut BddManager, space: &Space, i: usize) -> Result<Conditions> {
        conditions_of(m, self.components[i], space.var(i))
    }

    /// Evaluates the vector on a full choice-variable assignment,
    /// returning the selected member of the represented set.
    ///
    /// `point[i]` is the value of the choice variable of component `i`.
    /// For assignments of members, canonicity guarantees the result equals
    /// the input.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::DimensionMismatch`] on a wrong-sized point.
    ///
    /// # Panics
    ///
    /// Panics if a component depends on a variable other than the space's
    /// choice variables (i.e. the vector is parameterized).
    pub fn eval(&self, m: &BddManager, space: &Space, point: &[bool]) -> Result<Vec<bool>> {
        if point.len() != space.len() {
            return Err(BfvError::DimensionMismatch {
                expected: space.len(),
                got: point.len(),
            });
        }
        let mut full = vec![false; m.num_vars() as usize];
        for (i, &b) in point.iter().enumerate() {
            full[space.var(i).0 as usize] = b;
        }
        Ok(self.components.iter().map(|&f| m.eval(f, &full)).collect())
    }

    /// Membership test: `X ∈ S ⟺ F(X) = X` (canonicity property 2).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::DimensionMismatch`] on a wrong-sized point.
    pub fn contains(&self, m: &BddManager, space: &Space, point: &[bool]) -> Result<bool> {
        Ok(self.eval(m, space, point)? == point)
    }

    /// Shared BDD size of all components — the paper's Table 3 metric.
    pub fn shared_size(&self, m: &BddManager) -> usize {
        m.shared_size(&self.components)
    }

    /// Verifies the canonical-form invariants structurally (see the
    /// crate docs): every component depends only on the choice variables
    /// of itself and earlier components, and may depend on an earlier
    /// choice variable only where that component is a free choice.
    ///
    /// This is a complete characterization of canonicity (any vector
    /// passing both checks is the canonical vector of its range), so it
    /// doubles as a test oracle.
    ///
    /// # Errors
    ///
    /// Fails on BDD resource-limit exhaustion.
    pub fn is_canonical(&self, m: &mut BddManager, space: &Space) -> Result<bool> {
        let n = space.len();
        // Support condition.
        for i in 0..n {
            let sup = m.support(self.components[i]);
            let allowed: Vec<Var> = (0..=i).map(|j| space.var(j)).collect();
            for v in sup.vars() {
                if !allowed.contains(&v) {
                    return Ok(false);
                }
            }
        }
        // Invariance condition: f_i varies with v_j (j < i) only where
        // component j is a free choice.
        for i in 0..n {
            for j in 0..i {
                let vj = space.var(j);
                let f0 = m.cofactor(self.components[i], vj, false)?;
                let f1 = m.cofactor(self.components[i], vj, true)?;
                if f0 == f1 {
                    continue;
                }
                let varies = m.xor(f0, f1)?;
                let cj = conditions_of(m, self.components[j], vj)?;
                // `varies` may not depend on v_j; choice_j may. Require
                // varies ⇒ choice_j.
                if !m.leq(varies, cj.choice)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Pins the components against garbage collection for as long as the
    /// returned handles live (RAII; dropping them releases the roots).
    /// Constants are never collected, so they get no handle.
    pub fn pin(&self, m: &BddManager) -> Vec<Func> {
        self.components
            .iter()
            .filter(|f| !f.is_const())
            .map(|&f| m.func(f))
            .collect()
    }
}

/// Condition extraction shared by the algorithms (also for parameterized
/// components, where the conditions are functions of parameters too).
pub(crate) fn conditions_of(m: &mut BddManager, f: Bdd, v: Var) -> Result<Conditions> {
    let f0 = m.cofactor(f, v, false)?;
    let f1 = m.cofactor(f, v, true)?;
    let one = f0;
    let zero = m.not(f1);
    let nf0 = m.not(f0);
    let choice = m.and(f1, nf0)?;
    Ok(Conditions { one, zero, choice })
}

/// Reassembles a component from its conditions: `f = one ∨ (choice ∧ v)`.
pub(crate) fn component_from_conditions(m: &mut BddManager, c: Conditions, v: Var) -> Result<Bdd> {
    let vv = m.var(v);
    let cv = m.and(c.choice, vv)?;
    Ok(m.or(c.one, cv)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: S = {000,001,010,011,100,101},
    /// F = (v1, ¬v1 ∧ v2, v3).
    fn paper_example(m: &mut BddManager) -> (Space, Bfv) {
        let space = Space::contiguous(3);
        let v1 = m.var(Var(0));
        let v2 = m.var(Var(1));
        let v3 = m.var(Var(2));
        let nv1 = m.not(v1);
        let f2 = m.and(nv1, v2).unwrap();
        let f = Bfv::from_components(&space, vec![v1, f2, v3]).unwrap();
        (space, f)
    }

    #[test]
    fn eval_maps_members_to_themselves() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        for k in 0u8..6 {
            let p: Vec<bool> = (0..3).map(|i| (k >> (2 - i)) & 1 == 1).collect();
            assert_eq!(
                f.eval(&m, &space, &p).unwrap(),
                p,
                "member {k:03b} not fixed"
            );
            assert!(f.contains(&m, &space, &p).unwrap());
        }
    }

    #[test]
    fn eval_maps_nonmembers_to_nearest() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        // 110 -> 100, 111 -> 101 (nearest under MSB-weighted distance,
        // exactly Table 1 of the paper).
        assert_eq!(
            f.eval(&m, &space, &[true, true, false]).unwrap(),
            vec![true, false, false]
        );
        assert_eq!(
            f.eval(&m, &space, &[true, true, true]).unwrap(),
            vec![true, false, true]
        );
        assert!(!f.contains(&m, &space, &[true, true, false]).unwrap());
    }

    #[test]
    fn conditions_of_paper_example() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        let c1 = f.conditions(&mut m, &space, 0).unwrap();
        assert!(c1.one.is_false());
        assert!(c1.zero.is_false());
        assert!(c1.choice.is_true());
        let c2 = f.conditions(&mut m, &space, 1).unwrap();
        let v1 = m.var(Var(0));
        let nv1 = m.not(v1);
        assert!(c2.one.is_false());
        assert_eq!(c2.zero, v1); // second bit forced to 0 when first is 1
        assert_eq!(c2.choice, nv1);
    }

    #[test]
    fn conditions_roundtrip() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        for i in 0..3 {
            let c = f.conditions(&mut m, &space, i).unwrap();
            let back = component_from_conditions(&mut m, c, space.var(i)).unwrap();
            assert_eq!(back, f.component(i), "component {i} roundtrip");
        }
    }

    #[test]
    fn conditions_are_exclusive_and_complete() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        for i in 0..3 {
            let c = f.conditions(&mut m, &space, i).unwrap();
            let oz = m.and(c.one, c.zero).unwrap();
            let oc = m.and(c.one, c.choice).unwrap();
            let zc = m.and(c.zero, c.choice).unwrap();
            assert!(oz.is_false() && oc.is_false() && zc.is_false());
            let all = m.or_all(&[c.one, c.zero, c.choice]).unwrap();
            assert!(all.is_true());
        }
    }

    #[test]
    fn paper_example_is_canonical() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        assert!(f.is_canonical(&mut m, &space).unwrap());
    }

    #[test]
    fn non_canonical_detected_support() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        // f_1 depends on v2: support violation.
        let v2 = m.var(Var(1));
        let v3 = m.var(Var(2));
        let f = Bfv::from_components(&space, vec![v2, v2, v3]).unwrap();
        assert!(!f.is_canonical(&mut m, &space).unwrap());
    }

    #[test]
    fn non_canonical_detected_invariance() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        // Component 1 is forced (constant 1), yet component 2 depends on
        // v1 — the invariance violation from the union discussion (§2.3).
        let v2 = m.var(Var(1));
        let v1 = m.var(Var(0));
        let g = Bfv::from_components(&space, vec![Bdd::TRUE, v2, v1]).unwrap();
        assert!(!g.is_canonical(&mut m, &space).unwrap());
    }

    #[test]
    fn from_components_validates_length() {
        let m = BddManager::new(3);
        let space = Space::contiguous(3);
        let err = Bfv::from_components(&space, vec![Bdd::TRUE]).unwrap_err();
        assert_eq!(
            err,
            BfvError::DimensionMismatch {
                expected: 3,
                got: 1
            }
        );
        let _ = m;
    }

    #[test]
    fn eval_validates_length() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        let err = f.eval(&m, &space, &[true]).unwrap_err();
        assert_eq!(
            err,
            BfvError::DimensionMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn shared_size_counts_shared_nodes() {
        let mut m = BddManager::new(3);
        let (_, f) = paper_example(&mut m);
        // v1 (1 node) + ¬v1∧v2 (2 nodes) + v3 (1 node), all disjoint here.
        assert_eq!(f.shared_size(&m), 4);
    }

    #[test]
    fn pin_survives_gc() {
        let mut m = BddManager::new(3);
        let (space, f) = paper_example(&mut m);
        let guards = f.pin(&m);
        m.collect_garbage(&[]);
        // Still evaluable after GC.
        assert!(f.contains(&m, &space, &[false, true, true]).unwrap());
        drop(guards);
    }
}
