//! Direct set operations on canonical Boolean functional vectors.
//!
//! These are the paper's §2.3–§2.5 algorithms. None of them construct a
//! characteristic function, explicitly or implicitly; they manipulate the
//! per-component *forced-to-one / forced-to-zero / free-choice* conditions
//! (see [`crate::Conditions`]) one component at a time.
//!
//! All three operations are *pointwise under parameters*: if the operand
//! components additionally depend on parameter variables outside the
//! space, the result is, for every assignment of the parameters, the
//! operation applied to the pointwise sets. The re-parameterization
//! procedure of §2.6 ([`crate::reparam`]) relies on exactly this property
//! of [`union`], which it computes through a fused kernel on the two
//! cofactors.

use bfvr_bdd::{Bdd, BddManager, Var};

use crate::vector::{component_from_conditions, Bfv, Conditions};
use crate::{Result, Space};

/// Set union `F ∪ G` (paper §2.3).
///
/// ```
/// use bfvr_bdd::BddManager;
/// use bfvr_bfv::{ops, Space, StateSet};
///
/// # fn main() -> Result<(), bfvr_bfv::BfvError> {
/// let mut m = BddManager::new(2);
/// let space = Space::contiguous(2);
/// let a = StateSet::singleton(&mut m, &space, &[false, true])?;
/// let b = StateSet::singleton(&mut m, &space, &[true, false])?;
/// let u = ops::union(&mut m, &space, a.as_bfv().unwrap(), b.as_bfv().unwrap())?;
/// assert_eq!(StateSet::NonEmpty(u).len(&mut m, &space)?, 2);
/// # Ok(())
/// # }
/// ```
///
/// Walks the components in weight order, maintaining the *exclusion
/// conditions* `fˣ, gˣ`: once a selection step commits to a bit value
/// that one operand cannot produce, that operand is excluded and the
/// remaining selection tracks the other. A bit is forced in the union only
/// if it is forced to that value in both operands, or in the only operand
/// not yet excluded.
///
/// Each component is one call of the five-operand kernel
/// [`BddManager::union_step`], which computes the paper's recurrence
/// through its pointwise closed forms in one Shannon expansion, with no
/// cofactors and no intermediate BDDs:
///
/// ```text
/// h_i  = ite(gˣ, f_i, ite(fˣ, g_i, MAJ(f_i, g_i, v_i)))
/// fˣ' = fˣ ∨ (¬gˣ ∧ (f_i ⊕ g_i) ∧ (v_i ↔ g_i))
/// gˣ' = gˣ ∨ (¬fˣ ∧ (f_i ⊕ g_i) ∧ (v_i ↔ f_i))
/// ```
///
/// The closed forms equal the forced-condition recurrence under three
/// invariants, all of which the walk keeps:
///
/// * each component is monotone in its own choice variable
///   (`f_i|v_i=0 ≤ f_i|v_i=1`), as in every canonical vector. Raw
///   simulation components under re-parameterization (§2.6) do not
///   depend on the output space's choice variables at all, so this holds
///   for them too;
/// * the exclusions entering component `i` read only earlier choice
///   variables (and parameters), never `v_i`;
/// * the exclusions are disjoint (`fˣ ∧ gˣ = ⊥`).
///
/// Where the operands agree — `f_i = g_i`, or any pair of sub-nodes the
/// kernel reaches — the component is carried through and the exclusions
/// are left as they are, without further work. §2.6 takes this union on
/// the two cofactors `N|p=0, N|p=1` of one vector; there
/// [`crate::reparam`] calls the fused kernel
/// [`BddManager::quantify_step`] instead, which walks each component of
/// `N` once and builds neither cofactor.
///
/// This is the general union, pointwise under parameters. For two
/// canonical, parameter-free state sets, [`union_canonical`] returns the
/// same vector, and computes it by the path graft
/// [`BddManager::union_point`] when one operand is a single point.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn union(m: &mut BddManager, space: &Space, f: &Bfv, g: &Bfv) -> Result<Bfv> {
    let mut fx = Bdd::FALSE; // F excluded
    let mut gx = Bdd::FALSE; // G excluded
    let mut comps = Vec::with_capacity(space.len());
    for i in 0..space.len() {
        let (h, fx1, gx1) = m.union_step(f.component(i), g.component(i), fx, gx, space.var(i))?;
        (fx, gx) = (fx1, gx1);
        comps.push(h);
    }
    Bfv::from_components(space, comps)
}

/// Set union `F ∪ G` of two canonical, parameter-free state sets: the
/// vector [`union`] returns, handle for handle.
///
/// When either operand is a point (every component constant), this is
/// the path graft [`BddManager::union_point`]. With `k` the first
/// component the other operand forces away from the point `s`, and `C`
/// the cube of the positions before `k` that are free along `s`, each
/// fixed to its bit of `s`, it returns
///
/// ```text
/// h_i = f_i                              for i < k
/// h_k = ite(C, v_k, f_k)
/// h_i = ite(C ∧ (v_k ↔ s_k), s_i, f_i)   for i > k
/// ```
///
/// and `F` itself, with no node allocated, when `s ∈ F`. Otherwise it
/// calls [`union`].
///
/// The graft evaluates the components at one assignment, so neither
/// operand may read a variable outside `space`: the union of the
/// parameterized vectors of §2.6 is [`union`]'s alone.
///
/// ```
/// use bfvr_bdd::BddManager;
/// use bfvr_bfv::{ops, Space, StateSet};
///
/// # fn main() -> Result<(), bfvr_bfv::BfvError> {
/// let mut m = BddManager::new(3);
/// let space = Space::contiguous(3);
/// let a = StateSet::from_cube(&m, &space, &[Some(false), None, Some(true)])?;
/// let s = StateSet::singleton(&mut m, &space, &[true, true, false])?;
/// let (a, s) = (a.as_bfv().unwrap(), s.as_bfv().unwrap());
/// let grafted = ops::union_canonical(&mut m, &space, a, s)?;
/// assert_eq!(grafted, ops::union(&mut m, &space, a, s)?);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn union_canonical(m: &mut BddManager, space: &Space, f: &Bfv, g: &Bfv) -> Result<Bfv> {
    let point = |v: &Bfv| -> Option<Vec<bool>> {
        let c = v.components();
        c.iter()
            .all(|b| b.is_const())
            .then(|| c.iter().map(|b| b.is_true()).collect())
    };
    let (set, s) = match (point(g), point(f)) {
        (Some(s), _) => (f, s),
        (None, Some(s)) => (g, s),
        (None, None) => return union(m, space, f, g),
    };
    let comps = m.union_point(set.components(), space.vars(), &s)?;
    Bfv::from_components(space, comps)
}

/// The forced conditions `(f¹, f⁰) = (f|v=0, ¬f|v=1)` of a component —
/// all that intersection reads of [`Conditions`], without the
/// free-choice conjunction.
fn forced(m: &mut BddManager, f: Bdd, v: Var) -> Result<(Bdd, Bdd)> {
    let lo = m.cofactor(f, v, false)?;
    let hi = m.cofactor(f, v, true)?;
    Ok((lo, m.not(hi)))
}

/// Set intersection `F ∩ G` (paper §2.4); `None` when empty.
///
/// ```
/// use bfvr_bdd::BddManager;
/// use bfvr_bfv::{ops, Space, StateSet};
///
/// # fn main() -> Result<(), bfvr_bfv::BfvError> {
/// let mut m = BddManager::new(2);
/// let space = Space::contiguous(2);
/// let a = StateSet::singleton(&mut m, &space, &[true, true])?;
/// let b = StateSet::universe(&m, &space)?;
/// let i = ops::intersect(&mut m, &space, a.as_bfv().unwrap(), b.as_bfv().unwrap())?;
/// assert!(i.is_some()); // {11} ∩ universe = {11}
/// # Ok(())
/// # }
/// ```
///
/// A *backward* pass computes the elimination conditions `e_i` — the
/// selection prefixes whose every downstream completion conflicts — and a
/// *forward* pass builds the approximation `K` and substitutes the actual
/// selections for the choice variables.
///
/// Two deviations from the paper's (three-term) recurrence, both needed
/// for correctness on adversarial cases found by our property tests:
///
/// * `e_{i-1}` additionally includes the cases where a value *forced* by
///   either operand itself triggers the downstream elimination condition
///   (`(f_i¹ ∨ g_i¹)·e_i|v_i=1` and `(f_i⁰ ∨ g_i⁰)·e_i|v_i=0`); the pure
///   `∀v_i.e_i` term only covers choices free in both operands.
/// * Emptiness is reported when the top-level elimination condition is
///   satisfied (for non-parameterized canonical operands it is constant).
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn intersect(m: &mut BddManager, space: &Space, f: &Bfv, g: &Bfv) -> Result<Option<Bfv>> {
    let n = space.len();
    // Backward pass: forced conditions (one, zero) cached for the forward
    // pass.
    let mut cf = Vec::with_capacity(n);
    let mut cg = Vec::with_capacity(n);
    for i in 0..n {
        let v = space.var(i);
        cf.push(forced(m, f.component(i), v)?);
        cg.push(forced(m, g.component(i), v)?);
    }
    // elim[i] = e_i of the paper: conflicts strictly downstream of
    // component i, as a function of v_1..v_i. elim[n] = ⊥.
    let mut elim = vec![Bdd::FALSE; n + 1];
    for i in (0..n).rev() {
        let v = space.var(i);
        let e_lo = m.cofactor(elim[i + 1], v, false)?;
        let e_hi = m.cofactor(elim[i + 1], v, true)?;
        // Direct conflicts at component i+1 (0-based i).
        let ((f1, f0), (g1, g0)) = (cf[i], cg[i]);
        let d1 = m.and(f0, g1)?;
        let d2 = m.and(f1, g0)?;
        // Forced choices running into downstream eliminations.
        let forced1 = m.or(f1, g1)?;
        let forced0 = m.or(f0, g0)?;
        let fe1 = m.and(forced1, e_hi)?;
        let fe0 = m.and(forced0, e_lo)?;
        // Unavoidable downstream conflict for a genuinely free choice.
        let both = m.and(e_lo, e_hi)?;
        elim[i] = m.or_all(&[d1, d2, fe1, fe0, both])?;
    }
    if elim[0].is_true() {
        return Ok(None);
    }
    debug_assert!(
        {
            let sup = m.support(elim[0]);
            space.vars().iter().all(|v| !sup.contains(*v))
        },
        "top-level elimination condition must not depend on choice variables"
    );
    // Forward pass: approximation K with choice variables substituted by
    // the actual selections so far.
    let mut comps: Vec<Bdd> = Vec::with_capacity(n);
    let mut sub: Vec<Option<Bdd>> = vec![None; m.num_vars() as usize];
    for i in 0..n {
        let v = space.var(i);
        let e_lo = m.cofactor(elim[i + 1], v, false)?;
        let e_hi = m.cofactor(elim[i + 1], v, true)?;
        let ((f1, f0), (g1, g0)) = (cf[i], cg[i]);
        let k1 = m.or_all(&[f1, g1, e_lo])?;
        let k0 = m.or_all(&[f0, g0, e_hi])?;
        let forced = m.or(k1, k0)?;
        let kc = m.not(forced);
        let k = component_from_conditions(
            m,
            Conditions {
                one: k1,
                zero: k0,
                choice: kc,
            },
            v,
        )?;
        let h = m.vector_compose(k, &sub)?;
        sub[v.0 as usize] = Some(h);
        comps.push(h);
    }
    Ok(Some(Bfv::from_components(space, comps)?))
}

/// Componentwise Shannon cofactor `F|x=val` (paper §2.5).
///
/// `x` may be a choice variable of the space or any parameter variable;
/// for canonical vectors the result is canonical (the represented set is
/// the subset selected when the choice is pinned).
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn cofactor(m: &mut BddManager, space: &Space, f: &Bfv, x: Var, val: bool) -> Result<Bfv> {
    let mut comps = Vec::with_capacity(f.len());
    for &c in f.components() {
        comps.push(m.cofactor(c, x, val)?);
    }
    Bfv::from_components(space, comps)
}

/// Existential quantification `∃x. F = F|x=0 ∪ F|x=1` (paper §2.5).
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn exists(m: &mut BddManager, space: &Space, f: &Bfv, x: Var) -> Result<Bfv> {
    let f0 = cofactor(m, space, f, x, false)?;
    let f1 = cofactor(m, space, f, x, true)?;
    union(m, space, &f0, &f1)
}

/// Universal quantification `∀x. F = F|x=0 ∩ F|x=1` (paper §2.5);
/// `None` when the intersection is empty.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn forall(m: &mut BddManager, space: &Space, f: &Bfv, x: Var) -> Result<Option<Bfv>> {
    let f0 = cofactor(m, space, f, x, false)?;
    let f1 = cofactor(m, space, f, x, true)?;
    intersect(m, space, &f0, &f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::to_characteristic;
    use crate::StateSet;

    fn pts(bits: &[&str]) -> Vec<Vec<bool>> {
        bits.iter()
            .map(|s| s.chars().map(|c| c == '1').collect())
            .collect()
    }

    fn set_of(m: &mut BddManager, space: &Space, bits: &[&str]) -> Bfv {
        StateSet::from_points(m, space, &pts(bits))
            .unwrap()
            .as_bfv()
            .unwrap()
            .clone()
    }

    #[test]
    fn union_paper_example() {
        // S' = {010} ∪ {011} from §2.3: naive free choice would
        // over-approximate to {010,011,110,111}; exclusions prevent it.
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["010"]);
        let g = set_of(&mut m, &space, &["011"]);
        let h = union(&mut m, &space, &f, &g).unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(h);
        assert_eq!(s.members(&mut m, &space).unwrap(), pts(&["010", "011"]));
    }

    #[test]
    fn union_with_dependency_coupling() {
        // {000, 110} ∪ {010, 100}: after choosing bit 1, bit 2 is forced
        // differently in each operand — classic exclusion-condition test.
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "110"]);
        let g = set_of(&mut m, &space, &["010", "100"]);
        let h = union(&mut m, &space, &f, &g).unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(h);
        assert_eq!(
            s.members(&mut m, &space).unwrap(),
            pts(&["000", "010", "100", "110"])
        );
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["001", "100", "111"]);
        let g = set_of(&mut m, &space, &["000", "001"]);
        let fg = union(&mut m, &space, &f, &g).unwrap();
        let gf = union(&mut m, &space, &g, &f).unwrap();
        assert_eq!(fg.components(), gf.components());
        let ff = union(&mut m, &space, &f, &f).unwrap();
        assert_eq!(ff.components(), f.components());
    }

    #[test]
    fn intersect_paper_example() {
        // §2.4: {000,010} ∩ {000,011} = {000}.
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "010"]);
        let g = set_of(&mut m, &space, &["000", "011"]);
        let h = intersect(&mut m, &space, &f, &g).unwrap().unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(h);
        assert_eq!(s.members(&mut m, &space).unwrap(), pts(&["000"]));
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "100"]);
        let g = set_of(&mut m, &space, &["001", "010", "101", "110"]);
        assert!(intersect(&mut m, &space, &f, &g).unwrap().is_none());
    }

    #[test]
    fn intersect_forced_conflict_regression() {
        // The case that defeats the three-term elimination recurrence:
        // F = (v1, 0, 0) = {000,100}, G = (v1, v2, ¬v2) = {001,010,101,110}.
        // A forced zero at bit 2 runs into the downstream elimination.
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "100"]);
        let g = set_of(&mut m, &space, &["001", "010", "101", "110"]);
        assert!(intersect(&mut m, &space, &f, &g).unwrap().is_none());
    }

    #[test]
    fn intersect_matches_characteristic_oracle() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "011", "101", "110", "111"]);
        let g = set_of(&mut m, &space, &["001", "011", "100", "111"]);
        let h = intersect(&mut m, &space, &f, &g).unwrap().unwrap();
        assert!(h.is_canonical(&mut m, &space).unwrap());
        let got = to_characteristic(&mut m, &space, &h).unwrap();
        let cf = to_characteristic(&mut m, &space, &f).unwrap();
        let cg = to_characteristic(&mut m, &space, &g).unwrap();
        let expect = m.and(cf, cg).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn cofactor_selects_subset() {
        // Cofactor on choice variable v1 of the Table 1 set.
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "001", "010", "011", "100", "101"]);
        let f1 = cofactor(&mut m, &space, &f, Var(0), true).unwrap();
        assert!(f1.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(f1);
        assert_eq!(s.members(&mut m, &space).unwrap(), pts(&["100", "101"]));
    }

    #[test]
    fn exists_and_forall_on_choice_var() {
        let mut m = BddManager::new(3);
        let space = Space::contiguous(3);
        let f = set_of(&mut m, &space, &["000", "001", "010", "011", "100", "101"]);
        // ∃v3: union of the two v3-cofactors = {000,001,010,011,100,101}
        // (v3 free already).
        let e = exists(&mut m, &space, &f, Var(2)).unwrap();
        let se = StateSet::NonEmpty(e);
        assert_eq!(se.len(&mut m, &space).unwrap(), 6);
        // ∀v1: states reachable under both v1 = 0 and v1 = 1 selections:
        // F|v1=0 = {000,001,010,011}, F|v1=1 = {100,101}; intersection ∅.
        assert!(forall(&mut m, &space, &f, Var(0)).unwrap().is_none());
        // ∀v3 on the cube {00x, 01x}: both cofactors = {000,010} ∩ {001,011}…
        let g = set_of(&mut m, &space, &["000", "001", "010", "011"]);
        let a = forall(&mut m, &space, &g, Var(2)).unwrap();
        assert!(a.is_none(), "bit-3 differs between the cofactors' members");
    }

    #[test]
    fn union_all_pairs_exhaustive_2bit() {
        // All pairs of nonempty 2-bit sets: union must match the oracle.
        let mut m = BddManager::new(2);
        let space = Space::contiguous(2);
        let all_points: Vec<Vec<bool>> = (0..4u8).map(|k| vec![k & 2 != 0, k & 1 != 0]).collect();
        let sets: Vec<Vec<Vec<bool>>> = (1u8..16)
            .map(|mask| {
                (0..4)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| all_points[i].clone())
                    .collect()
            })
            .collect();
        for sa in &sets {
            for sb in &sets {
                let a = StateSet::from_points(&mut m, &space, sa).unwrap();
                let b = StateSet::from_points(&mut m, &space, sb).unwrap();
                let u = a.union(&mut m, &space, &b).unwrap();
                let mut expect: Vec<Vec<bool>> = sa.iter().chain(sb.iter()).cloned().collect();
                expect.sort();
                expect.dedup();
                assert_eq!(u.members(&mut m, &space).unwrap(), expect);
                assert!(u
                    .as_bfv()
                    .unwrap()
                    .clone()
                    .is_canonical(&mut m, &space)
                    .unwrap());
                let i = a.intersect(&mut m, &space, &b).unwrap();
                let mut expect: Vec<Vec<bool>> =
                    sa.iter().filter(|p| sb.contains(p)).cloned().collect();
                expect.sort();
                assert_eq!(i.members(&mut m, &space).unwrap(), expect);
            }
        }
    }
}
