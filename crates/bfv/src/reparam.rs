//! Re-parameterization: canonicalizing a parameterized vector (§2.6).
//!
//! Symbolic simulation produces a vector `N = (n_1, …, n_k)` whose
//! components are functions of *parameters* — the input variables and the
//! choice variables of the current state set — rather than of the output
//! space's choice variables. For every assignment of the parameters, `N`
//! denotes a single point, so `N` is a *parameterized family* of
//! (trivially canonical) singleton vectors whose union over all parameter
//! assignments is the image set.
//!
//! Because the union of §2.3 is pointwise under parameters, existentially
//! quantifying one parameter `p` is a single vector-level operation,
//! `N|p=0 ∪ N|p=1` — no recursive splitting into exponentially many leaves
//! (the paper: "since we have a union algorithm, we do not necessarily
//! have to split recursively"). Eliminating every parameter yields the
//! canonical vector of the image.
//!
//! Nor are the two cofactors built. Each component that depends on `p`
//! is one call of the fused kernel [`BddManager::quantify_step`], which
//! returns the union step on `n|p=0, n|p=1` while walking `n` once and
//! splitting it only at `p`'s level. The exclusion conditions thread
//! through the components exactly as in [`crate::ops::union`].
//!
//! The order in which parameters are eliminated matters for intermediate
//! BDD sizes. The paper uses "a dynamic quantification schedule based on a
//! simple support based cost heuristic"; both that and a fixed schedule
//! are provided (the ablation bench compares them).

use bfvr_bdd::{Bdd, BddManager, Support, Var};

use crate::vector::Bfv;
use crate::{Result, Space};

/// Parameter-elimination order for [`reparameterize_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Eliminate parameters in the order given.
    Fixed,
    /// At each step eliminate the parameter on which the fewest components
    /// depend, breaking ties by total size of the dependent components —
    /// the paper's dynamic support-based cost heuristic (§3).
    #[default]
    DynamicSupport,
}

/// Canonicalizes `vec` by existentially quantifying out all `params`,
/// using the default dynamic schedule.
///
/// ```
/// use bfvr_bdd::{BddManager, Var};
/// use bfvr_bfv::{reparam, Bfv, Space, StateSet};
///
/// # fn main() -> Result<(), bfvr_bfv::BfvError> {
/// // Two output bits driven by one parameter p (variable 2):
/// // N = (p, ¬p) has image {01, 10}.
/// let mut m = BddManager::new(3);
/// let space = Space::contiguous(2);
/// let p = m.var(Var(2));
/// let np = m.not(p);
/// let n = Bfv::from_components(&space, vec![p, np])?;
/// let image = reparam::reparameterize(&mut m, &space, &n, &[Var(2)])?;
/// let set = StateSet::NonEmpty(image);
/// assert_eq!(set.len(&mut m, &space)?, 2);
/// assert!(set.contains(&m, &space, &[false, true])?);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn reparameterize(m: &mut BddManager, space: &Space, vec: &Bfv, params: &[Var]) -> Result<Bfv> {
    reparameterize_with(m, space, vec, params, Schedule::DynamicSupport)
}

/// Canonicalizes `vec` by existentially quantifying out all `params` in
/// the order chosen by `schedule`.
///
/// After the call, the result is the canonical vector (over the space's
/// choice variables) of `{ N(p) : p any parameter assignment }` — the set
/// union over the parameterized family.
///
/// # Errors
///
/// Fails on BDD resource-limit exhaustion.
pub fn reparameterize_with(
    m: &mut BddManager,
    space: &Space,
    vec: &Bfv,
    params: &[Var],
    schedule: Schedule,
) -> Result<Bfv> {
    eliminate(m, space, vec, params, schedule, |_| {})
}

/// The elimination loop behind [`reparameterize_with`]; `picked` sees
/// every parameter in the order the schedule takes it, including those no
/// component depends on.
///
/// Each step is the union `N|p=0 ∪ N|p=1` of §2.6, computed one component
/// at a time by [`BddManager::quantify_step`] with the exclusion
/// conditions threaded through in component order. A component that does
/// not depend on `p` is carried over unchanged and leaves the exclusions
/// as they are, because the union step of a component with itself is the
/// identity. No cofactor vector is built.
///
/// The support of each component is computed once and recomputed only
/// for the components whose handle the last step changed. It answers the
/// dependency check, the schedule's dependent counts, and which
/// components the kernel must visit at all. Sizes are walked only to
/// break ties in the dynamic schedule, and then capped (see
/// [`cheapest_param`]).
fn eliminate(
    m: &mut BddManager,
    space: &Space,
    vec: &Bfv,
    params: &[Var],
    schedule: Schedule,
    mut picked: impl FnMut(Var),
) -> Result<Bfv> {
    let mut current = vec.clone();
    let mut supports: Vec<Support> = current.components().iter().map(|&c| m.support(c)).collect();
    let mut remaining: Vec<Var> = params.to_vec();
    while !remaining.is_empty() {
        if supports.iter().all(Support::is_empty) {
            // A constant vector: nothing left to eliminate. Both schedules
            // would take the first remaining parameter every time.
            while !remaining.is_empty() {
                picked(remaining.swap_remove(0));
            }
            break;
        }
        let idx = match schedule {
            Schedule::Fixed => 0,
            Schedule::DynamicSupport => cheapest_param(m, &current, &supports, &remaining),
        };
        let p = remaining.swap_remove(idx);
        picked(p);
        // Support check: a parameter no component depends on is free.
        if !supports.iter().any(|s| s.contains(p)) {
            continue;
        }
        let (mut fx, mut gx) = (Bdd::FALSE, Bdd::FALSE);
        let mut next = current.components().to_vec();
        for (j, s) in supports.iter_mut().enumerate() {
            if !s.contains(p) {
                continue;
            }
            let (h, fx1, gx1) = m.quantify_step(next[j], fx, gx, space.var(j), p)?;
            (fx, gx) = (fx1, gx1);
            if h != next[j] {
                *s = m.support(h);
                next[j] = h;
            }
        }
        current = Bfv::from_components(space, next)?;
    }
    Ok(current)
}

/// Index of the cheapest parameter to eliminate next: the first with the
/// least `(dependent count, shared size of the dependents)`.
///
/// Counts come from the cached supports; `shared_size` is walked only for
/// parameters tied at the least count, and not at all when no tie (or no
/// dependent) needs breaking. Each tie-break walk is capped at the best
/// size so far ([`BddManager::shared_size_capped`]): a parameter that
/// cannot beat it stops after that many nodes, and since only a strictly
/// smaller size wins, the first least still wins.
fn cheapest_param(m: &BddManager, vec: &Bfv, supports: &[Support], remaining: &[Var]) -> usize {
    let counts: Vec<usize> = remaining
        .iter()
        .map(|&p| supports.iter().filter(|s| s.contains(p)).count())
        .collect();
    let least = counts.iter().copied().min().unwrap_or(0);
    let first = counts.iter().position(|&c| c == least).unwrap_or(0);
    if least == 0 || counts.iter().filter(|&&c| c == least).count() == 1 {
        return first;
    }
    let mut best = first;
    let mut best_size = usize::MAX;
    for (i, &p) in remaining.iter().enumerate() {
        if counts[i] != least {
            continue;
        }
        let roots: Vec<Bdd> = (0..vec.len())
            .filter(|&j| supports[j].contains(p))
            .map(|j| vec.component(j))
            .collect();
        // Capped at the best so far: a size that cannot win stops early
        // and reads as `best_size`, which the strict `<` rejects.
        let size = m.shared_size_capped(&roots, best_size);
        if size < best_size {
            best_size = size;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::to_characteristic;
    use crate::ops;
    use crate::StateSet;
    use bfvr_bdd::Bdd;

    /// Output space on vars 0..2, parameters on vars 3..5.
    fn setup() -> (BddManager, Space, [Var; 3]) {
        let m = BddManager::new(6);
        let space = Space::contiguous(3);
        (m, space, [Var(3), Var(4), Var(5)])
    }

    #[test]
    fn identity_image_of_universe() {
        // N_i = p_i: the image over all parameter values is the universe.
        let (mut m, space, ps) = setup();
        let comps = ps.iter().map(|&p| m.var(p)).collect();
        let n = Bfv::from_components(&space, comps).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let u = StateSet::universe(&m, &space).unwrap();
        assert_eq!(r.components(), u.as_bfv().unwrap().components());
    }

    #[test]
    fn constant_vector_gives_singleton() {
        let (mut m, space, ps) = setup();
        let n = Bfv::from_components(&space, vec![Bdd::TRUE, Bdd::FALSE, Bdd::TRUE]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert_eq!(r.components(), &[Bdd::TRUE, Bdd::FALSE, Bdd::TRUE]);
    }

    #[test]
    fn dependent_bits_image() {
        // N = (p0, p0, ¬p0): image = {110, 001}.
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let np0 = m.not(p0);
        let n = Bfv::from_components(&space, vec![p0, p0, np0]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let s = StateSet::NonEmpty(r);
        let members = s.members(&mut m, &space).unwrap();
        assert_eq!(
            members,
            vec![vec![false, false, true], vec![true, true, false]]
        );
    }

    #[test]
    fn schedules_agree() {
        // Image of a nontrivial function of 3 params under both schedules
        // must be identical (canonicity ⇒ unique representation).
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let p1 = m.var(ps[1]);
        let p2 = m.var(ps[2]);
        let a = m.xor(p0, p1).unwrap();
        let b = m.and(p1, p2).unwrap();
        let c = m.or(p0, p2).unwrap();
        let n = Bfv::from_components(&space, vec![a, b, c]).unwrap();
        let rd = reparameterize_with(&mut m, &space, &n, &ps, Schedule::DynamicSupport).unwrap();
        let rf = reparameterize_with(&mut m, &space, &n, &ps, Schedule::Fixed).unwrap();
        assert_eq!(rd.components(), rf.components());
        assert!(rd.is_canonical(&mut m, &space).unwrap());
    }

    #[test]
    fn matches_characteristic_image_oracle() {
        // Oracle: image χ(x) = ∃p. ⋀_i (x_i ↔ n_i(p)).
        let (mut m, space, ps) = setup();
        let p0 = m.var(ps[0]);
        let p1 = m.var(ps[1]);
        let x = m.xor(p0, p1).unwrap();
        let o = m.or(p0, p1).unwrap();
        let a = m.and(p0, p1).unwrap();
        let n = Bfv::from_components(&space, vec![x, o, a]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &ps).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        let got = to_characteristic(&mut m, &space, &r).unwrap();
        // Oracle.
        let mut rel = Bdd::TRUE;
        for i in 0..3 {
            let xi = m.var(space.var(i));
            let eq = m.xnor(xi, n.component(i)).unwrap();
            rel = m.and(rel, eq).unwrap();
        }
        let pcube = m.cube_from_vars(&ps).unwrap();
        let expect = m.exists(rel, pcube).unwrap();
        assert_eq!(got, expect);
    }

    /// Reference for `cheapest_param`: every support recomputed from
    /// scratch, `shared_size` walked for every remaining parameter, the
    /// first least `(count, size)` winning. Also reports whether the least
    /// count was nonzero and shared, so that sizes had to break the tie.
    fn cheapest_param_from_scratch(m: &BddManager, vec: &Bfv, remaining: &[Var]) -> (usize, bool) {
        let supports: Vec<_> = vec.components().iter().map(|&c| m.support(c)).collect();
        let costs: Vec<(usize, usize)> = remaining
            .iter()
            .map(|&p| {
                let roots: Vec<Bdd> = (0..vec.len())
                    .filter(|&j| supports[j].contains(p))
                    .map(|j| vec.component(j))
                    .collect();
                let size = if roots.is_empty() {
                    0
                } else {
                    m.shared_size(&roots)
                };
                (roots.len(), size)
            })
            .collect();
        let least = *costs.iter().min().unwrap();
        let best = costs.iter().position(|&c| c == least).unwrap();
        let tied = least.0 > 0 && costs.iter().filter(|c| c.0 == least.0).count() > 1;
        (best, tied)
    }

    /// Deterministic xorshift64* for the randomized schedule test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// A random function of up to three of `params`, from a truth table.
    fn random_fn(m: &mut BddManager, rng: &mut Rng, params: &[Var]) -> Bdd {
        let k = (rng.next() % 4) as usize;
        let vars: Vec<Var> = (0..k)
            .map(|_| params[(rng.next() % params.len() as u64) as usize])
            .collect();
        let tt = rng.next();
        let mut f = Bdd::FALSE;
        for row in 0..1u64 << k {
            if tt & (1 << row) == 0 {
                continue;
            }
            let mut cube = Bdd::TRUE;
            for (b, &v) in vars.iter().enumerate() {
                let lit = if row & (1 << b) != 0 {
                    m.var(v)
                } else {
                    m.nvar(v)
                };
                cube = m.and(cube, lit).unwrap();
            }
            f = m.or(f, cube).unwrap();
        }
        f
    }

    #[test]
    fn cached_schedule_matches_from_scratch_order() {
        // Output space on vars 0..4, parameters on vars 4..10; the last
        // parameter is never used, so every case has one with zero
        // dependents.
        let space = Space::contiguous(4);
        let params: Vec<Var> = (4..10).map(Var).collect();
        let mut rng = Rng(0x5C4E_D01E);
        let (mut zero_picks, mut ties) = (0, 0);
        for case in 0..300 {
            let mut m = BddManager::new(10);
            let mut comps: Vec<Bdd> = (0..4)
                .map(|_| random_fn(&mut m, &mut rng, &params[..5]))
                .collect();
            if rng.next().is_multiple_of(4) {
                comps[3] = comps[2]; // identical components tie more often
            }
            let n = Bfv::from_components(&space, comps).unwrap();
            let mut got = Vec::new();
            let r = eliminate(&mut m, &space, &n, &params, Schedule::DynamicSupport, |p| {
                got.push(p);
            })
            .unwrap();
            // Reference: the from-scratch rule over full cofactors.
            let mut expect = Vec::new();
            let mut current = n.clone();
            let mut remaining = params.clone();
            while !remaining.is_empty() {
                let (idx, tied) = cheapest_param_from_scratch(&m, &current, &remaining);
                ties += usize::from(tied);
                let p = remaining.swap_remove(idx);
                expect.push(p);
                if !current
                    .components()
                    .iter()
                    .any(|&c| m.support(c).contains(p))
                {
                    zero_picks += 1;
                    continue;
                }
                let f0 = ops::cofactor(&mut m, &space, &current, p, false).unwrap();
                let f1 = ops::cofactor(&mut m, &space, &current, p, true).unwrap();
                current = ops::union(&mut m, &space, &f0, &f1).unwrap();
            }
            assert_eq!(got, expect, "case {case}: elimination order");
            assert_eq!(r.components(), current.components(), "case {case}");
            assert!(r.is_canonical(&mut m, &space).unwrap(), "case {case}");
        }
        assert!(
            zero_picks > 0 && ties > 0,
            "{zero_picks} zero picks, {ties} ties"
        );
    }

    #[test]
    fn constant_vector_takes_parameters_in_schedule_order() {
        let space = Space::contiguous(3);
        let params: Vec<Var> = (3..8).map(Var).collect();
        let mut m = BddManager::new(8);
        let n = Bfv::from_components(&space, vec![Bdd::TRUE, Bdd::FALSE, Bdd::TRUE]).unwrap();
        for schedule in [Schedule::Fixed, Schedule::DynamicSupport] {
            let mut got = Vec::new();
            let r = eliminate(&mut m, &space, &n, &params, schedule, |p| got.push(p)).unwrap();
            let mut expect = Vec::new();
            let mut remaining = params.clone();
            while !remaining.is_empty() {
                let (idx, _) = cheapest_param_from_scratch(&m, &n, &remaining);
                expect.push(remaining.swap_remove(idx));
            }
            assert_eq!(got, expect, "{schedule:?}");
            assert_eq!(r.components(), n.components());
        }
    }

    #[test]
    fn mixed_params_and_choice_vars() {
        // Components already partially canonical (depend on v_0) plus a
        // parameter: quantify only the parameter.
        let (mut m, space, ps) = setup();
        let v0 = m.var(space.var(0));
        let p0 = m.var(ps[0]);
        let f1 = v0;
        let f2 = m.xor(v0, p0).unwrap(); // hmm: not canonical per-point? it is: f2 depends on params + v0
        let f3 = Bdd::FALSE;
        let n = Bfv::from_components(&space, vec![f1, f2, f3]).unwrap();
        let r = reparameterize(&mut m, &space, &n, &[ps[0]]).unwrap();
        assert!(r.is_canonical(&mut m, &space).unwrap());
        // For p0 = 0: (v0, v0, 0) = {000, 110}; for p0 = 1: (v0, ¬v0, 0)
        // = {010, 100}; union = {000, 010, 100, 110} = bit3 = 0.
        let s = StateSet::NonEmpty(r);
        assert_eq!(s.len(&mut m, &space).unwrap(), 4);
        assert!(s.contains(&m, &space, &[true, false, false]).unwrap());
        assert!(!s.contains(&m, &space, &[true, false, true]).unwrap());
    }
}
