//! The Coudert–Berthet–Madre flow (paper Figure 1): characteristic
//! functions for set manipulation, functional vectors for the image.
//!
//! Image computation follows [7]: the next-state functions are
//! *constrained* (generalized cofactor) by the from-set's characteristic
//! function — whose range then equals the image — and the range is
//! computed by recursive domain splitting, producing a characteristic
//! function over the next-state variables. The constrain step and the
//! range-splitting conversion are the CF↔BFV bridges that the paper's
//! Figure 2 flow eliminates; their time is reported separately in
//! [`crate::ReachResult::conversion_time`].

use bfvr_bdd::hash::FxHashMap;
use bfvr_bdd::{Bdd, BddManager, Var};

/// Computes the characteristic function (over `out_vars`) of the range of
/// a vector of functions, by recursive splitting on the topmost live
/// variable [6,7].
pub(crate) fn range_by_splitting(
    m: &mut BddManager,
    comps: &[Bdd],
    out_vars: &[Var],
) -> Result<Bdd, bfvr_bdd::BddError> {
    let mut memo: FxHashMap<Vec<u32>, Bdd> = FxHashMap::default();
    range_rec(m, comps, out_vars, &mut memo)
}

fn range_rec(
    m: &mut BddManager,
    comps: &[Bdd],
    out_vars: &[Var],
    memo: &mut FxHashMap<Vec<u32>, Bdd>,
) -> Result<Bdd, bfvr_bdd::BddError> {
    // Splitting variable: the topmost decision variable among components.
    let top = comps
        .iter()
        .filter(|c| !c.is_const())
        .map(|&c| m.top_var(c).0)
        .min();
    let Some(top) = top else {
        // All constant: the range is the single point they denote.
        let mut cube = Bdd::TRUE;
        for (i, &c) in comps.iter().enumerate() {
            let lit = if c.is_true() {
                m.var(out_vars[i])
            } else {
                m.nvar(out_vars[i])
            };
            cube = m.and(cube, lit)?;
        }
        return Ok(cube);
    };
    let key: Vec<u32> = comps.iter().map(|c| c.index()).collect();
    if let Some(&r) = memo.get(&key) {
        return Ok(r);
    }
    let v = Var(top);
    let mut lo = Vec::with_capacity(comps.len());
    let mut hi = Vec::with_capacity(comps.len());
    for &c in comps {
        lo.push(m.cofactor(c, v, false)?);
        hi.push(m.cofactor(c, v, true)?);
    }
    let r0 = range_rec(m, &lo, out_vars, memo)?;
    let r = if r0.is_true() {
        r0
    } else {
        let r1 = range_rec(m, &hi, out_vars, memo)?;
        m.or(r0, r1)?
    };
    memo.insert(key, r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Outcome;
    use crate::{run, EngineKind, ReachOptions};
    use bfvr_netlist::generators;
    use bfvr_sim::{EncodedFsm, OrderHeuristic};
    use std::time::Duration;

    #[test]
    fn range_of_constant_vector_is_a_point() {
        let mut m = BddManager::new(4);
        let r = range_by_splitting(&mut m, &[Bdd::TRUE, Bdd::FALSE], &[Var(0), Var(1)]).unwrap();
        assert_eq!(m.sat_count(r, 2), 1.0);
        let v0 = m.var(Var(0));
        let nv1 = m.nvar(Var(1));
        let expect = m.and(v0, nv1).unwrap();
        assert_eq!(r, expect);
    }

    #[test]
    fn range_matches_quantified_relation() {
        // Range of (x⊕y, x∧y) over outputs (u0, u1).
        let mut m = BddManager::new(4);
        let x = m.var(Var(0));
        let y = m.var(Var(1));
        let f0 = m.xor(x, y).unwrap();
        let f1 = m.and(x, y).unwrap();
        let got = range_by_splitting(&mut m, &[f0, f1], &[Var(2), Var(3)]).unwrap();
        // Oracle: ∃x,y. (u0 ↔ f0) ∧ (u1 ↔ f1).
        let u0 = m.var(Var(2));
        let u1 = m.var(Var(3));
        let e0 = m.xnor(u0, f0).unwrap();
        let e1 = m.xnor(u1, f1).unwrap();
        let rel = m.and(e0, e1).unwrap();
        let cube = m.cube_from_vars(&[Var(0), Var(1)]).unwrap();
        let expect = m.exists(rel, cube).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn cbm_agrees_with_other_engines() {
        for net in [
            generators::counter(5),
            generators::johnson(6),
            generators::rotator(5),
            bfvr_netlist::circuits::s27(),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let a = run(EngineKind::Cbm, &mut m, &fsm, &ReachOptions::default());
            let b = run(
                EngineKind::Monolithic,
                &mut m,
                &fsm,
                &ReachOptions::default(),
            );
            let c = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(a.outcome, Outcome::FixedPoint, "{}", net.name());
            assert_eq!(a.reached_chi, b.reached_chi, "{} cbm vs mono", net.name());
            assert_eq!(a.reached_chi, c.reached_chi, "{} cbm vs bfv", net.name());
            assert!(
                a.conversion_time > Duration::ZERO,
                "{} conversions untimed",
                net.name()
            );
        }
    }
}
