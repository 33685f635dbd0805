//! Mutation-based self-test harness: seeds deliberate corruptions and
//! reports whether the matching pass detects each one.
//!
//! An analysis framework is only trustworthy if its detectors are
//! themselves tested. [`run_mutations`] takes a *clean* canonical vector,
//! applies one corruption per pass — flip a complement bit, widen a
//! support, drop a constraint, free a live slot, strand an unrooted node,
//! flip a member in χ — runs the full pass battery over each corrupted
//! object, and reports per mutation whether the targeted pass fired and
//! whether it produced a concrete witness cube.
//!
//! Graph-level corruptions run in private scratch managers (via
//! [`bfvr_bdd::Corruption`]) so the caller's manager is never poisoned;
//! object-level corruptions build new corrupted objects in the caller's
//! manager, which its next collection reclaims.

use bfvr_bdd::{Bdd, BddManager, Corruption, Var};
use bfvr_bfv::cdec::CDec;
use bfvr_bfv::convert::to_characteristic;
use bfvr_bfv::{Bfv, Result, Space};

use crate::finding::{MutationOutcome, Pass, Report};
use crate::passes::{run_passes, AuditTargets};

/// Summarizes a report against the pass a mutation targets.
fn outcome(label: &'static str, expected: Pass, report: &Report) -> MutationOutcome {
    let mut fired = false;
    let mut with_witness = false;
    for f in report.by_pass(expected) {
        fired = true;
        if f.witness.is_some() {
            with_witness = true;
        }
    }
    MutationOutcome {
        label,
        expected,
        fired,
        with_witness,
        findings: report.len(),
    }
}

/// Runs the full battery over `targets` into a fresh report.
fn audit(m: &mut BddManager, targets: &AuditTargets<'_>) -> Result<Report> {
    let mut report = Report::new();
    run_passes(m, targets, "", &mut report)?;
    Ok(report)
}

/// A scratch manager holding one binary operation's result, for graph
/// corruptions that must not poison the caller's manager.
fn scratch() -> Result<(BddManager, Bdd)> {
    let mut s = BddManager::new(3);
    let a = s.var(Var(0));
    let b = s.var(Var(1));
    let g = s.xor(a, b)?;
    Ok((s, g))
}

/// Structure-only targets (no set representations): on a deliberately
/// corrupted manager the semantic passes cannot run safely, so only the
/// graph, residue and (optionally) leak passes apply.
fn graph_only(space: &Space) -> AuditTargets<'_> {
    AuditTargets {
        space,
        bfv: None,
        cdec: None,
        chi: None,
        leak_roots: None,
    }
}

/// Seeds one corruption per pass and reports which detectors fired.
///
/// `clean` must be a canonical vector over `space` (audit it first to be
/// sure). For every pass to be demonstrable the set needs some internal
/// structure: at least two components, at least two members, and a
/// non-constant first component — the reached set of any bundled
/// benchmark circuit after a few iterations qualifies, as does the
/// paper's Table 1 example. Degenerate sets make some corruptions
/// *semantics-preserving* (negating a constant component of a singleton
/// yields a different but perfectly valid set), which no invariant check
/// can or should flag; the corresponding outcome honestly reports
/// `fired: false`.
///
/// # Errors
///
/// Fails only on BDD resource exhaustion during the audits themselves.
pub fn run_mutations(
    m: &mut BddManager,
    space: &Space,
    clean: &Bfv,
) -> Result<Vec<MutationOutcome>> {
    let mut out = Vec::new();

    // 1. graph/complement-hi — flip the complement bit on a stored hi
    //    edge: breaks the canonical form (pass 1).
    {
        let (mut s, g) = scratch()?;
        s.corrupt_for_audit(g, Corruption::ComplementHi);
        let sp = Space::contiguous(2);
        let rep = audit(&mut s, &graph_only(&sp))?;
        out.push(outcome("graph/complement-hi", Pass::GraphWf, &rep));
    }

    // 2. graph/free-live-slot — free a slot the unique table and the
    //    computed caches still reference: dangling references (pass 6,
    //    cache residue; pass 1 also fires on the unique table).
    {
        let (mut s, g) = scratch()?;
        s.corrupt_for_audit(g, Corruption::FreeLiveSlot);
        let sp = Space::contiguous(2);
        let rep = audit(&mut s, &graph_only(&sp))?;
        out.push(outcome("graph/free-live-slot", Pass::Leak, &rep));
    }

    // 3. leak/unrooted-survivor — a live node unreachable from every
    //    root right after a collection (pass 6, dead-node leak).
    {
        let (mut s, g) = scratch()?;
        let pin = s.func(g);
        s.collect_garbage(&[]);
        drop(pin);
        let sp = Space::contiguous(2);
        let roots: [Bdd; 0] = [];
        let rep = audit(&mut s, &graph_only(&sp).with_leak_roots(&roots))?;
        out.push(outcome("leak/unrooted-survivor", Pass::Leak, &rep));
    }

    // 4. bfv/widen-support — make component 0 depend on the last choice
    //    variable, outside its allowed prefix (pass 2).
    {
        let late = m.var(space.var(space.len() - 1));
        let mut comps = clean.components().to_vec();
        comps[0] = m.xor(comps[0], late)?;
        let bad = Bfv::from_components(space, comps)?;
        let rep = audit(m, &AuditTargets::for_bfv(space, &bad))?;
        out.push(outcome("bfv/widen-support", Pass::BfvSupport, &rep));
    }

    // 5. bfv/flip-complement — negate a component with a non-⊥ choice
    //    condition: the flipped component's f¹ and f⁰ overlap exactly on
    //    the old fᶜ (pass 3).
    {
        let mut flip = None;
        for i in 0..clean.len() {
            if !clean.conditions(m, space, i)?.choice.is_false() {
                flip = Some(i);
                break;
            }
        }
        let i = flip.unwrap_or(clean.len() - 1);
        let mut comps = clean.components().to_vec();
        comps[i] = m.not(comps[i]);
        let bad = Bfv::from_components(space, comps)?;
        let rep = audit(m, &AuditTargets::for_bfv(space, &bad))?;
        out.push(outcome("bfv/flip-complement", Pass::BfvPartition, &rep));
    }

    // 6. bfv/negate-head — negate the first non-constant component: a
    //    member X now maps to X with that bit flipped, breaking
    //    F(F(X)) = F(X) (pass 4).
    {
        let i = (0..clean.len())
            .find(|&i| !clean.component(i).is_const())
            .unwrap_or(0);
        let mut comps = clean.components().to_vec();
        comps[i] = m.not(comps[i]);
        let bad = Bfv::from_components(space, comps)?;
        let rep = audit(m, &AuditTargets::for_bfv(space, &bad))?;
        out.push(outcome("bfv/negate-head", Pass::BfvIdempotence, &rep));
    }

    // 7. cdec/widen-constraint — make constraint 0 depend on the last
    //    choice variable, outside its allowed prefix (pass 5).
    {
        let d = CDec::from_bfv(m, space, clean)?;
        let late = m.var(space.var(space.len() - 1));
        let mut cs = d.constraints().to_vec();
        cs[0] = m.xor(cs[0], late)?;
        let bad = CDec::from_constraints(cs);
        let rep = audit(m, &AuditTargets::for_cdec(space, &bad))?;
        out.push(outcome("cdec/widen-constraint", Pass::CdecPrefix, &rep));
    }

    // 8. cdec/drop-constraint — remove a constraint: the decomposition no
    //    longer has one constraint per component (pass 5).
    {
        let d = CDec::from_bfv(m, space, clean)?;
        let mut cs = d.constraints().to_vec();
        cs.remove(0);
        let bad = CDec::from_constraints(cs);
        let rep = audit(m, &AuditTargets::for_cdec(space, &bad))?;
        out.push(outcome("cdec/drop-constraint", Pass::CdecPrefix, &rep));
    }

    // 9. chi/flip-member — flip one state's membership in χ while the
    //    vector still describes the original set (pass 7).
    {
        let chi = to_characteristic(m, space, clean)?;
        let point = m
            .pick_minterm(chi, m.num_vars())
            .unwrap_or_else(|| vec![false; m.num_vars() as usize]);
        let mut cube = Bdd::TRUE;
        for &v in space.vars() {
            let lit = if point[v.0 as usize] {
                m.var(v)
            } else {
                m.nvar(v)
            };
            cube = m.and(cube, lit)?;
        }
        let bad_chi = m.xor(chi, cube)?;
        let rep = audit(m, &AuditTargets::for_bfv(space, clean).with_chi(bad_chi))?;
        out.push(outcome("chi/flip-member", Pass::CrossEquiv, &rep));
    }

    Ok(out)
}
