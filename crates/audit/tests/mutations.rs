//! Seeded-corruption regression tests: one per analysis pass, plus
//! clean-run zero-findings baselines and the full mutation-harness sweep.
//!
//! Each test corrupts exactly one invariant and asserts that the
//! *targeted* pass produces a finding — with a concrete witness cube
//! where one is extractable — so a future regression in any detector
//! fails its own named test, not a distant aggregate.

use bfvr_audit::{run_mutations, run_passes, AuditTargets, Pass, Report, Severity};
use bfvr_bdd::{BddManager, Corruption, Var};
use bfvr_bfv::cdec::CDec;
use bfvr_bfv::convert::to_characteristic;
use bfvr_bfv::{Bfv, Space, StateSet};

/// A structurally rich sample set over three components: four members,
/// non-constant first component — enough for every corruption to be
/// semantics-changing.
fn sample(m: &mut BddManager) -> (Space, Bfv) {
    let space = Space::contiguous(3);
    let pts = [
        vec![false, false, true],
        vec![false, true, false],
        vec![true, false, false],
        vec![true, true, true],
    ];
    let s = StateSet::from_points(m, &space, &pts).unwrap();
    let bfv = s.as_bfv().unwrap().clone();
    (space, bfv)
}

fn audit(m: &mut BddManager, targets: &AuditTargets<'_>) -> Report {
    let mut report = Report::new();
    run_passes(m, targets, "", &mut report).unwrap();
    report
}

fn graph_only(space: &Space) -> AuditTargets<'_> {
    AuditTargets {
        space,
        bfv: None,
        cdec: None,
        chi: None,
        leak_roots: None,
    }
}

// ---------------------------------------------------------------- clean

#[test]
fn clean_bfv_audits_with_zero_findings() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let chi = to_characteristic(&mut m, &space, &bfv).unwrap();
    let report = audit(&mut m, &AuditTargets::for_bfv(&space, &bfv).with_chi(chi));
    assert!(report.is_empty(), "{}", report.render());
}

#[test]
fn clean_chi_audits_with_zero_findings() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let chi = to_characteristic(&mut m, &space, &bfv).unwrap();
    let report = audit(&mut m, &AuditTargets::for_chi(&space, chi));
    assert!(report.is_empty(), "{}", report.render());
}

#[test]
fn clean_cdec_audits_with_zero_findings() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let dec = CDec::from_bfv(&mut m, &space, &bfv).unwrap();
    let report = audit(&mut m, &AuditTargets::for_cdec(&space, &dec));
    assert!(report.is_empty(), "{}", report.render());
}

// ------------------------------------------------- pass 1: graph-wf

#[test]
fn complemented_hi_fires_graph_pass_with_witness() {
    let mut m = BddManager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let g = m.xor(a, b).unwrap();
    m.corrupt_for_audit(g, Corruption::ComplementHi);
    let sp = Space::contiguous(2);
    let report = audit(&mut m, &graph_only(&sp));
    let f = report
        .by_pass(Pass::GraphWf)
        .next()
        .expect("graph pass must fire");
    assert_eq!(f.severity, Severity::Error);
    assert!(f.witness.is_some(), "complemented-hi is walkable: {f}");
}

#[test]
fn swapped_children_fire_graph_pass() {
    let mut m = BddManager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let g = m.and(a, b).unwrap();
    m.corrupt_for_audit(g, Corruption::SwapChildren);
    let sp = Space::contiguous(2);
    let report = audit(&mut m, &graph_only(&sp));
    assert!(report.by_pass(Pass::GraphWf).next().is_some());
    assert!(report.has_errors());
}

// ---------------------------------------------------- pass 2: leak

#[test]
fn freed_live_slot_fires_leak_pass_as_cache_residue() {
    let mut m = BddManager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let g = m.xor(a, b).unwrap();
    m.corrupt_for_audit(g, Corruption::FreeLiveSlot);
    let sp = Space::contiguous(2);
    let report = audit(&mut m, &graph_only(&sp));
    let f = report
        .by_pass(Pass::Leak)
        .next()
        .expect("residue pass must fire");
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn unrooted_survivor_fires_leak_pass_with_witness() {
    let mut m = BddManager::new(3);
    let a = m.var(Var(0));
    let b = m.var(Var(1));
    let g = m.xor(a, b).unwrap();
    let pin = m.func(g);
    m.collect_garbage(&[]);
    drop(pin); // g survived the collection but no root holds it now
    let sp = Space::contiguous(2);
    let roots: [bfvr_bdd::Bdd; 0] = [];
    let report = audit(&mut m, &graph_only(&sp).with_leak_roots(&roots));
    let f = report
        .by_pass(Pass::Leak)
        .next()
        .expect("leak pass must fire");
    assert_eq!(f.severity, Severity::Warning);
    assert!(f.witness.is_some(), "leaked node is walkable: {f}");
}

// -------------------------------------------- pass 3: bfv-support

#[test]
fn widened_support_fires_support_pass_with_witness() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let late = m.var(space.var(2));
    let mut comps = bfv.components().to_vec();
    comps[0] = m.xor(comps[0], late).unwrap();
    let bad = Bfv::from_components(&space, comps).unwrap();
    let report = audit(&mut m, &AuditTargets::for_bfv(&space, &bad));
    let f = report
        .by_pass(Pass::BfvSupport)
        .next()
        .expect("support pass must fire");
    assert_eq!(f.severity, Severity::Error);
    // The cofactor diff may be a tautology (every assignment witnesses
    // the dependence), so the cube can be empty — but it must exist, and
    // the message must name the out-of-prefix variable.
    assert!(f.witness.is_some(), "support violation has a cube: {f}");
    assert!(
        f.message.contains("v2"),
        "message must name the out-of-prefix variable: {f}"
    );
}

// ------------------------------------------ pass 4: bfv-partition

#[test]
fn flipped_complement_fires_partition_pass() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let i = (0..bfv.len())
        .find(|&i| !bfv.conditions(&mut m, &space, i).unwrap().choice.is_false())
        .expect("sample set has a free-choice component");
    let mut comps = bfv.components().to_vec();
    comps[i] = m.not(comps[i]);
    let bad = Bfv::from_components(&space, comps).unwrap();
    let report = audit(&mut m, &AuditTargets::for_bfv(&space, &bad));
    let f = report
        .by_pass(Pass::BfvPartition)
        .next()
        .expect("partition pass must fire");
    assert_eq!(f.severity, Severity::Error);
    assert!(f.witness.is_some(), "overlap has a concrete cube: {f}");
}

// ---------------------------------------- pass 5: bfv-idempotence

#[test]
fn negated_component_fires_idempotence_pass() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let i = (0..bfv.len())
        .find(|&i| !bfv.component(i).is_const())
        .expect("sample set has a non-constant component");
    let mut comps = bfv.components().to_vec();
    comps[i] = m.not(comps[i]);
    let bad = Bfv::from_components(&space, comps).unwrap();
    let report = audit(&mut m, &AuditTargets::for_bfv(&space, &bad));
    assert!(
        report.by_pass(Pass::BfvIdempotence).next().is_some(),
        "{}",
        report.render()
    );
}

// ------------------------------------------- pass 6: cdec-prefix

#[test]
fn widened_constraint_fires_cdec_pass_with_witness() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let d = CDec::from_bfv(&mut m, &space, &bfv).unwrap();
    let late = m.var(space.var(2));
    let mut cs = d.constraints().to_vec();
    cs[0] = m.xor(cs[0], late).unwrap();
    let bad = CDec::from_constraints(cs);
    let report = audit(&mut m, &AuditTargets::for_cdec(&space, &bad));
    let f = report
        .by_pass(Pass::CdecPrefix)
        .next()
        .expect("cdec pass must fire");
    assert_eq!(f.severity, Severity::Error);
    assert!(f.witness.is_some(), "prefix violation has a cube: {f}");
}

#[test]
fn dropped_constraint_fires_cdec_pass() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let d = CDec::from_bfv(&mut m, &space, &bfv).unwrap();
    let mut cs = d.constraints().to_vec();
    cs.remove(0);
    let bad = CDec::from_constraints(cs);
    let report = audit(&mut m, &AuditTargets::for_cdec(&space, &bad));
    assert!(
        report.by_pass(Pass::CdecPrefix).next().is_some(),
        "{}",
        report.render()
    );
    assert!(report.has_errors());
}

// ------------------------------------------- pass 7: cross-equiv

#[test]
fn flipped_chi_member_fires_cross_equiv_pass() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let chi = to_characteristic(&mut m, &space, &bfv).unwrap();
    // Remove one member from χ while the vector keeps it.
    let v0 = m.nvar(space.var(0));
    let v1 = m.nvar(space.var(1));
    let v2 = m.var(space.var(2));
    let a = m.and(v0, v1).unwrap();
    let cube = m.and(a, v2).unwrap(); // the member 001
    let bad_chi = m.xor(chi, cube).unwrap();
    let report = audit(
        &mut m,
        &AuditTargets::for_bfv(&space, &bfv).with_chi(bad_chi),
    );
    let f = report
        .by_pass(Pass::CrossEquiv)
        .next()
        .expect("cross-equiv pass must fire");
    assert_eq!(f.severity, Severity::Error);
    let w = f.witness.as_ref().expect("disagreement has a cube");
    assert!(!w.assignment.is_empty());
}

// ----------------------------------------------- the full harness

#[test]
fn mutation_harness_detects_every_corruption() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let outcomes = run_mutations(&mut m, &space, &bfv).unwrap();
    assert_eq!(outcomes.len(), 9, "one mutation per corruption kind");
    for o in &outcomes {
        assert!(
            o.fired,
            "{} was not detected by {}",
            o.label,
            o.expected.id()
        );
        // Every corruption except the freed-slot cache residue (whose
        // dangling entries reference unwalkable storage) yields a
        // concrete witness cube.
        if o.label != "graph/free-live-slot" {
            assert!(o.with_witness, "{} fired without a witness", o.label);
        }
    }
    // The harness never poisons the caller's manager.
    m.check_invariants().unwrap();
}

#[test]
fn findings_sort_by_severity_then_pass() {
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    // A corruption that yields both Error (support) and Warning (leak)
    // findings in one report: a support-widened vector plus an interior
    // node that survived the last collection with no remaining root.
    let a = m.var(space.var(0));
    let b = m.var(space.var(1));
    let g = m.and(a, b).unwrap();
    let g_pin = m.func(g);
    let late = m.var(space.var(2));
    let mut comps = bfv.components().to_vec();
    comps[0] = m.xor(comps[0], late).unwrap();
    let bad = Bfv::from_components(&space, comps).unwrap();
    let _bad_pins = bad.pin(&m);
    m.collect_garbage(&[]);
    drop(g_pin);
    let roots: [bfvr_bdd::Bdd; 0] = [];
    let mut report = Report::new();
    run_passes(
        &mut m,
        &AuditTargets::for_bfv(&space, &bad).with_leak_roots(&roots),
        "",
        &mut report,
    )
    .unwrap();
    let sorted = report.sorted();
    assert!(sorted.len() >= 2);
    for pair in sorted.windows(2) {
        assert!(
            pair[0].severity >= pair[1].severity,
            "not sorted by severity:\n{}",
            report.render()
        );
    }
    assert_eq!(sorted[0].severity, Severity::Error);
    assert_eq!(sorted.last().unwrap().severity, Severity::Warning);
}

#[test]
fn clean_chi_survives_the_new_backend_roundtrips() {
    // The cross-equiv pass derives the BFV and CDec forms of every
    // audited χ through the production converters. A clean set must
    // produce zero findings there.
    let mut m = BddManager::new(3);
    let (space, bfv) = sample(&mut m);
    let chi = to_characteristic(&mut m, &space, &bfv).unwrap();
    let report = audit(&mut m, &AuditTargets::for_chi(&space, chi));
    assert!(report.is_empty(), "{}", report.render());
}

#[test]
fn empty_and_universe_chi_roundtrip_clean() {
    // Degenerate sets stress the converters' edge cases: ⊥ has no
    // functional vector, and ⊤ over three variables is the whole space.
    let mut m = BddManager::new(3);
    let space = Space::contiguous(3);
    for chi in [bfvr_bdd::Bdd::FALSE, bfvr_bdd::Bdd::TRUE] {
        let report = audit(&mut m, &AuditTargets::for_chi(&space, chi));
        assert!(report.is_empty(), "{}", report.render());
    }
}
