//! The analysis passes and their driver, [`run_passes`].

use bfvr_bdd::{Bdd, BddManager, GraphIssueKind, Var};
use bfvr_bfv::cdec::CDec;
use bfvr_bfv::convert::{from_characteristic, to_characteristic};
use bfvr_bfv::{Bfv, Result, Space};

use crate::finding::{Finding, Pass, Report, Severity, Witness};
use crate::view::SetView;

/// What to audit: a variable space plus whichever representations of the
/// set under scrutiny the caller holds. [`run_passes`] derives the missing
/// representations through the crate-boundary converters — so a χ-engine
/// iteration still exercises the full BFV/CDec battery, and the converters
/// themselves are audited on every call.
#[derive(Clone, Copy, Debug)]
pub struct AuditTargets<'a> {
    /// The component space the set lives in.
    pub space: &'a Space,
    /// The set as a canonical Boolean functional vector, if held.
    pub bfv: Option<&'a Bfv>,
    /// The set as a conjunctive decomposition, if held.
    pub cdec: Option<&'a CDec>,
    /// The set as a characteristic function, if held.
    pub chi: Option<Bdd>,
    /// The complete set of BDD roots the owner still holds; enables the
    /// leak pass (anything live but unreachable from these is garbage a
    /// collection should have reclaimed).
    pub leak_roots: Option<&'a [Bdd]>,
}

impl<'a> AuditTargets<'a> {
    /// Targets for a set held as a canonical BFV.
    #[must_use]
    pub fn for_bfv(space: &'a Space, bfv: &'a Bfv) -> Self {
        AuditTargets {
            space,
            bfv: Some(bfv),
            cdec: None,
            chi: None,
            leak_roots: None,
        }
    }

    /// Targets for a set held as a characteristic function.
    #[must_use]
    pub fn for_chi(space: &'a Space, chi: Bdd) -> Self {
        AuditTargets {
            space,
            bfv: None,
            cdec: None,
            chi: Some(chi),
            leak_roots: None,
        }
    }

    /// Targets for a set held as a conjunctive decomposition.
    #[must_use]
    pub fn for_cdec(space: &'a Space, cdec: &'a CDec) -> Self {
        AuditTargets {
            space,
            bfv: None,
            cdec: Some(cdec),
            chi: None,
            leak_roots: None,
        }
    }

    /// Targets for the reached set of one engine iteration, in the
    /// representation the backend iterates on.
    #[must_use]
    pub fn for_view(space: &'a Space, view: &SetView<'a>) -> Self {
        match *view {
            SetView::Chi { reached, .. } => Self::for_chi(space, reached),
            SetView::Vector { reached, .. } => Self::for_bfv(space, reached),
            SetView::Cdec { reached, .. } => Self::for_cdec(space, reached),
        }
    }

    /// Adds a characteristic function to compare against.
    #[must_use]
    pub fn with_chi(mut self, chi: Bdd) -> Self {
        self.chi = Some(chi);
        self
    }

    /// Enables the leak pass with the owner's complete root set.
    #[must_use]
    pub fn with_leak_roots(mut self, roots: &'a [Bdd]) -> Self {
        self.leak_roots = Some(roots);
        self
    }
}

/// Runs every applicable pass over `targets`, appending findings to
/// `report` with paths prefixed by `scope` (pass an empty string for
/// none).
///
/// Pass order: graph well-formedness and leak detection first (pure
/// reads), then the semantic passes, which allocate scratch BDDs in `m`
/// (unrooted, so the owner's next collection reclaims them).
///
/// # Errors
///
/// Fails only on BDD resource exhaustion (node limit, deadline, injected
/// faults) inside the audit's own scratch work — the audit is then
/// *inconclusive*, not failed; findings already appended remain valid.
pub fn run_passes(
    m: &mut BddManager,
    targets: &AuditTargets<'_>,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    graph_pass(m, scope, report);
    if let Some(roots) = targets.leak_roots {
        leak_pass(m, roots, scope, report);
    }
    residue_pass(m, scope, report);

    let space = targets.space;
    // Derive the missing representations so every audit exercises the
    // full battery (and the converters along the way).
    let derived_bfv: Option<Bfv> = if targets.bfv.is_some() {
        None
    } else if let Some(chi) = targets.chi {
        let d = from_characteristic(m, space, chi)?;
        if d.is_none() && !chi.is_false() {
            report.push(scoped(
                scope,
                Pass::CrossEquiv,
                Severity::Error,
                "chi",
                "from_characteristic reported an empty set for a non-empty χ".to_string(),
                Witness::from_violation(m, chi),
            ));
        }
        d
    } else if let Some(d) = targets.cdec {
        // A malformed decomposition (wrong constraint count) cannot be
        // converted; the cdec pass reports the count mismatch instead.
        if d.constraints().len() == space.len() {
            Some(d.to_bfv(m, space)?)
        } else {
            None
        }
    } else {
        None
    };
    let bfv: Option<&Bfv> = targets.bfv.or(derived_bfv.as_ref());

    if let Some(f) = bfv {
        support_pass(m, space, f, scope, report)?;
        partition_pass(m, space, f, scope, report)?;
        idempotence_pass(m, space, f, scope, report)?;
    }

    let derived_cdec: Option<CDec> = match (targets.cdec, bfv) {
        (None, Some(f)) => Some(CDec::from_bfv(m, space, f)?),
        _ => None,
    };
    let cdec = targets.cdec.or(derived_cdec.as_ref());
    if let Some(d) = cdec {
        cdec_pass(m, space, d, scope, report)?;
    }

    cross_equiv_pass(m, space, targets.chi, bfv, cdec, scope, report)?;
    Ok(())
}

/// Prepends the scope to an object path.
fn scoped_path(scope: &str, path: &str) -> String {
    if scope.is_empty() {
        path.to_string()
    } else {
        format!("{scope}/{path}")
    }
}

/// Builds a finding with a scoped path.
fn scoped(
    scope: &str,
    pass: Pass,
    severity: Severity,
    path: &str,
    message: String,
    witness: Option<Witness>,
) -> Finding {
    Finding {
        pass,
        severity,
        path: scoped_path(scope, path),
        message,
        witness,
    }
}

/// Pass 1 — graph well-formedness: every structural rule of the
/// complement-edge ROBDD representation, via [`BddManager::audit_graph`].
fn graph_pass(m: &BddManager, scope: &str, report: &mut Report) {
    for issue in m.audit_graph() {
        // A counterexample cube can only be extracted when the violation
        // is local to a live node whose children are still walkable;
        // dead-child / free-list damage makes traversal unsafe.
        let walkable = matches!(
            issue.kind,
            GraphIssueKind::ComplementedHi
                | GraphIssueKind::RedundantNode
                | GraphIssueKind::OrderViolation
        );
        let f = issue.edge();
        let witness = if walkable && m.is_live(f) {
            Witness::from_violation(m, f)
        } else {
            None
        };
        report.push(scoped(
            scope,
            Pass::GraphWf,
            Severity::Error,
            &format!("manager/slot[{}]", issue.slot),
            format!("[{}] {}", issue.kind.label(), issue.detail),
            witness,
        ));
    }
}

/// Pass 6a — dead-node leak detection: live nodes unreachable from the
/// owner's complete root set right after a collection.
fn leak_pass(m: &BddManager, roots: &[Bdd], scope: &str, report: &mut Report) {
    let leaked = m.audit_leaks(roots);
    if leaked.is_empty() {
        return;
    }
    let first = leaked[0];
    report.push(scoped(
        scope,
        Pass::Leak,
        Severity::Warning,
        &format!("manager/slot[{}]", first.index() >> 1),
        format!(
            "{} live node(s) unreachable from any root survived collection",
            leaked.len()
        ),
        Witness::from_violation(m, first),
    ));
}

/// Pass 6b — cache residue: computed-cache entries referencing freed
/// slots (stale memoization that a recycled slot would resurrect).
fn residue_pass(m: &BddManager, scope: &str, report: &mut Report) {
    for issue in m.audit_cache_residue() {
        report.push(scoped(
            scope,
            Pass::Leak,
            Severity::Error,
            &format!("manager/slot[{}]", issue.slot),
            format!("[{}] {}", issue.kind.label(), issue.detail),
            None,
        ));
    }
}

/// The support violations of `f` against the prefix `v_1 … v_{i+1}`:
/// for each out-of-prefix variable, a function that is ⊤ exactly where
/// the two cofactors differ (so any of its minterms is a witness).
fn prefix_violations(
    m: &mut BddManager,
    space: &Space,
    f: Bdd,
    i: usize,
) -> Result<Vec<(Var, Bdd)>> {
    let allowed = &space.vars()[..=i];
    let mut out = Vec::new();
    for v in m.support(f).vars() {
        if !allowed.contains(&v) {
            let f0 = m.cofactor(f, v, false)?;
            let f1 = m.cofactor(f, v, true)?;
            let diff = m.xor(f0, f1)?;
            out.push((v, diff));
        }
    }
    Ok(out)
}

/// Pass 2 — BFV support restriction (§2.2, canonicity condition 1):
/// component `f_i` depends only on the choice variables `v_1 … v_i`.
fn support_pass(
    m: &mut BddManager,
    space: &Space,
    f: &Bfv,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    for i in 0..f.len() {
        for (v, diff) in prefix_violations(m, space, f.component(i), i)? {
            report.push(scoped(
                scope,
                Pass::BfvSupport,
                Severity::Error,
                &format!("bfv/component[{i}]"),
                format!(
                    "component {i} depends on {v}, outside its allowed prefix {}..={}",
                    space.var(0),
                    space.var(i)
                ),
                Witness::from_violation(m, diff),
            ));
        }
    }
    Ok(())
}

/// Pass 3 — condition-partition exclusivity and completeness (§2.2): the
/// selection conditions `f_i¹`, `f_i⁰`, `f_iᶜ` are pairwise disjoint and
/// cover every assignment of the earlier choice variables.
fn partition_pass(
    m: &mut BddManager,
    space: &Space,
    f: &Bfv,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    for i in 0..f.len() {
        let c = f.conditions(m, space, i)?;
        let named = [("f¹", c.one), ("f⁰", c.zero), ("fᶜ", c.choice)];
        for a in 0..named.len() {
            for b in a + 1..named.len() {
                let overlap = m.and(named[a].1, named[b].1)?;
                if !overlap.is_false() {
                    report.push(scoped(
                        scope,
                        Pass::BfvPartition,
                        Severity::Error,
                        &format!("bfv/component[{i}]"),
                        format!(
                            "conditions {} and {} of component {i} overlap",
                            named[a].0, named[b].0
                        ),
                        Witness::from_violation(m, overlap),
                    ));
                }
            }
        }
        let oz = m.or(c.one, c.zero)?;
        let cover = m.or(oz, c.choice)?;
        if !cover.is_true() {
            report.push(scoped(
                scope,
                Pass::BfvPartition,
                Severity::Error,
                &format!("bfv/component[{i}]"),
                format!("conditions of component {i} do not cover all earlier choices"),
                Witness::from_violation(m, m.not(cover)),
            ));
        }
    }
    Ok(())
}

/// Pass 4 — idempotence `F(F(X)) = F(X)` (§2.2, canonicity condition 2),
/// checked symbolically: composing every component with the vector itself
/// must be a fixed point, i.e. members map to themselves.
fn idempotence_pass(
    m: &mut BddManager,
    space: &Space,
    f: &Bfv,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    let mut map: Vec<Option<Bdd>> = vec![None; m.num_vars() as usize];
    for (j, &fj) in f.components().iter().enumerate() {
        map[space.var(j).0 as usize] = Some(fj);
    }
    for i in 0..f.len() {
        let ff = m.vector_compose(f.component(i), &map)?;
        if ff != f.component(i) {
            let diff = m.xor(ff, f.component(i))?;
            report.push(scoped(
                scope,
                Pass::BfvIdempotence,
                Severity::Error,
                &format!("bfv/component[{i}]"),
                format!("F(F(X)) differs from F(X) in component {i}: some member does not map to itself"),
                Witness::from_violation(m, diff),
            ));
        }
    }
    Ok(())
}

/// Pass 5 — CDec prefix restriction (§2.7): one constraint per component,
/// each `c_i` ranging over `v_1 … v_i` only.
fn cdec_pass(
    m: &mut BddManager,
    space: &Space,
    d: &CDec,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    if d.constraints().len() != space.len() {
        report.push(scoped(
            scope,
            Pass::CdecPrefix,
            Severity::Error,
            "cdec",
            format!(
                "decomposition has {} constraints for a {}-component space",
                d.constraints().len(),
                space.len()
            ),
            None,
        ));
    }
    for (i, &c) in d.constraints().iter().enumerate() {
        if i >= space.len() {
            break; // already reported as a count mismatch
        }
        for (v, diff) in prefix_violations(m, space, c, i)? {
            report.push(scoped(
                scope,
                Pass::CdecPrefix,
                Severity::Error,
                &format!("cdec/constraint[{i}]"),
                format!(
                    "constraint {i} depends on {v}, outside its allowed prefix {}..={}",
                    space.var(0),
                    space.var(i)
                ),
                Witness::from_violation(m, diff),
            ));
        }
    }
    Ok(())
}

/// Pass 7 — cross-representation equivalence: every representation the
/// caller holds (or that was derived) must describe the same set of
/// states; any disagreement yields a witness state in the symmetric
/// difference.
fn cross_equiv_pass(
    m: &mut BddManager,
    space: &Space,
    chi: Option<Bdd>,
    bfv: Option<&Bfv>,
    cdec: Option<&CDec>,
    scope: &str,
    report: &mut Report,
) -> Result<()> {
    let mut reps: Vec<(&'static str, Bdd)> = Vec::new();
    if let Some(chi) = chi {
        reps.push(("chi", chi));
    }
    if let Some(f) = bfv {
        reps.push(("bfv-range", to_characteristic(m, space, f)?));
    }
    if let Some(d) = cdec {
        reps.push(("cdec-conjunction", d.conjoin_all(m)?));
    }
    for w in reps.windows(2) {
        let ((na, a), (nb, b)) = (w[0], w[1]);
        let diff = m.xor(a, b)?;
        if !diff.is_false() {
            report.push(scoped(
                scope,
                Pass::CrossEquiv,
                Severity::Error,
                &format!("equiv/{na}<->{nb}"),
                format!("{na} and {nb} disagree on at least one state"),
                Witness::from_violation(m, diff),
            ));
        }
    }
    Ok(())
}
