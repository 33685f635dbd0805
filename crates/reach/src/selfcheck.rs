//! Per-iteration engine self-checks (the `audit` feature).
//!
//! With `--features audit`, [`crate::common::notify_iteration`] routes
//! every engine's iteration boundary through [`selfcheck_iteration`],
//! which runs the full [`bfvr_audit`] pass battery against the engine's
//! live set representation and panics on any [`bfvr_audit::Severity`]
//! `Error` finding — turning a silent representation bug into an
//! immediate, located failure at the iteration that introduced it.
//!
//! The audit's own scratch work must not be throttled by the engine's
//! resource budget (nor count against it): the manager's node limit and
//! deadline are suspended around the passes and restored afterwards. An
//! audit that still fails with a BDD error — possible only under injected
//! faults, which stay armed on purpose so sticky fault ordinals keep
//! their meaning — is *inconclusive* and skipped, never reported as a
//! finding.

use bfvr_audit::{run_passes, AuditTargets, Report};
use bfvr_bdd::BddManager;
use bfvr_sim::EncodedFsm;

use crate::common::IterationView;

/// Audits one iteration's set representation, panicking on any
/// `Severity::Error` finding. See the module docs for the
/// suspend/restore and inconclusive-skip semantics.
pub(crate) fn selfcheck_iteration(m: &mut BddManager, fsm: &EncodedFsm, view: &IterationView<'_>) {
    let space = fsm.space();
    let targets = AuditTargets::for_view(&space, &view.set).with_leak_roots(view.roots);

    let node_limit = m.node_limit();
    let deadline = m.deadline();
    m.clear_node_limit();
    m.set_deadline(None);

    let scope = format!("{}/iter[{}]", view.engine.label(), view.iteration);
    let mut report = Report::new();
    let run = run_passes(m, &targets, &scope, &mut report);

    // The passes derive representations and build violation BDDs; sweep
    // that scratch work away so the self-check leaves the heap exactly as
    // the engine's own collection established it — a later auditor (the
    // observer, or the next iteration's leak pass) must not see our
    // garbage as the engine's leak.
    m.collect_garbage(view.roots);

    match node_limit {
        Some(n) => m.set_node_limit(n),
        None => m.clear_node_limit(),
    }
    m.set_deadline(deadline);

    if run.is_ok() {
        assert!(
            !report.has_errors(),
            "audit self-check failed at {scope}:\n{}",
            report.render()
        );
    }
}
