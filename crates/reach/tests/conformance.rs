//! Shared [`SetRepr`] trait-conformance suite, run against every backend.
//!
//! These are the laws the trait contract documents (see
//! `bfvr_reach::SetRepr`): union idempotence and commutativity, and
//! checkpoint → restore equivalence. One generic checker, instantiated
//! per backend, so a new representation inherits the whole battery by
//! construction.

use bfvr_bdd::{Bdd, BddManager};
use bfvr_netlist::{circuits, generators, Netlist};
use bfvr_reach::backends::{BfvBackend, CdecBackend, ChiBackend};
use bfvr_reach::{ReprCheckpoint, SetRepr};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

const ORDER: OrderHeuristic = OrderHeuristic::DfsFanin;

fn circuits_under_test() -> Vec<Netlist> {
    vec![circuits::s27(), generators::counter(4), generators::lfsr(5)]
}

/// Runs every law against one backend over one encoded FSM.
fn check_laws<B: SetRepr>(mut backend: B, m: &mut BddManager, name: &str) {
    backend
        .prepare(m)
        .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));

    // --- initial set and union idempotence -------------------------------
    let init = backend.initial(m).unwrap();
    let uu = backend.union(m, &init, &init).unwrap();
    assert!(
        backend.set_eq(m, &uu, &init),
        "{name}: union(s, s) != s (idempotence)"
    );

    // --- union commutativity (up to set_eq) ------------------------------
    let img = backend.image(m, &init).unwrap();
    let ab = backend.union(m, &init, &img).unwrap();
    let ba = backend.union(m, &img, &init).unwrap();
    assert!(
        backend.set_eq(m, &ab, &ba),
        "{name}: union(a, b) != union(b, a)"
    );

    // --- checkpoint → restore equivalence --------------------------------
    let reached = ab;
    let cp = backend.checkpoint(m, &reached, &img).unwrap();
    let (r2, f2) = backend
        .restore(m, &cp)
        .unwrap()
        .unwrap_or_else(|| panic!("{name}: restore rejected its own checkpoint"));
    assert!(
        backend.set_eq(m, &r2, &reached),
        "{name}: restored reached set differs"
    );
    assert!(
        backend.set_eq(m, &f2, &img),
        "{name}: restored from set differs"
    );

    // Root counts the backend cannot take must be rejected with
    // Ok(None), not misinterpreted: a χ backend's two roots per set
    // where one fits, and one root where a vector backend takes one
    // per component.
    let wrong = if cp.reached.len() == 1 { 2 } else { 1 };
    let foreign = ReprCheckpoint {
        reached: vec![m.func(Bdd::TRUE); wrong],
        from: vec![m.func(Bdd::TRUE); wrong],
    };
    assert!(
        backend.restore(m, &foreign).unwrap().is_none(),
        "{name}: restore accepted {wrong} root(s) per set"
    );
}

/// Instantiates the battery for every backend over every test circuit.
#[test]
fn every_backend_satisfies_the_setrepr_laws() {
    for net in circuits_under_test() {
        {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            check_laws(ChiBackend::monolithic(&fsm), &mut m, "chi/mono");
        }
        {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            check_laws(ChiBackend::cbm(&fsm), &mut m, "chi/cbm");
        }
        {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            check_laws(ChiBackend::iwls95(&fsm, 100), &mut m, "chi/iwls95");
        }
        {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            check_laws(BfvBackend::new(&fsm, Default::default()), &mut m, "bfv");
        }
        {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            check_laws(CdecBackend::new(&fsm, Default::default()), &mut m, "cdec");
        }
    }
}
