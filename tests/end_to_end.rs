//! Cross-crate integration tests: netlist text → encoding → all engines.

use bfvr::netlist::{bench, blif, generators, generators::ToBench};
use bfvr::reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// Every engine must compute the identical reached set for every suite
/// circuit (cross-validated via the characteristic function).
#[test]
fn all_engines_agree_on_the_suite() {
    for (name, net) in generators::standard_suite() {
        // Skip the largest/deepest members to keep CI fast; the benches
        // cover them.
        let skip = ["gray8", "lfsr10", "cnt12", "shift16"];
        if skip.contains(&name.as_str()) {
            continue;
        }
        let mut counts = Vec::new();
        for kind in EngineKind::all() {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let r = run(kind, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(r.outcome, Outcome::FixedPoint, "{name}/{:?}", kind);
            counts.push((kind, r.reached_states.unwrap()));
        }
        let first = counts[0].1;
        for (kind, c) in &counts {
            assert_eq!(*c, first, "{name}: {kind:?} disagrees");
        }
    }
}

/// The full pipeline from ISCAS89 text: generate → serialize → parse →
/// traverse, with known reached-state counts.
#[test]
fn bench_text_roundtrip_preserves_reachability() {
    let cases: Vec<(bfvr::netlist::Netlist, f64)> = vec![
        (generators::counter_modk(5, 19), 19.0),
        (generators::johnson(6), 12.0),
        (generators::rotator(7), 7.0),
        (generators::paired_registers(5), 32.0),
    ];
    for (net, expect) in cases {
        let text = net.to_bench();
        let parsed = bench::parse_named(&text, net.name()).unwrap();
        let (mut m, fsm) = EncodedFsm::encode(&parsed, OrderHeuristic::DfsFanin).unwrap();
        let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        assert_eq!(r.reached_states, Some(expect), "{}", net.name());
    }
}

/// BLIF round trip through the other front end, then traversal.
#[test]
fn blif_roundtrip_preserves_reachability() {
    let net = generators::queue_controller(2);
    let text = blif::write(&net);
    let parsed = blif::parse(&text).unwrap();
    let (mut m1, fsm1) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
    let (mut m2, fsm2) = EncodedFsm::encode(&parsed, OrderHeuristic::Declaration).unwrap();
    let a = run(EngineKind::Bfv, &mut m1, &fsm1, &ReachOptions::default());
    let b = run(EngineKind::Bfv, &mut m2, &fsm2, &ReachOptions::default());
    assert_eq!(a.reached_states, b.reached_states);
    assert_eq!(a.iterations, b.iterations);
}

/// The reached count must be order-independent (all heuristics).
#[test]
fn reachability_is_order_independent() {
    let net = generators::traffic_chain(3);
    let mut counts = Vec::new();
    for h in [
        OrderHeuristic::DfsFanin,
        OrderHeuristic::Declaration,
        OrderHeuristic::Reversed,
        OrderHeuristic::Random(11),
        OrderHeuristic::Random(99),
    ] {
        let (mut m, fsm) = EncodedFsm::encode(&net, h).unwrap();
        let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        assert_eq!(r.outcome, Outcome::FixedPoint);
        counts.push(r.reached_states.unwrap());
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts: {counts:?}"
    );
}

/// Explicit-state baseline: exhaustive search with the reference
/// interpreter (`Netlist::reachable_states`) must find the same reachable
/// set size as the symbolic engines (the ground truth on small circuits).
#[test]
fn explicit_bfs_confirms_symbolic_counts() {
    for (name, net) in generators::standard_suite() {
        if net.latches().len() > 14 || net.inputs().len() > 12 {
            continue; // explicit search must stay small
        }
        let seen = net.reachable_states().unwrap();
        // Symbolic count.
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        assert_eq!(
            r.reached_states,
            Some(seen.len() as f64),
            "{name}: symbolic vs explicit"
        );
    }
}

/// Resource limits surface as the paper's T.O./M.O. outcomes, and a rerun
/// without limits completes.
#[test]
fn limits_then_completion() {
    let net = generators::johnson(10);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let limited = ReachOptions {
        node_limit: Some(m.allocated() + 64),
        ..Default::default()
    };
    let r = run(EngineKind::Bfv, &mut m, &fsm, &limited);
    assert_eq!(r.outcome, Outcome::MemOut);
    let r2 = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    assert_eq!(r2.outcome, Outcome::FixedPoint);
    assert_eq!(r2.reached_states, Some(20.0));
}
