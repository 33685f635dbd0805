//! Cross-crate integration tests: netlist text → encoding → all engines,
//! each lane checked against explicit search by the differential harness.

mod oracle;

use bfvr::netlist::{bench, blif, generators, generators::ToBench};
use bfvr::reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr::sim::{EncodedFsm, OrderHeuristic};
use oracle::{check_circuits, standard_suite, Mode, ORDERS};

/// Standard-suite members too deep to run under every engine in debug.
const DEEP: [&str; 3] = ["gray8", "lfsr10", "cnt12"];

/// Every engine reaches exactly the explicit-state set on the standard
/// suite's shallow members and on counter5 and johnson5.
#[test]
fn all_engines_agree_on_the_suite() {
    let mut nets = vec![generators::counter(5), generators::johnson(5)];
    nets.extend(standard_suite(|n| !DEEP.contains(&n) && n != "shift16"));
    let engines = EngineKind::all();
    let tally = check_circuits(nets, &engines, &ORDERS[..1], Mode::Straight, 0xD1FF_2024);
    assert!(tally[1] > 0 && tally[3] > 0, "{tally:?}");
}

/// The reached set is order-independent: BFV on traffic3 under every
/// static order.
#[test]
fn reachability_is_order_independent() {
    let nets = vec![generators::traffic_chain(3)];
    let orders = [&ORDERS[..], &[OrderHeuristic::Random(99)]].concat();
    let bfv = [EngineKind::Bfv];
    check_circuits(nets, &bfv, &orders, Mode::Straight, 0x0D3E_2024);
}

/// Explicit search confirms BFV on the standard suite's deep members.
#[test]
fn explicit_bfs_confirms_symbolic_counts() {
    let nets = standard_suite(|n| DEEP.contains(&n));
    let bfv = [EngineKind::Bfv];
    check_circuits(nets, &bfv, &ORDERS[..1], Mode::Straight, 0xBF5_2024);
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
