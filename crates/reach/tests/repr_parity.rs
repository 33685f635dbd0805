//! Representation parity: every engine, and so every set representation
//! (χ, BFV, CDec), must agree exactly on the reached-state count.
//!
//! This is the test-suite twin of the CI smoke job: the same circuits,
//! the same five lanes.

use bfvr_netlist::{circuits, generators, Netlist};
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

const ORDER: OrderHeuristic = OrderHeuristic::DfsFanin;

fn parity_circuits() -> Vec<(&'static str, Netlist, f64)> {
    // Known reached-state counts (also asserted by the engine tests).
    vec![
        ("s27", circuits::s27(), 6.0),
        ("counter5", generators::counter(5), 32.0),
        ("johnson5", generators::johnson(5), 10.0),
    ]
}

#[test]
fn all_lanes_agree_on_reached_state_counts() {
    let opts = ReachOptions::default();
    for (name, net, expected) in parity_circuits() {
        for engine in EngineKind::all() {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            let r = run(engine, &mut m, &fsm, &opts);
            assert_eq!(
                r.outcome,
                Outcome::FixedPoint,
                "{name}/{}: did not converge",
                engine.label()
            );
            let states = r
                .reached_states
                .unwrap_or_else(|| panic!("{name}/{}: no reached-state count", engine.label()));
            assert_eq!(
                states,
                expected,
                "{name}/{}: lane disagrees",
                engine.label()
            );
        }
    }
}
