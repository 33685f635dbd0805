//! Representation parity: every engine × representation lane must agree
//! on the reached-state count — exactly for the exact backends (χ, BFV,
//! CDec), by containment for the over-approximating zonotope lane.
//!
//! This is the test-suite twin of the CI smoke job: the same circuits,
//! the same lane matrix, the same exact/containment split.

use bfvr_netlist::{circuits, generators, Netlist};
use bfvr_reach::portfolio::Lane;
use bfvr_reach::{run_repr, EngineKind, Outcome, ReachOptions};
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
        for lane in Lane::all_lanes() {
            let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
            let r = run_repr(lane.engine, lane.repr, &mut m, &fsm, &opts);
            assert_eq!(
                r.outcome,
                Outcome::FixedPoint,
                "{name}/{}: did not converge",
                lane.label()
            );
            let states = r
                .reached_states
                .unwrap_or_else(|| panic!("{name}/{}: no reached-state count", lane.label()));
            assert_eq!(
                r.over_approx,
                lane.repr.over_approximates(),
                "{name}/{}: over_approx flag does not match the representation",
                lane.label()
            );
            if r.over_approx {
                assert!(
                    states >= expected,
                    "{name}/{}: over-approximation lost states ({states} < {expected})",
                    lane.label()
                );
            } else {
                assert_eq!(
                    states,
                    expected,
                    "{name}/{}: exact lane disagrees",
                    lane.label()
                );
            }
        }
    }
}

/// The BFV engine's two lanes (canonical vector, zonotope hull) must
/// keep the exact-vs-hull relationship on a circuit where the hull is
/// strict: the Johnson counter's 2n reachable ring sits inside a larger
/// affine hull.
#[test]
fn zonotope_hull_is_strict_where_expected() {
    let net = generators::johnson(5);
    let opts = ReachOptions::default();

    let (mut m, fsm) = EncodedFsm::encode(&net, ORDER).unwrap();
    let exact = run_repr(
        EngineKind::Bfv,
        bfvr_reach::ReprKind::Bfv,
        &mut m,
        &fsm,
        &opts,
    );
    assert_eq!(exact.outcome, Outcome::FixedPoint);

    let (mut m2, fsm2) = EncodedFsm::encode(&net, ORDER).unwrap();
    let hull = run_repr(
        EngineKind::Bfv,
        bfvr_reach::ReprKind::Zonotope,
        &mut m2,
        &fsm2,
        &opts,
    );
    assert_eq!(hull.outcome, Outcome::FixedPoint);
    assert!(hull.over_approx);
    assert!(hull.reached_states.unwrap() >= exact.reached_states.unwrap());
}
