//! Race-determinism regression: `run_racing` must return bit-identical
//! reached-state counts to sequential runs of the same lane set, and a
//! losing lane's cancellation must never surface as [`Outcome::Error`].

use std::time::Duration;

use bfvr_netlist::{circuits, generators, Netlist};
use bfvr_reach::portfolio::{run_racing, Lane};
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

const ORDER: OrderHeuristic = OrderHeuristic::DfsFanin;

fn bundled_circuits() -> Vec<(&'static str, Netlist)> {
    vec![
        ("s27", circuits::s27()),
        ("queue4", generators::queue_controller(4)),
        ("lfsr10", generators::lfsr(10)),
    ]
}

fn sequential_count(net: &Netlist, engine: EngineKind, opts: &ReachOptions) -> f64 {
    let (mut m, fsm) = EncodedFsm::encode(net, ORDER).unwrap();
    let r = run(engine, &mut m, &fsm, opts);
    assert_eq!(r.outcome, Outcome::FixedPoint);
    r.reached_states.unwrap()
}

#[test]
fn racing_matches_sequential_counts_on_three_circuits() {
    let lanes = [
        Lane::native(EngineKind::Iwls95),
        Lane::native(EngineKind::Bfv),
    ];
    let opts = ReachOptions::default();
    for (name, net) in bundled_circuits() {
        // Every engine, run alone, converges to the same unique least
        // fixed point...
        let counts: Vec<f64> = lanes
            .iter()
            .map(|&l| sequential_count(&net, l.engine, &opts))
            .collect();
        assert!(
            counts.iter().all(|c| c.to_bits() == counts[0].to_bits()),
            "{name}: engines disagree sequentially: {counts:?}"
        );
        // ...so whichever lane wins the race, the count is bit-identical.
        let report = run_racing(&lanes, &net, &opts, 0);
        let result = report.result.expect("non-empty race has a result");
        assert_eq!(result.outcome, Outcome::FixedPoint, "{name}");
        assert_eq!(
            result.reached_states.unwrap().to_bits(),
            counts[0].to_bits(),
            "{name}: race count diverges from sequential"
        );
        assert_eq!(report.lanes.len(), lanes.len());
        let winner = report.winner.expect("completed race names a winner");
        assert_eq!(report.lanes[winner].engine, result.engine);
        assert_eq!(report.lanes[winner].outcome, Some(Outcome::FixedPoint));
        assert!(!report.lanes[winner].cancelled);
    }
}

#[test]
fn losing_lanes_are_cancelled_not_errored() {
    // All five lanes on one circuit: exactly one lane wins, and
    // every other lane either also completed (finished before the cancel
    // poll caught it) or was cancelled — reported as `T.O.`, never `ERR`.
    let net = generators::queue_controller(4);
    let opts = ReachOptions::default();
    for _ in 0..3 {
        let report = run_racing(&Lane::all_lanes(), &net, &opts, 0);
        let result = report.result.expect("race result");
        assert_eq!(result.outcome, Outcome::FixedPoint);
        for lane in &report.lanes {
            assert_ne!(
                lane.outcome,
                Some(Outcome::Error),
                "cancellation must ride the deadline path: {lane:?}"
            );
            if let Some(outcome) = lane.outcome {
                assert!(
                    matches!(outcome, Outcome::FixedPoint | Outcome::TimeOut),
                    "unexpected lane outcome {outcome:?}: {lane:?}"
                );
            } else {
                // Skipped before starting only happens once a winner is
                // already known.
                assert!(lane.cancelled);
            }
        }
        let winners = report
            .lanes
            .iter()
            .filter(|l| l.outcome == Some(Outcome::FixedPoint) && !l.cancelled)
            .count();
        assert!(winners >= 1);
    }
}

#[test]
fn full_lane_matrix_races_new_representations() {
    // The full portfolio: every engine lane.
    // The winner and every lane that finishes report the exact count.
    let net = circuits::s27();
    let opts = ReachOptions::default();
    let lanes = Lane::all_lanes();
    assert_eq!(
        lanes.iter().map(|l| l.label()).collect::<Vec<_>>(),
        ["BFV", "CBM", "MONO", "IWLS95", "CDEC"],
        "the lane matrix changed"
    );
    let exact = sequential_count(&net, EngineKind::Bfv, &opts);
    let report = run_racing(&lanes, &net, &opts, 0);
    let result = report.result.expect("race result");
    assert_eq!(result.outcome, Outcome::FixedPoint);
    assert_eq!(result.reached_states.unwrap().to_bits(), exact.to_bits());
    for lane in &report.lanes {
        if lane.outcome == Some(Outcome::FixedPoint) {
            if let Some(states) = lane.reached_states {
                assert_eq!(states.to_bits(), exact.to_bits(), "{lane:?}");
            }
        }
    }
}

#[test]
fn jobs_cap_serializes_the_race_deterministically() {
    // With one worker thread the lanes run strictly in order, so the
    // first lane wins and the remaining lanes are skipped outright.
    let net = circuits::s27();
    let opts = ReachOptions::default();
    let lanes = [
        Lane::native(EngineKind::Bfv),
        Lane::native(EngineKind::Monolithic),
        Lane::native(EngineKind::Cbm),
    ];
    let report = run_racing(&lanes, &net, &opts, 1);
    assert_eq!(report.winner, Some(0));
    let result = report.result.unwrap();
    assert_eq!(result.engine, EngineKind::Bfv);
    assert_eq!(result.outcome, Outcome::FixedPoint);
    assert_eq!(
        result.reached_states.unwrap(),
        sequential_count(&net, EngineKind::Bfv, &opts)
    );
    for lane in &report.lanes[1..] {
        assert_eq!(lane.outcome, None, "queued lane must be skipped");
        assert!(lane.cancelled);
    }
}

#[test]
fn empty_lane_list_yields_empty_report() {
    let net = circuits::s27();
    let report = run_racing(&[], &net, &ReachOptions::default(), 0);
    assert!(report.result.is_none());
    assert!(report.winner.is_none());
    assert!(report.lanes.is_empty());
}

#[test]
fn ordering_lanes_agree_on_reached_state_counts() {
    // The third portfolio axis: the same engine raced under different
    // static variable orders must converge to the same fixed point —
    // ordering changes cost, never the answer.
    for (name, net) in bundled_circuits() {
        let exact = sequential_count(&net, EngineKind::Monolithic, &ReachOptions::default());
        let lanes = [
            Lane::native(EngineKind::Monolithic),
            Lane::native(EngineKind::Monolithic).with_order(OrderHeuristic::Coi),
            Lane::native(EngineKind::Monolithic).with_order(OrderHeuristic::Force),
            Lane::native(EngineKind::Bfv).with_order(OrderHeuristic::Coi),
        ];
        assert_eq!(lanes[1].display(), "MONO@COI");
        assert_eq!(lanes[3].display(), "BFV@COI");
        let report = run_racing(&lanes, &net, &ReachOptions::default(), 0);
        let result = report.result.expect("race result");
        assert_eq!(result.outcome, Outcome::FixedPoint, "{name}");
        assert_eq!(
            result.reached_states.unwrap().to_bits(),
            exact.to_bits(),
            "{name}"
        );
        for lane in &report.lanes {
            if lane.outcome == Some(Outcome::FixedPoint) {
                if let Some(states) = lane.reached_states {
                    assert_eq!(states.to_bits(), exact.to_bits(), "{name}: {lane:?}");
                }
            }
        }
        // Reports carry the resolved order per lane.
        assert_eq!(report.lanes[0].order, OrderHeuristic::DfsFanin);
        assert_eq!(report.lanes[1].order, OrderHeuristic::Coi);
        assert_eq!(report.lanes[2].order, OrderHeuristic::Force);
    }
}

#[test]
fn cancelled_lane_under_a_real_deadline_still_reports_timeout() {
    // A lane with a genuinely expired budget and a race cancellation are
    // indistinguishable by design — both must classify as `T.O.`.
    let net = generators::queue_controller(4);
    let opts = ReachOptions {
        time_limit: Some(Duration::from_millis(1)),
        ..Default::default()
    };
    let report = run_racing(
        &[
            Lane::native(EngineKind::Cbm),
            Lane::native(EngineKind::Monolithic),
        ],
        &net,
        &opts,
        0,
    );
    for lane in &report.lanes {
        assert_ne!(lane.outcome, Some(Outcome::Error), "{lane:?}");
    }
}
