//! Sift-under-traversal parity: `--sift` is a *graph-shape* change,
//! never a semantic one. Every engine lane must report bit-identical
//! results (reached states, iterations, outcome) with dynamic
//! reordering armed or off — and the lanes whose representation is
//! structurally tied to its variable order (BFV/CDEC) must decline the
//! request entirely, running zero reorder passes. The test-suite twin
//! of the CI `reorder-smoke` job.

use bfvr_netlist::{generators, Netlist};
use bfvr_reach::portfolio::Lane;
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions, ReachResult};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

/// Circuits big enough (under a deliberately bad static order) to cross
/// the sifting floor and actually fire the trigger, yet small enough to
/// keep the full lane × order sweep in test budget. Debug builds run the
/// two cheapest families only (the unoptimized BFV/CDEC lanes on the
/// wider circuits dominate the sweep's wall clock by minutes); the CI
/// `reorder-smoke` job runs the full matrix in release.
fn sift_circuits() -> Vec<(&'static str, Netlist, f64)> {
    let mut v = vec![
        ("pair6", generators::paired_registers(6), 64.0),
        ("queue4", generators::queue_controller(4), 272.0),
    ];
    if cfg!(not(debug_assertions)) {
        v.push(("mask10", generators::masked_accumulator(10), 1024.0));
        v.push(("load12", generators::loadable_register(12), 1587.0));
    }
    v
}

/// Deliberately bad static orders: reversed declaration order splits
/// every current/next pair across the whole order, and raw declaration
/// order interleaves unrelated register halves. Debug builds take the
/// reversed order only (see [`sift_circuits`] on the budget).
fn bad_orders() -> Vec<OrderHeuristic> {
    let mut v = vec![OrderHeuristic::Reversed];
    if cfg!(not(debug_assertions)) {
        v.push(OrderHeuristic::Declaration);
    }
    v
}

fn run_lane(net: &Netlist, lane: Lane, order: OrderHeuristic, sift: bool) -> ReachResult {
    let (mut m, fsm) = EncodedFsm::encode(net, order).unwrap();
    let opts = ReachOptions {
        sift,
        // Fire eagerly so the sweep's small circuits still reorder.
        sift_trigger: 1.2,
        ..ReachOptions::default()
    };
    run(lane.engine, &mut m, &fsm, &opts)
}

#[test]
fn sift_matches_static_for_every_exact_lane() {
    let mut fired_total = 0usize;
    for (name, net, expected) in sift_circuits() {
        for order in bad_orders() {
            for lane in Lane::all_lanes() {
                let stat = run_lane(&net, lane, order, false);
                assert_eq!(stat.outcome, Outcome::FixedPoint, "{name}/{lane:?} static");
                assert_eq!(
                    stat.reached_states,
                    Some(expected),
                    "{name}/{lane:?} static count"
                );
                assert_eq!(stat.reorders, 0, "{name}/{lane:?}: static run reordered");
                let sift = run_lane(&net, lane, order, true);
                assert_eq!(
                    sift.outcome, stat.outcome,
                    "{name}/{lane:?} {order:?}: outcome diverged under --sift"
                );
                assert_eq!(
                    sift.reached_states, stat.reached_states,
                    "{name}/{lane:?} {order:?}: counts diverged under --sift"
                );
                assert_eq!(
                    sift.iterations, stat.iterations,
                    "{name}/{lane:?} {order:?}: iteration counts diverged under --sift"
                );
                if lane.engine.supports_reorder() {
                    fired_total += sift.reorders;
                } else {
                    assert_eq!(
                        sift.reorders, 0,
                        "{name}/{lane:?}: order-tied representation ran a reorder pass"
                    );
                }
            }
        }
    }
    // The sweep must actually exercise the reorder path somewhere —
    // a parity claim over zero firings would be vacuous.
    assert!(
        fired_total > 0,
        "no χ lane fired a single reorder pass across the whole sweep"
    );
}

#[test]
fn sift_reorders_the_live_graph_not_pinned_results() {
    // lfsr10 keeps ~250 live nodes per iteration, far below the
    // collector's deferral floor. Each iteration's collection safepoint
    // drops the result pins of the images and unions before it, so a
    // sift sizes and swaps the live graph only; a sift that also kept
    // every result pinned since the run began would peak near 14.7K.
    let net = generators::lfsr(10);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let opts = ReachOptions {
        sift: true,
        ..ReachOptions::default()
    };
    let r = run(EngineKind::Monolithic, &mut m, &fsm, &opts);
    assert_eq!(r.outcome, Outcome::FixedPoint);
    assert_eq!(r.reached_states, Some(1023.0));
    // The audit build collects every iteration, and its self-check
    // passes build BDDs of their own, so there the peak measures the
    // audit rather than the sift.
    if cfg!(not(feature = "audit")) {
        assert!(
            r.peak_nodes <= 2_100,
            "sifted lfsr10 peaked at {} nodes",
            r.peak_nodes
        );
    }
}

#[test]
fn sift_fires_and_shrinks_the_live_graph() {
    // paired_registers under the reversed order is the classic
    // interleaving pathology: current/next halves end up maximally far
    // apart, the monolithic relation blows up, and one sift pass
    // collapses it by orders of magnitude.
    let net = generators::paired_registers(6);
    let lane = Lane::native(EngineKind::Monolithic);
    let r = run_lane(&net, lane, OrderHeuristic::Reversed, true);
    assert_eq!(r.outcome, Outcome::FixedPoint);
    assert_eq!(r.reached_states, Some(64.0));
    assert!(r.reorders >= 1, "trigger never fired");
    let (before, after) = r.reorder_nodes;
    assert!(
        after < before,
        "sifting grew the live graph: {before} -> {after}"
    );
    // The acceptance bar for the pathological families is a ≥20% cut;
    // this one routinely manages >90%.
    assert!(
        (after as f64) <= (before as f64) * 0.8,
        "sifting cut less than 20%: {before} -> {after}"
    );
}

#[test]
fn sift_declines_off_by_default_and_on_order_tied_lanes() {
    // Default options: no sifting anywhere, even on χ lanes.
    let net = generators::paired_registers(6);
    let lane = Lane::native(EngineKind::Monolithic);
    let r = run_lane(&net, lane, OrderHeuristic::Reversed, false);
    assert_eq!(r.reorders, 0);
    assert_eq!(r.reorder_nodes, (0, 0));
    // Engine-level capability: only the χ engines reorder.
    for e in [EngineKind::Monolithic, EngineKind::Cbm, EngineKind::Iwls95] {
        assert!(e.supports_reorder(), "{e:?} must accept reorder");
    }
    for e in [EngineKind::Bfv, EngineKind::Cdec] {
        assert!(!e.supports_reorder(), "{e:?} must decline reorder");
    }
}
