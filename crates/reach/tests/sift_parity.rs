//! Sift-under-traversal parity: `--sift` is a *graph-shape* change,
//! never a semantic one. Every engine lane must reach the explicit-state
//! oracle's count in one image per BFS layer plus one, with dynamic
//! reordering armed or off — and the lanes whose representation is
//! structurally tied to its variable order (BFV/CDEC) must decline the
//! request entirely, running zero reorder passes. The trigger fires and
//! shrinks the live graph, a sift reorders only what is live, and
//! sifting is off by default. The test-suite twin of the CI
//! `reorder-smoke` job.

use bfvr_netlist::{generators, Netlist};
use bfvr_reach::portfolio::Lane;
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions, ReachResult};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

fn run_lane(net: &Netlist, lane: Lane, order: OrderHeuristic, sift: bool) -> ReachResult {
    let (mut m, fsm) = EncodedFsm::encode(net, order).unwrap();
    let opts = ReachOptions {
        sift,
        // Fire eagerly so small circuits still reorder.
        sift_trigger: 1.2,
        ..ReachOptions::default()
    };
    run(lane.engine, &mut m, &fsm, &opts)
}

/// Circuits big enough (under a deliberately bad static order) to cross
/// the sifting floor and actually fire the trigger. Debug builds run the
/// two cheapest families from the reversed order only (the unoptimized
/// BFV/CDEC lanes on the wider circuits take minutes); release builds add
/// mask10 and load12 and the raw declaration order, which interleaves
/// unrelated register halves.
#[test]
fn sift_matches_static_for_every_exact_lane() {
    let mut nets = vec![
        generators::paired_registers(6),
        generators::queue_controller(4),
    ];
    let mut orders = vec![OrderHeuristic::Reversed];
    if cfg!(not(debug_assertions)) {
        nets.extend([
            generators::masked_accumulator(10),
            generators::loadable_register(12),
        ]);
        orders.push(OrderHeuristic::Declaration);
    }
    let mut fired_total = 0usize;
    for net in nets {
        let name = net.name();
        let oracle = net.reachable_states().unwrap();
        let expected = (
            Some(oracle.len() as f64),
            oracle.values().max().unwrap() + 1,
        );
        for &order in &orders {
            for lane in Lane::all_lanes() {
                for sift in [false, true] {
                    let at = format!("{name}/{lane:?} {order:?} sift={sift}");
                    let r = run_lane(&net, lane, order, sift);
                    assert_eq!(r.outcome, Outcome::FixedPoint, "{at}");
                    assert_eq!((r.reached_states, r.iterations), expected, "{at}");
                    if sift && lane.engine.supports_reorder() {
                        fired_total += r.reorders;
                    } else {
                        assert_eq!(r.reorders, 0, "{at}: this lane may not reorder");
                    }
                }
            }
        }
    }
    // The sweep must actually exercise the reorder path somewhere — a
    // parity claim over zero firings would be vacuous.
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
