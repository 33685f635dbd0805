//! Robustness tests: cache starvation, interleaved engine runs in one
//! manager, and repeated GC pressure must never change any result.

use bfvr::netlist::generators;
use bfvr::reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr::sim::{EncodedFsm, OrderHeuristic};

/// A starved computed cache only affects speed, never results.
#[test]
fn tiny_cache_does_not_change_results() {
    let net = generators::queue_controller(3);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let baseline = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    m.set_cache_limit(64); // pathological: constant cache thrash
    let starved = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    assert_eq!(baseline.reached_chi, starved.reached_chi);
    assert_eq!(baseline.iterations, starved.iterations);
    m.set_cache_limit(1 << 22);
}

/// Three engines interleaved twice each in one manager, with garbage
/// collections in between, must all agree and stay stable.
#[test]
fn interleaved_engines_share_a_manager() {
    let net = generators::johnson(8);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
    let mut results = Vec::new();
    for round in 0..2 {
        for which in 0..3 {
            let r = match which {
                0 => run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default()),
                1 => run(
                    EngineKind::Monolithic,
                    &mut m,
                    &fsm,
                    &ReachOptions::default(),
                ),
                _ => run(EngineKind::Iwls95, &mut m, &fsm, &ReachOptions::default()),
            };
            assert_eq!(
                r.outcome,
                Outcome::FixedPoint,
                "round {round} engine {which}"
            );
            results.push(r);
            // Aggressive collection between runs (results hold RAII roots).
            m.collect_garbage(&[]);
        }
    }
    let first = results[0].reached_chi.clone().unwrap();
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.reached_chi.as_ref(), Some(&first), "result {i} diverged");
        assert_eq!(r.reached_states, Some(16.0));
    }
}

/// A run that hits the node ceiling mid-flight leaves the manager in a
/// state where a clean rerun still works — no poisoned caches or leaked
/// limits. Budgets that only used to fail because of dead intermediate
/// nodes now complete: the manager reclaims before reporting `M.O.`.
#[test]
fn memout_recovery_is_clean() {
    let net = generators::traffic_chain(3);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    for budget in [20usize, 100] {
        let limit = m.allocated() + budget;
        let r = run(
            EngineKind::Bfv,
            &mut m,
            &fsm,
            &ReachOptions {
                node_limit: Some(limit),
                ..Default::default()
            },
        );
        assert_eq!(
            r.outcome,
            Outcome::MemOut,
            "budget {budget} unexpectedly sufficed"
        );
        m.collect_garbage(&[]);
    }
    // 400 extra nodes used to mem-out; reclaim-before-fail collects the
    // dead intermediates and lets the run finish inside the same budget.
    let tight = ReachOptions {
        node_limit: Some(m.allocated() + 400),
        ..Default::default()
    };
    let reclaimed = run(EngineKind::Bfv, &mut m, &fsm, &tight);
    assert_eq!(reclaimed.outcome, Outcome::FixedPoint);
    assert!(
        m.stats().reclaim_attempts > 0,
        "tight budget should have forced at least one reclamation"
    );
    m.collect_garbage(&[]);
    let ok = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    assert_eq!(ok.outcome, Outcome::FixedPoint);
    assert_eq!(ok.reached_states, Some(64.0)); // all 2^6 phase states
}

/// Deadline in the past: every engine must abort promptly with T.O. and
/// remain usable.
#[test]
fn timeout_recovery_is_clean() {
    let net = generators::gray(8);
    let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
    let opts = ReachOptions {
        time_limit: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    for _ in 0..3 {
        let r = run(EngineKind::Monolithic, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::TimeOut);
    }
    let ok = run(
        EngineKind::Monolithic,
        &mut m,
        &fsm,
        &ReachOptions::default(),
    );
    assert_eq!(ok.outcome, Outcome::FixedPoint);
    assert_eq!(ok.reached_states, Some(256.0));
}
