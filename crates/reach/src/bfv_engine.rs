//! Tests of the paper's Figure 2 flow: `EngineKind::Bfv`, run through
//! `run` on the `BfvBackend`.

#[cfg(test)]
mod tests {
    use crate::{run, EngineKind, Outcome, ReachOptions, ReachResult};
    use bfvr_bdd::BddManager;
    use bfvr_netlist::generators;
    use bfvr_sim::{EncodedFsm, OrderHeuristic};

    fn run_bfv(net: &bfvr_netlist::Netlist) -> (BddManager, EncodedFsm, ReachResult) {
        let (mut m, fsm) = EncodedFsm::encode(net, OrderHeuristic::DfsFanin).unwrap();
        let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        (m, fsm, r)
    }

    #[test]
    fn counter_reaches_all_states() {
        let (_, _, r) = run_bfv(&generators::counter(6));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(64.0));
        // One step per count plus the fix-point confirmation.
        assert!(r.iterations >= 64, "iterations = {}", r.iterations);
    }

    #[test]
    fn modk_counter_reaches_k_states() {
        let (_, _, r) = run_bfv(&generators::counter_modk(5, 11));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(11.0));
    }

    #[test]
    fn johnson_reaches_2n() {
        let (_, _, r) = run_bfv(&generators::johnson(7));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(14.0));
    }

    #[test]
    fn rotator_reaches_n() {
        let (_, _, r) = run_bfv(&generators::rotator(6));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(6.0));
    }

    #[test]
    fn lfsr_reaches_all_but_one() {
        let (_, _, r) = run_bfv(&generators::lfsr(5));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(31.0));
        assert_eq!(r.iterations, 31); // 30 growth steps + cycle-closing confirmation
    }

    #[test]
    fn paired_registers_reach_diagonal() {
        let (_, _, r) = run_bfv(&generators::paired_registers(5));
        assert_eq!(r.outcome, Outcome::FixedPoint);
        assert_eq!(r.reached_states, Some(32.0)); // 2^5 of 2^10
    }

    #[test]
    fn s27_reached_states() {
        let (_, _, r) = run_bfv(&bfvr_netlist::circuits::s27());
        assert_eq!(r.outcome, Outcome::FixedPoint);
        // s27 has 6 reachable states of 8 — a classic known result.
        assert_eq!(r.reached_states, Some(6.0));
        assert_eq!(r.conversion_time, std::time::Duration::ZERO);
    }

    #[test]
    fn iteration_cap_respected() {
        let net = generators::counter(8);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let opts = ReachOptions {
            max_iterations: Some(5),
            ..Default::default()
        };
        let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::IterationLimit);
        assert_eq!(r.iterations, 5);
        assert_eq!(r.reached_states, Some(6.0)); // init + 5 steps
    }

    #[test]
    fn node_limit_produces_memout() {
        let net = generators::queue_controller(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let opts = ReachOptions {
            node_limit: Some(m.allocated() + 40),
            ..Default::default()
        };
        let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::MemOut);
    }

    #[test]
    fn time_limit_produces_timeout() {
        let net = generators::gray(10);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let opts = ReachOptions {
            time_limit: Some(std::time::Duration::ZERO),
            ..Default::default()
        };
        let r = run(EngineKind::Bfv, &mut m, &fsm, &opts);
        assert_eq!(r.outcome, Outcome::TimeOut);
    }

    #[test]
    fn frontier_and_full_iteration_agree() {
        let net = generators::traffic_chain(3);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let rf = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        let ra = run(
            EngineKind::Bfv,
            &mut m,
            &fsm,
            &ReachOptions {
                use_frontier: false,
                ..Default::default()
            },
        );
        assert_eq!(rf.reached_chi, ra.reached_chi);
        assert_eq!(rf.reached_states, ra.reached_states);
    }
}
