//! Tests of the Figure 2 flow over McMillan's conjunctive decomposition
//! (§2.7): `EngineKind::Cdec`, run through `run` on the `CdecBackend`.

#[cfg(test)]
mod tests {
    use crate::{run, EngineKind, Outcome, ReachOptions};
    use bfvr_netlist::generators;
    use bfvr_sim::{EncodedFsm, OrderHeuristic};
    use std::time::Duration;

    #[test]
    fn cdec_agrees_with_bfv_engine() {
        for net in [
            generators::counter(5),
            generators::johnson(5),
            generators::paired_registers(4),
            bfvr_netlist::circuits::s27(),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let a = run(EngineKind::Cdec, &mut m, &fsm, &ReachOptions::default());
            let b = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(a.outcome, Outcome::FixedPoint, "{}", net.name());
            assert_eq!(a.reached_chi, b.reached_chi, "{}", net.name());
            assert_eq!(a.iterations, b.iterations, "{}", net.name());
            assert!(a.conversion_time > Duration::ZERO);
        }
    }
}
