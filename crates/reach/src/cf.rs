//! Monolithic transition-relation reachability (characteristic functions).

use bfvr_bdd::{Bdd, BddManager};
use bfvr_sim::EncodedFsm;

/// Builds the cube of the initial state over the current-state variables.
pub(crate) fn initial_chi(m: &mut BddManager, fsm: &EncodedFsm) -> Result<Bdd, bfvr_bdd::BddError> {
    let space = fsm.space();
    let bits = fsm.initial_state();
    let mut chi = Bdd::TRUE;
    for (c, &v) in space.vars().iter().enumerate() {
        let lit = if bits[c] { m.var(v) } else { m.nvar(v) };
        chi = m.and(chi, lit)?;
    }
    Ok(chi)
}

/// Counts states of a χ over the current-state variables.
pub(crate) fn count_states(m: &BddManager, fsm: &EncodedFsm, chi: Bdd) -> f64 {
    let n = fsm.space().len() as i32;
    m.sat_count(chi, m.num_vars()) / 2f64.powi(m.num_vars() as i32 - n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Outcome;
    use crate::{run, EngineKind, ReachOptions};
    use bfvr_netlist::generators;
    use bfvr_sim::OrderHeuristic;

    #[test]
    fn monolithic_counts_match_known_values() {
        for (net, expect) in [
            (generators::counter(5), 32.0),
            (generators::counter_modk(4, 9), 9.0),
            (generators::johnson(5), 10.0),
            (bfvr_netlist::circuits::s27(), 6.0),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let r = run(
                EngineKind::Monolithic,
                &mut m,
                &fsm,
                &ReachOptions::default(),
            );
            assert_eq!(r.outcome, Outcome::FixedPoint, "{}", net.name());
            assert_eq!(r.reached_states, Some(expect), "{}", net.name());
        }
    }

    #[test]
    fn monolithic_agrees_with_bfv_engine() {
        for net in [
            generators::shift_register(6),
            generators::queue_controller(2),
            generators::rotator(5),
            generators::traffic_chain(2),
            generators::paired_registers(4),
        ] {
            let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
            let a = run(
                EngineKind::Monolithic,
                &mut m,
                &fsm,
                &ReachOptions::default(),
            );
            let b = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(a.outcome, Outcome::FixedPoint);
            assert_eq!(b.outcome, Outcome::FixedPoint);
            assert_eq!(a.reached_chi, b.reached_chi, "{} sets differ", net.name());
        }
    }

    #[test]
    fn initial_chi_is_singleton() {
        let net = generators::rotator(4);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::Declaration).unwrap();
        let chi = initial_chi(&mut m, &fsm).unwrap();
        assert_eq!(count_states(&m, &fsm, chi), 1.0);
    }
}
