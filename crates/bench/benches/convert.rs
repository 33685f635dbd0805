//! Timed benches for the representation conversions the Figure 2 flow
//! eliminates: χ → canonical BFV (CBM parameterization) and BFV → χ
//! (conjunctive construction), plus the recursive-splitting range used by
//! the Figure 1 flow.

use bfvr_bench::timing::bench;
use bfvr_bfv::convert::{from_characteristic, to_characteristic};
use bfvr_bfv::StateSet;
use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

fn main() {
    let circuits = vec![
        ("johnson12", generators::johnson(12)),
        ("pair8", generators::paired_registers(8)),
        ("queue3", generators::queue_controller(3)),
        ("rot12", generators::rotator(12)),
    ];
    for (name, net) in &circuits {
        // Use each circuit's real reached set as the workload.
        let (mut m, fsm) = EncodedFsm::encode(net, OrderHeuristic::DfsFanin).unwrap();
        let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        let chi_root = r.reached_chi.expect("suite circuits complete");
        let chi = chi_root.bdd();
        let space = fsm.space();
        let set = StateSet::from_characteristic(&mut m, &space, chi).unwrap();
        let bfv = set.as_bfv().expect("non-empty").clone();
        bench(&format!("convert/chi_to_bfv/{name}"), 20, || {
            from_characteristic(&mut m, &space, chi).unwrap();
        });
        bench(&format!("convert/bfv_to_chi/{name}"), 20, || {
            to_characteristic(&mut m, &space, &bfv).unwrap();
        });
    }
}
