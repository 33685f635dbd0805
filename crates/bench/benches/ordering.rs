//! Timed benches for the §3 ordering claim: reachability of the
//! twin-register family under the friendly (interleaved) and hostile
//! (split) variable orders, BFV engine vs the χ-based baseline.

use bfvr_bench::timing::bench;
use bfvr_netlist::generators;
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_sim::{EncodedFsm, Slot};

fn slots(p: u32, interleaved: bool) -> Vec<Slot> {
    if interleaved {
        (0..p as usize)
            .flat_map(|i| [Slot::Latch(i), Slot::Latch(p as usize + i)])
            .chain((0..p as usize).map(Slot::Input))
            .collect()
    } else {
        (0..2 * p as usize)
            .map(Slot::Latch)
            .chain((0..p as usize).map(Slot::Input))
            .collect()
    }
}

fn main() {
    for p in [6u32, 8, 10] {
        let net = generators::paired_registers(p);
        for (label, inter) in [("paired", true), ("split", false)] {
            let order = slots(p, inter);
            bench(&format!("ordering/bfv_{label}/{p}"), 5, || {
                let (mut m, fsm) = EncodedFsm::encode_with_slots(&net, &order).unwrap();
                let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
                assert_eq!(r.outcome, Outcome::FixedPoint);
            });
            bench(&format!("ordering/iwls_{label}/{p}"), 5, || {
                let (mut m, fsm) = EncodedFsm::encode_with_slots(&net, &order).unwrap();
                let r = run(EngineKind::Iwls95, &mut m, &fsm, &ReachOptions::default());
                assert_eq!(r.outcome, Outcome::FixedPoint);
            });
        }
    }
}
