//! The differential harness (`tests/oracle`) on seeded random circuits,
//! and every engine resumed from a checkpoint on one instance per
//! generator family. The integration suites run it on their own named
//! circuits: `end_to_end` (every engine, every order, the deep members of
//! the standard suite) and `lint_e2e` (simplified netlists).

mod oracle;

use std::collections::HashSet;

use bfvr::reach::EngineKind;
use bfvr::sim::OrderHeuristic::Random;
use oracle::ORDERS;
use oracle::{check_case, check_circuits, family_suite, random_netlist, Lane, Mode, Rng, Tally};

#[test]
fn random_circuits_match_the_oracle() {
    let (mut rng, mut tally, mut seen) = (Rng(0x5EA1_D1FF), Tally::default(), HashSet::new());
    for case in 0..400 {
        let net = random_netlist(&mut rng);
        let oracle = net.reachable_states().unwrap();
        let order = match rng.pick(&ORDERS) {
            Random(_) => Random(rng.below(1 << 32)),
            order => order,
        };
        let (sift, frontier) = (rng.below(2) == 1, rng.below(2) == 1);
        let lane = Lane(rng.pick(&EngineKind::all()), order, sift, frontier);
        let mode = rng.pick(&[Mode::Straight, Mode::Resume, Mode::Simplified]);
        eprintln!("case {case}: {lane:?} {mode:?}");
        check_case(&net, &oracle, (lane, mode), &mut rng, Some(&mut tally));
        seen.insert(format!("{:?} {mode:?}", lane.0));
        seen.insert(format!("{} inputs", net.inputs().len()));
    }
    assert_eq!(seen.len(), 5 * 3 + 3, "{seen:?}");
    assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
}

/// Every engine stopped at a drawn iteration and resumed from its encoded
/// checkpoint, on one instance per generator family.
#[test]
fn named_circuits_match_the_oracle() {
    let (nets, engines) = (family_suite(), EngineKind::all());
    let tally = check_circuits(nets, &engines, &ORDERS[..1], Mode::Resume, 0xD1FF_2024);
    assert!(tally[1] > 0 && tally[3] > 0, "{tally:?}");
}
