//! The differential harness: every engine lane against the explicit-state
//! oracle, [`Netlist::reachable_states`] (breadth-first, with depths).
//!
//! A case is a circuit, a lane and a mode: a straight run; a run stopped
//! by the iteration cap at a drawn iteration, then resumed in a fresh
//! manager from its durably encoded checkpoint; or a straight run on
//! `nlint::simplify`'s netlist. Each must reach exactly the BFS set, in
//! one image per BFS layer plus the one that adds nothing. On the same
//! circuit `check_invariant` and `find_trace` must agree with the BFS
//! depths on drawn point sets, most of them not cubes.
//!
//! `tests/differential.rs` runs it on seeded random circuits; the
//! integration suites run it on their named circuits with
//! [`check_circuits`].

#![allow(dead_code)]

use std::collections::HashMap;

use bfvr::bdd::{Bdd, BddManager};
use bfvr::bfv::StateSet;
use bfvr::netlist::generators as gen;
use bfvr::netlist::{circuits, GateKind, Netlist, NetlistBuilder};
use bfvr::reach::{check_invariant, find_trace, resume, run, CheckResult, EngineKind, Outcome};
use bfvr::reach::{ReachOptions, ReachResult};
use bfvr::serve::ckpt::{decode_checkpoint, encode_checkpoint, level_map_of, CkptMeta};
use bfvr::sim::EncodedFsm;
use bfvr::sim::OrderHeuristic::{self, Coi, Declaration, DfsFanin, Force, Random, Reversed};

/// Reachable state (bit `l` = latch `l`) → BFS depth.
pub type Oracle = HashMap<u64, usize>;

/// Query outcomes seen: holds, violated, unreachable target, trace.
pub type Tally = [usize; 4];

/// An engine lane: engine, static order, `--sift`, frontier.
#[derive(Clone, Copy, Debug)]
pub struct Lane(pub EngineKind, pub OrderHeuristic, pub bool, pub bool);

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    Straight,
    Resume,
    Simplified,
}

/// The static orders: `s1`, `decl`, `d`, `coi`, `force` and `o:11`.
pub const ORDERS: [OrderHeuristic; 6] = [DfsFanin, Declaration, Reversed, Coi, Force, Random(11)];

/// xorshift64*: deterministic and dependency-free.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }

    pub fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize].clone()
    }
}

/// A random circuit of 2–6 latches and 0–2 inputs whose gates read
/// inputs, latches or earlier gates, so it has no combinational cycle.
pub fn random_netlist(rng: &mut Rng) -> Netlist {
    use GateKind::{And, Buf, Nand, Nor, Not, Or, Xnor, Xor};
    let mut b = NetlistBuilder::new("rand");
    let mut names: Vec<String> = (0..rng.below(3)).map(|i| format!("in{i}")).collect();
    for n in &names {
        b.input(n).unwrap();
    }
    let latches = 2 + rng.below(5);
    for l in 0..latches {
        let init = rng.below(2) == 1;
        b.latch(format!("q{l}"), format!("d{l}"), init).unwrap();
        names.push(format!("q{l}"));
    }
    for g in 0..2 + rng.below(8) {
        let kind = rng.pick(&[And, Or, Nand, Nor, Not, Buf, Xor, Xnor]);
        let fanins = if matches!(kind, Not | Buf) { 1 } else { 3 };
        let ins: Vec<String> = (0..=rng.below(fanins)).map(|_| rng.pick(&names)).collect();
        let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
        b.gate(format!("g{g}"), kind, &ins).unwrap();
        names.push(format!("g{g}"));
    }
    for l in 0..latches {
        let src = rng.pick(&names);
        b.gate(format!("d{l}"), Buf, &[src.as_str()]).unwrap();
    }
    b.output(names.last().unwrap());
    b.finish().unwrap()
}

/// A state in component order as a latch mask, and back.
fn mask_of(fsm: &EncodedFsm, point: &[bool]) -> u64 {
    let bit = |c: usize| u64::from(point[c]) << fsm.latch_of_component(c);
    (0..point.len()).map(bit).sum()
}

fn point_of(fsm: &EncodedFsm, mask: u64) -> Vec<bool> {
    let bit = |c| mask >> fsm.latch_of_component(c) & 1 == 1;
    (0..fsm.num_latches()).map(bit).collect()
}

/// Asserts that `r` reached exactly `states`, built minterm by minterm
/// into a characteristic function over the current-state variables.
fn assert_reached(m: &mut BddManager, fsm: &EncodedFsm, r: &ReachResult, states: &[u64], at: &str) {
    let chi = states.iter().fold(Bdd::FALSE, |chi, s| {
        let cube = (0..fsm.num_latches()).fold(Bdd::TRUE, |cube, l| {
            let v = m.var(fsm.state_vars(l).0);
            let lit = if s >> l & 1 == 1 { v } else { m.not(v) };
            m.and(cube, lit).unwrap()
        });
        m.or(chi, cube).unwrap()
    });
    let got = r.reached_chi.as_ref().map(|c| c.bdd());
    assert_eq!(got, Some(chi), "{at}: the reached set is not the BFS set");
}

/// The simplified netlist, which must not grow, with the oracle projected
/// onto its latches by name. Folded latches are constant on every
/// reachable state, so the projection keeps the states apart.
fn simplified(net: &Netlist, oracle: &Oracle) -> (Netlist, Oracle) {
    let s = bfvr::nlint::simplify(net).unwrap().netlist;
    let at = format!("{}: simplified", net.name());
    assert!(s.gates().len() <= net.gates().len(), "{at}");
    assert!(s.latches().len() <= net.latches().len(), "{at}");
    let name = |n: &Netlist, l: usize| n.signal_name(n.latches()[l].output).to_string();
    let source = |k| (0..net.latches().len()).find(|&l| name(net, l) == name(&s, k));
    let kept: Vec<usize> = (0..s.latches().len()).map(|k| source(k).unwrap()).collect();
    let project = |st: u64| -> u64 {
        let bit = |(k, &l): (usize, &usize)| (st >> l & 1) << k;
        kept.iter().enumerate().map(bit).sum()
    };
    let projected: Oracle = oracle.iter().map(|(&st, &d)| (project(st), d)).collect();
    assert_eq!(projected.len(), oracle.len(), "{at}");
    (s, projected)
}

/// Runs `lane` on `net` straight, or stopped at iteration `stop_at` and
/// resumed from its decoded checkpoint in a fresh manager, and checks it
/// against the oracle.
fn check_lane(net: &Netlist, oracle: &Oracle, lane: Lane, stop_at: Option<usize>) {
    let at = format!("{} {lane:?} stopped at {stop_at:?}", net.name());
    let Lane(engine, order, sift, use_frontier) = lane;
    let mut opts = ReachOptions {
        use_frontier,
        sift,
        sift_trigger: 1.2,
        max_iterations: stop_at,
        ..ReachOptions::default()
    };
    let (mut m, mut fsm) = EncodedFsm::encode(net, order).unwrap();
    let mut r = run(engine, &mut m, &fsm, &opts);
    let mut sifts = r.reorders;
    if let Some(k) = stop_at {
        assert_eq!(r.outcome, Outcome::IterationLimit, "{at}");
        let within: Vec<u64> = oracle.keys().copied().filter(|s| oracle[s] <= k).collect();
        assert_reached(&mut m, &fsm, &r, &within, &at);
        let cp = r.checkpoint.take().unwrap();
        let meta = CkptMeta {
            engine,
            order: order.token(),
            circuit: net.name().to_string(),
            fingerprint: 0,
            num_vars: m.num_vars(),
            level2var: level_map_of(&m),
            iterations: cp.iterations,
        };
        let bytes = encode_checkpoint(&m, &meta, cp.state());
        drop((r, cp));
        (m, fsm) = EncodedFsm::encode(net, order).unwrap();
        let (_, cp) = decode_checkpoint(&bytes, &mut m).unwrap();
        opts.max_iterations = None;
        r = resume(&mut m, &fsm, &opts, cp);
        sifts += r.reorders;
    }
    assert_eq!(r.outcome, Outcome::FixedPoint, "{at}");
    let depth = oracle.values().max().unwrap();
    assert_eq!(r.iterations, depth + 1, "{at}: one image per BFS layer");
    let all: Vec<u64> = oracle.keys().copied().collect();
    assert_reached(&mut m, &fsm, &r, &all, &at);
    if !sift || !engine.supports_reorder() {
        assert_eq!(sifts, 0, "{at}: a lane that may not sift did");
    }
}

/// `check_invariant` and `find_trace` against the BFS depths, each on one
/// to three drawn states built into a set right before its query.
fn check_queries(net: &Netlist, oracle: &Oracle, lane: Lane, rng: &mut Rng, tally: &mut Tally) {
    let at = format!("{} {lane:?}", net.name());
    let (mut m, fsm) = EncodedFsm::encode(net, lane.1).unwrap();
    let opts = ReachOptions {
        use_frontier: lane.3,
        ..ReachOptions::default()
    };
    let latches = net.latches().len();
    let mut draw = |m: &mut BddManager| {
        let n = 1 + rng.below(3);
        let states: Vec<u64> = (0..n).map(|_| rng.below(1 << latches)).collect();
        let points: Vec<Vec<bool>> = states.iter().map(|&s| point_of(&fsm, s)).collect();
        let set = StateSet::from_points(m, &fsm.space(), &points).unwrap();
        let nearest = states.iter().filter_map(|s| oracle.get(s)).min().copied();
        (states, set, nearest)
    };

    let (bad, set, nearest) = draw(&mut m);
    match (check_invariant(&mut m, &fsm, &set, &opts).unwrap(), nearest) {
        (CheckResult::Holds { iterations }, None) => {
            assert_eq!(iterations, oracle.values().max().unwrap() + 1, "{at}");
            tally[0] += 1;
        }
        (CheckResult::Violated { depth, witness }, Some(d)) => {
            let w = mask_of(&fsm, &witness);
            assert!(bad.contains(&w), "{at}: witness {w:#x}");
            assert_eq!((depth, oracle.get(&w)), (d, Some(&d)), "{at}");
            tally[1] += 1;
        }
        (verdict, d) => panic!("{at}: {verdict:?} for {bad:x?}, nearest at {d:?}"),
    }

    let (target, set, nearest) = draw(&mut m);
    match (find_trace(&mut m, &fsm, &set, &opts).unwrap(), nearest) {
        (None, None) => tally[2] += 1,
        (Some(t), Some(d)) => {
            assert_eq!(t.depth(), d, "{at}: not the shortest trace");
            let mut state = mask_of(&fsm, &t.states[0]);
            assert_eq!(oracle.get(&state), Some(&0), "{at}: starts off reset");
            let splat = |bit: bool| 0u64.wrapping_sub(u64::from(bit));
            for (input, next) in t.inputs.iter().zip(&t.states[1..]) {
                let words: Vec<u64> = (0..latches).map(|l| splat(state >> l & 1 == 1)).collect();
                let ins: Vec<u64> = input.iter().map(|&b| splat(b)).collect();
                let (after, _) = net.step_words(&words, &ins).unwrap();
                state = after.iter().rev().fold(0, |s, w| s << 1 | (w & 1));
                assert_eq!(state, mask_of(&fsm, next), "{at}: no replay");
            }
            assert!(target.contains(&state), "{at}: ends off {target:x?}");
            tally[3] += 1;
        }
        (t, d) => panic!("{at}: {t:?} to {target:x?}, nearest at {d:?}"),
    }
}

/// Runs one case, then, given a tally, the queries on the netlist it ran.
pub fn check_case(
    net: &Netlist,
    oracle: &Oracle,
    (lane, mode): (Lane, Mode),
    rng: &mut Rng,
    tally: Option<&mut Tally>,
) {
    let (net, oracle) = match mode {
        Mode::Simplified => simplified(net, oracle),
        _ => (net.clone(), oracle.clone()),
    };
    let depth = *oracle.values().max().unwrap() as u64;
    let stop_at = (mode == Mode::Resume).then(|| rng.below(depth + 1) as usize);
    check_lane(&net, &oracle, lane, stop_at);
    if let Some(tally) = tally {
        check_queries(&net, &oracle, lane, rng, tally);
    }
}

/// One modest instance per generator family, plus the bundled s27.
pub fn family_suite() -> Vec<Netlist> {
    vec![
        circuits::s27(),
        gen::counter(6),
        gen::counter_modk(4, 10),
        gen::gray(5),
        gen::lfsr(6),
        gen::shift_register(6),
        gen::johnson(6),
        gen::paired_registers(5),
        gen::queue_controller(3),
        gen::rotator(7),
        gen::traffic_chain(2),
    ]
}

/// The standard suite's members that `keep` names.
pub fn standard_suite(keep: impl Fn(&str) -> bool) -> Vec<Netlist> {
    let keep = |(n, net): (String, Netlist)| keep(&n).then_some(net);
    gen::standard_suite().into_iter().filter_map(keep).collect()
}

/// Runs every lane of `engines` × `orders`, frontier on and `--sift` off,
/// in `mode` against the oracle on each circuit, and the queries once per
/// circuit. Returns the query outcomes.
pub fn check_circuits(
    nets: Vec<Netlist>,
    engines: &[EngineKind],
    orders: &[OrderHeuristic],
    mode: Mode,
    seed: u64,
) -> Tally {
    let (mut rng, mut tally) = (Rng(seed), Tally::default());
    for net in nets {
        let oracle = net.reachable_states().unwrap();
        let mut queries = Some(&mut tally);
        for &engine in engines {
            for &order in orders {
                let lane = Lane(engine, order, false, true);
                check_case(&net, &oracle, (lane, mode), &mut rng, queries.take());
            }
        }
    }
    tally
}
