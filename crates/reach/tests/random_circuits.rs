//! Property test: on random small sequential circuits, every symbolic
//! engine's reached set equals the explicit-state ground truth of
//! `Netlist::reachable_states`.
//!
//! Deterministic xorshift generation keeps the suite dependency-free; a
//! failing case is reproducible from the printed case number.

use bfvr_netlist::{GateKind, Netlist, NetlistBuilder};
use bfvr_reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr_sim::{EncodedFsm, OrderHeuristic};

const CASES: u64 = 48;

/// xorshift64* — deterministic, seedable, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn for_cases(seed: u64, mut check: impl FnMut(u64, &mut Rng)) {
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

#[derive(Clone, Debug)]
struct Spec {
    num_inputs: u8,
    num_latches: u8,
    gates: Vec<(u8, Vec<u8>)>,
    latch_sources: Vec<u8>,
    inits: Vec<bool>,
}

impl Spec {
    fn random(rng: &mut Rng) -> Spec {
        let num_inputs = 1 + rng.below(2) as u8;
        let num_latches = 2 + rng.below(4) as u8;
        let gates = (0..2 + rng.below(8))
            .map(|_| {
                (
                    rng.next() as u8,
                    (0..1 + rng.below(3)).map(|_| rng.next() as u8).collect(),
                )
            })
            .collect();
        let latch_sources = (0..num_latches).map(|_| rng.next() as u8).collect();
        let inits = (0..num_latches).map(|_| rng.flip()).collect();
        Spec {
            num_inputs,
            num_latches,
            gates,
            latch_sources,
            inits,
        }
    }
}

fn build(spec: &Spec) -> Netlist {
    let mut b = NetlistBuilder::new("rand");
    let mut readable: Vec<String> = Vec::new();
    for i in 0..spec.num_inputs {
        let n = format!("in{i}");
        b.input(&n).unwrap();
        readable.push(n);
    }
    for l in 0..spec.num_latches {
        let n = format!("q{l}");
        b.latch(&n, format!("d{l}"), spec.inits[l as usize])
            .unwrap();
        readable.push(n);
    }
    for (gi, (kind, fanins)) in spec.gates.iter().enumerate() {
        let kind = match kind % 8 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 => GateKind::Not,
            5 => GateKind::Buf,
            6 => GateKind::Xor,
            _ => GateKind::Xnor,
        };
        let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            fanins.len()
        };
        let ins: Vec<String> = (0..arity)
            .map(|k| readable[fanins[k % fanins.len()] as usize % readable.len()].clone())
            .collect();
        let refs: Vec<&str> = ins.iter().map(String::as_str).collect();
        let n = format!("g{gi}");
        b.gate(&n, kind, &refs).unwrap();
        readable.push(n);
    }
    for l in 0..spec.num_latches {
        let pick = spec.latch_sources[l as usize] as usize % readable.len();
        b.gate(format!("d{l}"), GateKind::Buf, &[readable[pick].as_str()])
            .unwrap();
    }
    b.output(readable.last().unwrap());
    b.finish().unwrap()
}

#[test]
fn every_engine_matches_explicit_bfs() {
    for_cases(0x5EA1, |case, rng| {
        let spec = Spec::random(rng);
        let order_seed = rng.next();
        let net = build(&spec);
        let truth = net.reachable_states().unwrap().len() as f64;
        let order = OrderHeuristic::Random(order_seed);
        for kind in EngineKind::all() {
            let (mut m, fsm) = EncodedFsm::encode(&net, order).unwrap();
            let r = run(kind, &mut m, &fsm, &ReachOptions::default());
            assert_eq!(r.outcome, Outcome::FixedPoint, "case {case}: {kind:?}");
            assert_eq!(
                r.reached_states,
                Some(truth),
                "case {case}: {kind:?} vs explicit BFS"
            );
        }
    });
}

#[test]
fn frontier_choice_never_changes_the_answer() {
    for_cases(0x5EA2, |case, rng| {
        let spec = Spec::random(rng);
        let net = build(&spec);
        let (mut m, fsm) = EncodedFsm::encode(&net, OrderHeuristic::DfsFanin).unwrap();
        let with = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
        let without = run(
            EngineKind::Bfv,
            &mut m,
            &fsm,
            &ReachOptions {
                use_frontier: false,
                ..Default::default()
            },
        );
        assert_eq!(with.reached_chi, without.reached_chi, "case {case}");
    });
}
