//! Property tests: random netlists survive both serialization formats
//! with identical behaviour.
//!
//! Deterministic xorshift generation keeps the suite dependency-free; a
//! failing case is reproducible from the printed case number.

use bfvr_netlist::{bench, blif, GateKind, Netlist, NetlistBuilder};

const CASES: u64 = 64;

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

/// A recipe for one random gate: kind selector and fan-in picks.
#[derive(Clone, Debug)]
struct GateSpec {
    kind: u8,
    fanins: Vec<u8>,
}

/// A recipe for a random sequential netlist.
#[derive(Clone, Debug)]
struct NetSpec {
    num_inputs: u8,
    num_latches: u8,
    gates: Vec<GateSpec>,
    latch_sources: Vec<u8>,
    inits: Vec<bool>,
}

impl NetSpec {
    fn random(rng: &mut Rng) -> NetSpec {
        let num_inputs = 1 + rng.below(3) as u8;
        let num_latches = 1 + rng.below(4) as u8;
        let gates = (0..1 + rng.below(11))
            .map(|_| GateSpec {
                kind: rng.next() as u8,
                fanins: (0..1 + rng.below(3)).map(|_| rng.next() as u8).collect(),
            })
            .collect();
        let latch_sources = (0..num_latches).map(|_| rng.next() as u8).collect();
        let inits = (0..num_latches).map(|_| rng.flip()).collect();
        NetSpec {
            num_inputs,
            num_latches,
            gates,
            latch_sources,
            inits,
        }
    }
}

fn for_cases(seed: u64, mut check: impl FnMut(u64, &mut Rng)) {
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        check(case, &mut rng);
    }
}

/// Materializes a spec into a valid netlist: gates may only read inputs,
/// latch outputs and *earlier* gates, which makes the result acyclic by
/// construction.
fn build(spec: &NetSpec) -> Netlist {
    let mut b = NetlistBuilder::new("random");
    let mut readable: Vec<String> = Vec::new();
    for i in 0..spec.num_inputs {
        let name = format!("in{i}");
        b.input(&name).expect("fresh input");
        readable.push(name);
    }
    for l in 0..spec.num_latches {
        let name = format!("q{l}");
        b.latch(&name, format!("d{l}"), spec.inits[l as usize])
            .expect("fresh latch");
        readable.push(name);
    }
    for (gi, g) in spec.gates.iter().enumerate() {
        let kind = match g.kind % 8 {
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
            g.fanins.len()
        };
        let ins: Vec<String> = (0..arity)
            .map(|k| {
                let pick = g.fanins[k % g.fanins.len()] as usize % readable.len();
                readable[pick].clone()
            })
            .collect();
        let refs: Vec<&str> = ins.iter().map(String::as_str).collect();
        let name = format!("g{gi}");
        b.gate(&name, kind, &refs).expect("fresh gate");
        readable.push(name);
    }
    // Latch data inputs and one primary output pick from anything readable.
    for l in 0..spec.num_latches {
        let pick = spec.latch_sources[l as usize] as usize % readable.len();
        b.gate(format!("d{l}"), GateKind::Buf, &[readable[pick].as_str()])
            .expect("fresh data buf");
    }
    b.output(readable.last().expect("non-empty"));
    b.finish().expect("acyclic by construction")
}

/// The reset state on all 64 lanes.
fn reset(net: &Netlist) -> Vec<u64> {
    let all = |b| u64::from(b).wrapping_neg();
    net.initial_state().into_iter().map(all).collect()
}

/// Steps both netlists in lockstep on 64 lanes of random inputs.
fn behaviourally_equal(a: &Netlist, b: &Netlist, seed: u64) {
    assert_eq!(a.initial_state(), b.initial_state());
    let mut sa = reset(a);
    let mut sb = reset(b);
    let mut rng = seed | 1;
    for t in 0..32 {
        let ins: Vec<u64> = (0..a.inputs().len())
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            })
            .collect();
        let (na, oa) = a.step_words(&sa, &ins).expect("validated");
        let (nb, ob) = b.step_words(&sb, &ins).expect("validated");
        assert_eq!(oa, ob, "outputs diverged at step {t}");
        assert_eq!(na, nb, "states diverged at step {t}");
        sa = na;
        sb = nb;
    }
}

#[test]
fn bench_roundtrip_is_behaviour_preserving() {
    for_cases(0xE711, |case, rng| {
        let spec = NetSpec::random(rng);
        let seed = rng.next();
        let net = build(&spec);
        let text = bench::write(&net).expect("no covers in random nets");
        let again = bench::parse(&text).expect("own output parses");
        assert_eq!(again.stats(), net.stats(), "case {case}");
        behaviourally_equal(&net, &again, seed);
    });
}

#[test]
fn blif_roundtrip_is_behaviour_preserving() {
    for_cases(0xE712, |case, rng| {
        let spec = NetSpec::random(rng);
        let seed = rng.next();
        let net = build(&spec);
        let text = blif::write(&net);
        let again = blif::parse(&text).expect("own output parses");
        // BLIF re-expresses gates as covers, so only behaviour matches.
        assert_eq!(again.inputs().len(), net.inputs().len(), "case {case}");
        assert_eq!(again.latches().len(), net.latches().len(), "case {case}");
        behaviourally_equal(&net, &again, seed);
    });
}

#[test]
fn cone_reduction_preserves_outputs() {
    for_cases(0xE713, |case, rng| {
        let spec = NetSpec::random(rng);
        let seed = rng.next();
        let net = build(&spec);
        let reduced = bfvr_netlist::topo::reduce_to_outputs(&net).expect("reducible");
        assert!(
            reduced.latches().len() <= net.latches().len(),
            "case {case}"
        );
        // Compare output traces on 64 lanes (states may differ in dead
        // latches).
        let mut sa = reset(&net);
        let mut sb = reset(&reduced);
        let mut s = seed | 1;
        for _ in 0..32 {
            let ins_full: Vec<u64> = (0..net.inputs().len())
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s
                })
                .collect();
            // The reduced net may have dropped inputs; map by name.
            let ins_red: Vec<u64> = reduced
                .inputs()
                .iter()
                .map(|&sig| {
                    let name = reduced.signal_name(sig);
                    let pos = net
                        .inputs()
                        .iter()
                        .position(|&t| net.signal_name(t) == name)
                        .expect("input names preserved");
                    ins_full[pos]
                })
                .collect();
            let (na, oa) = net.step_words(&sa, &ins_full).expect("validated");
            let (nb, ob) = reduced.step_words(&sb, &ins_red).expect("validated");
            assert_eq!(oa, ob, "case {case}: outputs diverged after reduction");
            sa = na;
            sb = nb;
        }
    });
}
