//! Parser mutation fuzz: netlist files are untrusted input, so every
//! reader must turn text of **any** shape into either a structured
//! [`NetlistError`] or a netlist that is safe to hand downstream — never a
//! panic.
//!
//! The sweep starts from the writers' own output for a handful of
//! generator circuits (`.bench`, BLIF and structural Verilog) and attacks
//! it with seeded truncations, bit flips and splices. Every mutant goes to
//! both readers: a file in one format named as the other is as plausible
//! an input as a damaged one, and no Verilog reader exists, so the
//! Verilog texts reach the readers only as foreign input. An accepted
//! netlist must be fully driven, acyclic and have legal gate arities; all
//! three writers must handle it, and `.bench` text the writer emits must
//! read back to the same interface.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bfvr_netlist::{bench, blif, circuits, generators, topo, verilog, Netlist, NetlistError};

/// xorshift64*: the project-standard seeded generator (no external
/// dependencies).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Mutants per (text, mutation kind) pair.
const CASES: usize = 150;

/// The seed texts: every writer's output for small generator circuits
/// that between them use every gate kind the writers emit.
fn corpus() -> Vec<(String, String)> {
    let nets: Vec<(&str, Netlist)> = vec![
        ("s27", circuits::s27()),
        ("counter3", generators::counter(3)),
        ("lfsr5", generators::lfsr(5)),
        ("pair2", generators::paired_registers(2)),
        ("queue2", generators::queue_controller(2)),
        ("mask4", generators::masked_accumulator(4)),
    ];
    let mut texts = Vec::new();
    for (name, net) in nets {
        texts.push((format!("{name}.bench"), bench::write(&net).unwrap()));
        texts.push((format!("{name}.blif"), blif::write(&net)));
        texts.push((format!("{name}.v"), verilog::write(&net)));
    }
    texts
}

/// Feeds `text` to both readers; `label` names the mutant in a failure.
fn check(label: &str, text: &str) {
    type Reader = fn(&str) -> Result<Netlist, NetlistError>;
    let readers: [(&str, Reader); 2] = [("bench", bench::parse), ("blif", blif::parse)];
    for (reader, parse) in readers {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse(text).map(|net| check_valid(&net))
        }));
        match outcome {
            Ok(Ok(Ok(()))) | Ok(Err(_)) => {}
            Ok(Ok(Err(why))) => {
                panic!("{reader} reader accepted {label} as an unusable netlist ({why}):\n{text:?}")
            }
            Err(_) => panic!("{reader} reader panicked on {label}:\n{text:?}"),
        }
    }
}

/// What every consumer of a parsed netlist relies on.
fn check_valid(net: &Netlist) -> Result<(), String> {
    for i in 0..net.num_signals() {
        let s = bfvr_netlist::SignalId::from_index(i);
        if net.driver_opt(s).is_none() {
            return Err(format!("signal `{}` is undriven", net.signal_name(s)));
        }
    }
    topo::order(net).map_err(|e| e.to_string())?;
    if let Some(g) = net
        .gates()
        .iter()
        .find(|g| !g.kind.arity_ok(g.inputs.len()))
    {
        return Err(format!(
            "gate `{}` has an illegal arity",
            net.signal_name(g.output)
        ));
    }
    let _ = net.stats();
    let _ = blif::write(net);
    let _ = verilog::write(net);
    // A name `.bench` cannot express is a structured refusal; anything
    // written must read back.
    if let Ok(text) = bench::write(net) {
        let back = bench::parse(&text).map_err(|e| format!("its .bench text: {e}"))?;
        let shape = |n: &Netlist| (n.inputs().len(), n.outputs().len(), n.latches().len());
        if shape(&back) != shape(net) {
            return Err("its .bench text reads back with another interface".to_string());
        }
    }
    Ok(())
}

/// Bytes back to text the way a file reader would see them.
fn text_of(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn pristine_writer_output_parses() {
    for (name, text) in corpus() {
        if name.ends_with(".bench") {
            check_valid(&bench::parse(&text).unwrap()).unwrap();
        } else if name.ends_with(".blif") {
            check_valid(&blif::parse(&text).unwrap()).unwrap();
        }
    }
}

/// Inputs the sweep has caught, reduced by hand.
#[test]
fn found_inputs_stay_fixed() {
    // Reduced from a bit flip that turns `qinc$c3` into `qinc,c3` in
    // queue2's BLIF. A BLIF name may hold `,`; written as `.bench`,
    // `AND(a,b, c)` would read back as three fan-ins, so the `.bench`
    // writer must refuse it and the Verilog writer must not need it.
    let comma = ".model m\n.inputs a,b c\n.outputs y\n.names a,b c y\n11 1\n.end\n";
    check("a BLIF name holding a comma", comma);
    let net = blif::parse(comma).unwrap();
    assert_eq!(
        bench::write(&net),
        Err(NetlistError::Unwritable {
            name: "a,b".to_string()
        })
    );
    for name in ["x(y", "x)", "x=y"] {
        check(
            &format!("a BLIF name `{name}`"),
            &format!(".model m\n.inputs {name}\n.outputs o\n.names {name} o\n1 1\n.end\n"),
        );
    }
}

#[test]
fn truncated_netlists_never_panic() {
    let mut rng = XorShift(0x7E11_0001);
    for (name, text) in corpus() {
        let bytes = text.as_bytes();
        for _ in 0..CASES {
            let len = rng.below(bytes.len() + 1);
            check(&format!("{name} cut at {len}"), &text_of(&bytes[..len]));
        }
    }
}

#[test]
fn bit_flipped_netlists_never_panic() {
    let mut rng = XorShift(0x7E11_0002);
    for (name, text) in corpus() {
        for case in 0..CASES {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            check(&format!("{name} flip case {case}"), &text_of(&bytes));
        }
    }
}

#[test]
fn spliced_netlists_never_panic() {
    let mut rng = XorShift(0x7E11_0003);
    let texts = corpus();
    for (name, text) in &texts {
        for case in 0..CASES {
            // A random slice of any corpus text — same format or not —
            // replaces a random range of this one.
            let donor = texts[rng.below(texts.len())].1.as_bytes();
            let from = rng.below(donor.len());
            let piece = &donor[from..from + rng.below(donor.len() - from + 1).min(200)];
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.below(bytes.len() + 1);
            let cut = rng.below(bytes.len() - at + 1).min(200);
            bytes.splice(at..at + cut, piece.iter().copied());
            check(&format!("{name} splice case {case}"), &text_of(&bytes));
        }
    }
}
