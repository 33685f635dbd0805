//! Sequential equivalence checking on a product machine: the classic
//! application of symbolic state traversal (and of the Coudert–Berthet–
//! Madre line of work the paper builds on).
//!
//! Two implementations of an 8-stage shift register — one storing the
//! bits directly, one storing them *complemented* with inverted reset
//! values — are combined into a product machine with a miter output. The
//! machines are equivalent iff the miter is 1 on every reachable state
//! under every input, which we decide with BFV reachability plus symbolic
//! output evaluation.
//!
//! ```sh
//! cargo run --release --example seq_equivalence
//! ```

use bfvr::netlist::{generators, product, GateKind, Netlist, NetlistBuilder};
use bfvr::reach::{run, EngineKind, Outcome, ReachOptions};
use bfvr::sim::{simulate_outputs, EncodedFsm, OrderHeuristic};

/// A shift register that stores complemented bits internally:
/// `s'_0 = ¬d`, `s'_i = s_{i-1}`, output `¬s_{n-1}`; reset all-ones.
/// Observationally identical to `generators::shift_register(n)`.
fn complemented_shift_register(n: u32) -> Netlist {
    let mut b = NetlistBuilder::new(format!("nshift{n}"));
    b.input("d").expect("fresh");
    for i in 0..n {
        b.latch(format!("s{i}"), format!("ns{i}"), true)
            .expect("fresh");
    }
    b.gate("ns0", GateKind::Not, &["d"]).expect("fresh");
    for i in 1..n {
        b.gate(
            format!("ns{i}"),
            GateKind::Buf,
            &[format!("s{}", i - 1).as_str()],
        )
        .expect("fresh");
    }
    b.gate("serout", GateKind::Not, &[format!("s{}", n - 1).as_str()])
        .expect("fresh");
    b.output("serout");
    b.finish().expect("valid by construction")
}

fn check_equivalence(a: &Netlist, b: &Netlist) -> Result<bool, Box<dyn std::error::Error>> {
    let prod = product::product_miter(a, b)?;
    let (mut m, fsm) = EncodedFsm::encode(&prod, OrderHeuristic::DfsFanin)?;
    let r = run(EngineKind::Bfv, &mut m, &fsm, &ReachOptions::default());
    assert_eq!(r.outcome, Outcome::FixedPoint, "traversal must complete");
    // Evaluate the miter outputs over the reached set: equivalence holds
    // iff no reachable state under any input drives a miter to 0.
    let space = fsm.space();
    let reached = bfvr::bfv::StateSet::from_characteristic(
        &mut m,
        &space,
        r.reached_chi.expect("completed").bdd(),
    )?;
    let outs = simulate_outputs(&mut m, &fsm, reached.as_bfv().expect("non-empty"))?;
    println!(
        "  product machine: {} latches, {} reachable states, {} iterations",
        prod.latches().len(),
        r.reached_states.unwrap_or(f64::NAN),
        r.iterations
    );
    Ok(outs.iter().all(|&o| o.is_true()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8;
    println!("shift{n} vs complemented-shift{n}:");
    let a = generators::shift_register(n);
    let b = complemented_shift_register(n);
    let equivalent = check_equivalence(&a, &b)?;
    println!(
        "  => {}",
        if equivalent {
            "EQUIVALENT"
        } else {
            "NOT equivalent"
        }
    );
    assert!(equivalent);

    println!();
    println!("shift{n} vs a buggy variant (stage 3 wired to stage 1):");
    let mut buggy = NetlistBuilder::new("buggy");
    buggy.input("d")?;
    for i in 0..n {
        buggy.latch(format!("s{i}"), format!("ns{i}"), false)?;
    }
    buggy.gate("ns0", GateKind::Buf, &["d"])?;
    for i in 1..n {
        let src = if i == 3 { 1 } else { i - 1 }; // the bug
        buggy.gate(
            format!("ns{i}"),
            GateKind::Buf,
            &[format!("s{src}").as_str()],
        )?;
    }
    buggy.gate("serout", GateKind::Buf, &[format!("s{}", n - 1).as_str()])?;
    buggy.output("serout");
    let buggy = buggy.finish()?;
    let equivalent = check_equivalence(&a, &buggy)?;
    println!(
        "  => {}",
        if equivalent {
            "EQUIVALENT"
        } else {
            "NOT equivalent"
        }
    );
    assert!(!equivalent);
    println!();
    println!("both verdicts match expectation");
    Ok(())
}
