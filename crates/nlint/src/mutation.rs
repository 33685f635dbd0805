//! The lint self-test: seeded netlist corruptions that the passes must
//! catch.
//!
//! Each mutation plants one specific defect in an otherwise healthy
//! netlist (a combinational splice, a held latch, a ghost signal…) and
//! records whether the *intended* pass diagnosed the planted object.
//! `bfvr lint --selftest` fails unless every mutation is caught.

use std::error::Error;
use std::fmt;

use bfvr_netlist::{GateKind, Netlist, NetlistBuilder, NetlistError};

use crate::analyze::run_passes;
use crate::finding::{MutationOutcome, Pass, Report, Witness};

/// Why the lint self-test could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelftestError {
    /// The netlist lacks a structure the seeded corruptions act on.
    Needs(&'static str),
    /// A rebuild of the netlist failed.
    Netlist(NetlistError),
}

impl From<NetlistError> for SelftestError {
    fn from(e: NetlistError) -> Self {
        SelftestError::Netlist(e)
    }
}

impl fmt::Display for SelftestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelftestError::Needs(what) => write!(f, "lint self-test needs {what}"),
            SelftestError::Netlist(e) => e.fmt(f),
        }
    }
}

impl Error for SelftestError {}

/// Re-emits `net` into a fresh builder so a mutation can add its
/// corruption before finishing. With `splice = Some(g)`, the first fan-in
/// of gate `g` is rewired to the gate's own output — a combinational
/// self-loop; gate `g` must have a fan-in.
fn rebuild(net: &Netlist, splice: Option<usize>) -> Result<NetlistBuilder, NetlistError> {
    let mut b = NetlistBuilder::new(net.name().to_string());
    for &i in net.inputs() {
        b.input(net.signal_name(i))?;
    }
    for l in net.latches() {
        b.latch(net.signal_name(l.output), net.signal_name(l.input), l.init)?;
    }
    for (gi, g) in net.gates().iter().enumerate() {
        let out = net.signal_name(g.output);
        let mut ins: Vec<&str> = g.inputs.iter().map(|&s| net.signal_name(s)).collect();
        if splice == Some(gi) {
            ins[0] = out;
        }
        b.gate(out, g.kind.clone(), &ins)?;
    }
    for &o in net.outputs() {
        b.output(net.signal_name(o));
    }
    Ok(b)
}

fn finding_mentions(report: &Report, pass: Pass, target: &str) -> (bool, bool, usize) {
    let mut fired = false;
    let mut with_witness = false;
    let mut count = 0;
    for f in report.by_pass(pass) {
        count += 1;
        let mentions = f.path.ends_with(&format!("/{target}"))
            || f.message.contains(target)
            || match &f.witness {
                Some(Witness::Cycle(names) | Witness::Signals(names)) => {
                    names.iter().any(|n| n == target)
                }
                _ => false,
            };
        if mentions {
            fired = true;
            with_witness |= f.witness.is_some();
        }
    }
    (fired, with_witness, count)
}

/// Applies every seeded corruption to (a rebuild of) `net` and reports,
/// per mutation, whether its intended pass caught the planted object.
///
/// `net` must be a healthy sequential netlist with at least one latch
/// and one gate with a fan-in (any generator circuit qualifies).
///
/// # Errors
///
/// [`SelftestError::Needs`] when `net` lacks the latch or the fanned-in
/// gate; otherwise propagates builder errors from the rebuilds —
/// impossible for a well-formed input netlist.
pub fn run_mutations(net: &Netlist) -> Result<Vec<MutationOutcome>, SelftestError> {
    let first_latch = net
        .latches()
        .first()
        .map(|l| net.signal_name(l.output).to_string())
        .ok_or(SelftestError::Needs("a latch"))?;
    let x = first_latch.as_str();
    let splice = net
        .gates()
        .iter()
        .position(|g| !g.inputs.is_empty())
        .ok_or(SelftestError::Needs("a gate with at least one fan-in"))?;
    let mut outcomes = Vec::new();
    let mut run = |label: &'static str, expected: Pass, target: &str, mutated: Netlist| {
        let report = run_passes(&mutated);
        let (fired, with_witness, findings) = finding_mentions(&report, expected, target);
        outcomes.push(MutationOutcome {
            label,
            expected,
            fired,
            with_witness,
            findings,
        });
    };

    // 1. Splice a gate's fan-in onto its own output: a combinational
    //    cycle the builder would normally reject.
    {
        let target = net.gates()[splice].output;
        let b = rebuild(net, Some(splice))?;
        run(
            "cycle/splice",
            Pass::CombCycle,
            net.signal_name(target),
            b.finish_unchecked(),
        );
    }

    // 2. Read a signal nothing ever drives.
    {
        let mut b = rebuild(net, None)?;
        b.gate("mut_ghost_t", GateKind::Buf, &["mut_ghost"])?;
        b.output("mut_ghost_t");
        run(
            "undriven/ghost",
            Pass::Undriven,
            "mut_ghost",
            b.finish_unchecked(),
        );
    }

    // 3. Drive a signal nothing ever reads.
    {
        let mut b = rebuild(net, None)?;
        b.gate("mut_orphan", GateKind::Not, &[x])?;
        run(
            "unread/orphan",
            Pass::Unread,
            "mut_orphan",
            b.finish_unchecked(),
        );
    }

    // 4. An unread primary input (distinct diagnosis from 3).
    {
        let mut b = rebuild(net, None)?;
        b.input("mut_nc")?;
        run("unread/input", Pass::Unread, "mut_nc", b.finish_unchecked());
    }

    // 5. A gate forced to 0 by a constant: stuck-at-0.
    {
        let mut b = rebuild(net, None)?;
        b.gate("mut_zero", GateKind::Const0, &[] as &[&str])?;
        b.gate("mut_blocked", GateKind::And, &[x, "mut_zero"])?;
        b.output("mut_blocked");
        run(
            "stuck/and0",
            Pass::ConstProp,
            "mut_blocked",
            b.finish_unchecked(),
        );
    }

    // 6. A gate forced to 1 by a constant: stuck-at-1.
    {
        let mut b = rebuild(net, None)?;
        b.gate("mut_one", GateKind::Const1, &[] as &[&str])?;
        b.gate("mut_forced", GateKind::Or, &[x, "mut_one"])?;
        b.output("mut_forced");
        run(
            "stuck/or1",
            Pass::ConstProp,
            "mut_forced",
            b.finish_unchecked(),
        );
    }

    // 7. A latch feeding itself: constant at its reset value forever.
    {
        let mut b = rebuild(net, None)?;
        b.latch("mut_hold", "mut_hold", false)?;
        b.output("mut_hold");
        run(
            "latch/constant",
            Pass::ConstProp,
            "mut_hold",
            b.finish_unchecked(),
        );
    }

    // 8. A toggling latch no output can observe: dead state.
    {
        let mut b = rebuild(net, None)?;
        b.latch("mut_dead", "mut_dead_n", false)?;
        b.gate("mut_dead_n", GateKind::Not, &["mut_dead"])?;
        run(
            "latch/dead",
            Pass::DeadLatch,
            "mut_dead",
            b.finish_unchecked(),
        );
    }

    // 9. A planted pair of structurally identical gates. (A fresh pair
    //    rather than a copy of an existing gate: some families are
    //    all-`Buf`, and buffers collapse instead of reporting.)
    {
        let mut b = rebuild(net, None)?;
        b.gate("mut_twin_a", GateKind::Nand, &[x, x])?;
        b.gate("mut_twin_b", GateKind::Nand, &[x, x])?;
        b.output("mut_twin_a");
        b.output("mut_twin_b");
        run(
            "gate/duplicate",
            Pass::DupGate,
            "mut_twin_b",
            b.finish_unchecked(),
        );
    }

    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfvr_netlist::generators;

    #[test]
    fn every_mutation_is_caught_on_every_family() {
        for (name, net) in generators::standard_suite() {
            let outcomes = run_mutations(&net).unwrap();
            assert_eq!(outcomes.len(), 9);
            for o in &outcomes {
                assert!(
                    o.fired,
                    "{name}: mutation {} not caught by {}",
                    o.label,
                    o.expected.id()
                );
            }
        }
    }

    #[test]
    fn witnesses_accompany_the_witnessable_passes() {
        let net = generators::counter(4);
        let outcomes = run_mutations(&net).unwrap();
        for o in outcomes {
            let expect_witness = matches!(
                o.expected,
                Pass::CombCycle | Pass::ConstProp | Pass::DupGate
            );
            if expect_witness {
                assert!(o.with_witness, "{}: no witness", o.label);
            }
        }
    }
}
