//! What the lint layer adds to the shared [`bfvr_obs::diag`]
//! vocabulary: its passes and its witnesses (a cycle, a stuck-at value,
//! a set of signals).

use std::fmt;

use bfvr_obs::diag;

pub use bfvr_obs::diag::Severity;

/// A lint finding.
pub type Finding = diag::Finding<Pass, Witness>;
/// A sorted collection of lint findings.
pub type Report = diag::Report<Pass, Witness>;
/// The outcome of one seeded corruption of the lint self-test.
pub type MutationOutcome = diag::MutationOutcome<Pass>;

/// The analysis passes of the netlist linter, in the order they run.
///
/// The first two are *structural*: they hold on any signal table. The
/// rest are *semantic* and assume a well-formed netlist, so they are
/// skipped (with an [`Severity::Info`] finding) whenever a structural
/// pass reports an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Combinational cycles, reported with a witness loop of signal
    /// names (SCC detection over the gate DAG; latches cut feedback).
    CombCycle,
    /// Signals referenced but never driven by an input, latch or gate.
    Undriven,
    /// Signals never read by a gate, a latch next-state function or a
    /// primary output.
    Unread,
    /// Ternary (0/1/X) constant propagation from the initial state:
    /// gates stuck at a constant in every reachable state, and latches
    /// that never leave their reset value.
    ConstProp,
    /// Latches outside every output cone of influence (transitively,
    /// through next-state functions): they can never affect an output.
    DeadLatch,
    /// Structurally duplicate gates (same function, same canonicalized
    /// fan-ins), found by hash-consing over the gate DAG.
    DupGate,
    /// Per-latch next-state support statistics — the raw material of
    /// the COI/FORCE ordering heuristics.
    Support,
}

impl Pass {
    /// Every pass, in run order.
    pub const ALL: [Pass; 7] = [
        Pass::CombCycle,
        Pass::Undriven,
        Pass::Unread,
        Pass::ConstProp,
        Pass::DeadLatch,
        Pass::DupGate,
        Pass::Support,
    ];

    /// Stable pass identifier, as rendered in diagnostics
    /// (`error[comb-cycle]`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Pass::CombCycle => "comb-cycle",
            Pass::Undriven => "undriven",
            Pass::Unread => "unread",
            Pass::ConstProp => "const-prop",
            Pass::DeadLatch => "dead-latch",
            Pass::DupGate => "dup-gate",
            Pass::Support => "support",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl diag::PassId for Pass {
    fn id(self) -> &'static str {
        Pass::id(self)
    }
}

/// Concrete evidence attached to a finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// A combinational loop of signal names; rendering closes the loop
    /// back onto the first name.
    Cycle(Vec<String>),
    /// A constant value from ternary propagation.
    Stuck(bool),
    /// A set of signal names (a duplicate group, a support set).
    Signals(Vec<String>),
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Witness::Cycle(names) => {
                for n in names {
                    write!(f, "{n} -> ")?;
                }
                match names.first() {
                    Some(first) => write!(f, "{first}"),
                    None => f.write_str("(empty loop)"),
                }
            }
            Witness::Stuck(v) => write!(f, "stuck-at-{}", u8::from(*v)),
            Witness::Signals(names) => f.write_str(&names.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_renders_compiler_style() {
        let f = Finding {
            pass: Pass::CombCycle,
            severity: Severity::Error,
            path: "signal/x".to_string(),
            message: "combinational cycle through 2 signals".to_string(),
            witness: Some(Witness::Cycle(vec!["x".into(), "y".into()])),
        };
        assert_eq!(
            f.to_string(),
            "error[comb-cycle]: combinational cycle through 2 signals\n  --> signal/x\n  witness: x -> y -> x"
        );
    }

    #[test]
    fn witness_variants_render() {
        assert_eq!(Witness::Stuck(true).to_string(), "stuck-at-1");
        assert_eq!(Witness::Stuck(false).to_string(), "stuck-at-0");
        assert_eq!(
            Witness::Signals(vec!["a".into(), "b".into()]).to_string(),
            "a, b"
        );
        assert_eq!(Witness::Cycle(vec![]).to_string(), "(empty loop)");
    }
}
