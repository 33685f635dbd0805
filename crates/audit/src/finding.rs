//! What the audit layer adds to the shared [`bfvr_obs::diag`]
//! vocabulary: its passes and its witness, a counterexample cube.

use std::fmt;

use bfvr_bdd::{Bdd, BddManager, Var};
use bfvr_obs::diag;

pub use bfvr_obs::diag::Severity;

/// An audit finding.
pub type Finding = diag::Finding<Pass, Witness>;
/// A sorted collection of audit findings.
pub type Report = diag::Report<Pass, Witness>;
/// The outcome of one seeded corruption of the audit self-test.
pub type MutationOutcome = diag::MutationOutcome<Pass>;

/// The analysis passes of the framework, in the order they run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Graph well-formedness: variable-order monotonicity, the
    /// no-complemented-hi canonical rule, unique-table canonicity and the
    /// refcount/arena audit (subsumes the old `check_invariants`).
    GraphWf,
    /// Dead-node and cache-residue leak detection after collection.
    Leak,
    /// BFV support restriction: `f_i` depends only on `v_1 … v_i` (§2.2).
    BfvSupport,
    /// Exclusivity and completeness of the `f¹`/`f⁰`/`fᶜ` condition
    /// partition (§2.2).
    BfvPartition,
    /// Idempotence `F(F(X)) = F(X)`, checked symbolically: members map to
    /// themselves (§2.2, canonicity condition 2).
    BfvIdempotence,
    /// CDec prefix restriction: constraint `c_i` ranges over `v_1 … v_i`
    /// only, and the decomposition has one constraint per component
    /// (§2.7).
    CdecPrefix,
    /// Cross-representation equivalence: χ, the BFV range and the CDec
    /// constraints describe the same set.
    CrossEquiv,
}

impl Pass {
    /// Every pass, in run order.
    pub const ALL: [Pass; 7] = [
        Pass::GraphWf,
        Pass::Leak,
        Pass::BfvSupport,
        Pass::BfvPartition,
        Pass::BfvIdempotence,
        Pass::CdecPrefix,
        Pass::CrossEquiv,
    ];

    /// Stable pass identifier, as rendered in diagnostics (`error[bfv-support]`).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Pass::GraphWf => "graph-wf",
            Pass::Leak => "leak",
            Pass::BfvSupport => "bfv-support",
            Pass::BfvPartition => "bfv-partition",
            Pass::BfvIdempotence => "bfv-idempotence",
            Pass::CdecPrefix => "cdec-prefix",
            Pass::CrossEquiv => "cross-equiv",
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

/// A concrete counterexample cube: one assignment of the violating BDD's
/// support variables under which the reported property fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// `(variable, value)` pairs, in variable order. Empty means the
    /// violation holds under every assignment.
    pub assignment: Vec<(Var, bool)>,
}

impl Witness {
    /// Extracts a witness cube from a non-⊥ violation function: a minterm
    /// of `violation`, restricted to its support variables. Returns `None`
    /// for ⊥ (no violation to witness).
    #[must_use]
    pub fn from_violation(m: &BddManager, violation: Bdd) -> Option<Witness> {
        let minterm = m.pick_minterm(violation, m.num_vars())?;
        let assignment = m
            .support(violation)
            .vars()
            .into_iter()
            .map(|v| (v, minterm[v.0 as usize]))
            .collect();
        Some(Witness { assignment })
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.assignment.is_empty() {
            return f.write_str("(any assignment)");
        }
        for (i, (v, val)) in self.assignment.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{v}={}", u8::from(*val))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_renders_as_cube() {
        let w = Witness {
            assignment: vec![(Var(0), true), (Var(3), false)],
        };
        assert_eq!(w.to_string(), "v0=1 v3=0");
        let any = Witness { assignment: vec![] };
        assert_eq!(any.to_string(), "(any assignment)");
    }

    #[test]
    fn finding_renders_compiler_style() {
        let f = Finding {
            pass: Pass::BfvSupport,
            severity: Severity::Error,
            path: "iter[3]/bfv/component[2]".to_string(),
            message: "component 2 depends on v5".to_string(),
            witness: Some(Witness {
                assignment: vec![(Var(5), true)],
            }),
        };
        assert_eq!(
            f.to_string(),
            "error[bfv-support]: component 2 depends on v5\n  --> iter[3]/bfv/component[2]\n  witness: v5=1"
        );
    }

    #[test]
    fn witness_extraction_restricts_to_support() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let c = m.var(Var(2));
        let f = m.and(a, c).unwrap();
        let w = Witness::from_violation(&m, f).unwrap();
        assert_eq!(w.assignment, vec![(Var(0), true), (Var(2), true)]);
        assert!(Witness::from_violation(&m, Bdd::FALSE).is_none());
        assert_eq!(
            Witness::from_violation(&m, Bdd::TRUE).unwrap().assignment,
            vec![]
        );
    }
}
