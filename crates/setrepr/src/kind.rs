//! Names for the pluggable set representations.

use std::fmt;

/// Which set representation a backend iterates on.
///
/// The paper's own axis: χ vs. BFV vs. conjunctive decomposition.
/// Labels double as the CLI `--repr` spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Monolithic characteristic function over the state variables.
    Chi,
    /// Canonical Boolean functional vector (the paper's contribution).
    Bfv,
    /// McMillan's conjunctive decomposition of the characteristic function.
    Cdec,
}

impl ReprKind {
    /// Stable lowercase label (CLI `--repr` values, report tags).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReprKind::Chi => "chi",
            ReprKind::Bfv => "bfv",
            ReprKind::Cdec => "cdec",
        }
    }

    /// All representations, for sweeps.
    #[must_use]
    pub fn all() -> [ReprKind; 3] {
        [ReprKind::Chi, ReprKind::Bfv, ReprKind::Cdec]
    }

    /// Parses a CLI label (the inverse of [`ReprKind::label`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<ReprKind> {
        ReprKind::all().into_iter().find(|k| k.label() == s)
    }

    /// Whether a lane iterating on this representation can honor a
    /// dynamic-reordering request (`--sift`). Mirrors
    /// [`crate::SetRepr::supports_reorder`] at the kind level, for lane
    /// display: only the plain χ representation survives a mid-run
    /// level permutation — BFV/CDEC tie component order to variable
    /// order (paper §3).
    #[must_use]
    pub fn supports_reorder(self) -> bool {
        matches!(self, ReprKind::Chi)
    }
}

impl fmt::Display for ReprKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip_through_parse() {
        for k in ReprKind::all() {
            assert_eq!(ReprKind::parse(k.label()), Some(k));
        }
        assert_eq!(ReprKind::parse("qdd"), None);
    }

    #[test]
    fn only_chi_supports_reorder() {
        assert!(ReprKind::Chi.supports_reorder());
        for k in [ReprKind::Bfv, ReprKind::Cdec] {
            assert!(!k.supports_reorder());
        }
    }
}
