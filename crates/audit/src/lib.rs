//! # bfvr-audit — pass-based semantic analysis with compiler-style diagnostics
//!
//! Every algorithm in the `bfvr` reproduction of *"Set Manipulation with
//! Boolean Functional Vectors for Symbolic Reachability Analysis"* (Goel &
//! Bryant, DATE 2003) rests on structural invariants: the canonical-BFV
//! conditions of §2.2, the CDec correspondence of §2.7, and the
//! complement-edge/ordered-DAG rules of the BDD core. A bug in `reparam`,
//! `ops` or `cdec` would otherwise surface only as a wrong reached-state
//! count many iterations later. This crate makes those invariants
//! machine-checked analysis passes that emit structured, compiler-style
//! diagnostics — each [`Finding`] names its [`Pass`], a [`Severity`], the
//! violating object's path, a message with the concrete numbers, and
//! (where extractable) a [`Witness`]: a concrete counterexample cube from
//! the violating BDD. [`Severity`], [`Finding`], [`Report`] and
//! [`MutationOutcome`] come from the diagnostics vocabulary of
//! [`bfvr_obs::diag`], which `bfvr-nlint` shares one layer down; this
//! crate owns only its [`Pass`] enum and its [`Witness`].
//!
//! The seven passes, in run order:
//!
//! 1. **`graph-wf`** — BDD graph well-formedness: variable-order
//!    monotonicity, the no-complemented-hi canonical rule, unique-table
//!    canonicity and the refcount/arena audit (subsumes the old
//!    `BddManager::check_invariants`).
//! 2. **`leak`** — dead-node and cache-residue detection after
//!    collection.
//! 3. **`bfv-support`** — each component `f_i` depends only on
//!    `v_1 … v_i` (§2.2, canonicity condition 1).
//! 4. **`bfv-partition`** — the selection conditions `f¹`/`f⁰`/`fᶜ` are
//!    mutually exclusive and complete (§2.2).
//! 5. **`bfv-idempotence`** — `F(F(X)) = F(X)`, checked symbolically:
//!    members map to themselves (§2.2, canonicity condition 2).
//! 6. **`cdec-prefix`** — McMillan decompositions have one constraint per
//!    component, each over its variable prefix (§2.7).
//! 7. **`cross-equiv`** — χ, the BFV range and the CDec conjunction
//!    describe the same set; missing representations are derived through
//!    the converters, so those are audited too.
//!
//! Entry points: [`run_passes`] over an [`AuditTargets`] bundle
//! (used per-iteration by the reach engines' `audit` feature and by the
//! `bfvr audit` CLI subcommand; [`AuditTargets::for_view`] takes the
//! engines' borrowed per-iteration [`SetView`]), and [`run_mutations`] — the
//! mutation-based self-test harness that seeds deliberate corruptions and
//! proves each detector fires.
//!
//! ```
//! use bfvr_bdd::{BddManager, Var};
//! use bfvr_bfv::{Space, StateSet};
//! use bfvr_audit::{run_passes, AuditTargets, Report};
//!
//! # fn main() -> Result<(), bfvr_bfv::BfvError> {
//! let mut m = BddManager::new(3);
//! let space = Space::contiguous(3);
//! let s = StateSet::from_points(
//!     &mut m,
//!     &space,
//!     &[vec![false, true, false], vec![true, false, true]],
//! )?;
//! let mut report = Report::new();
//! run_passes(
//!     &mut m,
//!     &AuditTargets::for_bfv(&space, s.as_bfv().unwrap()),
//!     "",
//!     &mut report,
//! )?;
//! assert!(report.is_empty(), "{}", report.render());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod finding;
mod mutation;
mod passes;
mod view;

pub use finding::{Finding, MutationOutcome, Pass, Report, Severity, Witness};
pub use mutation::run_mutations;
pub use passes::{run_passes, AuditTargets};
pub use view::SetView;
