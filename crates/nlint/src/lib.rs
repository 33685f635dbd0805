//! # bfvr-nlint — static netlist analysis
//!
//! A pass-based linter over [`bfvr_netlist::Netlist`], one layer below
//! `bfvr-audit`'s BDD-graph passes. Both report through the diagnostics
//! vocabulary of [`bfvr_obs::diag`]: [`Finding`]s with a pass id,
//! severity, signal path and witness, collected into a sorted [`Report`]
//! with rustc-like rendering. This crate owns only its [`Pass`] enum and
//! its [`Witness`]; `Finding`, `Report` and `MutationOutcome` are type
//! aliases over them.
//!
//! The passes ([`Pass`]):
//!
//! * `comb-cycle` — combinational cycles with a witness loop,
//! * `undriven` / `unread` — dangling and dead wiring,
//! * `const-prop` — ternary (0/1/X) propagation from the reset state:
//!   stuck-at gates and latches that never leave their reset value,
//! * `dead-latch` — state outside every output cone of influence,
//! * `dup-gate` — structural duplicates via hash-consing over the DAG,
//! * `support` — per-latch next-state support statistics.
//!
//! Two consumers sit on top:
//!
//! * [`simplify`] — a lint-gated rewrite (constant folding, dead-latch
//!   and COI pruning, buffer collapsing, duplicate merging) producing a
//!   provably smaller netlist whose reachable-state count matches the
//!   original (exactly when no dead latch was dropped — see
//!   [`Simplified::dead_latches`]);
//! * the [`support`] analyses, which feed the COI-interleaved and FORCE
//!   variable-ordering heuristics in `bfvr-sim`.
//!
//! [`run_mutations`] is the self-test harness behind
//! `bfvr lint --selftest`: nine seeded corruptions, each of which must
//! be caught by its intended pass. A netlist without a latch or without
//! a gate with a fan-in gives a [`SelftestError`] instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod analyze;
mod finding;
mod mutation;
mod simplify;
pub mod support;
pub mod ternary;

pub use analyze::run_passes;
pub use finding::{Finding, MutationOutcome, Pass, Report, Severity, Witness};
pub use mutation::{run_mutations, SelftestError};
pub use simplify::{simplify, simplify_with, Simplified, SimplifyOptions};
