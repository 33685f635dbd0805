//! # bfvr — Boolean functional vectors for symbolic reachability analysis
//!
//! Umbrella crate for the reproduction of *"Set Manipulation with Boolean
//! Functional Vectors for Symbolic Reachability Analysis"* (Goel & Bryant,
//! DATE 2003). It re-exports the workspace crates under short module
//! names; see each crate for the full API:
//!
//! * [`bdd`] — the ROBDD substrate (`bfvr-bdd`),
//! * [`bfv`] — canonical Boolean functional vectors and their set algebra
//!   (`bfvr-bfv`, the paper's contribution),
//! * [`netlist`] — ISCAS89/BLIF sequential netlists and circuit generators
//!   (`bfvr-netlist`),
//! * [`sim`] — symbolic simulation and variable-ordering heuristics
//!   (`bfvr-sim`),
//! * [`reach`] — the reachability engines of the paper's Figures 1 and 2
//!   plus the characteristic-function baselines, and the set-representation
//!   trait their one fixed-point driver iterates on (`bfvr-reach`),
//! * [`audit`] — pass-based semantic analysis of BDD graphs and canonical
//!   BFVs with compiler-style diagnostics (`bfvr-audit`),
//! * [`nlint`] — static netlist analysis: structural/semantic lint passes,
//!   lint-gated simplification, and the support analyses behind the
//!   COI/FORCE variable orders (`bfvr-nlint`),
//! * [`obs`] — structured run telemetry: spans, counters and the JSONL
//!   trace format rendered by `bfvr report` (`bfvr-obs`),
//! * [`serve`] — crash-safe job execution: durable checkpoint files, the
//!   append-only job journal, and the supervised worker pool behind
//!   `bfvr serve` (`bfvr-serve`).
//!
//! The `examples/` directory shows end-to-end flows; `DESIGN.md` maps the
//! paper's every table and figure to a regenerating binary.

pub use bfvr_audit as audit;
pub use bfvr_bdd as bdd;
pub use bfvr_bfv as bfv;
pub use bfvr_netlist as netlist;
pub use bfvr_nlint as nlint;
pub use bfvr_obs as obs;
pub use bfvr_reach as reach;
pub use bfvr_serve as serve;
pub use bfvr_sim as sim;
