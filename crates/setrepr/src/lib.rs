//! # bfvr-setrepr — representation as a first-class axis of reachability
//!
//! The source paper's whole argument is that the *representation* of a
//! state set — characteristic function χ, canonical Boolean functional
//! vector, or conjunctive decomposition — determines which circuits a
//! reachability engine can finish. This crate makes that choice
//! pluggable instead of hard-coded into each engine's fixed-point loop:
//!
//! * [`SetRepr`] is the trait a backend implements — exactly the
//!   operations the engines need (image step, union, fixpoint test,
//!   state count, GC roots, checkpoint/restore) plus an into-χ
//!   canonicalization escape hatch for cross-representation auditing;
//! * [`ReprKind`] names the backends, so the racing portfolio can label
//!   engine × representation lanes and the CLI can select them;
//! * [`SetView`] is the borrowed per-iteration view observers see,
//!   one shape per representation;
//! * [`ReprCheckpoint`] is the representation half of a resumable
//!   checkpoint (the engine half lives in `bfvr-reach`).
//!
//! The crate deliberately depends only on `bfvr-bdd` and `bfvr-bfv`;
//! backends that need a transition relation capture it at construction
//! time (in `bfvr-reach`), which keeps this crate — and therefore the
//! audit crate's cross-representation pass — free of any dependency on
//! the simulation layer.
//!
//! ```
//! use bfvr_setrepr::ReprKind;
//!
//! // Labels double as the CLI `--repr` spelling; only χ survives a
//! // dynamic variable reorder.
//! assert_eq!(ReprKind::parse("cdec"), Some(ReprKind::Cdec));
//! assert!(ReprKind::Chi.supports_reorder());
//! assert!(!ReprKind::Bfv.supports_reorder());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod kind;
mod repr;
mod view;

pub use kind::ReprKind;
pub use repr::{ReprCheckpoint, Restored, SetRepr};
pub use view::SetView;
