//! # bfvr-setrepr — the set representations behind the reachability engines
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
//! * [`SetView`] is the borrowed per-iteration view observers see,
//!   one shape per representation;
//! * [`ReprCheckpoint`] is the representation half of a resumable
//!   checkpoint (the engine half lives in `bfvr-reach`).
//!
//! Each engine of `bfvr-reach` iterates on exactly one representation,
//! so the engine alone names a lane; the variant of a [`SetView`] or a
//! [`ReprCheckpoint`] says which representation it carries.
//!
//! The crate deliberately depends only on `bfvr-bdd` and `bfvr-bfv`;
//! backends that need a transition relation capture it at construction
//! time (in `bfvr-reach`), which keeps this crate — and therefore the
//! audit crate's cross-representation pass — free of any dependency on
//! the simulation layer.
//!
//! ```
//! use bfvr_bdd::{BddManager, Var};
//! use bfvr_setrepr::{ReprCheckpoint, SetView};
//!
//! // A χ-shaped loop state: the reached set {x0 = 1} iterated from itself.
//! let m = BddManager::new(2);
//! let x0 = m.var(Var(0));
//! let view = SetView::Chi { reached: x0, from: x0 };
//! assert!(matches!(view, SetView::Chi { reached, .. } if reached == x0));
//! // Its checkpoint pins both sets with RAII handles.
//! let cp = ReprCheckpoint::Chi { reached: m.func(x0), from: m.func(x0) };
//! assert!(matches!(cp, ReprCheckpoint::Chi { ref reached, .. } if reached.bdd() == x0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod repr;
mod view;

pub use repr::{ReprCheckpoint, Restored, SetRepr};
pub use view::SetView;
