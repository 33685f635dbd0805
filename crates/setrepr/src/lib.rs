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
//!   generalized from the original three engine-owned shapes to all
//!   four representations;
//! * [`ReprCheckpoint`] is the representation half of a resumable
//!   checkpoint (the engine half lives in `bfvr-reach`);
//! * [`zonotope`] implements the logical-zonotope backend's algebra:
//!   GF(2) affine subspaces with closed-form XOR and a sound
//!   over-approximating AND (Alanwar et al., *Logical Zonotopes*).
//!
//! The crate deliberately depends only on `bfvr-bdd` and `bfvr-bfv`;
//! backends that need a transition relation capture it at construction
//! time (in `bfvr-reach`), which keeps this crate — and therefore the
//! audit crate's cross-representation pass — free of any dependency on
//! the simulation layer.
//!
//! ```
//! use bfvr_setrepr::zonotope::Zonotope;
//!
//! // {011} ∪ {101} joins to the affine line through the two points.
//! let a = Zonotope::point(&[false, true, true]);
//! let b = Zonotope::point(&[true, false, true]);
//! let j = a.join(&b);
//! assert_eq!(j.count(), 2.0);
//! assert!(j.contains_point(&[false, true, true]));
//! assert!(j.contains_point(&[true, false, true]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod kind;
mod repr;
mod view;
pub mod zonotope;

pub use kind::ReprKind;
pub use repr::{ReprCheckpoint, Restored, SetRepr};
pub use view::SetView;
pub use zonotope::{AffineEvaluator, AffineForm, Zonotope};
