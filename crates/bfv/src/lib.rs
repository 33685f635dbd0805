//! # bfvr-bfv — canonical Boolean functional vectors as a set datatype
//!
//! This crate implements the contribution of *"Set Manipulation with
//! Boolean Functional Vectors for Symbolic Reachability Analysis"*
//! (Goel & Bryant, DATE 2003): a complete set algebra operating *directly*
//! on the canonical Boolean functional vector (BFV) representation of a
//! state set, never constructing the characteristic function.
//!
//! A BFV `F = (f_1, …, f_n)` represents the set of bit-vectors in its
//! range. The canonical form (Coudert/Berthet/Madre; Touati et al.) fixes
//! one *choice variable* `v_i` per component and requires that
//!
//! 1. `f_i` depends only on `v_1 … v_i`,
//! 2. members map to themselves (`X ∈ S ⇒ F(X) = X`), and
//! 3. non-members map to the *nearest* member under the component-order
//!    weighted distance.
//!
//! The operations provided here mirror the paper:
//!
//! * [`union`](ops::union) — §2.3, via *exclusion conditions*; and
//!   [`union_canonical`](ops::union_canonical), the same union of two
//!   canonical state sets, which adds a single point by a path graft;
//! * [`intersect`](ops::intersect) — §2.4, via backward *elimination
//!   conditions* and a forward substitution pass;
//! * [`cofactor`](ops::cofactor), [`exists`](ops::exists),
//!   [`forall`](ops::forall) — §2.5;
//! * [`reparameterize`](reparam::reparameterize) — §2.6, canonicalizing a
//!   *parameterized* vector (e.g. the output of symbolic simulation) by
//!   quantifying out its parameters with the parameterized union, under a
//!   dynamic support-based quantification schedule (§3);
//! * [`CDec`](cdec::CDec) — McMillan's conjunctive decomposition and its
//!   correspondence with BFVs (§2.7);
//! * [`sift_components`](reorder::sift_components) — a greedy component
//!   reordering pass (see [`reorder`] for how it divides the paper's
//!   first future-work item with the manager-level variable sifting in
//!   `bfvr-bdd`);
//! * conversions [`to_characteristic`](convert::to_characteristic) /
//!   [`from_characteristic`](convert::from_characteristic) — used only at
//!   the API boundary and as a test oracle, exactly as the paper intends.
//!
//! The empty set, which has no functional vector, is handled by the
//! [`StateSet`] wrapper.
//!
//! ## Example: the paper's Table 1 set
//!
//! ```
//! use bfvr_bdd::{BddManager, Var};
//! use bfvr_bfv::{Space, StateSet};
//!
//! # fn main() -> Result<(), bfvr_bfv::BfvError> {
//! let mut m = BddManager::new(3);
//! let space = Space::new(vec![Var(0), Var(1), Var(2)])?;
//! // S = {000, 001, 010, 011, 100, 101}: all but 11x.
//! let pts: Vec<Vec<bool>> = (0u8..6)
//!     .map(|k| (0..3).map(|i| (k >> (2 - i)) & 1 == 1).collect())
//!     .collect();
//! let s = StateSet::from_points(&mut m, &space, &pts)?;
//! assert_eq!(s.len(&mut m, &space)?, 6);
//! // The canonical vector is (v1, ¬v1 ∧ v2, v3), as in the paper.
//! let f = s.as_bfv().unwrap();
//! assert_eq!(f.component(0), m.var(Var(0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cdec;
pub mod convert;
mod error;
pub mod ops;
pub mod reorder;
pub mod reparam;
mod set;
mod space;
mod vector;

pub use error::BfvError;
pub use set::StateSet;
pub use space::Space;
pub use vector::{Bfv, Conditions};

/// Result alias for fallible BFV operations.
pub type Result<T, E = BfvError> = std::result::Result<T, E>;
