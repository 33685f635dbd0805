//! Borrowed per-iteration views of a backend's live representation.

use bfvr_bdd::Bdd;
use bfvr_bfv::cdec::CDec;
use bfvr_bfv::Bfv;

/// A backend's set representation at one fixed-point iteration, borrowed
/// for the duration of an observer callback.
///
/// Each variant is the representation the backend *actually* iterates
/// on — no conversion is performed to build a view, so observing is free
/// for the engine (the observer itself may of course convert).
#[derive(Clone, Copy, Debug)]
pub enum SetView<'a> {
    /// χ-based backends (monolithic, CBM, IWLS95): characteristic
    /// functions over the current-state variables.
    Chi {
        /// States reached so far.
        reached: Bdd,
        /// Start set of the next iteration.
        from: Bdd,
    },
    /// The BFV backend: canonical Boolean functional vectors.
    Vector {
        /// Reached-set vector.
        reached: &'a Bfv,
        /// From-set vector.
        from: &'a Bfv,
    },
    /// The CDEC backend: conjunctive decomposition + from vector.
    Cdec {
        /// Reached set as McMillan's conjunctive decomposition.
        reached: &'a CDec,
        /// From-set vector.
        from: &'a Bfv,
    },
}
