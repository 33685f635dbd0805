//! The [`SetRepr`] trait: what a fixed-point loop needs from a set.
//!
//! The trait is public only because the benchmark's per-layer replay
//! re-enacts the driver step for step through it; its implementers are
//! the backends of this crate and its one caller is the driver.

use bfvr_audit::SetView;
use bfvr_bdd::{Bdd, BddManager, Func};
use bfvr_bfv::BfvError;
use std::time::Duration;

/// The representation half of a resumable checkpoint: the reached and
/// from sets re-expressed in manager-stable handles (RAII [`Func`] pins).
///
/// The engine half (which engine, how many iterations) lives with the
/// reachability driver; a backend only needs to reconstruct its own
/// loop state. There is one variant per representation.
#[derive(Clone, Debug)]
pub enum ReprCheckpoint {
    /// χ-shaped state (the MONO, CBM and IWLS95 backends).
    Chi {
        /// States reached so far.
        reached: Func,
        /// Start set of the next iteration.
        from: Func,
    },
    /// Canonical-vector state (the BFV backend).
    Vector {
        /// Components of the reached-set vector.
        reached: Vec<Func>,
        /// Components of the from-set vector.
        from: Vec<Func>,
    },
    /// Conjunctive-decomposition state (the CDEC backend).
    Cdec {
        /// Constraints of the reached-set decomposition.
        constraints: Vec<Func>,
        /// Components of the from-set vector.
        from: Vec<Func>,
    },
}

/// A restored reached/from pair, or `None` on a representation
/// mismatch (see [`SetRepr::restore`]).
pub type Restored<S> = Option<(S, S)>;

/// A pluggable set representation: exactly the operations the
/// reachability engines' shared fixed-point loop needs, so the loop is
/// written once against this trait instead of once per representation.
///
/// A backend owns everything representation-specific — the transition
/// relation or next-state functions it captured at construction,
/// conversion memos — and hands the loop opaque `Set` values. All manager-allocating operations take
/// `&mut BddManager` and return `Result`, because the manager enforces
/// node-count and deadline limits (the paper's `M.O.`/`T.O.` outcomes).
///
/// ## Contract
///
/// * [`union`](SetRepr::union)`(s, s)` must equal `s` under
///   [`set_eq`](SetRepr::set_eq) (idempotence), and `union` must be
///   commutative up to `set_eq`;
/// * the loop reaches a fixpoint when
///   `set_eq(union(reached, image(reached)), reached)`;
/// * [`checkpoint`](SetRepr::checkpoint) followed by
///   [`restore`](SetRepr::restore) on a fresh backend of the same kind
///   must reproduce `set_eq`-equal reached/from sets.
///
/// These laws are enforced for every backend by the conformance suite
/// (`tests/conformance.rs`).
pub trait SetRepr {
    /// The backend's set value. `Clone` must be cheap-ish (handles,
    /// not deep graph copies).
    type Set: Clone;

    /// One-time setup before the loop: build the transition relation,
    /// cluster schedule, or conversion tables. Called exactly once,
    /// before [`initial`](SetRepr::initial) or
    /// [`restore`](SetRepr::restore).
    ///
    /// # Errors
    ///
    /// Resource limits tripped while building engine structures.
    fn prepare(&mut self, m: &mut BddManager) -> Result<(), BfvError> {
        let _ = m;
        Ok(())
    }

    /// The initial state set.
    ///
    /// # Errors
    ///
    /// Resource limits, or an FSM whose initial state is unrepresentable.
    fn initial(&mut self, m: &mut BddManager) -> Result<Self::Set, BfvError>;

    /// One image step: the successors of `from` under the transition
    /// structure captured at construction.
    ///
    /// # Errors
    ///
    /// Resource limits tripped mid-step.
    fn image(&mut self, m: &mut BddManager, from: &Self::Set) -> Result<Self::Set, BfvError>;

    /// Set union.
    ///
    /// # Errors
    ///
    /// Resource limits tripped mid-union.
    fn union(
        &mut self,
        m: &mut BddManager,
        a: &Self::Set,
        b: &Self::Set,
    ) -> Result<Self::Set, BfvError>;

    /// Whether two sets are equal — the loop's fixpoint test. Must be
    /// allocation-free (canonical representations compare structurally).
    fn set_eq(&self, m: &BddManager, a: &Self::Set, b: &Self::Set) -> bool;

    /// Representation size used by the frontier heuristic (iterate from
    /// the image when it is no larger than the reached set).
    fn size(&self, m: &BddManager, s: &Self::Set) -> usize;

    /// `min(size(s), cap)`: the frontier test's bounded size. The
    /// driver asks "is the reached set at least as large as the image?"
    /// as `size_capped(reached, size(img)) >= size(img)`, so a backend
    /// whose size is a node walk should override this to stop after
    /// `cap` nodes (and not walk at all when `cap` is 0). The default
    /// computes the full [`size`](SetRepr::size).
    fn size_capped(&self, m: &BddManager, s: &Self::Set, cap: usize) -> usize {
        self.size(m, s).min(cap)
    }

    /// Representation size reported in results (defaults to
    /// [`size`](SetRepr::size); CDEC reports the decomposition, not the
    /// companion vector).
    fn repr_nodes(&self, m: &BddManager, s: &Self::Set) -> usize {
        self.size(m, s)
    }

    /// Appends the manager-resident GC roots of `s`.
    fn append_roots(&self, s: &Self::Set, out: &mut Vec<Bdd>);

    /// Appends backend-persistent GC roots (transition relations,
    /// cluster relations) that must survive every collection.
    fn persistent_roots(&self, out: &mut Vec<Bdd>) {
        let _ = out;
    }

    /// RAII pins for the [`append_roots`](SetRepr::append_roots) of `s`.
    /// Only the benchmark's replay (`perfbench/src/replay.rs`) calls
    /// this; the driver holds its loop state in the manager's loop-root
    /// slot ([`BddManager::set_loop_roots`]).
    fn pin(&self, m: &BddManager, s: &Self::Set) -> Vec<Func> {
        let mut roots = Vec::new();
        self.append_roots(s, &mut roots);
        roots.retain(|b| !b.is_const());
        roots.into_iter().map(|b| m.func(b)).collect()
    }

    /// The borrowed observer view of a reached/from pair.
    fn view<'a>(&'a self, reached: &'a Self::Set, from: &'a Self::Set) -> SetView<'a>;

    /// Exact state count if the representation yields one for free
    /// (χ); `None` when counting requires a conversion
    /// (the driver then counts through [`to_chi`](SetRepr::to_chi)).
    fn count_states(&self, m: &BddManager, s: &Self::Set) -> Option<f64>;

    /// Canonicalizes `s` into a characteristic function over the state
    /// variables — the cross-representation escape hatch used for
    /// result reporting and audit equivalence.
    ///
    /// # Errors
    ///
    /// Resource limits tripped during conversion.
    fn to_chi(&mut self, m: &mut BddManager, s: &Self::Set) -> Result<Bdd, BfvError>;

    /// Re-expresses the loop state in manager-stable handles for resume.
    ///
    /// # Errors
    ///
    /// Resource limits tripped while canonicalizing.
    fn checkpoint(
        &mut self,
        m: &mut BddManager,
        reached: &Self::Set,
        from: &Self::Set,
    ) -> Result<ReprCheckpoint, BfvError>;

    /// Rebuilds a reached/from pair from a checkpoint taken by a backend
    /// of the same kind. Returns `Ok(None)` on a representation
    /// mismatch (the driver reports an error outcome).
    ///
    /// # Errors
    ///
    /// Resource limits tripped while rebuilding.
    fn restore(
        &mut self,
        m: &mut BddManager,
        cp: &ReprCheckpoint,
    ) -> Result<Restored<Self::Set>, BfvError>;

    /// End-of-iteration hook. No backend overrides this no-op, and only
    /// the benchmark's replay (`perfbench/src/replay.rs`) calls it.
    fn end_of_iteration(&mut self, reached: &Self::Set, from: &Self::Set) {
        let _ = (reached, from);
    }

    /// Whether the backend tolerates dynamic variable reordering
    /// ([`BddManager::sift`]) between iterations. Defaults to `false`
    /// because most representations carry order-dependent structure the
    /// manager cannot see: the BFV/CDEC vectors require component order
    /// = variable order (paper §3) for `space()` and the reparameterized
    /// image. Backends whose loop state is plain χ BDDs (semantic `Var`s
    /// resolve levels at the API boundary) opt in by returning `true`.
    fn supports_reorder(&self) -> bool {
        false
    }

    /// Drains time spent in representation conversions since the last
    /// call (CBM-style bridge costs are reported, not hidden).
    fn take_conversion(&mut self) -> Duration {
        Duration::ZERO
    }
}
