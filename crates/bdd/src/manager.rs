//! The BDD manager: composes the arena, unique-table and cache layers.
//!
//! The manager owns one [`Arena`] (node storage + free list), one
//! [`UniqueTable`] (hash consing, per-level subtables) and one set of
//! per-operation [`Caches`]. It enforces the two representation
//! invariants the layers themselves cannot see:
//!
//! * **Complement-edge canonical form** — a stored `hi` edge is never
//!   complemented. [`BddManager::mk`] rewrites `(v, lo, ¬n)` into the
//!   complement of `(v, ¬lo, n)`, so `f` and `¬f` always share one
//!   subgraph and negation is a bit flip.
//! * **Root discipline** — garbage collection marks from explicit roots,
//!   the per-variable literal nodes, the loop-root slot and the
//!   refcounts held by live [`Func`] handles.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::arena::Arena;
use crate::cache::{CacheStats, Caches};
use crate::error::BddError;
use crate::fault::{FaultKind, FaultPlan};
use crate::func::{Func, RootTable};
use crate::hash::FxHashMap;
use crate::node::{Bdd, Node, Var, TERMINAL_LEVEL};
use crate::unique::UniqueTable;
use crate::Result;

/// How often (in node allocations) the deadline is polled.
pub(crate) const DEADLINE_POLL_MASK: u64 = 0x1FFF;

/// The result shape of an operation run under [`BddManager::recover`]:
/// the edges it pins once an outermost call succeeds.
pub(crate) trait Edges {
    fn edges(&self) -> &[Bdd];
}

impl Edges for Bdd {
    fn edges(&self) -> &[Bdd] {
        std::slice::from_ref(self)
    }
}

impl<const N: usize> Edges for [Bdd; N] {
    fn edges(&self) -> &[Bdd] {
        self
    }
}

impl Edges for Vec<Bdd> {
    fn edges(&self) -> &[Bdd] {
        self
    }
}

/// Counters describing the current state of a [`BddManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Nodes currently allocated (terminal + variables + interior).
    pub allocated_nodes: usize,
    /// High-water mark of `allocated_nodes` over the manager's lifetime.
    pub peak_nodes: usize,
    /// Total node creations (including unique-table hits).
    pub mk_calls: u64,
    /// Computed-cache lookups, summed over all operation caches.
    pub cache_lookups: u64,
    /// Computed-cache hits, summed over all operation caches.
    pub cache_hits: u64,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Nodes reclaimed across all garbage collections.
    pub gc_reclaimed: u64,
    /// Reclaim-before-fail passes triggered by a tripped node limit.
    pub reclaim_attempts: u64,
    /// Nodes recovered by reclaim-before-fail passes (not counted in
    /// [`ManagerStats::gc_reclaimed`], which tracks explicit collections).
    pub reclaimed_nodes: u64,
    /// Resident bytes behind the computed caches' slot arrays — memory
    /// the per-node accounting does not see (see
    /// [`BddManager::set_cache_limit`]).
    pub cache_bytes: usize,
    /// Resident bytes behind the unique table's per-level slot arrays.
    pub unique_bytes: usize,
}

/// Occupancy summary of the unique table (hash-consing index), from
/// [`BddManager::unique_stats`]. All fields are observations — reading
/// them never allocates or perturbs the table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniqueTableStats {
    /// Entries stored across all per-level subtables.
    pub entries: usize,
    /// Slots allocated across all subtables (entries / slots = load).
    pub slots: usize,
    /// Resident bytes behind the slot arrays.
    pub bytes: usize,
    /// Subtables (one per variable level).
    pub levels: usize,
    /// Subtables currently holding at least one entry.
    pub occupied_levels: usize,
}

/// Result of one garbage collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes reclaimed by this collection.
    pub collected: usize,
    /// Nodes still live after this collection.
    pub live: usize,
}

/// An ROBDD manager with a fixed variable order and complement edges.
///
/// All nodes live in one arena owned by the manager; [`Bdd`] handles are
/// complement-encoded edges into it. Allocating operations take
/// `&mut self`; negation ([`BddManager::not`]) and the negative literal
/// ([`BddManager::nvar`]) are `&self`, infallible and allocation-free.
/// See the [crate root](crate) for an overview and example.
///
/// The manager is single-threaded (`!Send`): [`Func`] handles share its
/// root table through an `Rc`.
///
/// # Resource limits
///
/// [`BddManager::set_node_limit`] and [`BddManager::set_deadline`] arm
/// ceilings that make any allocating operation fail with
/// [`BddError::NodeLimit`] / [`BddError::Deadline`]. This is how the
/// reachability engines reproduce the `M.O.`/`T.O.` entries of the paper's
/// Table 2 without thrashing the host.
#[derive(Debug)]
pub struct BddManager {
    pub(crate) arena: Arena,
    pub(crate) unique: UniqueTable,
    pub(crate) caches: Caches,
    num_vars: u32,
    /// Pre-built positive literal edge for each variable (stable, rooted).
    pub(crate) var_nodes: Vec<u32>,
    /// Semantic variable sitting at each level: `level2var[l]` is the
    /// [`Var`] whose decision nodes carry label `l`. Identity until the
    /// first dynamic reorder; node labels are *levels* throughout, so the
    /// apply kernels never consult this — only the public API boundary
    /// (`top_var`, cube building, composition maps, evaluation) does.
    pub(crate) level2var: Vec<u32>,
    /// Inverse of [`Self::level2var`]: the level each variable occupies.
    pub(crate) var2level: Vec<u32>,
    node_limit: usize,
    deadline: Option<Instant>,
    /// Refcounted roots held by live [`Func`] handles (node index → count).
    pub(crate) roots: RootTable,
    stats: ManagerStats,
    /// Nesting depth of public operation entry points; reclaim-and-retry
    /// happens only at depth 0 (the outermost call), where no in-flight
    /// recursion holds unrooted intermediates.
    op_depth: u32,
    /// Results of completed top-level operations since the last *explicit*
    /// garbage collection. A reclaim pass marks these as roots: any edge a
    /// caller can hold was returned by some operation (or is pinned/a
    /// literal), so protecting returned results makes mid-operation
    /// collection safe while still freeing operation-internal transients.
    pub(crate) result_pins: Vec<u32>,
    /// The fixed-point loop's roots ([`Self::set_loop_roots`]): node
    /// indices marked by every collection, replaced in place each
    /// iteration.
    pub(crate) loop_roots: Vec<u32>,
    /// Armed deterministic fault schedule, if any.
    fault: Option<FaultPlan>,
    /// 1-based ordinal of node-allocation attempts (fault injection).
    alloc_seq: u64,
    /// 1-based ordinal of `check_deadline` calls (fault injection); a
    /// `Cell` because deadline checks take `&self`.
    deadline_checks: Cell<u64>,
    /// Cooperative cancellation token, polled wherever the deadline is
    /// (see [`BddManager::set_cancel_token`]). The manager itself stays
    /// `!Send`; only this flag is shared across threads.
    cancel: Option<Arc<AtomicBool>>,
    /// Visited-set of the read-only walks ([`Self::live_from`],
    /// [`Self::support`]); a `RefCell` because those walks take `&self`.
    /// They never nest, so the borrow cannot fail.
    walk: RefCell<WalkMarks>,
}

/// An epoch-stamped visited-set over arena slots, plus the walk's stack.
/// Starting a walk bumps the epoch instead of clearing the stamps, so a
/// walk costs O(nodes visited), not O(arena).
#[derive(Debug, Default)]
pub(crate) struct WalkMarks {
    epoch: u32,
    stamps: Vec<u32>,
    /// Pending node indices; empty between walks.
    pub(crate) stack: Vec<u32>,
}

impl WalkMarks {
    /// Forgets every mark and sizes the stamps for `slots` arena slots.
    fn begin(&mut self, slots: usize) {
        if self.stamps.len() < slots {
            self.stamps.resize(slots, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Marks slot `i`; `false` if this walk had already marked it.
    #[inline]
    pub(crate) fn insert(&mut self, i: u32) -> bool {
        let stamp = &mut self.stamps[i as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }
}

impl BddManager {
    /// Creates a manager for functions over `num_vars` variables,
    /// `Var(0) .. Var(num_vars - 1)`, with `Var(0)` at the top of the
    /// (fixed) order.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds the 31-bit node index space.
    #[must_use]
    pub fn new(num_vars: u32) -> Self {
        assert!(num_vars < (u32::MAX >> 1) - 1, "too many variables");
        let mut m = BddManager {
            arena: Arena::new(num_vars as usize + 1),
            unique: UniqueTable::new(num_vars),
            caches: Caches::new(),
            num_vars,
            var_nodes: Vec::with_capacity(num_vars as usize),
            level2var: (0..num_vars).collect(),
            var2level: (0..num_vars).collect(),
            node_limit: usize::MAX,
            deadline: None,
            roots: Rc::new(RefCell::new(FxHashMap::default())),
            stats: ManagerStats::default(),
            op_depth: 0,
            result_pins: Vec::new(),
            loop_roots: Vec::new(),
            fault: None,
            alloc_seq: 0,
            deadline_checks: Cell::new(0),
            cancel: None,
            walk: RefCell::default(),
        };
        for v in 0..num_vars {
            // A fresh manager has no limits or faults armed and the index
            // space check already happened, so literal creation cannot fail.
            #[allow(clippy::expect_used)]
            let lit = m
                .mk(v, Bdd::FALSE, Bdd::TRUE)
                .expect("variable nodes fit within fresh manager limits");
            m.var_nodes.push(lit.0);
        }
        m
    }

    /// Number of variables in the manager's order.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// The function of a single positive literal.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range; variables are
    /// fixed at construction, so this is a programming error.
    #[inline]
    pub fn var(&self, v: Var) -> Bdd {
        assert!(v.0 < self.num_vars, "variable {v} out of range");
        Bdd(self.var_nodes[v.0 as usize])
    }

    /// The function of a single negative literal (`¬v`).
    ///
    /// Constant time and allocation-free: the complement edge to the
    /// positive literal's node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range.
    #[inline]
    pub fn nvar(&self, v: Var) -> Bdd {
        self.var(v).complement()
    }

    /// Negation `¬f`. Constant time and allocation-free: flips the
    /// complement bit of the edge.
    #[inline]
    pub fn not(&self, f: Bdd) -> Bdd {
        f.complement()
    }

    /// An RAII handle pinning `f` (and everything it references) across
    /// garbage collections until the handle — and every clone of it — is
    /// dropped. This is how a long-lived handle is pinned; see [`Func`].
    pub fn func(&self, f: Bdd) -> Func {
        Func::new(f, Rc::clone(&self.roots))
    }

    /// Replaces the loop-root slot with the nodes of `roots` (constants
    /// skipped); `&[]` clears it. Every collection, reclaim pass, sift and
    /// leak audit marks the slot, so a fixed-point loop keeps its state
    /// alive by refilling it at each safepoint instead of re-making
    /// [`Func`] pins. One loop uses a manager at a time: there is one
    /// slot, not a stack.
    pub fn set_loop_roots(&mut self, roots: &[Bdd]) {
        self.loop_roots.clear();
        let live = roots.iter().filter(|b| !b.is_const());
        self.loop_roots.extend(live.map(|b| b.node()));
    }

    /// Arms a ceiling on allocated nodes; exceeded ⇒ [`BddError::NodeLimit`].
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Removes the node ceiling.
    pub fn clear_node_limit(&mut self) {
        self.node_limit = usize::MAX;
    }

    /// The armed node ceiling, if any. Lets callers (such as the audit
    /// passes) save, suspend and restore the limit around out-of-band
    /// work that must not trip it.
    #[must_use]
    pub fn node_limit(&self) -> Option<usize> {
        (self.node_limit != usize::MAX).then_some(self.node_limit)
    }

    /// Arms a wall-clock deadline; passed ⇒ [`BddError::Deadline`].
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// The armed deadline, if any (see [`BddManager::node_limit`]).
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Fails with [`BddError::Deadline`] if the armed deadline has passed.
    ///
    /// Node allocation polls the deadline only every few thousand
    /// allocations, so short operations may run to completion past it;
    /// long-running drivers call this at their own iteration boundaries
    /// for prompt, allocation-independent aborts.
    pub fn check_deadline(&self) -> Result<()> {
        let ordinal = self.deadline_checks.get() + 1;
        self.deadline_checks.set(ordinal);
        if let Some(plan) = &self.fault {
            if plan.fail_deadline_at.is_some_and(|k| ordinal >= k) {
                return Err(BddError::Deadline);
            }
        }
        if self.is_cancelled() {
            return Err(BddError::Deadline);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(BddError::Deadline),
            _ => Ok(()),
        }
    }

    /// Arms (or with `None` disarms) a cooperative cancellation token:
    /// once another thread stores `true` in the flag, every deadline
    /// poll — [`BddManager::check_deadline`] and the allocation-path
    /// poll — fails with [`BddError::Deadline`], so a run winds down
    /// exactly like a wall-clock timeout (partial results, checkpoint,
    /// `T.O.` classification). This is how the racing portfolio cancels
    /// losing lanes: each lane owns its manager, only the flag crosses
    /// threads.
    pub fn set_cancel_token(&mut self, token: Option<Arc<AtomicBool>>) {
        self.cancel = token;
    }

    /// Whether the armed cancellation token (if any) has been raised.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|t| t.load(Ordering::Relaxed))
    }

    /// Arms a deterministic [`FaultPlan`]; see that type's docs for the
    /// sticky-ordinal semantics. Ordinals count from the moment of arming.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.alloc_seq = 0;
        self.deadline_checks.set(0);
        self.fault = Some(plan);
    }

    /// Disarms any fault plan; subsequent operations behave normally.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// Caps each operation cache's slot array at `limit` slots (rounded
    /// up to a power of two). The caches are lossy and direct-mapped, so
    /// a smaller cap trades recomputation for memory — never
    /// correctness. Caches already over the new cap are shrunk
    /// immediately; [`ManagerStats::cache_bytes`] reports the resident
    /// total.
    pub fn set_cache_limit(&mut self, limit: usize) {
        self.caches.set_limit(limit.max(1));
    }

    /// Current counters (allocation, cache and GC statistics).
    pub fn stats(&self) -> ManagerStats {
        let mut s = self.stats;
        s.allocated_nodes = self.allocated();
        s.peak_nodes = self.arena.peak();
        let (lookups, hits) = self.caches.totals();
        s.cache_lookups = lookups;
        s.cache_hits = hits;
        s.cache_bytes = self.caches.bytes();
        s.unique_bytes = self.unique.bytes();
        s
    }

    /// Per-operation computed-cache counters (lookups, hits, residency).
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.caches.stats()
    }

    /// Unique-table occupancy (entries, slots, bytes, level spread).
    pub fn unique_stats(&self) -> UniqueTableStats {
        self.unique.stats()
    }

    /// Nodes currently allocated (live from the manager's point of view).
    #[inline]
    pub fn allocated(&self) -> usize {
        self.arena.allocated()
    }

    /// High-water mark of allocated nodes.
    #[inline]
    pub fn peak_nodes(&self) -> usize {
        self.arena.peak()
    }

    /// Resets the peak-node high-water mark to the current allocation.
    pub fn reset_peak_nodes(&mut self) {
        self.arena.reset_peak();
    }

    // ----- node access -------------------------------------------------

    /// Level of the decision variable of `f` (`u32::MAX` for terminals).
    #[inline]
    pub(crate) fn level(&self, f: Bdd) -> u32 {
        self.arena.get(f.node()).var
    }

    /// Decision variable of a non-terminal node — the *semantic* variable,
    /// resolved through the current (possibly dynamically reordered)
    /// level→variable map.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    #[inline]
    pub fn top_var(&self, f: Bdd) -> Var {
        let v = self.level(f);
        assert!(v < self.num_vars, "top_var of a terminal");
        Var(self.level2var[v as usize])
    }

    /// The level variable `v` currently occupies in the order (0 = top).
    /// Identity until the first dynamic reorder ([`BddManager::sift`] /
    /// [`BddManager::reorder_to`]).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the manager's variable range.
    #[inline]
    #[must_use]
    pub fn var_to_level(&self, v: Var) -> u32 {
        assert!(v.0 < self.num_vars, "variable {v} out of range");
        self.var2level[v.0 as usize]
    }

    /// The semantic variable at level `lvl` of the current order.
    ///
    /// # Panics
    ///
    /// Panics if `lvl` is not a valid level.
    #[inline]
    #[must_use]
    pub fn level_to_var(&self, lvl: u32) -> Var {
        assert!(lvl < self.num_vars, "level {lvl} out of range");
        Var(self.level2var[lvl as usize])
    }

    /// The current variable order, top of the order first. Identity
    /// (`Var(0), Var(1), …`) until the first dynamic reorder.
    #[must_use]
    pub fn current_order(&self) -> Vec<Var> {
        self.level2var.iter().map(|&v| Var(v)).collect()
    }

    /// Whether the current order differs from the construction order.
    #[must_use]
    pub fn order_is_permuted(&self) -> bool {
        self.level2var
            .iter()
            .enumerate()
            .any(|(l, &v)| l as u32 != v)
    }

    /// Low (else) child of a non-terminal node, with the parent edge's
    /// complement bit pushed into the result — i.e. the cofactor
    /// `f|top=0` of the *function* `f`, not of the stored node.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    #[inline]
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "low of a terminal");
        Bdd(self.arena.get(f.node()).lo ^ (f.0 & 1))
    }

    /// High (then) child of a non-terminal node, complement-resolved the
    /// same way as [`BddManager::low`].
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    #[inline]
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "high of a terminal");
        Bdd(self.arena.get(f.node()).hi ^ (f.0 & 1))
    }

    /// Cofactors of `f` with respect to level `lvl`: `(f|lvl=0, f|lvl=1)`.
    ///
    /// `lvl` must be ≤ the level of `f`'s top variable (standard apply-step
    /// usage); if `f`'s top is below `lvl`, both cofactors are `f`. The
    /// parent's complement bit is resolved into both children.
    #[inline]
    pub(crate) fn cofactors_at(&self, f: Bdd, lvl: u32) -> (Bdd, Bdd) {
        let n = self.arena.get(f.node());
        if n.var == lvl {
            let c = f.0 & 1;
            (Bdd(n.lo ^ c), Bdd(n.hi ^ c))
        } else {
            (f, f)
        }
    }

    /// Level plus complement-resolved children of `f` in one arena read
    /// (the apply hot path would otherwise read each operand's node twice:
    /// once for [`Self::level`], once for [`Self::cofactors_at`]).
    ///
    /// For a terminal the level is `u32::MAX` and the children are
    /// garbage — callers must gate on the level before using them.
    #[inline]
    pub(crate) fn expand(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.arena.get(f.node());
        let c = f.0 & 1;
        (n.var, Bdd(n.lo ^ c), Bdd(n.hi ^ c))
    }

    // ----- node creation ------------------------------------------------

    /// Finds or creates the function `ite(v, hi, lo)`, applying the
    /// reduction rule `lo == hi ⇒ lo` and the complement-edge canonical
    /// form (a stored `hi` edge is never complemented).
    ///
    /// # Errors
    ///
    /// Fails on node-limit, deadline or index-space exhaustion.
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Result<Bdd> {
        debug_assert!(var < self.num_vars);
        debug_assert!(
            self.level(lo) > var && self.level(hi) > var,
            "order violation"
        );
        self.stats.mk_calls += 1;
        if lo == hi {
            return Ok(lo);
        }
        if hi.is_complemented() {
            // (v, lo, ¬n) ≡ ¬(v, ¬lo, n): store the regular-hi form.
            let r = self.mk_node(var, lo.complement(), hi.complement())?;
            Ok(r.complement())
        } else {
            self.mk_node(var, lo, hi)
        }
    }

    /// Hash-conses the node `(var, lo, hi)` with `hi` already regular.
    fn mk_node(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Result<Bdd> {
        debug_assert!(!hi.is_complemented());
        if let Some(idx) = self.unique.get(var, lo.0, hi.0) {
            return Ok(Bdd(idx << 1));
        }
        // Resource checks on the slow (allocating) path only.
        self.alloc_seq += 1;
        if let Some(plan) = &self.fault {
            if plan.fail_alloc_at.is_some_and(|k| self.alloc_seq >= k) {
                return match plan.alloc_fault_kind {
                    Some(FaultKind::Capacity) => Err(BddError::Capacity),
                    Some(FaultKind::Deadline) => Err(BddError::Deadline),
                    _ => Err(BddError::NodeLimit {
                        limit: self.allocated(),
                    }),
                };
            }
        }
        if self.allocated() >= self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        if self.stats.mk_calls & DEADLINE_POLL_MASK == 0 {
            if self.is_cancelled() {
                return Err(BddError::Deadline);
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(BddError::Deadline);
                }
            }
        }
        let idx = self.arena.alloc(Node {
            var,
            lo: lo.0,
            hi: hi.0,
        })?;
        self.unique.insert(var, lo.0, hi.0, idx);
        Ok(Bdd(idx << 1))
    }

    /// Clears all computed caches (memoized operation results).
    ///
    /// Purely a memory/performance knob; never affects results.
    pub fn clear_cache(&mut self) {
        self.caches.clear_all();
    }

    // ----- operation recovery -------------------------------------------

    /// Runs a public operation with reclaim-before-fail semantics.
    ///
    /// Every allocating entry point wraps its body in this. Only the
    /// *outermost* invocation (operation depth 0) does anything beyond
    /// bookkeeping; nested invocations — an `exists` step calling `or`,
    /// say — pass errors straight through, because their caller's
    /// recursion stack holds unrooted intermediates that a collection
    /// would free.
    ///
    /// At depth 0, a [`BddError::NodeLimit`] triggers one [`Self::reclaim`]
    /// pass over everything the caller could still observe (`roots` must
    /// list the operation's operands) and, if any node was recovered, one
    /// wholesale retry. A single retry suffices: a second reclaim could
    /// free nothing the first did not, so a third attempt would replay the
    /// second identically.
    ///
    /// A successful outermost result is pinned in [`Self::result_pins`]
    /// until the next collection safepoint — a call to
    /// [`Self::collect_garbage`] or [`Self::maybe_collect_garbage`],
    /// whether or not the latter sweeps — which is what makes the
    /// mid-workload reclaim sound: any edge a caller can hold is a
    /// constant, a literal, `Func`-pinned, in the loop-root slot
    /// ([`Self::set_loop_roots`]), or the pinned result of an operation
    /// completed since.
    /// An operation with several results (the §2.3 union step returns
    /// three edges) pins each of them.
    pub(crate) fn recover<T: Edges>(
        &mut self,
        roots: &[Bdd],
        mut op: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let outermost = self.op_depth == 0;
        self.op_depth += 1;
        let mut r = op(self);
        if outermost {
            if matches!(r, Err(BddError::NodeLimit { .. })) && self.reclaim(roots) > 0 {
                r = op(self);
            }
            if let Ok(t) = &r {
                let results = t.edges().iter().filter(|b| !b.is_const());
                self.result_pins.extend(results.map(|b| b.node()));
            }
        }
        self.op_depth -= 1;
        r
    }

    /// Emergency mark-sweep run when an operation trips the node limit:
    /// marks from `Func` roots, literals, the loop-root slot, the
    /// caller-supplied operand `roots`, and all pinned results, then
    /// sweeps and flushes the computed caches. Returns the number of
    /// nodes recovered.
    fn reclaim(&mut self, roots: &[Bdd]) -> usize {
        let mark = self.mark_from(self.root_indices(roots));
        let collected = self.sweep(&mark);
        self.stats.reclaim_attempts += 1;
        self.stats.reclaimed_nodes += collected as u64;
        self.cheap_integrity_check();
        collected
    }

    // ----- garbage collection -------------------------------------------

    /// The mark-phase root set: the caller-supplied `roots`, every node
    /// refcounted by a live [`Func`] handle, the loop-root slot, the
    /// per-variable literal nodes and the pinned results of completed
    /// operations. This single definition of "root" is shared by
    /// [`Self::reclaim`], [`Self::collect_garbage`], sifting and the leak
    /// audit, so they can never drift apart.
    pub(crate) fn root_indices(&self, roots: &[Bdd]) -> Vec<u32> {
        let mut stack: Vec<u32> = roots.iter().map(|b| b.node()).collect();
        stack.extend(self.result_pins.iter().copied());
        stack.extend(self.loop_roots.iter().copied());
        stack.extend(self.roots.borrow().keys().copied());
        stack.extend(self.var_nodes.iter().map(|&e| e >> 1));
        stack
    }

    /// Marks every node reachable from the indices on `stack`; slot 0 (the
    /// terminal) is always marked.
    pub(crate) fn mark_from(&self, mut stack: Vec<u32>) -> Vec<bool> {
        let mut mark = vec![false; self.arena.len()];
        mark[0] = true; // the terminal
        while let Some(i) = stack.pop() {
            if mark[i as usize] {
                continue;
            }
            mark[i as usize] = true;
            let n = self.arena.get(i);
            if n.var < self.num_vars {
                stack.push(n.lo >> 1);
                stack.push(n.hi >> 1);
            }
        }
        mark
    }

    /// Frees every live, unmarked interior node and flushes the computed
    /// caches (which may reference the freed slots).
    ///
    /// When nothing was freed the caches are left intact: every cached
    /// entry still refers to live, unmoved slots, so flushing would only
    /// throw away valid memoization.
    pub(crate) fn sweep(&mut self, mark: &[bool]) -> usize {
        let mut collected = 0;
        for i in 1..self.arena.len() as u32 {
            let n = self.arena.get(i);
            if !mark[i as usize] && n.var < self.num_vars {
                self.unique.remove(n.var, n.lo, n.hi);
                self.arena.free(i);
                collected += 1;
            }
        }
        if collected > 0 {
            self.unique.compact();
            self.caches.clear_all();
        }
        collected
    }

    /// Reclaims every node not reachable from `roots`, a live [`Func`]
    /// handle, the loop-root slot ([`Self::set_loop_roots`]) or the
    /// per-variable literal nodes. Handles to live nodes remain valid;
    /// the computed caches are cleared.
    ///
    /// Also resets the result-pin set kept for reclaim-before-fail: from
    /// this point on, only `roots`, `Func` handles, the loop-root slot
    /// and literals define liveness, so results of operations completed
    /// before this call must be held by one of those to survive.
    pub fn collect_garbage(&mut self, roots: &[Bdd]) -> GcStats {
        self.result_pins.clear();
        let mark = self.mark_from(self.root_indices(roots));
        let collected = self.sweep(&mark);
        self.stats.gc_runs += 1;
        self.stats.gc_reclaimed += collected as u64;
        self.cheap_integrity_check();
        GcStats {
            collected,
            live: self.allocated(),
        }
    }

    /// Allocation floor below which [`Self::maybe_collect_garbage`] never
    /// sweeps. Graphs this small are collected in microseconds, but the
    /// computed-cache flush a sweep forces costs far more than the nodes
    /// it returns.
    pub const GC_DEFER_FLOOR: usize = 1 << 16;

    /// Like [`Self::collect_garbage`], but adaptive: the collection is
    /// skipped while the allocation (garbage included) sits under
    /// [`Self::GC_DEFER_FLOOR`] nodes. Fixed-point loops call this once
    /// per iteration; deferring on small graphs keeps the computed caches
    /// warm across iterations — every sweep that frees nodes must flush
    /// them, and on a graph this size the flush costs far more than the
    /// nodes returned. Large graphs still collect every call: there the
    /// cross-iteration cache-hit yield is low and retained garbage only
    /// bloats the unique table's working set. A skipped collection
    /// reports `collected: 0` and the garbage-inclusive allocation as
    /// `live`.
    ///
    /// Every call is a pin safepoint, skipped or not: `roots` lists every
    /// edge the caller keeps, exactly as for [`Self::collect_garbage`], so
    /// the result pins of completed operations are dropped either way.
    /// Deferred garbage therefore stays in the arena only until something
    /// sweeps — the next collection, a node-limit reclaim, or a
    /// [`Self::sift`] entry sweep, which then sifts the live graph alone.
    ///
    /// Purely a memory/performance knob: deferral never changes any
    /// operation's result, and the reclaim-before-fail path still sweeps
    /// on node-limit pressure regardless of this policy.
    ///
    /// An armed [`Self::set_node_limit`] caps the deferral: once the
    /// allocation fills half the budget, collection happens regardless of
    /// the floor, so deferred garbage never squeezes a tight budget that
    /// per-iteration collection would have honored.
    pub fn maybe_collect_garbage(&mut self, roots: &[Bdd]) -> GcStats {
        let allocated = self.allocated();
        if allocated < Self::GC_DEFER_FLOOR.min(self.node_limit / 2) {
            self.result_pins.clear();
            return GcStats {
                collected: 0,
                live: allocated,
            };
        }
        self.collect_garbage(roots)
    }

    /// O(levels) always-on integrity check run at every collection
    /// boundary: the terminal occupies slot 0 and the unique table holds
    /// exactly one entry per live interior node. Catches arena/unique
    /// drift (lost or duplicated hash-consing entries) immediately instead
    /// of many iterations later as a wrong reached-state count; the
    /// exhaustive per-node walk stays in [`BddManager::audit_graph`].
    fn cheap_integrity_check(&self) {
        assert!(
            self.arena.get(0).var == TERMINAL_LEVEL,
            "post-GC integrity: slot 0 does not hold the terminal"
        );
        debug_assert!(
            self.level2var
                .iter()
                .enumerate()
                .all(|(l, &v)| self.var2level[v as usize] == l as u32),
            "post-GC integrity: level/variable maps are not mutual inverses"
        );
        assert!(
            self.unique.len() == self.allocated() - 1,
            "post-GC integrity: unique table holds {} entries for {} live interior nodes",
            self.unique.len(),
            self.allocated() - 1
        );
    }

    /// Counts the nodes reachable from `roots` (shared live size) without
    /// collecting anything. The terminal is not counted, and — because
    /// counting is by node, not by edge — `f` and `¬f` contribute the same
    /// shared structure.
    pub fn live_from(&self, roots: &[Bdd]) -> usize {
        self.shared_size_capped(roots, usize::MAX)
    }

    /// The [`shared_size`](Self::shared_size) of `roots`, capped:
    /// `min(shared_size(roots), cap)`. The walk stops as soon as it has
    /// counted `cap` interior nodes, and a `cap` of 0 returns 0 without
    /// walking at all. This is the crate's one size walk; `shared_size`,
    /// [`size`](Self::size) and [`live_from`](Self::live_from) are this
    /// with `cap = usize::MAX`.
    ///
    /// For a size compared with a bound — "has `roots` at least `k`
    /// nodes?" is `shared_size_capped(roots, k) >= k` — the walk costs
    /// O(min(size, k)) instead of O(size).
    pub fn shared_size_capped(&self, roots: &[Bdd], cap: usize) -> usize {
        if cap == 0 {
            return 0;
        }
        self.walk(|w| {
            w.stack.extend(roots.iter().map(|b| b.node()));
            let mut count = 0;
            while let Some(i) = w.stack.pop() {
                if !w.insert(i) {
                    continue;
                }
                let n = self.arena.get(i);
                if n.var < self.num_vars {
                    count += 1;
                    if count == cap {
                        break;
                    }
                    w.stack.push(n.lo >> 1);
                    w.stack.push(n.hi >> 1);
                }
            }
            count
        })
    }

    /// Runs a read-only walk with the manager's visited-set, emptied.
    /// Walks must not nest (none calls another).
    pub(crate) fn walk<R>(&self, f: impl FnOnce(&mut WalkMarks) -> R) -> R {
        let mut w = self.walk.borrow_mut();
        w.begin(self.arena.len());
        f(&mut w)
    }

    /// Checks whether the node slot behind `f` is live (not freed).
    ///
    /// Debug aid for tests and validators; never needed for correct use of
    /// the API, since handles obtained under the root discipline are
    /// always live.
    pub fn is_live(&self, f: Bdd) -> bool {
        self.arena.is_live_slot(f.node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let m = BddManager::new(3);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.allocated(), 4); // 1 terminal + 3 literals
        let a = m.var(Var(0));
        assert_eq!(m.top_var(a), Var(0));
        assert_eq!(m.low(a), Bdd::FALSE);
        assert_eq!(m.high(a), Bdd::TRUE);
    }

    #[test]
    fn nvar_is_free_and_complement_resolved() {
        let m = BddManager::new(2);
        let a = m.var(Var(0));
        let na = m.nvar(Var(0));
        assert_eq!(m.allocated(), 3, "nvar allocates nothing");
        assert_eq!(na, m.not(a));
        assert_eq!(m.not(na), a);
        // Accessors push the complement bit into the children.
        assert_eq!(m.low(na), Bdd::TRUE);
        assert_eq!(m.high(na), Bdd::FALSE);
        assert_eq!(m.top_var(na), Var(0));
    }

    #[test]
    fn mk_is_hash_consed_and_reduced() {
        let mut m = BddManager::new(2);
        let n1 = m.mk(0, Bdd::FALSE, Bdd::TRUE).unwrap();
        let n2 = m.mk(0, Bdd::FALSE, Bdd::TRUE).unwrap();
        assert_eq!(n1, n2);
        let red = m.mk(1, Bdd::TRUE, Bdd::TRUE).unwrap();
        assert_eq!(red, Bdd::TRUE);
    }

    #[test]
    fn mk_canonicalizes_complemented_hi() {
        let mut m = BddManager::new(2);
        // (v0, ⊤, ⊥) is ¬v0: must resolve to the complement of the literal
        // node, not a second node.
        let before = m.allocated();
        let nv = m.mk(0, Bdd::TRUE, Bdd::FALSE).unwrap();
        assert_eq!(nv, m.nvar(Var(0)));
        assert_eq!(m.allocated(), before, "no new node for a complement");
        // General case: mk with complemented hi equals ¬mk(¬lo, ¬hi).
        let b = m.var(Var(1));
        let f = m.mk(0, b, b.complement()).unwrap();
        let g = m.mk(0, b.complement(), b).unwrap();
        assert_eq!(f, g.complement());
        assert_eq!(m.live_from(&[f]), m.live_from(&[g]));
    }

    #[test]
    fn node_limit_trips() {
        let mut m = BddManager::new(8);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        m.set_node_limit(m.allocated()); // no headroom
        let err = m.and(a, b).unwrap_err();
        assert_eq!(err, BddError::NodeLimit { limit: 9 });
        m.clear_node_limit();
        assert!(m.and(a, b).is_ok());
    }

    #[test]
    fn deadline_trips_eventually() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        m.set_deadline(Some(Instant::now() - std::time::Duration::from_secs(1)));
        // The poll only fires every DEADLINE_POLL_MASK+1 mk calls; hammer
        // it with fresh allocations (GC clears the caches in between).
        let mut r = Ok(Bdd::TRUE);
        for _ in 0..DEADLINE_POLL_MASK + 2 {
            r = m.and(a, b);
            if r.is_err() {
                break;
            }
            m.collect_garbage(&[]);
        }
        assert_eq!(r.unwrap_err(), BddError::Deadline);
    }

    #[test]
    fn gc_reclaims_unrooted() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let nb = m.nvar(Var(1)); // shares b's node
        let g = m.mk(0, nb, b).unwrap();
        let before = m.allocated();
        let stats = m.collect_garbage(&[g]);
        assert_eq!(stats.live, before); // everything is reachable or a literal
        let stats = m.collect_garbage(&[]);
        assert_eq!(stats.collected, 1); // g dies; nb *is* b's node, which stays
        assert!(m.is_live(a));
        assert!(m.is_live(nb));
        assert!(!m.is_live(g));
    }

    #[test]
    fn func_handles_root_across_gc() {
        let mut m = BddManager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let g = m.and(a, b).unwrap();
        let h1 = m.func(g);
        let h2 = h1.clone();
        m.collect_garbage(&[]);
        assert!(m.is_live(g));
        drop(h1);
        m.collect_garbage(&[]);
        assert!(m.is_live(g), "second handle still pins the node");
        drop(h2);
        m.collect_garbage(&[]);
        assert!(!m.is_live(g));
    }

    #[test]
    fn loop_roots_survive_collection_until_replaced_or_cleared() {
        let mut m = BddManager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let f = m.xor(a, b).unwrap();
        let g = m.and(b, c).unwrap();
        m.set_loop_roots(&[f, Bdd::TRUE, m.not(g), Bdd::FALSE]);
        assert_eq!(m.loop_roots, [f.node(), g.node()], "constants skipped");
        m.collect_garbage(&[]);
        assert!(m.is_live(f) && m.is_live(g));
        assert!(m.audit_leaks(&[]).is_empty(), "the slot counts as roots");
        m.set_loop_roots(&[g]);
        let leaked: Vec<u32> = m.audit_leaks(&[]).iter().map(|l| l.node()).collect();
        assert_eq!(leaked, [f.node()], "a replaced entry is no root");
        m.collect_garbage(&[]);
        assert!(!m.is_live(f) && m.is_live(g));
        m.set_loop_roots(&[]);
        m.collect_garbage(&[]);
        assert!(!m.is_live(g), "a cleared slot holds nothing");
        m.check_invariants().unwrap();
        // A loop root on a freed slot is reported like a result pin.
        m.loop_roots.push(g.node());
        let issues = m.audit_graph();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert_eq!(issues[0].kind, crate::audit::GraphIssueKind::ResultPin);
        assert_eq!(issues[0].detail, "loop root references a freed slot");
    }

    #[test]
    fn loop_roots_survive_a_node_limit_reclaim() {
        let mut m = BddManager::new(8);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let d = m.var(Var(3));
        let held = m.xor(a, b).unwrap();
        let garbage = m.xor(c, d).unwrap();
        m.set_loop_roots(&[held]);
        // The safepoint drops both result pins and defers its sweep.
        assert_eq!(m.maybe_collect_garbage(&[]).collected, 0);
        assert!(m.is_live(garbage));
        // No headroom: the fresh node fits only after a reclaim pass.
        m.set_node_limit(m.allocated());
        let r = m.and(a, c).unwrap();
        assert_eq!(m.stats().reclaim_attempts, 1);
        m.clear_node_limit();
        // A freed `held` slot is either empty or recycled for `r`; either
        // way, rebuilding xor(a, b) would not return it.
        assert!(m.is_live(held));
        assert_ne!(held.node(), r.node());
        assert_eq!(m.xor(a, b).unwrap(), held, "the slot kept its node");
        m.check_invariants().unwrap();
    }

    #[test]
    fn func_not_pins_without_allocation() {
        let mut m = BddManager::new(2);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let g = m.and(a, b).unwrap();
        let h = m.func(g);
        let before = m.stats().mk_calls;
        let nh = h.not();
        assert_eq!(m.stats().mk_calls, before, "Func::not must not allocate");
        assert_eq!(nh.bdd(), m.not(g));
        drop(h);
        m.collect_garbage(&[]);
        assert!(m.is_live(g), "¬g pins the same node as g");
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut m = BddManager::new(3);
        let b = m.var(Var(1));
        let x = m.mk(0, b, Bdd::TRUE).unwrap();
        m.collect_garbage(&[]);
        let y = m.mk(0, b, Bdd::TRUE).unwrap();
        assert_eq!(y, x, "slot should be recycled");
    }

    #[test]
    fn live_from_counts_shared_structure() {
        let mut m = BddManager::new(3);
        let b = m.var(Var(1));
        let f = m.mk(0, b, Bdd::TRUE).unwrap();
        // f shares b; counting both roots must not double count.
        assert_eq!(m.live_from(&[f, b]), 2);
        assert_eq!(m.live_from(&[Bdd::TRUE]), 0);
        // f and ¬f are one subgraph under complement edges.
        assert_eq!(m.live_from(&[f, m.not(f)]), 2);
    }

    #[test]
    fn walks_stay_exact_across_arena_growth_and_epoch_wrap() {
        let mut m = BddManager::new(6);
        let lits: Vec<Bdd> = (0..6).map(|v| m.var(Var(v))).collect();
        let mut f = lits[0];
        for (i, &l) in lits.iter().enumerate().skip(1) {
            f = if i % 2 == 0 {
                m.and(f, l).unwrap()
            } else {
                m.xor(f, l).unwrap()
            };
            // Each walk sees the arena as it is now, garbage included.
            assert_eq!(m.size(f), m.export_dag(&[f]).nodes.len());
            assert_eq!(m.support(f).len(), i + 1);
        }
        let size = m.size(f);
        m.walk.borrow_mut().epoch = u32::MAX - 1;
        for _ in 0..4 {
            assert_eq!(m.size(f), size);
            assert_eq!(m.shared_size(&[f, m.not(f)]), size);
            assert_eq!(m.support(f).len(), 6);
        }
    }

    #[test]
    fn peak_tracking() {
        let mut m = BddManager::new(4);
        let b = m.var(Var(1));
        let base = m.allocated();
        let _x = m.mk(0, b, Bdd::TRUE).unwrap();
        let _y = m.mk(0, Bdd::TRUE, b).unwrap();
        assert_eq!(m.peak_nodes(), base + 2);
        m.collect_garbage(&[]);
        assert_eq!(m.peak_nodes(), base + 2);
        m.reset_peak_nodes();
        assert_eq!(m.peak_nodes(), base);
    }

    #[test]
    fn per_op_cache_stats_are_reported() {
        let mut m = BddManager::new(3);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let _ = m.and(a, b).unwrap();
        let _ = m.and(a, b).unwrap();
        let stats = m.cache_stats();
        let ite = stats.iter().find(|s| s.name == "ite").unwrap();
        assert!(ite.lookups >= 2);
        assert!(ite.hits >= 1);
        let exists = stats.iter().find(|s| s.name == "exists").unwrap();
        assert_eq!(exists.lookups, 0);
    }

    #[test]
    fn reclaim_before_fail_recovers_garbage() {
        let mut m = BddManager::new(8);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        // Manufacture unrooted garbage: pin g across an explicit GC (which
        // clears the result pins), then drop the handle.
        let g = m.xor(a, b).unwrap();
        let h = m.func(g);
        m.collect_garbage(&[]);
        drop(h);
        assert!(m.is_live(g));
        // No headroom: and(a, c) needs a fresh node, which only fits after
        // the reclaim pass frees g (whose slot the retry then recycles).
        let limit = m.allocated();
        m.set_node_limit(limit);
        let r = m.and(a, c).unwrap();
        assert_eq!(m.low(r), Bdd::FALSE);
        assert_eq!(m.allocated(), limit, "retry must recycle, not grow");
        let stats = m.stats();
        assert_eq!(stats.reclaim_attempts, 1);
        assert!(stats.reclaimed_nodes >= 1);
        assert_eq!(stats.gc_runs, 1, "reclaim is not an explicit collection");
        m.check_invariants().unwrap();
    }

    #[test]
    fn deferred_gc_lets_a_node_limit_reclaim_free_dropped_results() {
        let mut m = BddManager::new(8);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let d = m.var(Var(3));
        // Completed results the caller does not list at the safepoint.
        let base = m.allocated();
        let ab = m.xor(a, b).unwrap();
        let cd = m.xor(c, d).unwrap();
        let dropped = m.allocated() - base;
        let gc = m.maybe_collect_garbage(&[]);
        assert_eq!(gc.collected, 0, "below the floor the sweep defers");
        assert!(m.is_live(ab) && m.is_live(cd));
        // No headroom: and(a, c) fits only once the reclaim pass frees
        // the results the deferred safepoint unpinned.
        let limit = m.allocated();
        m.set_node_limit(limit);
        let r = m.and(a, c).unwrap();
        assert_eq!(m.low(r), Bdd::FALSE);
        let stats = m.stats();
        assert_eq!(stats.reclaim_attempts, 1);
        assert_eq!(stats.reclaimed_nodes, dropped as u64);
        assert_eq!(stats.gc_runs, 0, "the safepoint itself never swept");
        m.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_fails_when_nothing_is_collectable() {
        let mut m = BddManager::new(8);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        m.set_node_limit(m.allocated()); // fresh manager: no garbage at all
        let err = m.and(a, b).unwrap_err();
        assert_eq!(err, BddError::NodeLimit { limit: 9 });
        assert_eq!(m.stats().reclaim_attempts, 1);
        assert_eq!(m.stats().reclaimed_nodes, 0);
        // The manager stays usable once the limit is lifted.
        m.clear_node_limit();
        assert!(m.and(a, b).is_ok());
        m.check_invariants().unwrap();
    }

    #[test]
    fn fault_plan_fails_allocations_stickily() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        m.set_fault_plan(FaultPlan::node_limit_at(1));
        assert!(matches!(
            m.and(a, b).unwrap_err(),
            BddError::NodeLimit { .. }
        ));
        // Sticky: the reclaim-retry cannot mask it.
        assert!(m.and(a, b).is_err());
        m.clear_fault_plan();
        assert!(m.and(a, b).is_ok());
        m.check_invariants().unwrap();
    }

    #[test]
    fn fault_plan_capacity_is_reported_verbatim() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        m.set_fault_plan(FaultPlan::capacity_at(1));
        assert_eq!(m.and(a, b).unwrap_err(), BddError::Capacity);
        assert_eq!(
            m.stats().reclaim_attempts,
            0,
            "capacity is not recoverable by collection"
        );
        m.clear_fault_plan();
        assert!(m.and(a, b).is_ok());
    }

    #[test]
    fn fault_plan_trips_deadline_at_ordinal() {
        let mut m = BddManager::new(2);
        m.set_fault_plan(FaultPlan::deadline_at(3));
        assert!(m.check_deadline().is_ok());
        assert!(m.check_deadline().is_ok());
        assert_eq!(m.check_deadline().unwrap_err(), BddError::Deadline);
        assert_eq!(m.check_deadline().unwrap_err(), BddError::Deadline); // sticky
        m.clear_fault_plan();
        assert!(m.check_deadline().is_ok());
    }

    #[test]
    fn invariants_hold_through_ops_and_gc() {
        let mut m = BddManager::new(6);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let c = m.var(Var(2));
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap();
        m.check_invariants().unwrap();
        let _h = m.func(f);
        m.collect_garbage(&[]);
        m.check_invariants().unwrap();
        m.collect_garbage(&[]);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cancel_token_trips_like_a_deadline() {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let token = Arc::new(AtomicBool::new(false));
        m.set_cancel_token(Some(Arc::clone(&token)));
        assert!(m.check_deadline().is_ok());
        assert!(m.and(a, b).is_ok());
        token.store(true, Ordering::Relaxed);
        assert!(m.is_cancelled());
        assert_eq!(m.check_deadline().unwrap_err(), BddError::Deadline);
        // Disarming restores normal operation.
        m.set_cancel_token(None);
        assert!(m.check_deadline().is_ok());
        assert!(m.and(a, b).is_ok());
    }

    #[test]
    fn stats_report_resident_table_bytes() {
        let mut m = BddManager::new(6);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let _ = m.and(a, b).unwrap();
        let s = m.stats();
        assert!(s.cache_bytes > 0, "ite cache allocated slots");
        assert!(s.unique_bytes > 0, "unique levels allocated slots");
        // Capping the cache never leaves it larger than before.
        m.set_cache_limit(1);
        assert!(m.stats().cache_bytes <= s.cache_bytes);
    }

    #[test]
    fn tight_cache_limit_never_affects_results() {
        let mut big = BddManager::new(8);
        let mut tiny = BddManager::new(8);
        tiny.set_cache_limit(1); // rounds up to the minimum slot count
        let mut f_big = Bdd::FALSE;
        let mut f_tiny = Bdd::FALSE;
        for v in 0..8 {
            let (x, y) = (big.var(Var(v)), tiny.var(Var(v)));
            f_big = big.xor(f_big, x).unwrap();
            f_tiny = tiny.xor(f_tiny, y).unwrap();
        }
        assert_eq!(
            big.sat_count(f_big, 8),
            tiny.sat_count(f_tiny, 8),
            "cache pressure must only cost recomputation"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let m = BddManager::new(1);
        let _ = m.var(Var(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nvar_out_of_range_panics() {
        let m = BddManager::new(1);
        let _ = m.nvar(Var(5));
    }
}
