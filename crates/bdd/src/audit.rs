//! Structural audit hooks: machine-readable graph diagnostics.
//!
//! This module is the `bfvr-bdd` half of the workspace's `bfvr-audit`
//! analysis framework. It exposes the manager's representation invariants
//! as *data* rather than as a pass/fail oracle:
//!
//! * [`BddManager::audit_graph`] walks every arena slot, the unique
//!   table, the root table, the result pins, the literal nodes and the
//!   free list, and returns one [`GraphIssue`] per violation — the
//!   well-formedness rules of the complement-edge canonical form
//!   (no complemented `hi`, strict variable-order monotonicity, unique
//!   canonicity, refcount/arena agreement).
//! * [`BddManager::audit_cache_residue`] checks every computed-cache
//!   entry for references to freed slots (cache residue after a sweep
//!   would serve stale results for recycled node identities).
//! * [`BddManager::audit_leaks`] reports live nodes that are unreachable
//!   from any root — dead nodes a collection should have reclaimed.
//! * [`BddManager::corrupt_for_audit`] deliberately seeds a corruption,
//!   so the detectors themselves can be tested (the mutation harness of
//!   `bfvr-audit`).
//!
//! [`BddManager::check_invariants`] remains as the boolean wrapper the
//! PR-2 tests use; it now simply reports the first issue found here. A
//! cheap always-on subset of these checks runs at every garbage
//! collection (see `BddManager::cheap_integrity_check`).

use std::fmt;

use crate::arena::FREE_LIST_END;
use crate::manager::BddManager;
use crate::node::{Bdd, Node, FREE_LEVEL, TERMINAL_LEVEL};

/// The category of a structural violation found by the graph audit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GraphIssueKind {
    /// Slot 0 does not hold the terminal, or a terminal appears elsewhere.
    TerminalSlot,
    /// A live node's decision variable is outside the manager's range.
    VarOutOfRange,
    /// A stored `hi` edge carries the complement flag (the canonical form
    /// forbids it; negation would no longer be a pure bit flip).
    ComplementedHi,
    /// A node with `lo == hi` survived (the reduction rule was bypassed).
    RedundantNode,
    /// A live node's child edge points at a freed slot.
    DeadChild,
    /// A child's level is not strictly below its parent's (the DAG is no
    /// longer ordered).
    OrderViolation,
    /// The unique table and the arena disagree: a live node is missing,
    /// mapped to the wrong slot, or an entry points at a freed/mismatched
    /// slot — hash consing (and therefore canonicity) is broken.
    UniqueTable,
    /// A `Func` refcount is zero or pins a freed slot.
    RootTable,
    /// A reclaim-before-fail result pin or a loop root
    /// ([`BddManager::set_loop_roots`]) references a freed slot.
    ResultPin,
    /// A per-variable literal node is freed or malformed.
    LiteralNode,
    /// The free list is cyclic, passes through live slots, or disagrees
    /// with the free-slot count.
    FreeList,
    /// A computed-cache entry references a freed slot (stale memoization
    /// that would resurface under a recycled node identity).
    CacheResidue,
    /// A live node unreachable from every root: garbage a collection
    /// should have reclaimed.
    DeadNodeLeak,
}

impl GraphIssueKind {
    /// Short stable label for diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GraphIssueKind::TerminalSlot => "terminal-slot",
            GraphIssueKind::VarOutOfRange => "var-range",
            GraphIssueKind::ComplementedHi => "complemented-hi",
            GraphIssueKind::RedundantNode => "redundant-node",
            GraphIssueKind::DeadChild => "dead-child",
            GraphIssueKind::OrderViolation => "order-violation",
            GraphIssueKind::UniqueTable => "unique-table",
            GraphIssueKind::RootTable => "root-table",
            GraphIssueKind::ResultPin => "result-pin",
            GraphIssueKind::LiteralNode => "literal-node",
            GraphIssueKind::FreeList => "free-list",
            GraphIssueKind::CacheResidue => "cache-residue",
            GraphIssueKind::DeadNodeLeak => "dead-node-leak",
        }
    }
}

/// One structural violation, attributed to an arena slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphIssue {
    /// What rule is broken.
    pub kind: GraphIssueKind,
    /// The arena slot the violation is attributed to (0 for global
    /// issues such as free-list inconsistencies).
    pub slot: u32,
    /// Human-readable description with the concrete numbers.
    pub detail: String,
}

impl GraphIssue {
    /// The regular (uncomplemented) edge to the attributed slot, usable
    /// for witness extraction when the slot is still live and locally
    /// walkable (check with [`BddManager::is_live`] first).
    #[must_use]
    pub fn edge(&self) -> Bdd {
        Bdd(self.slot << 1)
    }
}

impl fmt::Display for GraphIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] slot {}: {}",
            self.kind.label(),
            self.slot,
            self.detail
        )
    }
}

/// A deliberate corruption seeded by [`BddManager::corrupt_for_audit`].
///
/// These hooks exist solely so the audit detectors can be tested against
/// known-bad graphs (the `bfvr-audit` mutation harness); they are the
/// structural analogue of [`crate::FaultPlan`] for resource faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Sets the complement flag on the stored `hi` edge of the node.
    ComplementHi,
    /// Swaps the node's children in place without re-hashing.
    SwapChildren,
    /// Removes the node's unique-table entry (canonicity drift: a second
    /// structurally identical node could now be created).
    UnlinkUnique,
    /// Frees the node's arena slot while the unique table and any cache
    /// entries still reference it (dangling references).
    FreeLiveSlot,
}

impl BddManager {
    /// Exhaustive structural audit of the node graph; returns every
    /// violation found (empty = well-formed).
    ///
    /// Checked: slot 0 holds the only terminal; every live interior node
    /// has a regular (non-complemented) `hi` edge, distinct children, live
    /// children strictly below it in the order, and exactly one matching
    /// unique-table entry; every unique-table entry points back at a
    /// matching live slot; every `Func` refcount is positive and pins a
    /// live slot; every result pin and literal node is live and
    /// well-formed; and the free list is exactly the set of freed slots.
    ///
    /// O(nodes) — intended for the audit passes, tests and fault-injection
    /// harnesses, not hot paths.
    #[must_use]
    pub fn audit_graph(&self) -> Vec<GraphIssue> {
        let mut issues = Vec::new();
        let mut push = |kind: GraphIssueKind, slot: u32, detail: String| {
            issues.push(GraphIssue { kind, slot, detail });
        };
        if self.arena.get(0).var != TERMINAL_LEVEL {
            push(
                GraphIssueKind::TerminalSlot,
                0,
                "slot 0 does not hold the terminal".to_string(),
            );
        }
        let mut live_interior = 0usize;
        for i in 0..self.arena.len() as u32 {
            if !self.arena.is_live_slot(i) {
                continue;
            }
            let n = self.arena.get(i);
            if n.var == TERMINAL_LEVEL {
                if i != 0 {
                    push(
                        GraphIssueKind::TerminalSlot,
                        i,
                        "terminal node stored at a non-zero slot".to_string(),
                    );
                }
                continue;
            }
            if n.var >= self.num_vars() {
                push(
                    GraphIssueKind::VarOutOfRange,
                    i,
                    format!(
                        "variable {} out of range (num_vars = {})",
                        n.var,
                        self.num_vars()
                    ),
                );
                continue; // children/unique checks would index garbage
            }
            live_interior += 1;
            if n.hi & 1 != 0 {
                push(
                    GraphIssueKind::ComplementedHi,
                    i,
                    "stored hi edge carries the complement flag".to_string(),
                );
            }
            if n.lo == n.hi {
                push(
                    GraphIssueKind::RedundantNode,
                    i,
                    "redundant node (lo == hi) survived reduction".to_string(),
                );
            }
            for (name, edge) in [("lo", n.lo), ("hi", n.hi)] {
                let child = edge >> 1;
                if !self.arena.is_live_slot(child) {
                    push(
                        GraphIssueKind::DeadChild,
                        i,
                        format!("{name} child {child} is freed"),
                    );
                } else if self.arena.get(child).var <= n.var {
                    push(
                        GraphIssueKind::OrderViolation,
                        i,
                        format!(
                            "{name} child {child} (level {}) is not strictly below level {}",
                            self.arena.get(child).var,
                            n.var
                        ),
                    );
                }
            }
            match self.unique.get(n.var, n.lo, n.hi) {
                Some(idx) if idx == i => {}
                Some(idx) => push(
                    GraphIssueKind::UniqueTable,
                    i,
                    format!("unique table maps this node's key to slot {idx}"),
                ),
                None => push(
                    GraphIssueKind::UniqueTable,
                    i,
                    "missing from the unique table".to_string(),
                ),
            }
        }
        if self.unique.len() != live_interior {
            push(
                GraphIssueKind::UniqueTable,
                0,
                format!(
                    "unique table holds {} entries for {live_interior} live interior nodes",
                    self.unique.len()
                ),
            );
        }
        for (var, lo, hi, idx) in self.unique.iter() {
            if !self.arena.is_live_slot(idx) {
                push(
                    GraphIssueKind::UniqueTable,
                    idx,
                    format!("unique entry ({var}, {lo}, {hi}) points at a freed slot"),
                );
                continue;
            }
            let n = self.arena.get(idx);
            if n.var != var || n.lo != lo || n.hi != hi {
                push(
                    GraphIssueKind::UniqueTable,
                    idx,
                    format!("unique entry ({var}, {lo}, {hi}) disagrees with the stored node"),
                );
            }
        }
        for (&idx, &count) in self.roots.borrow().iter() {
            if count == 0 {
                push(
                    GraphIssueKind::RootTable,
                    idx,
                    "root table holds a zero refcount".to_string(),
                );
            }
            if !self.arena.is_live_slot(idx) {
                push(
                    GraphIssueKind::RootTable,
                    idx,
                    "root table pins a freed slot".to_string(),
                );
            }
        }
        let pins = self.result_pins.iter().map(|&i| (i, "result pin"));
        for (idx, what) in pins.chain(self.loop_roots.iter().map(|&i| (i, "loop root"))) {
            if !self.arena.is_live_slot(idx) {
                push(
                    GraphIssueKind::ResultPin,
                    idx,
                    format!("{what} references a freed slot"),
                );
            }
        }
        for (v, &e) in self.var_nodes.iter().enumerate() {
            let idx = e >> 1;
            if !self.arena.is_live_slot(idx) {
                push(
                    GraphIssueKind::LiteralNode,
                    idx,
                    format!("literal node for variable {v} is freed"),
                );
                continue;
            }
            let n = self.arena.get(idx);
            // The literal's node label is the variable's *current level*
            // (identity until a dynamic reorder permutes the order).
            let expected_level = self.var2level[v];
            if n.var != expected_level || n.lo != Bdd::FALSE.0 || n.hi != Bdd::TRUE.0 {
                push(
                    GraphIssueKind::LiteralNode,
                    idx,
                    format!("literal node for variable {v} is malformed"),
                );
            }
        }
        self.audit_free_list(&mut issues);
        issues
    }

    /// Free-list walk: every entry must be a freed slot, the chain must be
    /// acyclic, and its length must equal the free-slot count.
    fn audit_free_list(&self, issues: &mut Vec<GraphIssue>) {
        let mut seen = 0usize;
        let mut cur = self.arena.free_head();
        while cur != FREE_LIST_END {
            if cur as usize >= self.arena.len() {
                issues.push(GraphIssue {
                    kind: GraphIssueKind::FreeList,
                    slot: cur,
                    detail: "free list points outside the arena".to_string(),
                });
                return;
            }
            let n = self.arena.get(cur);
            if n.var != FREE_LEVEL {
                issues.push(GraphIssue {
                    kind: GraphIssueKind::FreeList,
                    slot: cur,
                    detail: "free list passes through a live slot".to_string(),
                });
                return;
            }
            seen += 1;
            if seen > self.arena.free_slots() {
                issues.push(GraphIssue {
                    kind: GraphIssueKind::FreeList,
                    slot: cur,
                    detail: "free list is longer than the free count (cycle?)".to_string(),
                });
                return;
            }
            cur = n.lo;
        }
        if seen != self.arena.free_slots() {
            issues.push(GraphIssue {
                kind: GraphIssueKind::FreeList,
                slot: 0,
                detail: format!(
                    "free list has {seen} entries but {} slots are free",
                    self.arena.free_slots()
                ),
            });
        }
    }

    /// Audits every computed-cache entry for references to freed slots.
    ///
    /// A sweep clears all caches, so residue can only arise from a bug (or
    /// a seeded [`Corruption::FreeLiveSlot`]); stale entries are unsound
    /// because a recycled slot would serve another function's result.
    #[must_use]
    pub fn audit_cache_residue(&self) -> Vec<GraphIssue> {
        let mut issues = Vec::new();
        for (name, cache) in self.caches.named() {
            for (key, result) in cache.entries() {
                let mut slots = key.iter().chain(result).map(|&edge| edge >> 1);
                // One issue per entry is enough.
                if let Some(slot) = slots.find(|&s| !self.arena.is_live_slot(s)) {
                    let words = |w: &[u32]| {
                        let list: Vec<String> = w.iter().map(u32::to_string).collect();
                        list.join(", ")
                    };
                    let result = match result {
                        [r] => r.to_string(),
                        _ => format!("({})", words(result)),
                    };
                    issues.push(GraphIssue {
                        kind: GraphIssueKind::CacheResidue,
                        slot,
                        detail: format!(
                            "{name} cache entry ({}) → {result} references a freed slot",
                            words(key)
                        ),
                    });
                }
            }
        }
        issues
    }

    /// Reports live interior slots unreachable from `roots`, any live
    /// [`crate::Func`] handle, the result pins, the loop-root slot or the
    /// literal nodes —
    /// dead nodes a [`BddManager::collect_garbage`] with the same roots
    /// would reclaim. Run it right after a collection for leak detection:
    /// anything reported then is memory the collector failed to free.
    #[must_use]
    pub fn audit_leaks(&self, roots: &[Bdd]) -> Vec<Bdd> {
        let mark = self.mark_from(self.root_indices(roots));
        let mut leaked = Vec::new();
        for i in 1..self.arena.len() as u32 {
            if self.arena.is_live_slot(i)
                && !mark[i as usize]
                && self.arena.get(i).var < self.num_vars()
            {
                leaked.push(Bdd(i << 1));
            }
        }
        leaked
    }

    /// Validates the manager's representation invariants, returning a
    /// description of the first violation found.
    ///
    /// Boolean wrapper over [`BddManager::audit_graph`] +
    /// [`BddManager::audit_cache_residue`], kept for tests and harnesses
    /// that want a pass/fail oracle instead of structured findings.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation, rendered as text.
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(issue) = self.audit_graph().first() {
            return Err(issue.to_string());
        }
        if let Some(issue) = self.audit_cache_residue().first() {
            return Err(issue.to_string());
        }
        Ok(())
    }

    /// Test-harness hook: seeds `corruption` on the node behind `f`.
    ///
    /// The manager is left deliberately inconsistent — this exists so the
    /// audit detectors can be shown to fire (see [`Corruption`]). Never
    /// call it on a manager you intend to keep using.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant (the terminal cannot be corrupted this
    /// way).
    pub fn corrupt_for_audit(&mut self, f: Bdd, corruption: Corruption) {
        assert!(!f.is_const(), "cannot corrupt the terminal");
        let idx = f.node();
        let n = self.arena.get(idx);
        match corruption {
            Corruption::ComplementHi => {
                self.arena.set(idx, Node { hi: n.hi ^ 1, ..n });
            }
            Corruption::SwapChildren => {
                self.arena.set(
                    idx,
                    Node {
                        lo: n.hi,
                        hi: n.lo,
                        ..n
                    },
                );
            }
            Corruption::UnlinkUnique => {
                self.unique.remove(n.var, n.lo, n.hi);
            }
            Corruption::FreeLiveSlot => {
                self.arena.free(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    fn manager_with_garbage() -> (BddManager, Bdd) {
        let mut m = BddManager::new(4);
        let a = m.var(Var(0));
        let b = m.var(Var(1));
        let g = m.xor(a, b).unwrap();
        (m, g)
    }

    #[test]
    fn clean_manager_has_no_issues() {
        let (m, g) = manager_with_garbage();
        assert!(m.audit_graph().is_empty());
        assert!(m.audit_cache_residue().is_empty());
        // g is result-pinned after the op, so it is not a leak.
        assert!(m.audit_leaks(&[]).is_empty());
        assert!(m.audit_leaks(&[g]).is_empty());
        m.check_invariants().unwrap();
    }

    #[test]
    fn complement_hi_is_detected() {
        let (mut m, g) = manager_with_garbage();
        m.corrupt_for_audit(g, Corruption::ComplementHi);
        let issues = m.audit_graph();
        assert!(issues
            .iter()
            .any(|i| i.kind == GraphIssueKind::ComplementedHi && i.slot == g.index() >> 1));
        assert!(m.check_invariants().is_err());
    }

    #[test]
    fn swap_children_breaks_unique_agreement() {
        let (mut m, g) = manager_with_garbage();
        m.corrupt_for_audit(g, Corruption::SwapChildren);
        let issues = m.audit_graph();
        assert!(issues.iter().any(|i| i.kind == GraphIssueKind::UniqueTable));
    }

    #[test]
    fn unlinked_unique_entry_is_detected() {
        let (mut m, g) = manager_with_garbage();
        m.corrupt_for_audit(g, Corruption::UnlinkUnique);
        let issues = m.audit_graph();
        assert!(issues
            .iter()
            .any(|i| i.kind == GraphIssueKind::UniqueTable && i.detail.contains("missing")));
    }

    #[test]
    fn freed_live_slot_leaves_cache_residue_and_dangling_unique() {
        let (mut m, g) = manager_with_garbage();
        // The xor above populated the ite cache with entries touching g.
        m.corrupt_for_audit(g, Corruption::FreeLiveSlot);
        assert!(!m.audit_cache_residue().is_empty());
        let issues = m.audit_graph();
        assert!(issues.iter().any(|i| i.kind == GraphIssueKind::UniqueTable));
    }

    #[test]
    fn leak_detection_fires_on_unrooted_survivors() {
        let (mut m, g) = manager_with_garbage();
        // Pin g across an explicit GC (which clears result pins), then
        // drop the pin: g is now live but unreachable from any root.
        let h = m.func(g);
        m.collect_garbage(&[]);
        drop(h);
        assert!(m.is_live(g));
        let leaked = m.audit_leaks(&[]);
        assert_eq!(leaked, vec![g.regular()]);
        // Rooting g clears the report.
        assert!(m.audit_leaks(&[g]).is_empty());
    }
}
