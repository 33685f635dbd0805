//! Dynamic variable reordering: the in-place adjacent-level swap kernel
//! and the Rudell sifting pass built on it.
//!
//! # Why in place
//!
//! [`BddManager::permute`](crate::BddManager::permute) *rebuilds* a
//! function under a renamed order — every caller-held edge goes stale and
//! the whole DAG is re-interned. The swap kernel here instead exchanges
//! two **adjacent levels** of the shared DAG in place: node slots keep
//! their indices, so every outstanding [`Bdd`] edge, [`crate::Func`]
//! root, result pin and literal handle stays valid and keeps denoting the
//! same function. Only the *label* (level) of affected nodes changes,
//! plus a local rewrite of the nodes where the two levels interact.
//!
//! # The swap, under complement edges
//!
//! Node labels in this manager are **levels**; the manager-level
//! `level2var`/`var2level` maps translate at the public API boundary.
//! Swapping levels `x` and `y = x + 1` therefore means: after the swap,
//! label `x` tests the variable formerly at `y` and vice versa.
//!
//! * The two levels' unique subtables trade places in O(1): a subtable
//!   is keyed on `(lo, hi)` only, so it travels with its variable.
//! * Nodes at `y` keep their children (all below `y`) and are relabeled
//!   `x` — same slot, same key, same function.
//! * Nodes at `x` with **no** child at `y` are relabeled `y` — same
//!   slot, same key, same function.
//! * Nodes at `x` with a child at `y` ("interacting") are rewritten in
//!   place: with `F = ite(v_x, H, L)` and cofactors taken against the
//!   old level `y`, the slot becomes `ite(v_y, A, B)` where
//!   `A = mk(y, L₁, H₁)` and `B = mk(y, L₀, H₀)`. The canonical form
//!   guarantees the stored `hi` edge `H` is regular, hence `H₁` and
//!   therefore `A` are regular — the rewritten slot never needs a
//!   complement flip its parents could not see.
//!
//! So a swap costs one sequential walk over the two levels' entries
//! (relabels) plus hashing for the interacting nodes only: each leaves
//! the `y` subtable, probes for its two new children in one
//! find-or-insert each, and is reinserted at `x`. After the swap both
//! touched subtables are compacted by the unique table's `< 1/8` rule,
//! so the next walk over them costs O(population).
//!
//! All functions are preserved, so the distinct-function invariant keeps
//! every per-level unique subtable collision-free. Nodes of the old `y`
//! level whose only parents were rewritten away are freed through a
//! sift-local reference counter (external roots — `Func` handles, result
//! pins, literals, caller roots — hold one permanent count each).
//!
//! **Frees come before allocations.** The kernel first holds every
//! cofactor of every interacting node with a temporary count, then
//! releases all their old child edges (freeing the old `y` nodes that
//! lost their last parent), then builds the new level-`y` nodes, and
//! only then drops the temporary counts. Every cofactor ends up a child
//! of a new node (or the new child itself), so that last step frees
//! nothing, and a swap never holds more than `max(before, after)` nodes.
//! The live size between swaps is canonical — exactly the nodes
//! reachable from the external roots under the current order — so the
//! order of frees and allocations inside a swap moves only the arena's
//! high-water mark, never a sift decision.
//!
//! The computed caches key on node indices whose labels and liveness
//! change across a pass, so the manager invalidates them wholesale when
//! a reorder completes (the swap loop itself never consults them).
//!
//! # The sifting pass
//!
//! [`BddManager::sift`] is Rudell's algorithm (ICCAD 1993): visit
//! variables in descending order of their level population; move each
//! through the whole order by adjacent swaps (toward the nearer end
//! first), remembering the position with the fewest total live nodes and
//! aborting a direction once the graph grows past `max_growth ×` the size
//! at the variable's start; finally return the variable to its best
//! position. `converge` repeats whole passes until a pass stops
//! improving.
//!
//! [`BddManager::reorder_to`] uses the same kernel.

use std::cmp::Reverse;

use crate::error::BddError;
use crate::manager::BddManager;
use crate::node::{Bdd, Node};
use crate::Result;

/// Tuning knobs for one [`BddManager::sift`] call.
#[derive(Clone, Copy, Debug)]
pub struct SiftConfig {
    /// Abort bound for one variable's movement: stop pushing a variable
    /// in a direction once live nodes exceed `max_growth ×` the count at
    /// that variable's starting position (the variable still returns to
    /// its best seen position). Rudell's classic default is 1.2.
    pub max_growth: f64,
    /// Repeat whole passes until one fails to shrink the graph.
    pub converge: bool,
}

impl Default for SiftConfig {
    fn default() -> Self {
        SiftConfig {
            max_growth: 1.2,
            converge: false,
        }
    }
}

/// What one [`BddManager::sift`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiftStats {
    /// Live nodes when the pass started (after the entry collection).
    pub before: usize,
    /// Live nodes when the pass finished.
    pub after: usize,
    /// Adjacent-level swaps performed.
    pub swaps: u64,
    /// Whole passes over the variables (> 1 only in converge mode).
    pub passes: u32,
    /// Per-variable movements cut short by the growth bound.
    pub aborted: u32,
}

/// Live nodes below which *automatic* sifting is pointless: the pass
/// costs more than any conceivable saving. The fixed-point driver's
/// trigger uses this floor; an explicit [`BddManager::sift`] call always
/// runs regardless of size.
pub const SIFT_SIZE_FLOOR: usize = 2048;

impl BddManager {
    /// One Rudell sifting pass (or several, in converge mode) over the
    /// whole order. `roots` must list every edge the caller intends to
    /// keep using, exactly as for
    /// [`collect_garbage`](Self::collect_garbage); `Func` handles,
    /// result pins and literals are protected automatically. All
    /// caller-held edges remain valid and denote the same functions —
    /// only the order (and therefore node count) changes.
    ///
    /// Sweeps first, so the sizes it reports and minimises count only
    /// the nodes reachable from `roots`, `Func` handles, literals and the
    /// results of operations completed since the last collection
    /// safepoint ([`maybe_collect_garbage`](Self::maybe_collect_garbage)
    /// drops those pins even when it defers its sweep). It invalidates
    /// the computed caches at the end. Resource limits are
    /// *not* consulted (callers suspend/restore them around the call,
    /// like the driver's checkpoint hook); the armed deadline is polled
    /// between variables and ends the pass early but cleanly.
    pub fn sift(&mut self, roots: &[Bdd], cfg: &SiftConfig) -> SiftStats {
        let mark = self.mark_from(self.root_indices(roots, true));
        self.sweep(&mark);
        let before = self.allocated();
        let mut stats = SiftStats {
            before,
            after: before,
            ..SiftStats::default()
        };
        let n = self.num_vars();
        if n < 2 {
            return stats;
        }
        let mut st = SiftState::new(self, roots);
        loop {
            stats.passes += 1;
            let pass_start = self.allocated();
            // Largest levels first: the biggest wins come from the
            // variables that own the most nodes.
            let mut order: Vec<u32> = (0..n).collect();
            order.sort_by_key(|&v| Reverse(self.level_population(self.var2level[v as usize])));
            let mut deadline_hit = false;
            for v in order {
                if self.check_deadline().is_err() {
                    deadline_hit = true;
                    break;
                }
                self.sift_one(v, cfg.max_growth, &mut st, &mut stats);
            }
            let pass_end = self.allocated();
            if deadline_hit || !cfg.converge || pass_end >= pass_start || stats.passes >= 8 {
                break;
            }
        }
        if stats.swaps > 0 {
            self.caches.clear_all();
            self.unique.compact();
        }
        stats.after = self.allocated();
        stats
    }

    /// Reorders the manager to an explicit target order by adjacent
    /// swaps: `target_level2var[l]` names the variable that must end up
    /// at level `l`. Used by checkpoint restore to re-enter a permuted
    /// order before importing the saved DAG. `roots` as for
    /// [`sift`](Self::sift).
    ///
    /// # Errors
    ///
    /// [`BddError::VarOutOfRange`] if `target_level2var` is not a
    /// permutation of `0..num_vars`; [`BddError::Capacity`] if the node
    /// index space cannot absorb a swap's transient growth.
    pub fn reorder_to(&mut self, target_level2var: &[u32], roots: &[Bdd]) -> Result<()> {
        let n = self.num_vars();
        if target_level2var.len() != n as usize {
            return Err(BddError::VarOutOfRange {
                var: target_level2var.len() as u32,
                num_vars: n,
            });
        }
        let mut seen = vec![false; n as usize];
        for &v in target_level2var {
            if v >= n || seen[v as usize] {
                return Err(BddError::VarOutOfRange {
                    var: v,
                    num_vars: n,
                });
            }
            seen[v as usize] = true;
        }
        if self
            .level2var
            .iter()
            .zip(target_level2var.iter())
            .all(|(a, b)| a == b)
        {
            return Ok(());
        }
        let mark = self.mark_from(self.root_indices(roots, true));
        self.sweep(&mark);
        let mut st = SiftState::new(self, roots);
        // Selection sort by adjacent swaps: bubble each target variable
        // up to its level, top down. O(n²) swaps worst case, which is
        // fine for checkpoint restore (it runs once per resume).
        let mut moved = false;
        for lvl in 0..n {
            let want = target_level2var[lvl as usize];
            let mut cur = self.var2level[want as usize];
            debug_assert!(cur >= lvl, "levels above are already settled");
            while cur > lvl {
                if !self.swap_has_headroom(cur - 1) {
                    return Err(BddError::Capacity);
                }
                self.swap_levels(cur - 1, &mut st);
                moved = true;
                cur -= 1;
            }
        }
        if moved {
            self.caches.clear_all();
            self.unique.compact();
        }
        Ok(())
    }

    // ----- one variable -------------------------------------------------

    /// Sifts variable `v` through the order and leaves it at the best
    /// position seen. Updates swap/abort counters in `stats`.
    fn sift_one(&mut self, v: u32, max_growth: f64, st: &mut SiftState, stats: &mut SiftStats) {
        let n = self.num_vars();
        let start = self.var2level[v as usize];
        let mut best = self.allocated();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let limit = ((best as f64) * max_growth.max(1.0)) as usize + 2;
        let mut best_level = start;
        let mut cur = start;
        // Toward the nearer end first, then sweep across to the other.
        let down_first = u64::from(start) * 2 >= u64::from(n - 1);
        for phase in 0..2 {
            let down = down_first == (phase == 0);
            loop {
                let at_edge = if down { cur + 1 >= n } else { cur == 0 };
                if at_edge {
                    break;
                }
                let x = if down { cur } else { cur - 1 };
                if !self.swap_has_headroom(x) {
                    stats.aborted += 1;
                    break;
                }
                self.swap_levels(x, st);
                stats.swaps += 1;
                cur = if down { cur + 1 } else { cur - 1 };
                let size = self.allocated();
                if size < best {
                    best = size;
                    best_level = cur;
                }
                if size > limit {
                    stats.aborted += 1;
                    break;
                }
            }
        }
        // Return to the best position seen.
        while cur != best_level {
            let x = if cur < best_level { cur } else { cur - 1 };
            if !self.swap_has_headroom(x) {
                // Out of index space on the way back: stay put. The
                // order is still valid, just not optimal.
                stats.aborted += 1;
                return;
            }
            self.swap_levels(x, st);
            stats.swaps += 1;
            cur = if cur < best_level { cur + 1 } else { cur - 1 };
        }
    }

    // ----- the swap kernel ----------------------------------------------

    /// Live nodes labeled with level `lvl`.
    fn level_population(&self, lvl: u32) -> usize {
        self.unique.level_len(lvl)
    }

    /// Whether the arena can absorb the worst-case transient growth of
    /// swapping levels `x`/`x+1` (two fresh nodes per interacting node).
    fn swap_has_headroom(&self, x: u32) -> bool {
        self.arena.headroom() >= 2 * self.level_population(x) + 2
    }

    /// Exchanges adjacent levels `x` and `y = x + 1` in place (see the
    /// module docs). Caller guarantees headroom via
    /// [`Self::swap_has_headroom`].
    pub(crate) fn swap_levels(&mut self, x: u32, st: &mut SiftState) {
        let y = x + 1;
        debug_assert!(y < self.num_vars());
        // From here on table `x` holds the old level-y nodes and table `y`
        // the old level-x nodes, all under their unchanged keys.
        self.unique.swap_levels(x, y);
        // Old level-x nodes move down: relabel the non-interacting ones,
        // and record the interacting ones with their cofactors. Their
        // children still carry old labels (no child is an old-x node).
        st.rewrites.clear();
        for (lo, hi, idx) in self.unique.level_entries(y) {
            let (l, h) = (Bdd(lo), Bdd(hi));
            let ln = self.arena.get(l.node());
            let hn = self.arena.get(h.node());
            if ln.var != y && hn.var != y {
                self.arena.set(idx, Node { var: y, lo, hi });
                continue;
            }
            let (l0, l1) = if ln.var == y {
                let c = lo & 1;
                (Bdd(ln.lo ^ c), Bdd(ln.hi ^ c))
            } else {
                (l, l)
            };
            // Canonical form: the stored hi edge is regular.
            let (h0, h1) = if hn.var == y {
                (Bdd(hn.lo), Bdd(hn.hi))
            } else {
                (h, h)
            };
            st.rewrites.push(Rewrite {
                idx,
                old: [l, h],
                cofactors: [l0, l1, h0, h1],
            });
        }
        for r in &st.rewrites {
            self.unique.remove(y, r.old[0].0, r.old[1].0);
        }
        // Old level-y nodes move up (children all below y, so the order
        // invariant holds; functions unchanged).
        for (lo, hi, idx) in self.unique.level_entries(x) {
            self.arena.set(idx, Node { var: x, lo, hi });
        }
        // Rewrite the interacting nodes, freeing before allocating.
        for i in 0..st.rewrites.len() {
            for c in st.rewrites[i].cofactors {
                st.hold(c);
            }
        }
        for i in 0..st.rewrites.len() {
            for e in st.rewrites[i].old {
                self.sift_release(e, st);
            }
        }
        for i in 0..st.rewrites.len() {
            let Rewrite { idx, cofactors, .. } = st.rewrites[i];
            let [l0, l1, h0, h1] = cofactors;
            let a = self.swap_mk(y, l1, h1, st);
            let b = self.swap_mk(y, l0, h0, st);
            debug_assert!(
                !a.is_complemented(),
                "hi cofactor of a regular hi edge must stay regular"
            );
            debug_assert_ne!(a, b, "interacting node reduced to redundancy");
            st.hold(a);
            st.hold(b);
            self.arena.set(
                idx,
                Node {
                    var: x,
                    lo: b.0,
                    hi: a.0,
                },
            );
            self.unique.insert(x, b.0, a.0, idx);
        }
        // Every cofactor is now a child of a new node, or one itself, so
        // dropping the temporary counts frees nothing.
        for r in &st.rewrites {
            for c in r.cofactors.iter().filter(|c| !c.is_const()) {
                st.refs[c.node() as usize] -= 1;
                debug_assert!(st.refs[c.node() as usize] > 0, "cofactor lost");
            }
        }
        // Finally flip the level↔variable maps.
        let vx = self.level2var[x as usize];
        let vy = self.level2var[y as usize];
        self.level2var[x as usize] = vy;
        self.level2var[y as usize] = vx;
        self.var2level[vx as usize] = y;
        self.var2level[vy as usize] = x;
        self.unique.compact_level(x);
        self.unique.compact_level(y);
    }

    /// Hash-consing `mk` used inside a swap: same reduction and
    /// complement canonicalization as [`Self::mk`], but it probes the
    /// unique table once (find-or-insert), maintains the sift-local
    /// refcounts, never consults the computed caches, and is infallible
    /// (the caller pre-checked arena headroom).
    fn swap_mk(&mut self, lvl: u32, lo: Bdd, hi: Bdd, st: &mut SiftState) -> Bdd {
        if lo == hi {
            return lo;
        }
        let (lo, hi, neg) = if hi.is_complemented() {
            (lo.complement(), hi.complement(), true)
        } else {
            (lo, hi, false)
        };
        debug_assert!(self.arena.get(lo.node()).var > lvl);
        debug_assert!(self.arena.get(hi.node()).var > lvl);
        let arena = &mut self.arena;
        let (idx, made) = self.unique.find_or_insert(lvl, lo.0, hi.0, || {
            match arena.alloc(Node {
                var: lvl,
                lo: lo.0,
                hi: hi.0,
            }) {
                Ok(i) => i,
                // swap_has_headroom reserved space for every allocation
                // this swap can make.
                Err(_) => unreachable!("swap headroom pre-checked"),
            }
        });
        if made {
            if idx as usize >= st.refs.len() {
                st.refs.resize(idx as usize + 1, 0);
            }
            // The slot may be recycled: reset before counting children.
            st.refs[idx as usize] = 0;
            st.hold(lo);
            st.hold(hi);
        }
        let r = Bdd(idx << 1);
        if neg {
            r.complement()
        } else {
            r
        }
    }

    /// Releases one reference to the node behind `e`, freeing it (and
    /// cascading into its children) when the count reaches zero.
    fn sift_release(&mut self, e: Bdd, st: &mut SiftState) {
        st.stack.push(e.node());
        while let Some(i) = st.stack.pop() {
            if i == 0 {
                continue; // the terminal is never counted or freed
            }
            debug_assert!(st.refs[i as usize] > 0, "sift refcount underflow");
            st.refs[i as usize] -= 1;
            if st.refs[i as usize] == 0 {
                let n = self.arena.get(i);
                self.unique.remove(n.var, n.lo, n.hi);
                self.arena.free(i);
                st.stack.push(n.lo >> 1);
                st.stack.push(n.hi >> 1);
            }
        }
    }
}

/// Sift-local state of one reorder: the reference counts and the swap
/// kernel's reusable buffers, so that once the buffers have grown a swap
/// makes no heap allocation.
pub(crate) struct SiftState {
    /// One count per parent edge over the live graph, plus one permanent
    /// count per external root (caller roots, `Func` handles, result
    /// pins, literals). External counts are never released, so externally
    /// visible nodes can never be freed by a swap. The terminal is never
    /// counted.
    refs: Vec<u32>,
    /// Pending nodes of a release cascade.
    stack: Vec<u32>,
    /// The current swap's interacting nodes.
    rewrites: Vec<Rewrite>,
}

/// One interacting node of a swap.
#[derive(Clone, Copy)]
struct Rewrite {
    /// Its slot.
    idx: u32,
    /// Its old `[lo, hi]` edges.
    old: [Bdd; 2],
    /// `[L₀, L₁, H₀, H₁]`: its old children's cofactors against the old
    /// level `y`.
    cofactors: [Bdd; 4],
}

impl SiftState {
    /// Counts the live graph of `m` after its entry collection; `roots`
    /// as for [`BddManager::sift`].
    pub(crate) fn new(m: &BddManager, roots: &[Bdd]) -> Self {
        let mut st = SiftState {
            refs: vec![0u32; m.arena.len()],
            stack: Vec::new(),
            rewrites: Vec::new(),
        };
        for i in 1..m.arena.len() as u32 {
            if !m.arena.is_live_slot(i) {
                continue;
            }
            let n = m.arena.get(i);
            if n.var < m.num_vars() {
                st.hold(Bdd(n.lo));
                st.hold(Bdd(n.hi));
            }
        }
        for idx in m.root_indices(roots, true) {
            st.hold(Bdd(idx << 1));
        }
        st
    }

    /// Adds one reference to the node behind `e` (none for constants).
    #[inline]
    fn hold(&mut self, e: Bdd) {
        if !e.is_const() {
            self.refs[e.node() as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;

    /// xorshift64*: the project-standard seeded generator for random
    /// test cases (no external dependencies).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Builds a random function DAG over `n` vars from a seed.
    fn random_fn(m: &mut BddManager, n: u32, rng: &mut XorShift) -> Bdd {
        let mut f = if rng.next() & 1 == 0 {
            m.var(Var((rng.next() % u64::from(n)) as u32))
        } else {
            m.nvar(Var((rng.next() % u64::from(n)) as u32))
        };
        for _ in 0..3 + rng.next() % 12 {
            let v = Var((rng.next() % u64::from(n)) as u32);
            let lit = if rng.next() & 1 == 0 {
                m.var(v)
            } else {
                m.nvar(v)
            };
            f = match rng.next() % 3 {
                0 => m.and(f, lit).unwrap(),
                1 => m.or(f, lit).unwrap(),
                _ => m.xor(f, lit).unwrap(),
            };
        }
        f
    }

    fn truth_table(m: &BddManager, f: Bdd, n: u32) -> Vec<bool> {
        (0..1u32 << n)
            .map(|bits| {
                let asg: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                m.eval(f, &asg)
            })
            .collect()
    }

    #[test]
    fn single_swap_preserves_semantics_and_invariants() {
        let n = 5u32;
        let mut rng = XorShift(0x5EED_0001);
        for case in 0..40 {
            let mut m = BddManager::new(n);
            let f = random_fn(&mut m, n, &mut rng);
            let g = random_fn(&mut m, n, &mut rng);
            let before_f = truth_table(&m, f, n);
            let before_g = truth_table(&m, g, n);
            let x = (rng.next() % u64::from(n - 1)) as u32;
            m.collect_garbage(&[f, g]);
            let mut st = SiftState::new(&m, &[f, g]);
            m.swap_levels(x, &mut st);
            m.clear_cache();
            assert_eq!(truth_table(&m, f, n), before_f, "case {case} f at x={x}");
            assert_eq!(truth_table(&m, g, n), before_g, "case {case} g at x={x}");
            m.check_invariants().unwrap();
            // Swapping back restores the identity order.
            m.swap_levels(x, &mut st);
            m.clear_cache();
            assert!(!m.order_is_permuted());
            assert_eq!(truth_table(&m, f, n), before_f);
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn random_swap_sequences_keep_graph_equal_semantics() {
        let n = 7u32;
        let mut rng = XorShift(0xFACE_FEED);
        for case in 0..15 {
            let mut m = BddManager::new(n);
            let roots: Vec<Bdd> = (0..4).map(|_| random_fn(&mut m, n, &mut rng)).collect();
            let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f, n)).collect();
            m.collect_garbage(&roots);
            let mut st = SiftState::new(&m, &roots);
            for _ in 0..30 {
                let x = (rng.next() % u64::from(n - 1)) as u32;
                assert!(m.swap_has_headroom(x));
                m.swap_levels(x, &mut st);
            }
            m.clear_cache();
            for (i, (&f, want)) in roots.iter().zip(tables.iter()).enumerate() {
                assert_eq!(&truth_table(&m, f, n), want, "case {case} root {i}");
            }
            m.check_invariants().unwrap();
            // The maps must still be mutual inverses.
            for l in 0..n {
                assert_eq!(m.var_to_level(m.level_to_var(l)), l);
            }
            // Two functions equal as functions must still be one edge:
            // rebuild each root from its truth table via ite chains and
            // compare canonical handles.
            for (&f, want) in roots.iter().zip(tables.iter()) {
                let mut rebuilt = Bdd::FALSE;
                for (bits, &val) in want.iter().enumerate() {
                    if !val {
                        continue;
                    }
                    let mut cube = Bdd::TRUE;
                    for i in 0..n {
                        let lit = if (bits >> i) & 1 == 1 {
                            m.var(Var(i))
                        } else {
                            m.nvar(Var(i))
                        };
                        cube = m.and(cube, lit).unwrap();
                    }
                    rebuilt = m.or(rebuilt, cube).unwrap();
                }
                assert_eq!(rebuilt, f, "hash consing diverged after swaps");
            }
        }
    }

    #[test]
    fn sift_shrinks_a_deliberately_interleaved_xor_chain() {
        // f = (x0∧x1) ∨ (x2∧x3) ∨ … under the order x0 x2 x4 … x1 x3 x5…
        // is exponentially larger than under the paired order; build the
        // bad order explicitly and let sifting find the good one.
        let pairs = 8u32;
        let n = 2 * pairs;
        let mut m = BddManager::new(n);
        let mut f = Bdd::FALSE;
        for p in 0..pairs {
            // Bad static order: pair (p, pairs + p) sits far apart.
            let a = m.var(Var(p));
            let b = m.var(Var(pairs + p));
            let ab = m.and(a, b).unwrap();
            f = m.or(f, ab).unwrap();
        }
        m.collect_garbage(&[f]);
        let before = m.size(f);
        let stats = m.sift(
            &[f],
            &SiftConfig {
                max_growth: 1.5,
                converge: true,
            },
        );
        let after = m.size(f);
        assert!(stats.swaps > 0, "sift must move something");
        assert!(
            after * 2 <= before,
            "sift should at least halve the conjunction-of-pairs DAG: {before} -> {after}"
        );
        m.check_invariants().unwrap();
        // Semantics unchanged: count satisfying assignments.
        assert_eq!(
            m.sat_count_exact(f, n),
            Some({
                // ∨ of 8 independent pair-conjunctions: inclusion-exclusion
                // says (4^8 - 3^8) · 1 per remaining freedom; compute by
                // brute truth count instead.
                let mut count = 0u128;
                for bits in 0..1u32 << n {
                    let sat =
                        (0..pairs).any(|p| (bits >> p) & 1 == 1 && (bits >> (pairs + p)) & 1 == 1);
                    count += u128::from(sat);
                }
                count
            })
        );
    }

    #[test]
    fn sift_preserves_func_roots_and_pins() {
        let n = 12u32;
        let mut rng = XorShift(0xABCD_EF01);
        let mut m = BddManager::new(n);
        let f = random_fn(&mut m, n, &mut rng);
        let g = random_fn(&mut m, n, &mut rng);
        let table_f = truth_table(&m, f, n);
        let h = m.func(f); // Func-held root, not passed via roots
        let _ = m.sift(&[g], &SiftConfig::default());
        assert!(m.is_live(f), "Func handle must protect its node");
        assert_eq!(truth_table(&m, f, n), table_f);
        drop(h);
        m.check_invariants().unwrap();
    }

    #[test]
    fn sift_after_a_deferred_gc_sizes_only_the_live_graph() {
        let n = 12u32;
        let mut rng = XorShift(0x5AFE_0001);
        let mut m = BddManager::new(n);
        let keep = random_fn(&mut m, n, &mut rng);
        let held = random_fn(&mut m, n, &mut rng);
        let h = m.func(held);
        // Results of completed operations the caller drops at the
        // safepoint below: garbage, but each one result-pinned.
        for _ in 0..8 {
            let _ = random_fn(&mut m, n, &mut rng);
        }
        let gc = m.maybe_collect_garbage(&[keep]);
        assert_eq!(gc.collected, 0, "a graph this small defers the sweep");
        // Reachable from `keep`, the `Func` handle and the literals, plus
        // the terminal slot `allocated` counts.
        let literals: Vec<Bdd> = (0..n).map(|v| m.var(Var(v))).collect();
        let want = m.live_from(&[&[keep, held][..], &literals].concat()) + 1;
        assert!(
            gc.live > want,
            "no dropped results to exercise: {} allocated, {want} live",
            gc.live
        );
        let stats = m.sift(&[keep], &SiftConfig::default());
        assert_eq!(
            stats.before, want,
            "the sift sized pinned results the deferred safepoint dropped"
        );
        drop(h);
        m.check_invariants().unwrap();
    }

    #[test]
    fn reorder_to_applies_and_reverses_a_permutation() {
        let n = 6u32;
        let mut rng = XorShift(0x0123_4567);
        let mut m = BddManager::new(n);
        let roots: Vec<Bdd> = (0..3).map(|_| random_fn(&mut m, n, &mut rng)).collect();
        let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f, n)).collect();
        let target: Vec<u32> = vec![3, 0, 5, 1, 4, 2];
        m.reorder_to(&target, &roots).unwrap();
        assert_eq!(
            m.current_order(),
            target.iter().map(|&v| Var(v)).collect::<Vec<_>>()
        );
        for (&f, want) in roots.iter().zip(tables.iter()) {
            assert_eq!(&truth_table(&m, f, n), want);
        }
        m.check_invariants().unwrap();
        // Back to identity.
        let identity: Vec<u32> = (0..n).collect();
        m.reorder_to(&identity, &roots).unwrap();
        assert!(!m.order_is_permuted());
        for (&f, want) in roots.iter().zip(tables.iter()) {
            assert_eq!(&truth_table(&m, f, n), want);
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn reorder_to_rejects_non_permutations() {
        let mut m = BddManager::new(3);
        assert!(m.reorder_to(&[0, 0, 1], &[]).is_err());
        assert!(m.reorder_to(&[0, 1], &[]).is_err());
        assert!(m.reorder_to(&[0, 1, 3], &[]).is_err());
        assert!(m.reorder_to(&[2, 1, 0], &[]).is_ok());
    }

    #[test]
    fn api_boundary_maps_follow_the_order() {
        let n = 4u32;
        let mut m = BddManager::new(n);
        let a = m.var(Var(0));
        let b = m.var(Var(3));
        let f = m.and(a, b).unwrap();
        m.reorder_to(&[3, 2, 1, 0], &[f]).unwrap();
        // top_var reports the semantic variable at the (reversed) top.
        assert_eq!(m.top_var(f), Var(3));
        assert_eq!(m.var_to_level(Var(3)), 0);
        // support / eval / cofactor stay variable-indexed.
        let sup = m.support(f);
        assert!(sup.contains(Var(0)) && sup.contains(Var(3)));
        assert!(m.eval(f, &[true, false, false, true]));
        assert!(!m.eval(f, &[true, false, false, false]));
        let f3 = m.cofactor(f, Var(3), true).unwrap();
        assert_eq!(f3, a);
        // Cubes still come back indexed by variable.
        let cube = m.cube_from_vars(&[Var(0), Var(3)]).unwrap();
        assert_eq!(m.cube_vars(cube), vec![Var(3), Var(0)]);
        let ex = m.exists(f, cube).unwrap();
        assert!(ex.is_true());
        m.check_invariants().unwrap();
    }

    #[test]
    fn export_import_roundtrips_across_a_permuted_order() {
        let n = 5u32;
        let mut rng = XorShift(0xD1CE_D00D);
        let mut m = BddManager::new(n);
        let f = random_fn(&mut m, n, &mut rng);
        let table = truth_table(&m, f, n);
        m.reorder_to(&[4, 2, 0, 3, 1], &[f]).unwrap();
        let dag = m.export_dag(&[f]);
        // Importing into a fresh manager under the same level map must
        // reproduce the function once the level map is re-applied.
        let mut m2 = BddManager::new(n);
        m2.reorder_to(&[4, 2, 0, 3, 1], &[]).unwrap();
        let back = m2.import_dag(&dag).unwrap();
        assert_eq!(truth_table(&m2, back[0], n), table);
        m2.check_invariants().unwrap();
    }

    /// Random roots over `n` vars: a few random functions plus one
    /// conjunction of pairs over a shuffled pairing, so that the order
    /// matters and sifting has real work to do.
    fn random_roots(m: &mut BddManager, n: u32, rng: &mut XorShift) -> Vec<Bdd> {
        let mut roots: Vec<Bdd> = (0..1 + rng.next() % 3)
            .map(|_| random_fn(m, n, rng))
            .collect();
        let mut vars: Vec<u32> = (0..n).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let mut f = Bdd::FALSE;
        for pair in vars.chunks(2) {
            let mut t = Bdd::TRUE;
            for &v in pair {
                let lit = m.var(Var(v));
                t = m.and(t, lit).unwrap();
            }
            f = m.or(f, t).unwrap();
        }
        roots.push(f);
        // A random truth table over five of the variables: wide levels
        // whose populations move a lot as a variable passes them.
        let tt = rng.next();
        let mut g = Bdd::FALSE;
        for row in 0..32u32 {
            if tt & (1 << row) == 0 {
                continue;
            }
            let mut cube = Bdd::TRUE;
            for (b, &v) in vars.iter().take(5).enumerate() {
                let lit = if row & (1 << b) != 0 {
                    m.var(Var(v))
                } else {
                    m.nvar(Var(v))
                };
                cube = m.and(cube, lit).unwrap();
            }
            g = m.or(g, cube).unwrap();
        }
        roots.push(g);
        roots
    }

    /// Asserts every level's slot array is within 8× its population plus
    /// the minimum allocation.
    fn assert_tables_tight(m: &BddManager, ctx: &str) {
        for lvl in 0..m.num_vars() {
            let (slots, pop) = (m.unique.level_slots(lvl), m.unique.level_len(lvl));
            assert!(
                slots <= 8 * pop + crate::unique::MIN_SLOTS,
                "{ctx}: level {lvl} holds {pop} entries in {slots} slots"
            );
        }
    }

    #[test]
    fn swap_frees_before_allocating_and_leaves_no_garbage() {
        let n = 8u32;
        let mut rng = XorShift(0x5A1F_0017);
        let mut grew = 0;
        for case in 0..20 {
            let mut m = BddManager::new(n);
            let roots = random_roots(&mut m, n, &mut rng);
            let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f, n)).collect();
            m.collect_garbage(&roots);
            let mut st = SiftState::new(&m, &roots);
            for step in 0..40 {
                let x = (rng.next() % u64::from(n - 1)) as u32;
                m.reset_peak_nodes();
                let before = m.allocated();
                m.swap_levels(x, &mut st);
                let after = m.allocated();
                grew += usize::from(after > before);
                assert!(
                    m.peak_nodes() <= before.max(after),
                    "case {case} step {step}: peak {} over {before} -> {after}",
                    m.peak_nodes()
                );
                let gc = m.collect_garbage(&roots);
                assert_eq!(
                    gc.collected, 0,
                    "case {case} step {step}: swap left garbage"
                );
                assert_tables_tight(&m, &format!("case {case} step {step}"));
            }
            m.clear_cache();
            for (&f, want) in roots.iter().zip(tables.iter()) {
                assert_eq!(&truth_table(&m, f, n), want, "case {case}");
            }
            m.check_invariants().unwrap();
        }
        assert!(grew > 0, "some swap must grow the graph");
    }

    /// Live size and level populations of a fixed set of functions under
    /// any order, measured without the swap kernel: the roots are
    /// exported and imported into a fresh manager (its variable `i` is the
    /// source's level `i`), then rebuilt by `ite` into a fresh identity
    /// order manager whose variable `l` stands for the candidate order's
    /// level `l`.
    struct Reference {
        src: BddManager,
        roots: Vec<Bdd>,
        /// The source's level→variable map at export.
        level2var: Vec<u32>,
    }

    impl Reference {
        fn new(m: &BddManager, roots: &[Bdd]) -> Self {
            let dag = m.export_dag(roots);
            let mut src = BddManager::new(m.num_vars());
            let roots = src.import_dag(&dag).unwrap();
            Reference {
                src,
                roots,
                level2var: m.level2var.clone(),
            }
        }

        /// `(allocated, population per level)` under `order` (level→var).
        fn measure(&self, order: &[u32]) -> (usize, Vec<usize>) {
            let n = order.len() as u32;
            let mut level_of = vec![0u32; order.len()];
            for (lvl, &v) in order.iter().enumerate() {
                level_of[v as usize] = lvl as u32;
            }
            let map: Vec<Var> = self
                .level2var
                .iter()
                .map(|&v| Var(level_of[v as usize]))
                .collect();
            let mut dst = BddManager::new(n);
            let roots: Vec<Bdd> = self
                .roots
                .iter()
                .map(|&r| dst.transfer_from(&self.src, r, &map).unwrap())
                .collect();
            dst.collect_garbage(&roots);
            let pops = (0..n).map(|lvl| dst.unique.level_len(lvl)).collect();
            (dst.allocated(), pops)
        }

        /// Rudell's pass as [`BddManager::sift`] specifies it — same visit
        /// order, growth limit and strict `<` — over sizes
        /// from [`Self::measure`]. Returns the final order, its size and
        /// the swaps the pass makes.
        fn sift(&self, start: &[u32], cfg: &SiftConfig) -> (Vec<u32>, usize, u64) {
            let n = start.len() as u32;
            let mut order = start.to_vec();
            let mut swaps = 0u64;
            let mut passes = 0;
            loop {
                passes += 1;
                let (pass_start, pops) = self.measure(&order);
                let mut visit: Vec<u32> = (0..n).collect();
                let level_pop = |v: u32| pops[order.iter().position(|&u| u == v).unwrap()];
                visit.sort_by_key(|&v| Reverse(level_pop(v)));
                for v in visit {
                    let start = order.iter().position(|&u| u == v).unwrap() as u32;
                    let moved = |to: u32| {
                        let mut o = order.clone();
                        o.remove(start as usize);
                        o.insert(to as usize, v);
                        o
                    };
                    let mut best = self.measure(&order).0;
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let limit = ((best as f64) * cfg.max_growth.max(1.0)) as usize + 2;
                    let (mut best_level, mut cur) = (start, start);
                    let down_first = u64::from(start) * 2 >= u64::from(n - 1);
                    for phase in 0..2 {
                        let down = down_first == (phase == 0);
                        while if down { cur + 1 < n } else { cur > 0 } {
                            cur = if down { cur + 1 } else { cur - 1 };
                            swaps += 1;
                            let size = self.measure(&moved(cur)).0;
                            if size < best {
                                best = size;
                                best_level = cur;
                            }
                            if size > limit {
                                break;
                            }
                        }
                    }
                    swaps += u64::from(cur.abs_diff(best_level));
                    order = moved(best_level);
                }
                let pass_end = self.measure(&order).0;
                if !cfg.converge || pass_end >= pass_start || passes >= 8 {
                    return (order, pass_end, swaps);
                }
            }
        }
    }

    #[test]
    fn sift_matches_the_reference_sifter() {
        let n = 8u32;
        let mut rng = XorShift(0x0AC1_E5EE);
        let mut moved = 0;
        for case in 0..24 {
            let mut m = BddManager::new(n);
            let roots = random_roots(&mut m, n, &mut rng);
            let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f, n)).collect();
            m.collect_garbage(&roots);
            let cfg = SiftConfig {
                max_growth: [1.0, 1.2, 2.0][case % 3],
                converge: case % 2 == 1,
            };
            let reference = Reference::new(&m, &roots);
            let start = m.level2var.clone();
            assert_eq!(reference.measure(&start).0, m.allocated(), "case {case}");
            let (order, after, swaps) = reference.sift(&start, &cfg);
            let stats = m.sift(&roots, &cfg);
            assert_eq!(m.level2var, order, "case {case}: final order");
            assert_eq!(stats.after, after, "case {case}: final size");
            assert_eq!(stats.swaps, swaps, "case {case}: swaps");
            moved += usize::from(order != start);
            m.clear_cache();
            for (&f, want) in roots.iter().zip(tables.iter()) {
                assert_eq!(&truth_table(&m, f, n), want, "case {case}");
            }
            m.check_invariants().unwrap();
        }
        assert!(moved > 0, "no case changed its order");
    }
}
