//! Hash-consing layer: the unique table, split into per-level subtables.
//!
//! Each variable level owns a flat open-addressed array of
//! `(lo, hi, idx)` entries probed robin-hood style, so `mk`'s hot lookup
//! is one hash plus a short linear scan over 12-byte entries in one or
//! two cache lines — no hash-map buckets, no per-entry allocation. The
//! level never needs to be part of the key, so a whole subtable can
//! change level without rehashing: the dynamic-reordering swap kernel
//! ([`UniqueTable::swap_levels`]) exchanges two adjacent levels'
//! subtables in O(1), walks them in place ([`UniqueTable::level_entries`])
//! and rehashes only the nodes it actually rewrites.
//!
//! Robin-hood probing keeps the *variance* of probe lengths small by
//! letting an inserting entry displace any resident whose own probe
//! distance is shorter; deletion does the inverse **backward shift** —
//! successors that are out of place slide one slot toward home — so the
//! table needs no tombstones and garbage collection's many `remove`
//! calls leave no residue to skip over. After a sweep the manager calls
//! [`UniqueTable::compact`], and after every adjacent swap
//! [`UniqueTable::compact_level`] on the two touched levels; both shrink
//! a level whose occupancy fell below 1/8, so a level's slot array stays
//! within 8× its population (plus the minimum allocation) and a walk
//! over it costs O(population).
//!
//! The table stores *node indices*; canonicality of edges (no
//! complemented `hi`) is the caller's invariant, enforced in
//! `BddManager::mk`.

/// Multiplicative mixing constant (64-bit golden ratio), shared with the
/// [`crate::hash`] module's Fx-style hasher.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Sentinel `idx` marking an empty slot (node indices are 31-bit, so no
/// real node can collide with it).
const EMPTY: u32 = u32::MAX;

/// Slots allocated when a level receives its first entry.
pub(crate) const MIN_SLOTS: usize = 8;

/// One stored node: the `(lo, hi)` edge pair and the arena slot holding
/// the canonical node for it.
#[derive(Clone, Copy, Debug)]
struct Entry {
    lo: u32,
    hi: u32,
    idx: u32,
}

const EMPTY_ENTRY: Entry = Entry {
    lo: 0,
    hi: 0,
    idx: EMPTY,
};

/// Mixes an edge pair into a slot hash (the high bits are the well-mixed
/// ones; slot selection shifts from the top).
#[inline]
fn mix(lo: u32, hi: u32) -> u64 {
    let h = u64::from(lo).wrapping_mul(SEED);
    (h.rotate_left(5) ^ u64::from(hi)).wrapping_mul(SEED)
}

/// One level's open-addressed subtable.
#[derive(Debug, Default)]
struct LevelTable {
    entries: Vec<Entry>,
    /// `log2(entries.len())`, cached for top-bit slot selection.
    shift: u32,
    /// Live entries.
    len: usize,
}

impl LevelTable {
    #[inline]
    fn slot_of(&self, lo: u32, hi: u32) -> usize {
        (mix(lo, hi) >> (64 - self.shift)) as usize
    }

    /// Probe distance of the entry at `pos` from its home slot.
    #[inline]
    fn displacement(&self, pos: usize) -> usize {
        let e = self.entries[pos];
        let mask = self.entries.len() - 1;
        pos.wrapping_sub(self.slot_of(e.lo, e.hi)) & mask
    }

    #[inline]
    fn get(&self, lo: u32, hi: u32) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let home = self.slot_of(lo, hi);
        // Unrolled first probe: at distance 0 the robin-hood early exit
        // can never trigger (no displacement is < 0), so the common
        // direct-hit case costs one load and two compares — no rehash of
        // the resident entry.
        let e = self.entries[home];
        if e.idx == EMPTY {
            return None;
        }
        if e.lo == lo && e.hi == hi {
            return Some(e.idx);
        }
        let mut pos = (home + 1) & mask;
        let mut dist = 1usize;
        loop {
            let e = self.entries[pos];
            if e.idx == EMPTY {
                return None;
            }
            if e.lo == lo && e.hi == hi {
                return Some(e.idx);
            }
            // Robin-hood invariant: once we've probed further than the
            // resident entry had to, our key cannot be further along.
            if self.displacement(pos) < dist {
                return None;
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
    }

    /// Whether one more entry would push the load past 7/8.
    #[inline]
    fn needs_growth(&self) -> bool {
        self.entries.is_empty() || self.len * 8 >= self.entries.len() * 7
    }

    fn insert(&mut self, lo: u32, hi: u32, idx: u32) {
        if self.needs_growth() {
            self.grow();
        }
        let home = self.slot_of(lo, hi);
        self.place(Entry { lo, hi, idx }, home, 0);
    }

    /// Returns the node stored for `(lo, hi)`, or stores `make()` for it
    /// and returns that, in one robin-hood probe; the flag says whether
    /// `make` ran.
    fn find_or_insert(&mut self, lo: u32, hi: u32, make: impl FnOnce() -> u32) -> (u32, bool) {
        if self.needs_growth() {
            self.grow();
        }
        let mask = self.entries.len() - 1;
        let mut pos = self.slot_of(lo, hi);
        let mut dist = 0usize;
        loop {
            let e = self.entries[pos];
            if e.idx != EMPTY && e.lo == lo && e.hi == hi {
                return (e.idx, false);
            }
            if e.idx == EMPTY || self.displacement(pos) < dist {
                // Absent (see `get`): this slot is where it belongs.
                let idx = make();
                self.place(Entry { lo, hi, idx }, pos, dist);
                return (idx, true);
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
    }

    /// Robin-hood placement of `cur`, which sits `dist` slots from home
    /// when probing reaches `pos`.
    #[inline]
    fn place(&mut self, mut cur: Entry, mut pos: usize, mut dist: usize) {
        let mask = self.entries.len() - 1;
        loop {
            let e = self.entries[pos];
            if e.idx == EMPTY {
                self.entries[pos] = cur;
                self.len += 1;
                return;
            }
            debug_assert!(
                !(e.lo == cur.lo && e.hi == cur.hi),
                "duplicate unique-table insert"
            );
            // Rob the rich: swap with a resident closer to its home.
            let home = self.displacement(pos);
            if home < dist {
                self.entries[pos] = cur;
                cur = e;
                dist = home;
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
    }

    fn remove(&mut self, lo: u32, hi: u32) {
        if self.entries.is_empty() {
            return;
        }
        let mask = self.entries.len() - 1;
        let mut pos = self.slot_of(lo, hi);
        let mut dist = 0usize;
        loop {
            let e = self.entries[pos];
            if e.idx == EMPTY {
                return;
            }
            if e.lo == lo && e.hi == hi {
                break;
            }
            if self.displacement(pos) < dist {
                return; // absent (see `get`)
            }
            pos = (pos + 1) & mask;
            dist += 1;
        }
        // Backward shift: slide displaced successors one slot toward
        // home until a hole or a perfectly-placed entry ends the run.
        self.len -= 1;
        loop {
            let next = (pos + 1) & mask;
            let e = self.entries[next];
            if e.idx == EMPTY || self.displacement(next) == 0 {
                self.entries[pos] = EMPTY_ENTRY;
                return;
            }
            self.entries[pos] = e;
            pos = next;
        }
    }

    /// Doubles the slot array (or allocates the first one) and rehashes.
    fn grow(&mut self) {
        let new_len = (self.entries.len() * 2).max(MIN_SLOTS);
        self.rebuild(new_len);
    }

    /// Shrinks the slot array after mass deletion (GC sweeps, adjacent
    /// swaps) once the occupancy drops below 1/8, keeping headroom for
    /// reinsertion.
    fn compact(&mut self) {
        if self.entries.len() > MIN_SLOTS && self.len * 8 < self.entries.len() {
            let target = (self.len * 2).next_power_of_two().max(MIN_SLOTS);
            if target < self.entries.len() {
                self.rebuild(target);
            }
        }
    }

    fn rebuild(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two() && new_len > self.len);
        let old = std::mem::replace(&mut self.entries, vec![EMPTY_ENTRY; new_len]);
        self.shift = new_len.trailing_zeros();
        self.len = 0;
        for e in old {
            if e.idx != EMPTY {
                self.insert(e.lo, e.hi, e.idx);
            }
        }
    }
}

/// Per-level unique subtables mapping `(lo_edge, hi_edge)` → node index.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    levels: Vec<LevelTable>,
}

impl UniqueTable {
    /// Creates an empty table with one subtable per variable level
    /// (each level's slot array is allocated on first insert).
    pub fn new(num_vars: u32) -> Self {
        UniqueTable {
            levels: (0..num_vars).map(|_| LevelTable::default()).collect(),
        }
    }

    /// Looks up the node `(var, lo, hi)`.
    #[inline]
    pub fn get(&self, var: u32, lo: u32, hi: u32) -> Option<u32> {
        self.levels[var as usize].get(lo, hi)
    }

    /// Records `(var, lo, hi)` as canonically stored at `idx`.
    #[inline]
    pub fn insert(&mut self, var: u32, lo: u32, hi: u32, idx: u32) {
        self.levels[var as usize].insert(lo, hi, idx);
    }

    /// Forgets the node `(var, lo, hi)` (freed by garbage collection).
    #[inline]
    pub fn remove(&mut self, var: u32, lo: u32, hi: u32) {
        self.levels[var as usize].remove(lo, hi);
    }

    /// Looks up `(var, lo, hi)` and, if absent, stores `make()` for it —
    /// one probe either way. Returns the node index and whether `make`
    /// ran.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        var: u32,
        lo: u32,
        hi: u32,
        make: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        self.levels[var as usize].find_or_insert(lo, hi, make)
    }

    /// Exchanges the subtables of levels `a` and `b` in O(1). Entries keep
    /// their `(lo, hi)` keys, so the swap kernel moves a level's nodes to
    /// the other level without rehashing them.
    pub fn swap_levels(&mut self, a: u32, b: u32) {
        self.levels.swap(a as usize, b as usize);
    }

    /// Every entry at one level as `(lo, hi, idx)`, in slot order.
    pub fn level_entries(&self, var: u32) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.levels[var as usize]
            .entries
            .iter()
            .filter(|e| e.idx != EMPTY)
            .map(|e| (e.lo, e.hi, e.idx))
    }

    /// Live entries at one level (diagnostics and sift sizing).
    pub fn level_len(&self, var: u32) -> usize {
        self.levels[var as usize].len
    }

    /// Shrinks levels whose occupancy collapsed (called by the manager
    /// after every garbage-collection sweep).
    pub fn compact(&mut self) {
        for level in &mut self.levels {
            level.compact();
        }
    }

    /// Shrinks one level if its occupancy collapsed (called by the swap
    /// kernel on the two levels it touched).
    pub fn compact_level(&mut self, var: u32) {
        self.levels[var as usize].compact();
    }

    /// Slots in one level's array (the swap-kernel tests bound it).
    #[cfg(test)]
    pub fn level_slots(&self, var: u32) -> usize {
        self.levels[var as usize].entries.len()
    }

    /// Total entries across all levels (diagnostics only).
    pub fn len(&self) -> usize {
        self.levels.iter().map(|t| t.len).sum()
    }

    /// Resident bytes across all levels' slot arrays (diagnostics only).
    pub fn bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|t| t.entries.len() * std::mem::size_of::<Entry>())
            .sum()
    }

    /// Occupancy summary across all levels (diagnostics only).
    pub fn stats(&self) -> crate::manager::UniqueTableStats {
        let mut slots = 0usize;
        let mut occupied_levels = 0usize;
        for level in &self.levels {
            slots += level.entries.len();
            if level.len > 0 {
                occupied_levels += 1;
            }
        }
        crate::manager::UniqueTableStats {
            entries: self.len(),
            slots,
            bytes: self.bytes(),
            levels: self.levels.len(),
            occupied_levels,
        }
    }

    /// Iterates every entry as `(var, lo, hi, idx)` (diagnostics only).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u32, u32)> + '_ {
        (0..self.levels.len() as u32).flat_map(move |var| {
            self.level_entries(var)
                .map(move |(lo, hi, idx)| (var, lo, hi, idx))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut u = UniqueTable::new(3);
        assert_eq!(u.get(1, 2, 4), None);
        u.insert(1, 2, 4, 7);
        assert_eq!(u.get(1, 2, 4), Some(7));
        // Same (lo, hi) pair at another level is a distinct node.
        assert_eq!(u.get(2, 2, 4), None);
        u.insert(2, 2, 4, 9);
        assert_eq!(u.len(), 2);
        u.remove(1, 2, 4);
        assert_eq!(u.get(1, 2, 4), None);
        assert_eq!(u.get(2, 2, 4), Some(9));
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut u = UniqueTable::new(1);
        let n = 10_000u32;
        for i in 0..n {
            u.insert(0, i * 2, i * 2 + 1024, i + 1);
        }
        assert_eq!(u.len(), n as usize);
        for i in 0..n {
            assert_eq!(u.get(0, i * 2, i * 2 + 1024), Some(i + 1), "entry {i}");
        }
    }

    #[test]
    fn backward_shift_deletion_keeps_probe_chains_intact() {
        // Insert colliding-ish keys, delete every other one, and verify
        // the survivors are all still reachable (no tombstone residue,
        // no broken chains).
        let mut u = UniqueTable::new(1);
        let n = 4_096u32;
        for i in 0..n {
            u.insert(0, i, i.wrapping_mul(0x9e37), i + 1);
        }
        for i in (0..n).step_by(2) {
            u.remove(0, i, i.wrapping_mul(0x9e37));
        }
        assert_eq!(u.len(), n as usize / 2);
        for i in 0..n {
            let expect = if i % 2 == 0 { None } else { Some(i + 1) };
            assert_eq!(u.get(0, i, i.wrapping_mul(0x9e37)), expect, "entry {i}");
        }
    }

    #[test]
    fn remove_of_absent_key_is_a_no_op() {
        let mut u = UniqueTable::new(2);
        u.remove(0, 1, 2); // empty level
        u.insert(0, 1, 2, 5);
        u.remove(0, 9, 9); // occupied level, absent key
        assert_eq!(u.get(0, 1, 2), Some(5));
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn compact_shrinks_after_mass_deletion() {
        let mut u = UniqueTable::new(1);
        let n = 8_192u32;
        for i in 0..n {
            u.insert(0, i, i + n, i + 1);
        }
        let peak_bytes = u.bytes();
        for i in 16..n {
            u.remove(0, i, i + n);
        }
        u.compact();
        assert!(u.bytes() < peak_bytes / 4, "compaction must shrink");
        for i in 0..16 {
            assert_eq!(u.get(0, i, i + n), Some(i + 1), "survivor {i}");
        }
        assert_eq!(u.iter().count(), 16);
    }

    #[test]
    fn iter_enumerates_live_entries_only() {
        let mut u = UniqueTable::new(2);
        u.insert(0, 1, 2, 3);
        u.insert(1, 4, 6, 5);
        u.insert(1, 8, 10, 7);
        u.remove(1, 4, 6);
        let mut got: Vec<_> = u.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1, 2, 3), (1, 8, 10, 7)]);
    }

    #[test]
    fn find_or_insert_agrees_with_get_then_insert() {
        let mut u = UniqueTable::new(1);
        let mut next = 1u32;
        // Keys drawn from a small range so many lookups hit.
        let mut x = 0x9E37_79B9u32;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let (lo, hi) = (x % 300, (x >> 9) % 300 + 1000);
            let expect = u.get(0, lo, hi);
            let (idx, made) = u.find_or_insert(0, lo, hi, || {
                next += 1;
                next
            });
            assert_eq!(made, expect.is_none());
            assert_eq!(idx, expect.unwrap_or(next));
            assert_eq!(u.get(0, lo, hi), Some(idx));
        }
        assert_eq!(u.len(), u.iter().count());
    }

    #[test]
    fn swapped_levels_keep_their_keys() {
        let mut u = UniqueTable::new(2);
        for i in 0..100u32 {
            u.insert(0, i, i + 500, i + 1);
        }
        u.insert(1, 7, 9, 1000);
        u.swap_levels(0, 1);
        assert_eq!(u.level_len(1), 100);
        assert_eq!(u.level_len(0), 1);
        assert_eq!(u.get(1, 42, 542), Some(43));
        assert_eq!(u.get(0, 7, 9), Some(1000));
        for i in 10..100u32 {
            u.remove(1, i, i + 500);
        }
        u.compact_level(1);
        assert!(u.level_slots(1) <= 8 * u.level_len(1) + MIN_SLOTS);
        let mut got: Vec<_> = u.level_entries(1).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..10).map(|i| (i, i + 500, i + 1)).collect::<Vec<_>>()
        );
    }
}
