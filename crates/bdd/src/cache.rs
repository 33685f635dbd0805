//! Memoization layer: one computed cache per operation.
//!
//! Each operation owns a CUDD-style *lossy direct-mapped* computed table:
//! a power-of-two array of `(key, result)` entries where a colliding
//! insert simply overwrites the previous occupant. Losing an entry only
//! costs a recomputation — never a wrong result, because lookups compare
//! the full key. This buys three things over the hash maps the previous
//! layer used:
//!
//! * a lookup is one hash, one slot load (a single cache line) and one
//!   compare — no bucket walk, no tombstones, no `Entry` machinery;
//! * residency is bounded by the slot count, so the cache can never pin
//!   unbounded memory behind the manager's back (and
//!   [`crate::BddManager::cache_stats`] reports the resident bytes);
//! * `clear` is an O(1) generation bump — every slot is stamped with the
//!   generation that wrote it, and a stale stamp reads as empty — so the
//!   garbage collector's cache flush costs nothing per entry.
//!
//! Tables start tiny and double as distinct entries accumulate, up to the
//! per-cache slot limit; growth rehashes the live entries so a hot cache
//! is not cold after a resize. Keys are raw edge words — a function and
//! its complement hash to different keys, which is exactly right because
//! their results differ.

use crate::node::Bdd;

/// Multiplicative mixing constant (64-bit golden ratio), shared with the
/// [`crate::hash`] module's Fx-style hasher.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Smallest slot allocation once a cache is first written.
const MIN_SLOTS: usize = 1 << 8;

/// Default maximum slots per operation cache (see
/// [`crate::BddManager::set_cache_limit`]).
pub(crate) const DEFAULT_CACHE_LIMIT: usize = 1 << 22;

/// One direct-mapped slot: the three key words, the memoized result and
/// the generation stamp that says which `clear` epoch wrote it.
#[derive(Clone, Copy, Debug)]
struct Slot {
    a: u32,
    b: u32,
    c: u32,
    result: u32,
    stamp: u32,
}

const EMPTY_SLOT: Slot = Slot {
    a: 0,
    b: 0,
    c: 0,
    result: 0,
    stamp: 0,
};

/// Mixes a key triple into a slot hash (Fx multiply-rotate over the three
/// words; the *high* bits of the product are the well-mixed ones, so slot
/// selection shifts from the top).
#[inline]
fn mix(a: u32, b: u32, c: u32) -> u64 {
    let mut h = u64::from(a).wrapping_mul(SEED);
    h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
    (h.rotate_left(5) ^ u64::from(c)).wrapping_mul(SEED)
}

/// Per-operation cache counters, as reported by
/// [`crate::BddManager::cache_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Operation name (`"ite"`, `"exists"`, …).
    pub name: &'static str,
    /// Lookups since the manager was created (survives cache clears).
    pub lookups: u64,
    /// Hits since the manager was created.
    pub hits: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Allocated slots (power of two; zero until the first insert).
    pub capacity: usize,
    /// Resident bytes behind this cache's slot array.
    pub bytes: usize,
}

/// One operation's lossy direct-mapped memo table plus lifetime counters.
#[derive(Debug, Default)]
pub(crate) struct OpCache {
    slots: Vec<Slot>,
    /// `log2(slots.len())`, cached for top-bit slot selection.
    shift: u32,
    /// The current generation; a slot is live iff `stamp == generation`.
    /// Starts at 1 so zeroed slots read as empty.
    generation: u32,
    /// Distinct entries written this generation (drives growth).
    live: usize,
    lookups: u64,
    hits: u64,
}

impl OpCache {
    #[inline]
    fn slot_of(&self, a: u32, b: u32, c: u32) -> usize {
        (mix(a, b, c) >> (64 - self.shift)) as usize
    }

    #[inline]
    pub fn get(&mut self, key: (u32, u32, u32)) -> Option<Bdd> {
        self.lookups += 1;
        if self.slots.is_empty() {
            return None;
        }
        let s = self.slots[self.slot_of(key.0, key.1, key.2)];
        if s.stamp == self.generation && (s.a, s.b, s.c) == key {
            self.hits += 1;
            Some(Bdd(s.result))
        } else {
            None
        }
    }

    /// Inserts, overwriting whatever occupied the slot (direct-mapped
    /// collision policy: the newest computation wins). The table doubles —
    /// rehashing its live entries — once resident entries pass 3/4 of the
    /// slots, until `limit` slots.
    #[inline]
    pub fn put(&mut self, key: (u32, u32, u32), val: Bdd, limit: usize) {
        if self.slots.is_empty() || (self.live * 4 >= self.slots.len() * 3 && !self.at_cap(limit)) {
            self.grow(limit);
        }
        let i = self.slot_of(key.0, key.1, key.2);
        let s = &mut self.slots[i];
        if s.stamp != self.generation {
            self.live += 1;
        }
        *s = Slot {
            a: key.0,
            b: key.1,
            c: key.2,
            result: val.0,
            stamp: self.generation,
        };
    }

    fn at_cap(&self, limit: usize) -> bool {
        self.slots.len() >= limit.next_power_of_two().max(MIN_SLOTS)
    }

    /// Doubles the slot array (or allocates the first one) and rehashes
    /// the current generation's entries into it.
    fn grow(&mut self, limit: usize) {
        let cap = limit.next_power_of_two().max(MIN_SLOTS);
        let new_len = if self.slots.is_empty() {
            MIN_SLOTS.min(cap)
        } else {
            (self.slots.len() * 2).min(cap)
        };
        if new_len <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_len]);
        let generation = self.generation.max(1);
        self.generation = generation;
        self.shift = new_len.trailing_zeros();
        self.live = 0;
        for s in old {
            if s.stamp == generation {
                let i = self.slot_of(s.a, s.b, s.c);
                if self.slots[i].stamp != generation {
                    self.live += 1;
                }
                self.slots[i] = s;
            }
        }
    }

    /// Shrinks (or re-caps) the slot array when the limit drops below the
    /// current allocation; entries are discarded (it is a cache).
    pub fn apply_limit(&mut self, limit: usize) {
        let cap = limit.next_power_of_two().max(MIN_SLOTS);
        if self.slots.len() > cap {
            self.slots = vec![EMPTY_SLOT; cap];
            self.shift = cap.trailing_zeros();
            self.generation = 1;
            self.live = 0;
        }
    }

    /// Drops all memoized results: an O(1) generation bump (slot storage
    /// is retained; stale stamps read as empty).
    pub fn clear(&mut self) {
        if self.generation == u32::MAX {
            // Stamp wrap: do the one-in-4-billion full wipe.
            self.slots.fill(EMPTY_SLOT);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.live = 0;
    }

    /// Resident entries, for the cache-residue audit: `(key, result)`
    /// pairs where every component is a raw edge word (or a literal 0,
    /// which reads as the always-live terminal edge).
    pub fn entries(&self) -> impl Iterator<Item = ((u32, u32, u32), u32)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.stamp == self.generation && self.generation != 0)
            .map(|s| ((s.a, s.b, s.c), s.result))
    }

    /// Resident bytes behind the slot array.
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    fn stats(&self, name: &'static str) -> CacheStats {
        CacheStats {
            name,
            lookups: self.lookups,
            hits: self.hits,
            entries: self.live,
            capacity: self.slots.len(),
            bytes: self.bytes(),
        }
    }
}

/// The full set of per-operation caches owned by a manager.
#[derive(Debug)]
pub(crate) struct Caches {
    pub ite: OpCache,
    pub exists: OpCache,
    pub and_exists: OpCache,
    pub constrain: OpCache,
    pub restrict: OpCache,
    /// Shannon cofactors `f|v=val`, keyed on `(regular f, literal of v,
    /// val)`. Every key word is a live edge (literal nodes are permanent
    /// roots), so entries persist across calls until a sweep or reorder
    /// flushes them, like every other operation cache.
    pub cofactor: OpCache,
    /// Scoped substitution memo for `vector_compose`: each call opens a
    /// fresh scope with an O(1) `clear`, because memoized results are
    /// valid only for that call's map.
    pub subst: OpCache,
    /// Per-cache slot cap (rounded up to a power of two on use).
    pub limit: usize,
}

impl Caches {
    pub fn new() -> Self {
        Caches {
            ite: OpCache::default(),
            exists: OpCache::default(),
            and_exists: OpCache::default(),
            constrain: OpCache::default(),
            restrict: OpCache::default(),
            cofactor: OpCache::default(),
            subst: OpCache::default(),
            limit: DEFAULT_CACHE_LIMIT,
        }
    }

    fn all_mut(&mut self) -> [&mut OpCache; 7] {
        [
            &mut self.ite,
            &mut self.exists,
            &mut self.and_exists,
            &mut self.constrain,
            &mut self.restrict,
            &mut self.cofactor,
            &mut self.subst,
        ]
    }

    /// Drops all memoized results (counters survive; O(1) per cache).
    pub fn clear_all(&mut self) {
        for c in self.all_mut() {
            c.clear();
        }
    }

    /// Installs a new per-cache slot cap, shrinking any cache already
    /// over it.
    pub fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
        for c in self.all_mut() {
            c.apply_limit(limit);
        }
    }

    /// Lifetime totals across all operations: `(lookups, hits)`.
    pub fn totals(&self) -> (u64, u64) {
        let all = self.named();
        let lookups = all.iter().map(|(_, c)| c.lookups).sum();
        let hits = all.iter().map(|(_, c)| c.hits).sum();
        (lookups, hits)
    }

    /// Resident bytes across all operation caches' slot arrays.
    pub fn bytes(&self) -> usize {
        self.named().iter().map(|(_, c)| c.bytes()).sum()
    }

    /// All caches with their operation names: the one list that
    /// [`Self::totals`], [`Self::bytes`], [`Self::stats`] and the
    /// cache-residue audit read.
    pub fn named(&self) -> [(&'static str, &OpCache); 7] {
        [
            ("ite", &self.ite),
            ("exists", &self.exists),
            ("and_exists", &self.and_exists),
            ("constrain", &self.constrain),
            ("restrict", &self.restrict),
            ("cofactor", &self.cofactor),
            ("subst", &self.subst),
        ]
    }

    /// Per-operation counter snapshot.
    pub fn stats(&self) -> Vec<CacheStats> {
        self.named().iter().map(|(n, c)| c.stats(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_and_counters() {
        let mut c = OpCache::default();
        assert_eq!(c.get((1, 2, 3)), None);
        c.put((1, 2, 3), Bdd(8), 16);
        assert_eq!(c.get((1, 2, 3)), Some(Bdd(8)));
        let s = c.stats("t");
        assert_eq!((s.lookups, s.hits, s.entries), (2, 1, 1));
        assert!(s.capacity >= MIN_SLOTS);
        assert_eq!(s.bytes, s.capacity * std::mem::size_of::<Slot>());
    }

    #[test]
    fn clear_is_a_generation_bump_that_keeps_counters() {
        let mut c = OpCache::default();
        c.put((1, 0, 0), Bdd(2), 16);
        c.put((2, 0, 0), Bdd(4), 16);
        let cap = c.stats("t").capacity;
        c.clear();
        assert_eq!(c.get((1, 0, 0)), None);
        assert_eq!(c.get((2, 0, 0)), None);
        let s = c.stats("t");
        assert_eq!(s.entries, 0);
        assert_eq!(s.capacity, cap, "clear must not deallocate");
        assert_eq!(s.lookups, 2, "clearing keeps counters");
        assert_eq!(c.entries().count(), 0, "stale stamps are not resident");
        // The cleared table is immediately usable again.
        c.put((1, 0, 0), Bdd(6), 16);
        assert_eq!(c.get((1, 0, 0)), Some(Bdd(6)));
    }

    #[test]
    fn collision_overwrites_never_serve_a_wrong_result() {
        // Direct-mapped with a minimum-size table: by pigeonhole, some of
        // these keys collide. Whatever happens, a lookup must return
        // either the exact value stored for that key or a miss.
        let mut c = OpCache::default();
        let n = (MIN_SLOTS * 4) as u32;
        for k in 0..n {
            c.put((k, k ^ 7, 3), Bdd(k << 1), MIN_SLOTS);
        }
        let mut hits = 0;
        for k in 0..n {
            // A miss means the entry was evicted; the caller recomputes.
            if let Some(v) = c.get((k, k ^ 7, 3)) {
                assert_eq!(v, Bdd(k << 1), "evicted entry served a wrong result");
                hits += 1;
            }
        }
        assert!(hits > 0, "a bounded table still retains something");
        assert!(
            c.stats("t").capacity <= MIN_SLOTS,
            "limit caps the slot count"
        );
        assert!(c.stats("t").entries <= MIN_SLOTS);
    }

    #[test]
    fn growth_rehashes_live_entries() {
        let mut c = OpCache::default();
        let n = (MIN_SLOTS * 2) as u32;
        for k in 0..n {
            c.put((k, 1, 2), Bdd(k << 1), DEFAULT_CACHE_LIMIT);
        }
        // Well past MIN_SLOTS: the table must have grown…
        assert!(c.stats("t").capacity > MIN_SLOTS);
        // …and a freshly-inserted spread of keys survives mostly intact
        // (growth rehashes; only genuine collisions are lost).
        let retained = (0..n).filter(|&k| c.get((k, 1, 2)).is_some()).count();
        assert!(retained as u32 > n / 2, "retained only {retained}/{n}");
    }

    #[test]
    fn entries_enumerates_exactly_the_resident_generation() {
        let mut c = OpCache::default();
        c.put((1, 2, 3), Bdd(8), 64);
        c.put((4, 5, 6), Bdd(10), 64);
        let mut got: Vec<_> = c.entries().collect();
        got.sort_unstable();
        assert_eq!(got, vec![((1, 2, 3), 8), ((4, 5, 6), 10)]);
        c.clear();
        c.put((7, 8, 9), Bdd(12), 64);
        let got: Vec<_> = c.entries().collect();
        assert_eq!(got, vec![((7, 8, 9), 12)]);
    }

    #[test]
    fn fresh_cache_has_no_entries_and_no_bytes() {
        let c = OpCache::default();
        assert_eq!(c.entries().count(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats("t").capacity, 0);
    }

    #[test]
    fn apply_limit_shrinks_an_oversized_table() {
        let mut c = OpCache::default();
        for k in 0..(MIN_SLOTS * 4) as u32 {
            c.put((k, 0, 0), Bdd(2), DEFAULT_CACHE_LIMIT);
        }
        assert!(c.stats("t").capacity > MIN_SLOTS);
        c.apply_limit(MIN_SLOTS);
        assert_eq!(c.stats("t").capacity, MIN_SLOTS);
        assert_eq!(c.stats("t").entries, 0, "shrinking drops entries");
        c.put((1, 0, 0), Bdd(2), MIN_SLOTS);
        assert_eq!(c.get((1, 0, 0)), Some(Bdd(2)));
    }

    #[test]
    fn caches_aggregate_totals() {
        let mut cs = Caches::new();
        cs.ite.put((0, 0, 0), Bdd(2), cs.limit);
        let _ = cs.ite.get((0, 0, 0));
        let _ = cs.exists.get((9, 9, 9));
        assert_eq!(cs.totals(), (2, 1));
        assert_eq!(cs.stats().len(), 7);
        assert!(cs.bytes() > 0);
        cs.clear_all();
        assert_eq!(cs.stats()[0].entries, 0);
        assert_eq!(cs.totals(), (2, 1), "clearing keeps counters");
    }

    #[test]
    fn totals_sum_the_per_operation_stats() {
        // Give every cache a distinct lookup count through `all_mut`, so
        // the stats also show `named` lists the same caches.
        let mut cs = Caches::new();
        let limit = cs.limit;
        for (i, c) in cs.all_mut().into_iter().enumerate() {
            c.put((i as u32, 0, 0), Bdd(2), limit);
            for _ in 0..=i {
                let _ = c.get((i as u32, 0, 0));
            }
        }
        let stats = cs.stats();
        let lookups: u64 = stats.iter().map(|s| s.lookups).sum();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert_eq!(cs.totals(), (lookups, hits));
        let mut per_cache: Vec<u64> = stats.iter().map(|s| s.lookups).collect();
        per_cache.sort_unstable();
        let expect: Vec<u64> = (1..=stats.len() as u64).collect();
        assert_eq!(
            per_cache, expect,
            "named() and all_mut() list the same caches"
        );
    }

    #[test]
    fn set_limit_caps_every_cache() {
        let mut cs = Caches::new();
        for k in 0..(MIN_SLOTS * 4) as u32 {
            cs.ite.put((k, 0, 0), Bdd(2), cs.limit);
        }
        cs.set_limit(MIN_SLOTS);
        assert_eq!(cs.limit, MIN_SLOTS);
        assert!(cs.stats()[0].capacity <= MIN_SLOTS);
    }
}
