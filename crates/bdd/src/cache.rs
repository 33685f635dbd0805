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
//!
//! One generic table, [`OpCache<K, R>`], serves every operation: `K` key
//! words and `R` result words per slot. The stock operations use three
//! and one; the §2.3 union step and the fused §2.6 quantification step
//! use five and three. The width-free
//! [`Table`] face lets [`Caches`] flush, cap, count and audit them all
//! as one list.

use crate::node::Bdd;

/// Multiplicative mixing constant (64-bit golden ratio), shared with the
/// [`crate::hash`] module's Fx-style hasher.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Smallest slot allocation once a cache is first written.
const MIN_SLOTS: usize = 1 << 8;

/// Default maximum slots per operation cache (see
/// [`crate::BddManager::set_cache_limit`]).
pub(crate) const DEFAULT_CACHE_LIMIT: usize = 1 << 22;

/// One direct-mapped slot: the `K` key words, the `R` result words and
/// the generation stamp that says which `clear` epoch wrote it.
#[derive(Clone, Copy, Debug)]
struct Slot<const K: usize, const R: usize> {
    key: [u32; K],
    result: [u32; R],
    stamp: u32,
}

impl<const K: usize, const R: usize> Slot<K, R> {
    const EMPTY: Self = Slot {
        key: [0; K],
        result: [0; R],
        stamp: 0,
    };
}

/// Mixes the key words into a slot hash (Fx multiply-rotate over the
/// words; the *high* bits of the product are the well-mixed ones, so slot
/// selection shifts from the top).
#[inline]
fn mix<const K: usize>(key: &[u32; K]) -> u64 {
    let mut h = u64::from(key[0]).wrapping_mul(SEED);
    for &w in &key[1..] {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(SEED);
    }
    h
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

/// One operation's lossy direct-mapped memo table plus lifetime counters,
/// keyed on `K` edge words and memoizing `R` result edges. The stock
/// operations are three-operand, one-result (the default widths); the
/// §2.3 union step and the fused §2.6 quantification step are
/// five-operand, three-result.
#[derive(Debug, Default)]
pub(crate) struct OpCache<const K: usize = 3, const R: usize = 1> {
    slots: Vec<Slot<K, R>>,
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

impl<const K: usize, const R: usize> OpCache<K, R> {
    #[inline]
    fn slot_of(&self, key: &[u32; K]) -> usize {
        (mix(key) >> (64 - self.shift)) as usize
    }

    /// The memoized result words for `key`, if resident.
    #[inline]
    pub fn lookup(&mut self, key: [u32; K]) -> Option<[u32; R]> {
        self.lookups += 1;
        if self.slots.is_empty() {
            return None;
        }
        let s = &self.slots[self.slot_of(&key)];
        if s.stamp == self.generation && s.key == key {
            self.hits += 1;
            Some(s.result)
        } else {
            None
        }
    }

    /// Inserts, overwriting whatever occupied the slot (direct-mapped
    /// collision policy: the newest computation wins). The table doubles —
    /// rehashing its live entries — once resident entries pass 3/4 of the
    /// slots, until `limit` slots.
    #[inline]
    pub fn insert(&mut self, key: [u32; K], result: [u32; R], limit: usize) {
        if self.slots.is_empty() || (self.live * 4 >= self.slots.len() * 3 && !self.at_cap(limit)) {
            self.grow(limit);
        }
        let i = self.slot_of(&key);
        let s = &mut self.slots[i];
        if s.stamp != self.generation {
            self.live += 1;
        }
        *s = Slot {
            key,
            result,
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
        let old = std::mem::replace(&mut self.slots, vec![Slot::EMPTY; new_len]);
        let generation = self.generation.max(1);
        self.generation = generation;
        self.shift = new_len.trailing_zeros();
        self.live = 0;
        for s in old {
            if s.stamp == generation {
                let i = self.slot_of(&s.key);
                if self.slots[i].stamp != generation {
                    self.live += 1;
                }
                self.slots[i] = s;
            }
        }
    }
}

impl OpCache {
    /// [`Self::lookup`] for the stock three-operand, one-result shape.
    #[inline]
    pub fn get(&mut self, key: (u32, u32, u32)) -> Option<Bdd> {
        self.lookup([key.0, key.1, key.2]).map(|[r]| Bdd(r))
    }

    /// [`Self::insert`] for the stock three-operand, one-result shape.
    #[inline]
    pub fn put(&mut self, key: (u32, u32, u32), val: Bdd, limit: usize) {
        self.insert([key.0, key.1, key.2], [val.0], limit);
    }
}

/// The width-independent face of an [`OpCache`]: what flushing, capping,
/// statistics and the cache-residue audit need, so [`Caches`] can list
/// tables of every width together.
pub(crate) trait Table {
    /// Shrinks (or re-caps) the slot array when the limit drops below the
    /// current allocation; entries are discarded (it is a cache).
    fn apply_limit(&mut self, limit: usize);

    /// Drops all memoized results: an O(1) generation bump (slot storage
    /// is retained; stale stamps read as empty).
    fn clear(&mut self);

    /// Resident entries, for the cache-residue audit: `(key, result)`
    /// word slices where every word is a raw edge (or a literal 0, which
    /// reads as the always-live terminal edge).
    fn entries(&self) -> Box<dyn Iterator<Item = (&[u32], &[u32])> + '_>;

    /// Resident bytes behind the slot array.
    fn bytes(&self) -> usize;

    /// Counter snapshot under the operation name `name`.
    fn stats(&self, name: &'static str) -> CacheStats;
}

impl<const K: usize, const R: usize> Table for OpCache<K, R> {
    fn apply_limit(&mut self, limit: usize) {
        let cap = limit.next_power_of_two().max(MIN_SLOTS);
        if self.slots.len() > cap {
            self.slots = vec![Slot::EMPTY; cap];
            self.shift = cap.trailing_zeros();
            self.generation = 1;
            self.live = 0;
        }
    }

    fn clear(&mut self) {
        if self.generation == u32::MAX {
            // Stamp wrap: do the one-in-4-billion full wipe.
            self.slots.fill(Slot::EMPTY);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        self.live = 0;
    }

    fn entries(&self) -> Box<dyn Iterator<Item = (&[u32], &[u32])> + '_> {
        Box::new(
            self.slots
                .iter()
                .filter(|s| s.stamp == self.generation && self.generation != 0)
                .map(|s| (&s.key[..], &s.result[..])),
        )
    }

    fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<K, R>>()
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
    /// The §2.3 union step `(f, g, fˣ, gˣ, v) ↦ (h, fˣ', gˣ')`, keyed on
    /// all five edges with `v` named by its literal edge (or the constant
    /// it has become below its level). Like `cofactor`, it persists
    /// across calls until a sweep or reorder flushes it.
    pub union: OpCache<5, 3>,
    /// The fused §2.6 step `(n, fˣ, gˣ, v, p) ↦ union_step(n|p=0, n|p=1,
    /// fˣ, gˣ, v)`, keyed on `(n, fˣ, gˣ, v)` and the literal edge of the
    /// parameter `p`. Persists across calls like `union`.
    pub quantify: OpCache<5, 3>,
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
            union: OpCache::default(),
            quantify: OpCache::default(),
            limit: DEFAULT_CACHE_LIMIT,
        }
    }

    fn all_mut(&mut self) -> [&mut dyn Table; 9] {
        [
            &mut self.ite,
            &mut self.exists,
            &mut self.and_exists,
            &mut self.constrain,
            &mut self.restrict,
            &mut self.cofactor,
            &mut self.subst,
            &mut self.union,
            &mut self.quantify,
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
        let all = self.stats();
        let lookups = all.iter().map(|c| c.lookups).sum();
        let hits = all.iter().map(|c| c.hits).sum();
        (lookups, hits)
    }

    /// Resident bytes across all operation caches' slot arrays.
    pub fn bytes(&self) -> usize {
        self.named().iter().map(|(_, c)| c.bytes()).sum()
    }

    /// All caches with their operation names: the one list that
    /// [`Self::totals`], [`Self::bytes`], [`Self::stats`] and the
    /// cache-residue audit read.
    pub fn named(&self) -> [(&'static str, &dyn Table); 9] {
        [
            ("ite", &self.ite),
            ("exists", &self.exists),
            ("and_exists", &self.and_exists),
            ("constrain", &self.constrain),
            ("restrict", &self.restrict),
            ("cofactor", &self.cofactor),
            ("subst", &self.subst),
            ("union", &self.union),
            ("quantify", &self.quantify),
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
        let mut c: OpCache = OpCache::default();
        assert_eq!(c.get((1, 2, 3)), None);
        c.put((1, 2, 3), Bdd(8), 16);
        assert_eq!(c.get((1, 2, 3)), Some(Bdd(8)));
        let s = c.stats("t");
        assert_eq!((s.lookups, s.hits, s.entries), (2, 1, 1));
        assert!(s.capacity >= MIN_SLOTS);
        assert_eq!(s.bytes, s.capacity * std::mem::size_of::<Slot<3, 1>>());
    }

    #[test]
    fn clear_is_a_generation_bump_that_keeps_counters() {
        let mut c: OpCache = OpCache::default();
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
        let mut c: OpCache = OpCache::default();
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
        let mut c: OpCache = OpCache::default();
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

    /// Resident entries as owned `(key, result)` word vectors.
    fn resident(c: &dyn Table) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut got: Vec<_> = c.entries().map(|(k, r)| (k.to_vec(), r.to_vec())).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn entries_enumerates_exactly_the_resident_generation() {
        let mut c: OpCache = OpCache::default();
        c.put((1, 2, 3), Bdd(8), 64);
        c.put((4, 5, 6), Bdd(10), 64);
        assert_eq!(
            resident(&c),
            vec![(vec![1, 2, 3], vec![8]), (vec![4, 5, 6], vec![10])]
        );
        c.clear();
        c.put((7, 8, 9), Bdd(12), 64);
        assert_eq!(resident(&c), vec![(vec![7, 8, 9], vec![12])]);
    }

    #[test]
    fn wide_slots_key_on_every_word_and_return_every_result() {
        let mut c: OpCache<5, 3> = OpCache::default();
        c.insert([1, 2, 3, 4, 5], [6, 7, 8], 64);
        assert_eq!(c.lookup([1, 2, 3, 4, 5]), Some([6, 7, 8]));
        // A key differing in any one word is a different entry.
        for i in 0..5 {
            let mut k = [1, 2, 3, 4, 5];
            k[i] ^= 2;
            assert_eq!(c.lookup(k), None, "word {i} is not part of the key");
        }
        assert_eq!(resident(&c), vec![(vec![1, 2, 3, 4, 5], vec![6, 7, 8])]);
        let s = c.stats("t");
        assert_eq!((s.lookups, s.hits, s.entries), (6, 1, 1));
        assert_eq!(s.bytes, s.capacity * std::mem::size_of::<Slot<5, 3>>());
        c.clear();
        assert_eq!(c.lookup([1, 2, 3, 4, 5]), None);
    }

    #[test]
    fn fresh_cache_has_no_entries_and_no_bytes() {
        let c: OpCache = OpCache::default();
        assert_eq!(c.entries().count(), 0);
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats("t").capacity, 0);
    }

    #[test]
    fn apply_limit_shrinks_an_oversized_table() {
        let mut c: OpCache = OpCache::default();
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
        assert_eq!(cs.stats().len(), 9);
        assert!(cs.bytes() > 0);
        cs.clear_all();
        assert_eq!(cs.stats()[0].entries, 0);
        assert_eq!(cs.totals(), (2, 1), "clearing keeps counters");
    }

    #[test]
    fn totals_sum_the_per_operation_stats() {
        // Give every cache a distinct lookup count.
        let mut cs = Caches::new();
        let narrow = [
            &mut cs.ite,
            &mut cs.exists,
            &mut cs.and_exists,
            &mut cs.constrain,
            &mut cs.restrict,
            &mut cs.cofactor,
            &mut cs.subst,
        ];
        for (i, c) in narrow.into_iter().enumerate() {
            c.put((i as u32, 0, 0), Bdd(2), DEFAULT_CACHE_LIMIT);
            for _ in 0..=i {
                let _ = c.get((i as u32, 0, 0));
            }
        }
        for (c, n) in [(&mut cs.union, 8), (&mut cs.quantify, 9)] {
            c.insert([0; 5], [2; 3], DEFAULT_CACHE_LIMIT);
            for _ in 0..n {
                let _ = c.lookup([0; 5]);
            }
        }
        let stats = cs.stats();
        let lookups: u64 = stats.iter().map(|s| s.lookups).sum();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        assert_eq!(cs.totals(), (lookups, hits));
        let mut per_cache: Vec<u64> = stats.iter().map(|s| s.lookups).collect();
        per_cache.sort_unstable();
        let expect: Vec<u64> = (1..=stats.len() as u64).collect();
        assert_eq!(per_cache, expect, "named() lists every cache once");
    }

    #[test]
    fn named_and_all_mut_list_the_same_caches() {
        let mut cs = Caches::new();
        let addr = |c: &dyn Table| std::ptr::from_ref(c).cast::<()>() as usize;
        let mut muts: Vec<usize> = cs.all_mut().into_iter().map(|c| addr(c)).collect();
        let mut named: Vec<usize> = cs.named().into_iter().map(|(_, c)| addr(c)).collect();
        muts.sort_unstable();
        named.sort_unstable();
        assert_eq!(muts, named);
        named.dedup();
        assert_eq!(named.len(), muts.len(), "no cache is listed twice");
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
