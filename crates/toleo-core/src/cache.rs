//! Host-side metadata caches (§4.4, Fig. 5).
//!
//! Stealth versions are cached on the trusted host in two inclusive
//! structures, probed in parallel on every LLC miss:
//!
//! * the **L2-TLB stealth extension** — the last-level TLB's data array is
//!   widened by 12 bytes so every TLB entry carries its page's flat entry
//!   (256 entries, fully associative);
//! * the **stealth version overflow buffer** — a 28 KB, 16-way buffer of
//!   56-byte blocks holding uneven and full side entries (a full entry
//!   occupies four blocks, tagged with a 2-bit offset).
//!
//! MAC blocks (with their co-located UVs) are cached in a dedicated 32 KB
//! per-core, 16-way MAC cache, exactly as client SGX does.
//!
//! These caches are *performance* structures: the authoritative version
//! state lives in the Toleo device. Hits avoid CXL round trips; misses are
//! counted as device traffic by the protection engine and the simulator.
//!
//! Every set of a [`SetAssocCache`] keeps exact LRU order in place: entries
//! are stored most recent first, so way 0 is the MRU entry, the last way is
//! the LRU entry, and the last way of a full set is the victim of the next
//! fill. [`lru_promote`] and [`lru_fill`] maintain that order by rotating a
//! prefix of the set right by one, instead of removing and re-inserting the
//! entry; an MRU hit moves nothing. The simulator's data caches share the
//! same two routines. That suits 16-way sets; the 256-way TLB extension
//! would pay a 256-tag scan and a 2 KB rotate per miss, so it has its own
//! [`FullyAssocLru`] with O(1) lookup, promotion and eviction.

// audit: allow-file(indexing, set indices are reduced by set_index modulo the set count; FullyAssocLru way and slot indices come from its own links and masked probes)

use crate::trip::TripFormat;
use serde::{Deserialize, Serialize};

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that found the block resident.
    pub hits: u64,
    /// Accesses that had to fetch.
    pub misses: u64,
}

impl CacheStats {
    /// Accumulates another cache's counters into this one (used to
    /// aggregate per-shard caches in a sharded deployment).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Hit rate in `[0, 1]`; 0 if never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Moves the resident entry at `pos` to the front of an MRU-first set,
/// shifting the entries ahead of it back by one. A hit at `pos == 0` (the
/// MRU entry) moves nothing.
///
/// # Panics
///
/// Panics if `pos` is out of bounds.
#[inline]
pub fn lru_promote<T>(set: &mut [T], pos: usize) {
    set[..=pos].rotate_right(1);
}

/// Fills `entry` into an MRU-first set of at most `ways` entries (`ways >=
/// 1`) as its new MRU entry. When the set is full, the LRU entry (the last
/// way) is overwritten and returned as the victim.
#[inline]
pub fn lru_fill<T>(set: &mut Vec<T>, ways: usize, entry: T) -> Option<T> {
    let victim = if set.len() < ways {
        set.push(entry);
        None
    } else {
        set.last_mut().map(|last| std::mem::replace(last, entry))
    };
    set.rotate_right(1);
    victim
}

/// A generic set-associative cache directory with LRU replacement. Tracks
/// presence only (tags, no data) — the simulator's standard idiom.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Per-set LRU stacks, most-recent first.
    sets: Vec<Vec<u64>>,
    ways: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0` or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "cache geometry must be non-zero");
        SetAssocCache {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, key: u64) -> usize {
        // Multiplicative hash spreads page-grain keys across sets.
        (key.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % self.sets.len()
    }

    /// Looks up `key`, updating LRU and filling on miss. Returns `true` on
    /// hit. The key evicted by a fill is dropped; use
    /// [`access_with_victim`](Self::access_with_victim) when the caller
    /// needs it.
    pub fn access(&mut self, key: u64) -> bool {
        self.access_with_victim(key).0
    }

    /// Like [`access`](Self::access) but also returns the evicted key.
    pub fn access_with_victim(&mut self, key: u64) -> (bool, Option<u64>) {
        let idx = self.set_index(key);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&k| k == key) {
            lru_promote(set, pos);
            self.stats.hits += 1;
            return (true, None);
        }
        self.stats.misses += 1;
        (false, lru_fill(set, self.ways, key))
    }

    /// Probes without filling or touching LRU/stats.
    pub fn contains(&self, key: u64) -> bool {
        self.sets[self.set_index(key)].contains(&key)
    }

    /// Removes `key` if present (e.g. TLB shootdown / page remap).
    pub fn invalidate(&mut self, key: u64) {
        let idx = self.set_index(key);
        self.sets[idx].retain(|&k| k != key);
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// "No way": the end of a recency list, or an empty index slot.
const NIL: u32 = u32::MAX;

/// A fully associative tag directory with exact LRU replacement: the L2-TLB
/// stealth extension. The hardware compares every tag at once (§4.4); this
/// model finds a tag through an open-addressed tag → way index (linear
/// probing, at most an eighth full, backward-shift deletion so no tombstones
/// build up) and keeps recency in an intrusive doubly linked list over the
/// way array, MRU at `head` and the LRU victim at `tail`. Lookup, promotion
/// and eviction are O(1) whatever the way count.
///
/// Every hit, miss, victim, [`len`](Self::len) and
/// [`contains`](Self::contains) result equals that of
/// [`SetAssocCache::new(1, ways)`](SetAssocCache::new).
#[derive(Debug, Clone)]
pub struct FullyAssocLru {
    /// Resident tag of each way (meaningful while the way is on the list).
    tags: Vec<u64>,
    /// Recency links of each way: toward the MRU end, toward the LRU end.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Ways holding no tag: taken by fills before any eviction, returned
    /// by [`invalidate`](Self::invalidate).
    free: Vec<u32>,
    /// Tag → way index; a power-of-two table of way numbers, `NIL` = empty.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the Fibonacci-hash shift.
    shift: u32,
    stats: CacheStats,
}

impl FullyAssocLru {
    /// Creates a directory of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways >= u32::MAX`.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways < NIL as usize,
            "cache geometry must be non-zero and fit u32 way numbers"
        );
        // Eight slots per way keep probe runs near one slot long: a
        // random-page miss measured about a third of its cost at two
        // slots per way (EXPERIMENTS.md, "TLB microbenchmark").
        let slots = (8 * ways).next_power_of_two();
        FullyAssocLru {
            tags: vec![0; ways],
            prev: vec![NIL; ways],
            next: vec![NIL; ways],
            head: NIL,
            tail: NIL,
            free: (0..ways as u32).rev().collect(),
            index: vec![NIL; slots],
            shift: 64 - slots.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The index slot where `tag`'s probe starts.
    fn home(&self, tag: u64) -> usize {
        (tag.wrapping_mul(0x9e3779b97f4a7c15) >> self.shift) as usize
    }

    /// Probes the index for `tag`: the slot holding it (`true`), or the
    /// empty slot that ended the probe (`false`). Terminates because the
    /// index always has empty slots.
    fn probe(&self, tag: u64) -> (usize, bool) {
        let mask = self.index.len() - 1;
        let mut slot = self.home(tag);
        loop {
            let way = self.index[slot];
            if way == NIL {
                return (slot, false);
            }
            if self.tags[way as usize] == tag {
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Empties index slot `hole`, moving later entries of its probe run
    /// back into the gap when the gap lies on their own probe path, so
    /// every remaining tag is still found by [`probe`](Self::probe).
    fn remove_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let way = self.index[slot];
            if way == NIL {
                break;
            }
            let home = self.home(self.tags[way as usize]);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = way;
                hole = slot;
            }
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, way: u32) {
        let (prev, next) = (self.prev[way as usize], self.next[way as usize]);
        if prev == NIL {
            self.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
    }

    fn push_front(&mut self, way: u32) {
        self.prev[way as usize] = NIL;
        self.next[way as usize] = self.head;
        if self.head == NIL {
            self.tail = way;
        } else {
            self.prev[self.head as usize] = way;
        }
        self.head = way;
    }

    /// Looks up `tag`, updating LRU and filling on miss. Returns `true` on
    /// hit.
    pub fn access(&mut self, tag: u64) -> bool {
        self.access_with_victim(tag).0
    }

    /// Like [`access`](Self::access) but also returns the evicted tag.
    pub fn access_with_victim(&mut self, tag: u64) -> (bool, Option<u64>) {
        // MRU fast path: a page-local stream hits the head way over and
        // over, and that hit moves nothing, so skip the hash.
        if self.tags.get(self.head as usize) == Some(&tag) {
            self.stats.hits += 1;
            return (true, None);
        }
        let (slot, found) = self.probe(tag);
        if found {
            let way = self.index[slot];
            self.unlink(way);
            self.push_front(way);
            self.stats.hits += 1;
            return (true, None);
        }
        self.stats.misses += 1;
        let (way, slot, victim) = match self.free.pop() {
            Some(way) => (way, slot, None),
            None => {
                let way = self.tail;
                let old = self.tags[way as usize];
                let (victim_slot, _) = self.probe(old);
                self.remove_slot(victim_slot);
                self.unlink(way);
                // The deletion may have moved entries on `tag`'s probe
                // path: probe again for its empty slot.
                (way, self.probe(tag).0, Some(old))
            }
        };
        self.tags[way as usize] = tag;
        self.index[slot] = way;
        self.push_front(way);
        (false, victim)
    }

    /// Probes without filling or touching LRU/stats.
    pub fn contains(&self, tag: u64) -> bool {
        self.probe(tag).1
    }

    /// Removes `tag` if present, freeing its way for the next fill.
    pub fn invalidate(&mut self, tag: u64) {
        let (slot, found) = self.probe(tag);
        if found {
            let way = self.index[slot];
            self.remove_slot(slot);
            self.unlink(way);
            self.free.push(way);
        }
    }

    /// Access statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.tags.len() - self.free.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The combined host-side stealth version cache: TLB extension + overflow
/// buffer, with the paper's geometry by default.
#[derive(Debug, Clone)]
pub struct StealthCache {
    /// Flat entries ride in the L2 TLB extension, keyed by page number.
    tlb_ext: FullyAssocLru,
    /// Uneven/full side entries in 56-byte blocks, keyed by
    /// `page * 4 + sub-block`.
    overflow: SetAssocCache,
    combined: CacheStats,
}

/// Geometry of the stealth cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealthCacheConfig {
    /// L2 TLB entries (paper: 256, fully associative).
    pub tlb_entries: usize,
    /// Overflow buffer blocks (paper: 512 x 56 B = 28 KB).
    pub overflow_blocks: usize,
    /// Overflow buffer associativity (paper: 16).
    pub overflow_ways: usize,
}

impl Default for StealthCacheConfig {
    fn default() -> Self {
        StealthCacheConfig {
            tlb_entries: 256,
            overflow_blocks: 512,
            overflow_ways: 16,
        }
    }
}

impl StealthCache {
    /// Creates a stealth cache with the given geometry.
    pub fn new(cfg: StealthCacheConfig) -> Self {
        StealthCache {
            tlb_ext: FullyAssocLru::new(cfg.tlb_entries),
            overflow: SetAssocCache::new(
                (cfg.overflow_blocks / cfg.overflow_ways).max(1),
                cfg.overflow_ways,
            ),
            combined: CacheStats::default(),
        }
    }

    /// Paper-default geometry.
    pub fn paper_default() -> Self {
        Self::new(StealthCacheConfig::default())
    }

    /// Looks up the stealth version(s) for `page` stored in `format`.
    /// Returns `true` when every structure needed to reconstruct the
    /// version was resident (no CXL access needed).
    pub fn access(&mut self, page: u64, format: TripFormat) -> bool {
        let flat_hit = self.tlb_ext.access(page);
        let hit = match format {
            TripFormat::Flat => flat_hit,
            TripFormat::Uneven => {
                let side_hit = self.overflow.access(page * 4);
                flat_hit && side_hit
            }
            TripFormat::Full => {
                // A full entry spans four 56-byte blocks; all must be
                // resident. Access them all so they fill together.
                let mut all = true;
                for sub in 0..4 {
                    all &= self.overflow.access(page * 4 + sub);
                }
                flat_hit && all
            }
        };
        if hit {
            self.combined.hits += 1;
        } else {
            self.combined.misses += 1;
        }
        hit
    }

    /// Drops any cached state for `page` (reset / remap / downgrade).
    pub fn invalidate_page(&mut self, page: u64) {
        self.tlb_ext.invalidate(page);
        for sub in 0..4 {
            self.overflow.invalidate(page * 4 + sub);
        }
    }

    /// Combined page-grain hit/miss statistics (the paper's Fig. 7 metric).
    pub fn stats(&self) -> CacheStats {
        self.combined
    }

    /// TLB-extension-only statistics.
    pub fn tlb_stats(&self) -> CacheStats {
        self.tlb_ext.stats()
    }

    /// Overflow-buffer-only statistics.
    pub fn overflow_stats(&self) -> CacheStats {
        self.overflow.stats()
    }
}

/// The per-core MAC cache (32 KB, 16-way, 64-byte blocks -> 512 blocks).
/// Each MAC block covers eight data blocks and carries the page's UV.
#[derive(Debug, Clone)]
pub struct MacCache {
    inner: SetAssocCache,
}

impl MacCache {
    /// Creates a MAC cache of `kib` kibibytes, 16-way, 64-byte blocks.
    pub fn new(kib: usize) -> Self {
        let blocks = kib * 1024 / 64;
        MacCache {
            inner: SetAssocCache::new((blocks / 16).max(1), 16),
        }
    }

    /// Paper default: 32 KB per core.
    pub fn paper_default() -> Self {
        Self::new(32)
    }

    /// Accesses the MAC block covering data block `block_addr` (a 64-byte-
    /// aligned physical address). Returns `true` on hit.
    pub fn access(&mut self, block_addr: u64) -> bool {
        // Eight 56-bit MACs pack per 64-byte MAC block: the covering MAC
        // block index is block_index / 8.
        self.inner.access(block_addr / 64 / 8)
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        let mut c = SetAssocCache::new(1, 2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // 1 now MRU
        let (hit, victim) = c.access_with_victim(3);
        assert!(!hit);
        assert_eq!(victim, Some(2), "LRU victim is 2");
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = SetAssocCache::new(1, 4);
        c.access(1);
        c.access(1);
        c.access(2);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cache_hit_rate_is_zero() {
        assert_eq!(SetAssocCache::new(1, 4).stats().hit_rate(), 0.0);
        assert!(SetAssocCache::new(1, 4).is_empty());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(10);
        assert!(c.contains(10));
        c.invalidate(10);
        assert!(!c.contains(10));
        assert!(!c.access(10), "re-access misses after invalidate");
    }

    /// Reference LRU model: per-set `Vec`, most recent first, updated by
    /// remove / `insert(0)` / pop / retain.
    struct RefCache {
        sets: Vec<Vec<u64>>,
        ways: usize,
        stats: CacheStats,
    }

    impl RefCache {
        fn access(&mut self, idx: usize, key: u64) -> (bool, Option<u64>) {
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&k| k == key) {
                let k = set.remove(pos);
                set.insert(0, k);
                self.stats.hits += 1;
                return (true, None);
            }
            self.stats.misses += 1;
            set.insert(0, key);
            let victim = if set.len() > self.ways {
                set.pop()
            } else {
                None
            };
            (false, victim)
        }
    }

    #[test]
    fn in_place_lru_matches_reference_model() {
        for (num_sets, ways) in [(1, 256), (32, 16), (4, 2), (1, 1)] {
            let mut c = SetAssocCache::new(num_sets, ways);
            let mut r = RefCache {
                sets: vec![Vec::new(); num_sets],
                ways,
                stats: CacheStats::default(),
            };
            // Twice the capacity of distinct keys: plenty of hits at every
            // stack depth and plenty of evictions.
            let key_space = (2 * num_sets * ways) as u64 + 1;
            let seed = ((num_sets * 1000 + ways) as u64) << 32;
            for op in 0..100_000u64 {
                let roll = crate::fault::splitmix64(seed + 2 * op);
                let key = crate::fault::splitmix64(seed + 2 * op + 1) % key_space;
                let idx = c.set_index(key);
                let ctx = format!("{num_sets}x{ways} op {op} key {key}");
                match roll % 10 {
                    0 => {
                        c.invalidate(key);
                        r.sets[idx].retain(|&k| k != key);
                    }
                    1 => assert_eq!(c.contains(key), r.sets[idx].contains(&key), "{ctx}"),
                    _ => assert_eq!(c.access_with_victim(key), r.access(idx, key), "{ctx}"),
                }
                assert_eq!(c.sets[idx], r.sets[idx], "{ctx}: LRU order");
                assert_eq!(c.len(), r.sets.iter().map(Vec::len).sum::<usize>(), "{ctx}");
                assert_eq!(c.stats(), r.stats, "{ctx}");
            }
        }
    }

    /// Reference model for [`FullyAssocLru`]: one set of a
    /// [`SetAssocCache`], the structure the TLB extension used to be.
    #[test]
    fn fully_assoc_lru_matches_set_assoc_reference() {
        for ways in [256usize, 4, 1] {
            // Just above capacity (hits at every recency depth, steady
            // evictions) and far above it (mostly misses).
            for key_space in [ways as u64 + ways as u64 / 4 + 1, 64 * ways as u64 + 7] {
                let mut c = FullyAssocLru::new(ways);
                let mut r = SetAssocCache::new(1, ways);
                let seed = (ways as u64) << 40 | key_space;
                let mut last = 0u64;
                for op in 0..200_000u64 {
                    let roll = crate::fault::splitmix64(seed + 2 * op) % 20;
                    // One op in five repeats the previous tag (the MRU
                    // fast path); the rest draw a fresh one.
                    let tag = if roll < 4 {
                        last
                    } else {
                        crate::fault::splitmix64(seed + 2 * op + 1) % key_space
                    };
                    last = tag;
                    let ctx = format!("{ways} ways, {key_space} tags, op {op}, tag {tag}");
                    match roll {
                        4 | 5 => {
                            c.invalidate(tag);
                            r.invalidate(tag);
                        }
                        6 => assert_eq!(c.contains(tag), r.contains(tag), "{ctx}"),
                        _ => assert_eq!(
                            c.access_with_victim(tag),
                            r.access_with_victim(tag),
                            "{ctx}"
                        ),
                    }
                    assert_eq!(c.contains(tag), r.contains(tag), "{ctx}");
                    assert_eq!(c.len(), r.len(), "{ctx}");
                    assert_eq!(c.is_empty(), r.is_empty(), "{ctx}");
                    assert_eq!(c.stats(), r.stats(), "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_way_fully_assoc_lru_panics() {
        FullyAssocLru::new(0);
    }

    /// The stealth cache with its TLB extension on a plain 256-way
    /// [`SetAssocCache`]: the reference for [`StealthCache`].
    struct RefStealth {
        tlb: SetAssocCache,
        overflow: SetAssocCache,
        combined: CacheStats,
    }

    impl RefStealth {
        fn access(&mut self, page: u64, format: TripFormat) -> bool {
            let flat_hit = self.tlb.access(page);
            let sub_blocks = match format {
                TripFormat::Flat => 0,
                TripFormat::Uneven => 1,
                TripFormat::Full => 4,
            };
            let mut side_hit = true;
            for sub in 0..sub_blocks {
                side_hit &= self.overflow.access(page * 4 + sub);
            }
            let hit = flat_hit && side_hit;
            if hit {
                self.combined.hits += 1;
            } else {
                self.combined.misses += 1;
            }
            hit
        }
    }

    #[test]
    fn stealth_cache_matches_set_assoc_tlb_reference() {
        for pages in [300u64, 20_000] {
            let mut sc = StealthCache::paper_default();
            let cfg = StealthCacheConfig::default();
            let mut r = RefStealth {
                tlb: SetAssocCache::new(1, cfg.tlb_entries),
                overflow: SetAssocCache::new(
                    cfg.overflow_blocks / cfg.overflow_ways,
                    cfg.overflow_ways,
                ),
                combined: CacheStats::default(),
            };
            let formats = [TripFormat::Flat, TripFormat::Uneven, TripFormat::Full];
            for op in 0..100_000u64 {
                let roll = crate::fault::splitmix64((pages << 32) + 2 * op);
                let page = crate::fault::splitmix64((pages << 32) + 2 * op + 1) % pages;
                if roll.is_multiple_of(16) {
                    sc.invalidate_page(page);
                    r.tlb.invalidate(page);
                    for sub in 0..4 {
                        r.overflow.invalidate(page * 4 + sub);
                    }
                } else {
                    let format = formats[(roll / 16 % 3) as usize];
                    assert_eq!(sc.access(page, format), r.access(page, format), "op {op}");
                }
                assert_eq!(sc.stats(), r.combined, "op {op}");
                assert_eq!(sc.tlb_stats(), r.tlb.stats(), "op {op}");
                assert_eq!(sc.overflow_stats(), r.overflow.stats(), "op {op}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_panics() {
        SetAssocCache::new(0, 4);
    }

    #[test]
    fn stealth_cache_flat_needs_only_tlb() {
        let mut sc = StealthCache::paper_default();
        assert!(!sc.access(7, TripFormat::Flat));
        assert!(sc.access(7, TripFormat::Flat));
        assert_eq!(sc.stats().hits, 1);
        assert_eq!(sc.stats().misses, 1);
    }

    #[test]
    fn stealth_cache_uneven_needs_both_structures() {
        let mut sc = StealthCache::paper_default();
        // Warm only the TLB side via a flat access.
        sc.access(7, TripFormat::Flat);
        // Uneven access still misses (side entry cold)...
        assert!(!sc.access(7, TripFormat::Uneven));
        // ...then hits once both are warm.
        assert!(sc.access(7, TripFormat::Uneven));
    }

    #[test]
    fn stealth_cache_full_occupies_four_blocks() {
        let mut sc = StealthCache::new(StealthCacheConfig {
            tlb_entries: 8,
            overflow_blocks: 8,
            overflow_ways: 8,
        });
        assert!(!sc.access(1, TripFormat::Full));
        assert!(sc.access(1, TripFormat::Full));
        // A second full page forces the 8-block buffer to evict: with two
        // full entries (8 blocks) the buffer is exactly full.
        assert!(!sc.access(2, TripFormat::Full));
        assert!(sc.access(2, TripFormat::Full));
        // A third page's fill must evict some of page 1 or 2.
        assert!(!sc.access(3, TripFormat::Full));
        let resident_after: usize = [1u64, 2, 3]
            .iter()
            .filter(|&&p| sc.access(p, TripFormat::Full))
            .count();
        assert!(resident_after < 3, "capacity must bound residency");
    }

    #[test]
    fn stealth_cache_invalidate_page() {
        let mut sc = StealthCache::paper_default();
        sc.access(5, TripFormat::Uneven);
        sc.access(5, TripFormat::Uneven);
        sc.invalidate_page(5);
        assert!(
            !sc.access(5, TripFormat::Uneven),
            "post-invalidate access misses"
        );
    }

    #[test]
    fn mac_cache_eight_blocks_share_entry() {
        let mut mc = MacCache::paper_default();
        assert!(!mc.access(0)); // fills MAC block 0 (covers data blocks 0..8)
        for i in 1..8u64 {
            assert!(mc.access(i * 64), "data block {i} shares the MAC block");
        }
        assert!(!mc.access(8 * 64), "ninth block needs the next MAC block");
    }

    #[test]
    fn mac_cache_capacity() {
        let mut mc = MacCache::new(1); // 1 KB = 16 blocks, one 16-way set
        for i in 0..16u64 {
            mc.access(i * 64 * 8);
        }
        for i in 0..16u64 {
            assert!(mc.access(i * 64 * 8), "16 distinct MAC blocks fit in 1 KB");
        }
        mc.access(16 * 64 * 8); // evicts one
        let s = mc.stats();
        assert_eq!(s.misses, 17);
    }
}
