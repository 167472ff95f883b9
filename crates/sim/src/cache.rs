//! Timed data-cache hierarchy with dirty-writeback tracking.
//!
//! Unlike the metadata directories in `toleo-core::cache`, these caches
//! track dirty state so LLC evictions generate the protected writebacks
//! that drive version UPDATE traffic. They keep the same in-place exact LRU
//! order (MRU first, LRU last, victim = last way) through the same
//! [`lru_promote`]/[`lru_fill`] routines.

use crate::config::CacheConfig;
use toleo_core::cache::{lru_fill, lru_promote};

/// One cache way entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was resident.
    pub hit: bool,
    /// Block address of a dirty line evicted by the fill, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate data cache (LRU).
#[derive(Debug, Clone)]
pub struct DataCache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl DataCache {
    /// Builds a cache from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        DataCache {
            sets: vec![Vec::with_capacity(cfg.ways); cfg.sets()],
            ways: cfg.ways,
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, block: u64) -> usize {
        (block % self.sets.len() as u64) as usize
    }

    /// Accesses the 64-byte block containing `addr`; fills on miss. `write`
    /// marks the line dirty. Returns hit/miss and any dirty victim.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        let block = addr / 64;
        let idx = self.index(block);
        let ways = self.ways;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|l| l.tag == block) {
            set[pos].dirty |= write;
            lru_promote(set, pos);
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let victim = lru_fill(
            set,
            ways,
            Line {
                tag: block,
                dirty: write,
            },
        );
        AccessResult {
            hit: false,
            writeback: victim.filter(|v| v.dirty).map(|v| v.tag * 64),
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Flushes every dirty line, returning their block addresses (used at
    /// end of simulation so pending writebacks reach the version system).
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for line in set.iter_mut() {
                if line.dirty {
                    out.push(line.tag * 64);
                    line.dirty = false;
                }
            }
        }
        out
    }
}

/// Three-level hierarchy; misses at each level descend to the next, and a
/// fill at any level can push a dirty victim down (L1/L2 victims are folded
/// into the next level; L3 victims surface as memory writebacks).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: DataCache,
    /// Private L2.
    pub l2: DataCache,
    /// Shared L3 (LLC).
    pub l3: DataCache,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in L1.
    L1,
    /// Hit in L2.
    L2,
    /// Hit in L3.
    L3,
    /// Missed all levels; goes to memory.
    Memory,
}

/// Outcome of a hierarchy access: where it hit plus any LLC writebacks the
/// access generated (protected writes).
#[derive(Debug, Clone)]
pub struct HierarchyResult {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Dirty blocks evicted from the LLC by fills along the way.
    pub llc_writebacks: Vec<u64>,
}

impl Hierarchy {
    /// Builds the hierarchy from the node config.
    pub fn new(cfg: &crate::config::SimConfig) -> Self {
        Hierarchy {
            l1: DataCache::new(cfg.l1),
            l2: DataCache::new(cfg.l2),
            l3: DataCache::new(cfg.l3),
        }
    }

    /// Performs a load (`write = false`) or store (`write = true`).
    pub fn access(&mut self, addr: u64, write: bool) -> HierarchyResult {
        let mut llc_writebacks = Vec::new();
        let r1 = self.l1.access(addr, write);
        if let Some(wb) = r1.writeback {
            // L1 victim folds into L2 as a dirty fill.
            let r2 = self.l2.access(wb, true);
            if let Some(wb2) = r2.writeback {
                let r3 = self.l3.access(wb2, true);
                if let Some(wb3) = r3.writeback {
                    llc_writebacks.push(wb3);
                }
            }
        }
        if r1.hit {
            return HierarchyResult {
                level: HitLevel::L1,
                llc_writebacks,
            };
        }
        let r2 = self.l2.access(addr, false);
        if let Some(wb2) = r2.writeback {
            let r3 = self.l3.access(wb2, true);
            if let Some(wb3) = r3.writeback {
                llc_writebacks.push(wb3);
            }
        }
        if r2.hit {
            return HierarchyResult {
                level: HitLevel::L2,
                llc_writebacks,
            };
        }
        let r3 = self.l3.access(addr, false);
        if let Some(wb3) = r3.writeback {
            llc_writebacks.push(wb3);
        }
        let level = if r3.hit {
            HitLevel::L3
        } else {
            HitLevel::Memory
        };
        HierarchyResult {
            level,
            llc_writebacks,
        }
    }

    /// LLC misses so far (the Table 2 MPKI numerator).
    pub fn llc_misses(&self) -> u64 {
        self.l3.misses()
    }

    /// Drains all dirty lines down to memory writebacks.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut wbs = Vec::new();
        for blk in self.l1.drain_dirty() {
            let r = self.l2.access(blk, true);
            if let Some(w) = r.writeback {
                let r3 = self.l3.access(w, true);
                if let Some(w3) = r3.writeback {
                    wbs.push(w3);
                }
            }
        }
        for blk in self.l2.drain_dirty() {
            let r3 = self.l3.access(blk, true);
            if let Some(w3) = r3.writeback {
                wbs.push(w3);
            }
        }
        wbs.extend(self.l3.drain_dirty());
        wbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protection, SimConfig};

    fn tiny_cache(blocks: usize, ways: usize) -> DataCache {
        DataCache::new(CacheConfig {
            capacity: blocks * 64,
            ways,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny_cache(16, 4);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13f, false).hit, "same block, different byte");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn dirty_eviction_surfaces_writeback() {
        let mut c = tiny_cache(4, 4); // one set... no: 4 blocks 4 ways = 1 set
        c.access(0, true); // dirty
        c.access(64, false);
        c.access(64 * 2, false);
        c.access(64 * 3, false);
        let r = c.access(64 * 4, false); // evicts block 0 (LRU, dirty)
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny_cache(4, 4);
        for i in 0..5u64 {
            let r = c.access(i * 64, false);
            assert_eq!(r.writeback, None);
        }
    }

    #[test]
    fn drain_dirty_returns_all() {
        let mut c = tiny_cache(16, 4);
        c.access(0, true);
        c.access(64, true);
        c.access(128, false);
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![0, 64]);
        assert!(c.drain_dirty().is_empty(), "drain clears dirty bits");
    }

    /// Reference write-back LRU model: per-set `Vec` of (block, dirty), most
    /// recent first, updated by remove / `insert(0)` / pop.
    struct RefDataCache {
        sets: Vec<Vec<(u64, bool)>>,
        ways: usize,
        hits: u64,
        misses: u64,
    }

    impl RefDataCache {
        fn access(&mut self, addr: u64, write: bool) -> AccessResult {
            let block = addr / 64;
            let n = self.sets.len() as u64;
            let set = &mut self.sets[(block % n) as usize];
            if let Some(pos) = set.iter().position(|l| l.0 == block) {
                let (tag, dirty) = set.remove(pos);
                set.insert(0, (tag, dirty | write));
                self.hits += 1;
                return AccessResult {
                    hit: true,
                    writeback: None,
                };
            }
            self.misses += 1;
            set.insert(0, (block, write));
            let mut writeback = None;
            if set.len() > self.ways {
                if let Some((tag, true)) = set.pop() {
                    writeback = Some(tag * 64);
                }
            }
            AccessResult {
                hit: false,
                writeback,
            }
        }

        fn drain_dirty(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            for line in self.sets.iter_mut().flatten() {
                if line.1 {
                    out.push(line.0 * 64);
                    line.1 = false;
                }
            }
            out
        }
    }

    #[test]
    fn in_place_lru_matches_reference_model() {
        for (sets, ways) in [(1usize, 256usize), (32, 16), (4, 2), (1, 1)] {
            let mut c = tiny_cache(sets * ways, ways);
            let mut r = RefDataCache {
                sets: vec![Vec::new(); sets],
                ways,
                hits: 0,
                misses: 0,
            };
            let blocks = (2 * sets * ways) as u64 + 1;
            let mut rng = 0xd47a ^ (sets * 1000 + ways) as u64;
            let mut next = || {
                rng = rng.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            for op in 0..100_000 {
                let roll = next();
                // Any byte of the block: the cache works at block grain.
                let addr = (next() % blocks) * 64 + roll % 64;
                let ctx = format!("{sets}x{ways} op {op} addr {addr:#x}");
                if roll % 1000 == 0 {
                    assert_eq!(c.drain_dirty(), r.drain_dirty(), "{ctx}: drain order");
                } else {
                    let write = roll % 3 == 0;
                    assert_eq!(c.access(addr, write), r.access(addr, write), "{ctx}");
                }
                assert_eq!((c.hits(), c.misses()), (r.hits, r.misses), "{ctx}");
                let idx = c.index(addr / 64);
                let order: Vec<(u64, bool)> =
                    c.sets[idx].iter().map(|l| (l.tag, l.dirty)).collect();
                assert_eq!(order, r.sets[idx], "{ctx}: LRU order");
            }
            assert_eq!(
                c.drain_dirty(),
                r.drain_dirty(),
                "{sets}x{ways} final drain"
            );
        }
    }

    #[test]
    fn hierarchy_levels() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        assert_eq!(h.access(0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0x1000, false).level, HitLevel::L1);
        // Blow L1 (8 KB = 128 blocks) with conflicting lines, keep within L2.
        for i in 1..200u64 {
            h.access(0x1000 + i * 4096, false); // same L1 set pressure
        }
        let lvl = h.access(0x1000, false).level;
        assert!(
            lvl == HitLevel::L2 || lvl == HitLevel::L3,
            "demoted to {lvl:?}"
        );
    }

    #[test]
    fn hierarchy_generates_llc_writebacks_under_dirty_pressure() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        let mut wbs = 0;
        // Write a region much larger than the 1 MB LLC.
        for i in 0..(4 << 20) / 64u64 {
            wbs += h.access(i * 64, true).llc_writebacks.len();
        }
        assert!(wbs > 0, "dirty working set beyond LLC must write back");
    }

    #[test]
    fn hierarchy_drain_flushes_everything() {
        let cfg = SimConfig::scaled(Protection::NoProtect);
        let mut h = Hierarchy::new(&cfg);
        h.access(0x40, true);
        let wbs = h.drain();
        assert!(wbs.contains(&0x40));
    }
}
