//! The headline comparison: freshness metadata cost per memory write for
//! the Merkle counter tree (client SGX) vs the Toleo device, plus the full
//! protected read/write path of each engine.

// audit: allow-file(panic, bench setup: aborting on a broken harness is the right failure mode)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use toleo_baselines::sgx::SgxEngine;
use toleo_baselines::tree::CounterTree;
use toleo_core::config::ToleoConfig;
use toleo_core::device::ToleoDevice;
use toleo_core::engine::ProtectionEngine;

/// Version maintenance alone: tree update (walk + re-MAC each level) vs a
/// single Toleo UPDATE, across protected-memory sizes.
fn bench_version_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("freshness/version_update");
    for log2_blocks in [14u32, 18, 22] {
        g.bench_with_input(
            BenchmarkId::new("merkle_tree", 1u64 << log2_blocks),
            &log2_blocks,
            |b, &l| {
                let mut tree = CounterTree::new(8, 1 << l, 512);
                let mut i = 0u64;
                b.iter(|| {
                    i = (i + 4097) % (1 << l);
                    tree.update(i).expect("untampered tree")
                })
            },
        );
    }
    g.bench_function("toleo_device", |b| {
        let mut cfg = ToleoConfig::small();
        cfg.protected_bytes = 1 << 30;
        cfg.device_capacity_bytes = cfg.flat_array_bytes() + (8 << 20);
        let mut dev = ToleoDevice::new(cfg).expect("valid ToleoConfig");
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4097) % (1 << 18);
            dev.update(i % 1024, (i % 64) as usize).expect("in range")
        })
    });
    g.finish();
}

/// Full protected write+read round trip of the two functional engines.
fn bench_engine_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("freshness/engine_roundtrip");
    g.bench_function("toleo_engine", |b| {
        let mut e = ProtectionEngine::try_new(ToleoConfig::small(), [9u8; 48]).unwrap();
        let data = [0x42u8; 64];
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 64) % (1 << 20);
            e.write(addr, &data).expect("write ok");
            e.read(addr).expect("read ok")
        })
    });
    g.bench_function("sgx_engine", |b| {
        let mut e = SgxEngine::new(1 << 20);
        let data = [0x42u8; 64];
        let mut addr = 0u64;
        b.iter(|| {
            addr = (addr + 64) % (1 << 20);
            e.write(addr, &data).expect("write ok");
            e.read(addr).expect("read ok")
        })
    });
    g.finish();
}

/// Indices drawn uniformly from `0..range` (splitmix64, fixed seed),
/// precomputed so the timed loop only indexes a table.
fn random_indices(range: u64, count: usize) -> Vec<u64> {
    let mut state = 0x70_1e0u64;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) % range
        })
        .collect()
}

/// Stealth cache lookup cost with the 256-entry TLB extension full, so
/// every case works against a full fully associative directory.
fn bench_stealth_cache(c: &mut Criterion) {
    use toleo_core::cache::{StealthCache, StealthCacheConfig};
    use toleo_core::trip::TripFormat;
    let tlb_entries = StealthCacheConfig::default().tlb_entries as u64;
    let warm = || {
        let mut sc = StealthCache::paper_default();
        for page in 0..tlb_entries {
            sc.access(page, TripFormat::Flat);
        }
        sc
    };
    let mut g = c.benchmark_group("freshness/stealth_cache");
    // The most recently used page: the fast path of a page-local stream.
    g.bench_function("hit_mru", |b| {
        let mut sc = warm();
        let mru = tlb_entries - 1;
        b.iter(|| sc.access(mru, TripFormat::Flat))
    });
    // A resident page at a random LRU depth.
    g.bench_function("hit_random", |b| {
        let mut sc = warm();
        let pages = random_indices(tlb_entries, 4096);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pages.len();
            sc.access(pages[i], TripFormat::Flat)
        })
    });
    // A page never seen before: misses and evicts the LRU page.
    g.bench_function("miss_evict", |b| {
        let mut sc = warm();
        let mut page = tlb_entries;
        b.iter(|| {
            page += 1;
            sc.access(page, TripFormat::Flat)
        })
    });
    g.finish();
}

/// One simulated LLC access (scaled geometry) over twice its capacity, a
/// third of them stores: hits, clean and dirty evictions mixed.
fn bench_data_cache(c: &mut Criterion) {
    use toleo_sim::cache::DataCache;
    use toleo_sim::config::{Protection, SimConfig};
    let l3 = SimConfig::scaled(Protection::Toleo).l3;
    let blocks = 2 * (l3.capacity / 64) as u64;
    let mut g = c.benchmark_group("freshness/data_cache");
    g.bench_function("llc_access", |b| {
        let mut dc = DataCache::new(l3);
        let addrs = random_indices(blocks, 1 << 16);
        for &block in &addrs {
            dc.access(block * 64, false);
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            dc.access(addrs[i] * 64, i % 3 == 0)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_version_update,
    bench_engine_roundtrip,
    bench_stealth_cache,
    bench_data_cache
);
criterion_main!(benches);
