//! Criterion benchmarks for the sharded engine's batch paths:
//! `write_batch`/`read_batch` split a batch into the 8 shards' op queues
//! and drain them on the calling thread, versus the same ops routed one
//! at a time through the thread-safe handle. `read_batch_2_shards_2` is
//! the short batch a mixed trace's homogeneous runs produce, where any
//! fixed per-call cost dominates.

// audit: allow-file(panic, bench setup: aborting on a broken harness is the right failure mode)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use toleo_core::config::ToleoConfig;
use toleo_core::engine::Block;
use toleo_core::sharded::ShardedEngine;

/// Blocks per batch (one per page across 256 pages, 32 pages per shard).
const BATCH: usize = 256;
/// Shards in the engine under test.
const SHARDS: usize = 8;

fn bench_sharded(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded");
    g.throughput(Throughput::Elements(BATCH as u64));

    let writes: Vec<(u64, Block)> = (0..BATCH as u64)
        .map(|i| (i * 4096, [i as u8; 64]))
        .collect();
    let addrs: Vec<u64> = writes.iter().map(|(a, _)| *a).collect();

    // Long-lived engines so version state and caches stay warm across
    // iterations, as they would in a real deployment.
    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x42u8; 48]).unwrap();
    g.bench_function("write_batch_256", |b| {
        b.iter(|| {
            engine
                .write_batch(std::hint::black_box(&writes))
                .expect("protected write batch")
        })
    });
    engine.read_batch(&addrs).expect("warm");
    g.bench_function("read_batch_256", |b| {
        b.iter(|| {
            engine
                .read_batch(std::hint::black_box(&addrs))
                .expect("protected read batch")
        })
    });

    // Two ops on pages 0 and 1, which live on shards 0 and 1.
    let short = [addrs[0], addrs[1]];
    g.throughput(Throughput::Elements(short.len() as u64));
    g.bench_function("read_batch_2_shards_2", |b| {
        b.iter(|| {
            engine
                .read_batch(std::hint::black_box(&short))
                .expect("protected read batch")
        })
    });
    g.throughput(Throughput::Elements(BATCH as u64));

    let engine = ShardedEngine::new(ToleoConfig::small(), SHARDS, [0x42u8; 48]).unwrap();
    g.bench_function("single_op_routing_256", |b| {
        b.iter(|| {
            for (addr, block) in std::hint::black_box(&writes) {
                engine.write(*addr, block).expect("protected write");
            }
            for addr in std::hint::black_box(&addrs) {
                std::hint::black_box(engine.read(*addr).expect("protected read"));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
