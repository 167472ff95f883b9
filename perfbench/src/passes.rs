//! End-to-end passes: single-op, per-op-timed and batched replay of every
//! stream through the engine under test, with the oracle's observations.

use std::time::{Duration, Instant};

use toleo_core::channel::RetryPolicy;
use toleo_core::config::PAGE_BYTES;
use toleo_core::device::DeviceUsage;
use toleo_core::engine::ProtectionEngine;
use toleo_core::sharded::ShardedEngine;

use crate::hist::Hist;
use crate::oracle::{fingerprint, payload, Block, Keys, Reference, ERR};
use crate::spans::Tracer;
use crate::workload::{MemOp, Run, Workload};

/// The engine calls a pass makes. Implemented by a plain engine and by a
/// shared reference to a sharded engine (one per caller thread).
pub trait Target {
    fn write(&mut self, addr: u64, b: &Block) -> bool;
    fn read(&mut self, addr: u64) -> Option<Block>;
    /// `Err(i)`: op `i` failed and later ops were not applied.
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), usize>;
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, usize>;
}

impl Target for ProtectionEngine {
    fn write(&mut self, addr: u64, b: &Block) -> bool {
        ProtectionEngine::write(self, addr, b).is_ok()
    }
    fn read(&mut self, addr: u64) -> Option<Block> {
        ProtectionEngine::read(self, addr).ok()
    }
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), usize> {
        ProtectionEngine::write_batch(self, ops).map_err(|e| e.index)
    }
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, usize> {
        ProtectionEngine::read_batch(self, addrs).map_err(|e| e.index)
    }
}

impl Target for &ShardedEngine {
    fn write(&mut self, addr: u64, b: &Block) -> bool {
        ShardedEngine::write(self, addr, b).is_ok()
    }
    fn read(&mut self, addr: u64) -> Option<Block> {
        ShardedEngine::read(self, addr).ok()
    }
    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), usize> {
        self.write_batch_indexed(ops).map_err(|e| e.index)
    }
    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, usize> {
        self.read_batch_indexed(addrs).map_err(|e| e.index)
    }
}

/// A plain engine for the workload, with no fault plan.
pub fn plain_engine(w: &Workload) -> ProtectionEngine {
    ProtectionEngine::try_new_with_robustness(w.cfg.clone(), w.key, None, RetryPolicy::default())
        .expect("benchmark engine config is valid")
}

/// The engine under test. Built with an explicit empty fault plan, so a
/// `TOLEO_FAULT_PLAN` in the environment cannot arm faults.
pub enum Engine {
    Plain(Box<ProtectionEngine>),
    Sharded(Box<ShardedEngine>),
}

impl Engine {
    pub fn build(w: &Workload) -> Engine {
        if w.shards == 0 {
            Engine::Plain(Box::new(plain_engine(w)))
        } else {
            let e = ShardedEngine::new_with_robustness(
                w.cfg.clone(),
                w.shards,
                w.key,
                None,
                RetryPolicy::default(),
            )
            .expect("benchmark sharded config is valid");
            Engine::Sharded(Box::new(e))
        }
    }

    /// Trusted-memory usage of every shard's device.
    pub fn usages(&mut self) -> Vec<DeviceUsage> {
        match self {
            Engine::Plain(e) => vec![e.device().usage()],
            Engine::Sharded(e) => (0..e.shard_count())
                .map(|i| e.shard_engine_mut(i).device().usage())
                .collect(),
        }
    }

    /// Trusted-memory bytes per touched page, over every shard's device.
    pub fn device_bytes_per_page(&mut self) -> f64 {
        bytes_per_page(&self.usages())
    }

    pub fn retries_and_rejections(&self) -> (u64, u64) {
        match self {
            Engine::Plain(e) => (e.channel_stats().retries, e.device_stats().rejected_full),
            Engine::Sharded(e) => (e.channel_stats().retries, e.device_stats().rejected_full),
        }
    }

    /// Corrupts one stored ciphertext byte through the adversary interface.
    pub fn corrupt(&mut self, addr: u64) {
        match self {
            Engine::Plain(e) => e.adversary().corrupt_data(addr, 5, 0x40),
            Engine::Sharded(e) => e.with_adversary(addr, |d| d.corrupt_data(addr, 5, 0x40)),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// One call per op, the whole pass timed once.
    Single,
    /// One call per op, every call timed.
    Timed,
    /// One batch call per homogeneous run, every call timed.
    Batch,
}

/// What one pass measured.
pub struct PassOut {
    pub wall: Duration,
    /// Per-call latencies in ns (`Timed`: ops; `Batch`: batch calls).
    pub lat_ns: Hist,
    /// Ops that failed or read back the wrong plaintext.
    pub failed: u64,
}

/// Per-stream oracle state carried across the passes of one engine.
pub struct Oracle {
    seed: u64,
    refs: Vec<Reference>,
    pass: u64,
}

impl Oracle {
    pub fn new(w: &Workload) -> Self {
        Oracle {
            seed: w.seed,
            refs: w.streams.iter().map(|_| Reference::default()).collect(),
            pass: 0,
        }
    }

    pub fn keys(&self, stream: usize) -> Keys {
        Keys::new(self.seed, stream, self.pass)
    }

    /// Checks a pass's observations and moves on to the next pass.
    pub fn check(&mut self, w: &Workload, observed: &[Vec<u64>]) -> u64 {
        let mut failed = 0;
        for (s, obs) in observed.iter().enumerate() {
            let keys = self.keys(s);
            failed += self.refs[s].check_pass(&w.streams[s], keys, obs);
        }
        self.pass += 1;
        failed
    }
}

fn bytes_per_page(usages: &[DeviceUsage]) -> f64 {
    let bytes: u64 = usages.iter().map(|u| u.total_bytes()).sum();
    let pages: u64 = usages
        .iter()
        .map(|u| u.flat_pages + u.uneven_pages + u.full_pages)
        .sum();
    bytes as f64 / pages.max(1) as f64
}

/// Device snapshots taken during a plain engine's warm-up pass.
const SNAPSHOTS: usize = 64;

/// The first single-op pass over a fresh engine. A plain engine's pass runs
/// in [`SNAPSHOTS`] segments with a device snapshot after each; a sharded
/// engine is snapshot once, at the end. Returns the pass's failures and the
/// mean trusted bytes per touched page over the snapshots, a value fixed by
/// the seed and independent of how long the run measures.
pub fn warm_up(engine: &mut Engine, w: &Workload, oracle: &mut Oracle) -> (u64, f64) {
    let Engine::Plain(e) = engine else {
        let failed = run_pass(engine, w, oracle, PassKind::Single, None).failed;
        return (failed, engine.device_bytes_per_page());
    };
    let (ops, keys) = (&w.streams[0], oracle.keys(0));
    let mut obs = vec![0u64; ops.len()];
    let mut bytes = 0.0;
    let segment = ops.len().div_ceil(SNAPSHOTS).max(1);
    for (k, seg) in ops.chunks(segment).enumerate() {
        for (j, op) in seg.iter().enumerate() {
            let i = k * segment + j;
            let pt = plaintext(op, keys, i);
            obs[i] = observe(&mut **e, op, &pt);
        }
        bytes += bytes_per_page(&[e.device().usage()]);
    }
    let failed = oracle.check(w, &[obs]);
    (failed, bytes / ops.len().div_ceil(segment) as f64)
}

/// Replays every stream once through `engine`: on its own for a plain
/// engine, on one caller thread per stream for a sharded engine.
pub fn run_pass(
    engine: &mut Engine,
    w: &Workload,
    oracle: &mut Oracle,
    kind: PassKind,
    tracer: Option<&mut Tracer>,
) -> PassOut {
    let keys: Vec<Keys> = (0..w.streams.len()).map(|s| oracle.keys(s)).collect();
    let start = Instant::now();
    let results: Vec<(Vec<u64>, Hist, Tracer)> = match engine {
        Engine::Plain(e) => vec![replay(
            &mut **e,
            &w.streams[0],
            &w.runs[0],
            keys[0],
            kind,
            tracer.is_some(),
        )],
        Engine::Sharded(e) => {
            let shared: &ShardedEngine = e;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..w.streams.len())
                    .map(|s| {
                        let (ops, runs, k) = (&w.streams[s], &w.runs[s], keys[s]);
                        let traced = tracer.is_some();
                        scope.spawn(move || replay(&mut { shared }, ops, runs, k, kind, traced))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("caller thread completes"))
                    .collect()
            })
        }
    };
    let wall = start.elapsed();
    let mut observed = Vec::with_capacity(results.len());
    let mut lat_ns = Hist::default();
    let mut merged = Tracer::default();
    for (obs, lat, t) in results {
        observed.push(obs);
        lat_ns.merge(&lat);
        merged.absorb(t);
    }
    if let Some(tr) = tracer {
        tr.absorb(merged);
    }
    let failed = oracle.check(w, &observed);
    PassOut {
        wall,
        lat_ns,
        failed,
    }
}

/// One stream through one target. Returns the observations, per-call
/// latencies, and (when `traced`) a span per call.
fn replay(
    t: &mut impl Target,
    ops: &[MemOp],
    runs: &[Run],
    keys: Keys,
    kind: PassKind,
    traced: bool,
) -> (Vec<u64>, Hist, Tracer) {
    let mut obs = vec![0u64; ops.len()];
    let mut lat = Hist::default();
    let mut tracer = Tracer::default();
    match kind {
        PassKind::Single if !traced => {
            for (i, op) in ops.iter().enumerate() {
                let pt = plaintext(op, keys, i);
                obs[i] = observe(t, op, &pt);
            }
        }
        PassKind::Single | PassKind::Timed => {
            for (i, op) in ops.iter().enumerate() {
                let b = plaintext(op, keys, i);
                let t0 = Instant::now();
                obs[i] = observe(t, op, &b);
                let d = t0.elapsed().as_nanos() as u64;
                if traced {
                    tracer.record(i as u64, "engine.call", t0, d, 1);
                } else {
                    lat.record(d);
                }
            }
        }
        PassKind::Batch => {
            let mut wbuf: Vec<(u64, Block)> = Vec::with_capacity(crate::workload::MAX_BATCH);
            let mut rbuf: Vec<u64> = Vec::with_capacity(crate::workload::MAX_BATCH);
            for run in runs {
                let range = run.start..run.start + run.len;
                let (t0, d, failed_at) = if run.write {
                    wbuf.clear();
                    wbuf.extend(range.clone().map(|i| (ops[i].addr, payload(keys.key(i)))));
                    let t0 = Instant::now();
                    let r = t.write_batch(&wbuf);
                    (t0, t0.elapsed(), r.err())
                } else {
                    rbuf.clear();
                    rbuf.extend(range.clone().map(|i| ops[i].addr));
                    let t0 = Instant::now();
                    let r = t.read_batch(&rbuf);
                    let d = t0.elapsed();
                    match r {
                        Ok(blocks) => {
                            for (o, b) in obs[range.clone()].iter_mut().zip(&blocks) {
                                *o = fingerprint(b);
                            }
                            (t0, d, None)
                        }
                        Err(i) => (t0, d, Some(i)),
                    }
                };
                let d = d.as_nanos() as u64;
                lat.record(d);
                if traced {
                    tracer.record(run.start as u64, "engine.batch_call", t0, d, run.len as u32);
                }
                if let Some(i) = failed_at {
                    obs[run.start + i..range.end].fill(ERR);
                }
            }
        }
    }
    (obs, lat, tracer)
}

/// The plaintext op `i` writes (zeros for a read, which writes nothing).
pub fn plaintext(op: &MemOp, keys: Keys, i: usize) -> Block {
    if op.write {
        payload(keys.key(i))
    } else {
        [0u8; 64]
    }
}

/// One engine call; returns the oracle observation (0 for a completed
/// write, the read's fingerprint, [`ERR`] for an error).
#[inline]
pub fn observe(t: &mut impl Target, op: &MemOp, pt: &Block) -> u64 {
    if op.write {
        if t.write(op.addr, pt) {
            0
        } else {
            ERR
        }
    } else {
        t.read(op.addr).map_or(ERR, |b| fingerprint(&b))
    }
}

/// Oracle self-test: on a throwaway engine of the workload's kind, write a
/// page, corrupt one block through the adversary interface, and replay a
/// read pass through the same pass and oracle code. The tampered read must
/// come back as a failure. Returns whether it did.
pub fn oracle_self_test(w: &Workload) -> bool {
    let base = w.streams[0].first().map_or(0, |op| op.addr) / PAGE_BYTES as u64 * PAGE_BYTES as u64;
    let writes: Vec<MemOp> = (0..64)
        .map(|l| MemOp {
            addr: base + l * 64,
            write: true,
        })
        .collect();
    let reads: Vec<MemOp> = writes
        .iter()
        .map(|op| MemOp {
            write: false,
            ..*op
        })
        .collect();
    let mini = |ops: Vec<MemOp>| Workload {
        kind: w.kind,
        seed: w.seed,
        cfg: w.cfg.clone(),
        key: w.key,
        shards: w.shards,
        runs: vec![vec![Run {
            write: ops[0].write,
            start: 0,
            len: ops.len(),
        }]],
        streams: vec![ops],
        sim_traces: Vec::new(),
    };
    let (ww, rw) = (mini(writes), mini(reads));
    let mut engine = Engine::build(&ww);
    let mut oracle = Oracle::new(&ww);
    let clean = run_pass(&mut engine, &ww, &mut oracle, PassKind::Single, None).failed;
    engine.corrupt(base + 17 * 64);
    let tampered = run_pass(&mut engine, &rw, &mut oracle, PassKind::Single, None).failed;
    clean == 0 && tampered >= 1
}
