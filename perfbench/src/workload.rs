//! The four workloads, generated from the run seed. The engine and the
//! simulator receive only the generated traces.

use toleo_core::config::{ToleoConfig, FLAT_ENTRY_BYTES, FULL_ENTRY_BYTES, PAGE_BYTES};
use toleo_workloads::pattern::{engine_pattern, homogeneous_runs, EnginePattern};
use toleo_workloads::{generate, Benchmark, GenConfig, Op, Trace};

use crate::oracle::splitmix;

/// Footprint of `stream` and `hot-reset`.
const ENGINE_FOOTPRINT: u64 = 4 << 20;
/// Per-thread tenant window of `scatter`: two windows hold about 12k pages,
/// roughly 6x what the shards' stealth caches cover.
const SCATTER_WINDOW: u64 = 24 << 20;
/// Caller threads sharing the `scatter` engine.
const SCATTER_THREADS: usize = 2;
/// Shards of the `scatter` engine.
const SCATTER_SHARDS: usize = 8;
/// Ops each `scatter` thread replays per pass. The batched pass is the
/// slowest part of the benchmark today; this count stays fixed when it gets
/// faster.
const SCATTER_OPS_PER_THREAD: u64 = 12_288;
/// Ops of one `hot-reset` pass.
const HOT_RESET_OPS: u64 = 131_072;
/// Stealth-reset exponent of `hot-reset`: a reset every ~256 leading-version
/// advances of a page.
const HOT_RESET_LOG2: u32 = 8;
/// Memory ops of each Table-2 trace that `paper-sim` replays through the
/// engine (a prefix, so each trace keeps its local access pattern).
const PAPER_ENGINE_OPS: usize = 16_384;
/// Longest homogeneous run handed to one batch call.
pub const MAX_BATCH: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Stream,
    Scatter,
    HotReset,
    PaperSim,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Stream, Kind::Scatter, Kind::HotReset, Kind::PaperSim];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Stream => "stream",
            Kind::Scatter => "scatter",
            Kind::HotReset => "hot-reset",
            Kind::PaperSim => "paper-sim",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One memory access of an engine stream (block-aligned).
#[derive(Clone, Copy, Debug)]
pub struct MemOp {
    pub addr: u64,
    pub write: bool,
}

/// A homogeneous run of one stream, replayed through one batch call.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub write: bool,
    pub start: usize,
    pub len: usize,
}

/// A generated workload.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub cfg: ToleoConfig,
    pub key: [u8; 48],
    /// Shards of the engine; 0 means one plain `ProtectionEngine`.
    pub shards: usize,
    /// One op stream per caller thread.
    pub streams: Vec<Vec<MemOp>>,
    /// Batch runs of each stream.
    pub runs: Vec<Vec<Run>>,
    /// Traces the cycle simulator runs.
    pub sim_traces: Vec<Trace>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let mut s = seed;
        let trace_seed = splitmix(&mut s);
        let mut key = [0u8; 48];
        for word in key.chunks_exact_mut(8) {
            word.copy_from_slice(&splitmix(&mut s).to_le_bytes());
        }
        let rng_seed = splitmix(&mut s);
        let (traces, sim_traces, shards, reset_log2) = match kind {
            Kind::Stream => {
                let t = engine_pattern(
                    EnginePattern::Sequential,
                    2 * ENGINE_FOOTPRINT / 64,
                    ENGINE_FOOTPRINT,
                    trace_seed,
                );
                (vec![t.clone()], vec![t], 0, None)
            }
            Kind::HotReset => {
                let t = engine_pattern(
                    EnginePattern::HotReset,
                    HOT_RESET_OPS,
                    ENGINE_FOOTPRINT,
                    trace_seed,
                );
                (vec![t.clone()], vec![t], 0, Some(HOT_RESET_LOG2))
            }
            Kind::Scatter => {
                let threads: Vec<Trace> = (0..SCATTER_THREADS)
                    .map(|t| {
                        let raw = engine_pattern(
                            EnginePattern::Random,
                            SCATTER_OPS_PER_THREAD,
                            SCATTER_WINDOW,
                            trace_seed.wrapping_add(t as u64),
                        );
                        rebase(&raw, t as u64 * SCATTER_WINDOW)
                    })
                    .collect();
                let merged = interleave(&threads);
                (threads, vec![merged], SCATTER_SHARDS, None)
            }
            Kind::PaperSim => {
                let gen = GenConfig {
                    seed: trace_seed,
                    ..GenConfig::default()
                };
                let sim: Vec<Trace> = Benchmark::all()
                    .iter()
                    .map(|&b| generate(b, &gen))
                    .collect();
                let mut all = Trace::new("paper-sim");
                for t in &sim {
                    let mem = t.ops.iter().filter(|op| !matches!(op, Op::Compute(_)));
                    all.ops.extend(mem.take(PAPER_ENGINE_OPS));
                }
                (vec![all], sim, 0, None)
            }
        };
        let streams: Vec<Vec<MemOp>> = traces.iter().map(mem_ops).collect();
        let runs = traces.iter().map(batch_runs).collect();
        let max_addr = streams
            .iter()
            .flatten()
            .map(|op| op.addr)
            .max()
            .unwrap_or(0);
        let mut cfg = sized_config(max_addr);
        cfg.rng_seed = rng_seed;
        if let Some(log2) = reset_log2 {
            cfg.reset_log2 = log2;
        }
        Workload {
            kind,
            seed,
            cfg,
            key,
            shards,
            streams,
            runs,
            sim_traces,
        }
    }

    /// Memory ops of one pass over every stream.
    pub fn ops(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// The streams merged round-robin into one deterministic order: the
    /// single-threaded order the traced run replays (for one stream, the
    /// stream itself). Each element is `(stream, op index)`.
    pub fn merged_order(&self) -> Vec<(usize, usize)> {
        let longest = self.streams.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = Vec::with_capacity(self.ops() as usize);
        for i in 0..longest {
            for (s, stream) in self.streams.iter().enumerate() {
                if i < stream.len() {
                    out.push((s, i));
                }
            }
        }
        out
    }
}

/// Engine configuration sized on the benchmark side: a protected range
/// covering every address, and a device large enough for every touched
/// page to reach the full Trip format, so no update is refused.
fn sized_config(max_addr: u64) -> ToleoConfig {
    let protected = (max_addr + PAGE_BYTES as u64)
        .next_power_of_two()
        .max(64 << 20);
    let pages = protected / PAGE_BYTES as u64;
    ToleoConfig {
        protected_bytes: protected,
        device_capacity_bytes: pages * (FLAT_ENTRY_BYTES + FULL_ENTRY_BYTES) as u64,
        ..ToleoConfig::default()
    }
}

fn mem_ops(t: &Trace) -> Vec<MemOp> {
    t.ops
        .iter()
        .filter_map(|op| match *op {
            Op::Read(a) => Some(MemOp {
                addr: a & !63,
                write: false,
            }),
            Op::Write(a) => Some(MemOp {
                addr: a & !63,
                write: true,
            }),
            Op::Compute(_) => None,
        })
        .collect()
}

fn batch_runs(t: &Trace) -> Vec<Run> {
    let mut start = 0;
    homogeneous_runs(t, MAX_BATCH)
        .into_iter()
        .map(|(write, addrs)| {
            let run = Run {
                write,
                start,
                len: addrs.len(),
            };
            start += addrs.len();
            run
        })
        .collect()
}

fn rebase(t: &Trace, base: u64) -> Trace {
    let mut out = Trace::new(t.name.clone());
    out.rss_bytes = t.rss_bytes;
    for op in &t.ops {
        match *op {
            Op::Read(a) => out.read(base + a),
            Op::Write(a) => out.write(base + a),
            Op::Compute(n) => out.compute(n),
        }
    }
    out
}

fn interleave(threads: &[Trace]) -> Trace {
    let mut out = Trace::new("scatter");
    out.rss_bytes = threads.iter().map(|t| t.rss_bytes).sum();
    let longest = threads.iter().map(|t| t.ops.len()).max().unwrap_or(0);
    for i in 0..longest {
        for t in threads {
            if let Some(op) = t.ops.get(i) {
                out.ops.push(*op);
            }
        }
    }
    out
}
