//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream|scatter|hot-reset|paper-sim> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`; `--trace 1`
//! runs the layer ledger and prints the per-layer metrics. Every metric is
//! printed as a `metric` line with its unit and sample count; the last line
//! of standard output is one JSON object. Any oracle, fidelity or
//! environment failure exits nonzero. See `perfbench/README.md`.

mod cpu;
mod hist;
mod ledger;
mod oracle;
mod passes;
mod sim;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use toleo_core::config::PAGE_BYTES;
use toleo_core::engine::ProtectionEngine;
use toleo_sim::config::{Protection, SimConfig};
use toleo_sim::system::System;

use crate::hist::Hist;
use crate::ledger::Ledger;
use crate::passes::{run_pass, Engine, Oracle, PassKind};
use crate::sim::SimPass;
use crate::spans::Tracer;
use crate::workload::{Kind, Workload};

/// A run sets up at least this many times, and until the set-ups have
/// taken [`SETUP_BUDGET_S`]; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.5;
/// Each measured pass kind runs at least this often, and the simulator
/// completes at least this many cycles over the workload's traces.
const MIN_REPS: usize = 3;
/// Each turn of the rotation gives every pass kind at least this many
/// seconds.
const SAMPLE_S: f64 = 0.1;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 10] = [
    ("blocks_per_s", "1/s"),
    ("batch_blocks_per_s", "1/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("batch_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("device_bytes_per_page", "B/page"),
    ("sim_mem_ops_per_s", "1/s"),
    ("sim_overhead_pct", "%"),
];

/// Per-layer metrics (`--trace 1`) and their units. A layer a workload
/// does not exercise reports 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.gen_s", "s"),
    ("crypto.seal_ns", "ns"),
    ("crypto.unseal_ns", "ns"),
    ("crypto.tweak8_ns_per_block", "ns"),
    ("crypto.mac_ns", "ns"),
    ("crypto.lines_per_op", "count"),
    ("crypto.backend", "id"),
    ("device.update_ns", "ns"),
    ("device.read_ns", "ns"),
    ("device.read_run_ns", "ns"),
    ("device.stealth_resets", "count"),
    ("device.upgrades_to_uneven", "count"),
    ("device.upgrades_to_full", "count"),
    ("device.uneven_pages", "count"),
    ("device.full_pages", "count"),
    ("device.rejected_full", "count"),
    ("channel.update_ns", "ns"),
    ("channel.read_ns", "ns"),
    ("channel.overhead_ns", "ns"),
    ("channel.retries", "count"),
    ("cache.stealth_access_ns", "ns"),
    ("cache.mac_access_ns", "ns"),
    ("engine.stealth_hit_rate", "ratio"),
    ("engine.mac_hit_rate", "ratio"),
    ("arena.ensure_slot_ns", "ns"),
    ("arena.slot_lookup_ns", "ns"),
    ("pagetable.get_ns", "ns"),
    ("arena.resident_pages", "count"),
    ("arena.same_page_ratio", "ratio"),
    ("engine.device_updates_per_op", "count"),
    ("engine.device_reads_per_op", "count"),
    ("engine.mac_fetches_per_op", "count"),
    ("engine.pages_reencrypted", "count"),
    ("engine.single_ns_per_op", "ns"),
    ("engine.layers_ns_per_op", "ns"),
    ("engine.plumbing_ns_per_op", "ns"),
    ("trace.overhead_ns_per_op", "ns"),
    ("sharded.batch_call_us", "us"),
    ("sharded.ops_per_batch", "count"),
    ("sharded.shards_per_batch", "count"),
    ("sharded.fanout_ns_per_op", "ns"),
    ("sharded.routing_ns_per_op", "ns"),
    ("sharded.ops_served", "count"),
    ("sharded.max_poll_lag_ops", "count"),
    ("sim.noprotect_run_s", "s"),
    ("sim.toleo_run_s", "s"),
    ("sim.host_ns_per_mem_op", "ns"),
    ("sim.cycles", "count"),
    ("sim.llc_misses", "count"),
    ("sim.stealth_hit_rate", "ratio"),
    ("sim.avg_fresh_ns", "ns"),
    ("sim.bytes_stealth_per_instr", "B"),
    ("sim.mpki_abs_error", "mpki"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let kind = Kind::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Everything a run reports.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric.
    samples: BTreeMap<&'static str, usize>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    fn pass(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let backend = toleo_crypto::backend::default_backend();
    println!(
        "env workload={} seed={} seconds={} trace={} cores={} aes_backend={} TOLEO_AES_BACKEND={} TOLEO_FAULT_PLAN={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        backend.name(),
        std::env::var("TOLEO_AES_BACKEND").unwrap_or_else(|_| "-".into()),
        std::env::var("TOLEO_FAULT_PLAN").map_or("-".into(), |v| format!("{v} (ignored)")),
    );

    let mut out = Outcome::new();
    let Ready {
        w,
        mut engine,
        mut oracle,
        setup_s,
        gen_s,
        device_bytes_per_page,
    } = setup(args.kind, args.seed, &mut out);
    if !passes::oracle_self_test(&w) {
        out.errors
            .push("oracle self-test: a corrupted block was not reported as a failure".into());
    }
    if args.trace {
        traced(&w, &mut engine, &mut oracle, &mut out);
        out.set("workloads.gen_s", median(&gen_s), gen_s.len());
        out.set("crypto.backend", backend_id(backend), 1);
    } else {
        measure(&w, &mut engine, &mut oracle, args.seconds, &mut out);
        out.set("device_bytes_per_page", device_bytes_per_page, 1);
        out.set("setup_s", median(&setup_s), setup_s.len());
        out.set("peak_rss_mib", peak_rss_mib(), 1);
    }
    let (retries, rejected) = engine.retries_and_rejections();
    if retries != 0 || rejected != 0 {
        out.errors.push(format!(
            "channel.retries={retries} device.rejected_full={rejected}: both must be 0"
        ));
    }
    report(&args, &out)
}

/// What set-up leaves for the measurement.
struct Ready {
    w: Workload,
    engine: Engine,
    oracle: Oracle,
    /// Set-up times: generation, construction and the warm-up pass.
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    device_bytes_per_page: f64,
}

/// Generates the workload, builds the engine and simulators and runs the
/// warm-up pass (first-touch work belongs to set-up, so work moved into it
/// shows in `setup_s`), several times; keeps the last set-up.
fn setup(kind: Kind, seed: u64, out: &mut Outcome) -> Ready {
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut rotation = Rotation::new(kind != Kind::Scatter);
    let mut last: Option<Ready> = None;
    // An odd count over rotating CPUs keeps the median on the same CPU.
    while setup_s.len() < SETUP_REPS
        || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S
        || setup_s.len() % 2 == 0
    {
        drop(last.take());
        rotation.step();
        let t = Instant::now();
        let w = Workload::generate(kind, seed);
        gen_s.push(t.elapsed().as_secs_f64());
        let mut engine = Engine::build(&w);
        for p in [Protection::NoProtect, Protection::Toleo] {
            black_box(System::new(SimConfig::scaled(p)));
        }
        let mut oracle = Oracle::new(&w);
        let (failed, device_bytes_per_page) = passes::warm_up(&mut engine, &w, &mut oracle);
        setup_s.push(t.elapsed().as_secs_f64());
        out.pass(w.ops(), failed);
        last = Some(Ready {
            w,
            engine,
            oracle,
            setup_s: Vec::new(),
            gen_s: Vec::new(),
            device_bytes_per_page,
        });
    }
    let mut ready = last.expect("at least one set-up");
    ready.setup_s = setup_s;
    ready.gen_s = gen_s;
    ready
}

/// The untraced run: single-op, batched, per-op-timed and simulator passes
/// in rotation until `seconds` have passed (each at least [`MIN_REPS`]
/// times).
fn measure(
    w: &Workload,
    engine: &mut Engine,
    oracle: &mut Oracle,
    seconds: u64,
    out: &mut Outcome,
) {
    let ops = w.ops();
    // Throughput accumulates over the whole run: total ops over total time.
    // Latency percentiles are taken over groups of consecutive turns, one
    // turn on each CPU of the rotation, and the median group is reported:
    // each group mixes CPU speeds the same way, and a burst of host
    // contention spoils one group instead of the run's tail.
    let (mut single, mut batch) = (Rate::default(), Rate::default());
    let (mut op_group, mut batch_group) = (Hist::default(), Hist::default());
    let (mut p50, mut p99, mut batch_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut op_calls, mut batch_calls) = (0, 0);
    // The simulator runs one trace at a time between engine samples, so
    // its time spreads over the run like the engine's. Overhead is taken
    // over each full cycle of the workload's traces.
    let (mut sim, mut overhead, mut mpki_err) = (Rate::default(), Vec::new(), None);
    let mut cycle = SimPass::default();
    let mut next_trace = 0;
    let mut rotation = Rotation::new(w.shards == 0);
    let group = rotation.cpus.len().max(1);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut turn = 0;
    while overhead.len() < MIN_REPS || p99.len() < MIN_REPS || Instant::now() < deadline {
        rotation.step();
        let sample = single.clone();
        while single.secs - sample.secs < SAMPLE_S {
            let p = run_pass(engine, w, oracle, PassKind::Single, None);
            out.pass(ops, p.failed);
            single.add(ops, p.wall.as_secs_f64());
        }
        let sample = batch.clone();
        while batch.secs - sample.secs < SAMPLE_S {
            let p = run_pass(engine, w, oracle, PassKind::Batch, None);
            out.pass(ops, p.failed);
            batch.add(ops, p.wall.as_secs_f64());
            batch_group.merge(&p.lat_ns);
        }
        let p = run_pass(engine, w, oracle, PassKind::Timed, None);
        out.pass(ops, p.failed);
        op_group.merge(&p.lat_ns);
        let sample = sim.clone();
        while sim.secs - sample.secs < SAMPLE_S {
            let run = sim::run(std::slice::from_ref(&w.sim_traces[next_trace]));
            sim.add(run.mem_ops, run.noprotect_s + run.toleo_s);
            cycle.extend(run);
            next_trace = (next_trace + 1) % w.sim_traces.len();
            if next_trace == 0 {
                overhead.push(cycle.overhead_pct());
                mpki_err = cycle.mpki_abs_error();
                cycle = SimPass::default();
            }
        }
        turn += 1;
        if turn % group == 0 {
            p50.push(op_group.percentile(0.50));
            p99.push(op_group.percentile(0.99));
            batch_p99.push(batch_group.percentile(0.99));
            op_calls += op_group.len() as usize;
            batch_calls += batch_group.len() as usize;
            (op_group, batch_group) = (Hist::default(), Hist::default());
        }
    }
    if overhead.iter().any(|&o| o != overhead[0]) {
        out.errors
            .push("simulated overhead differs between identical simulator passes".into());
    }
    out.set("blocks_per_s", single.per_s(), single.samples);
    out.set("batch_blocks_per_s", batch.per_s(), batch.samples);
    out.set("op_p50_ns", median(&p50), op_calls);
    out.set("op_p99_ns", median(&p99), op_calls);
    out.set("batch_p99_us", median(&batch_p99) / 1e3, batch_calls);
    out.set("sim_mem_ops_per_s", sim.per_s(), sim.samples);
    out.set("sim_overhead_pct", overhead[0], overhead.len());
    println!("info sim_overhead_pct is simulated, not validated against hardware");
    if let Some(err) = mpki_err {
        println!("info model Table-2 LLC MPKI mean abs error = {err:.4}");
    }
}

/// Rotates the measuring thread over the allowed CPUs, one CPU per step.
/// Only single-threaded (plain-engine) workloads rotate: a sharded run
/// leaves placement to the OS, so its caller threads and the engine's own
/// workers can use every CPU.
struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    fn new(single_threaded: bool) -> Self {
        let cpus = if single_threaded {
            cpu::allowed()
        } else {
            Vec::new()
        };
        Rotation { cpus, next: 0 }
    }

    fn step(&mut self) {
        if let Some(&c) = self.cpus.get(self.next % self.cpus.len().max(1)) {
            cpu::pin(c);
            self.next += 1;
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        cpu::release(&self.cpus);
    }
}

/// Work and time accumulated over the passes of one kind.
#[derive(Clone, Default)]
struct Rate {
    ops: u64,
    secs: f64,
    samples: usize,
}

impl Rate {
    fn add(&mut self, ops: u64, secs: f64) {
        self.ops += ops;
        self.secs += secs;
        self.samples += 1;
    }

    fn per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Traced run repetitions of the untraced/traced single-op pair.
const TRACE_PAIRS: usize = 3;

/// The traced run: the tracing overhead on the engine under test, then the
/// layer ledger on a fresh engine, then one simulator pass.
fn traced(w: &Workload, engine: &mut Engine, oracle: &mut Oracle, out: &mut Outcome) {
    let ops = w.ops();
    let mut tracer = Tracer::default();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_PAIRS {
        let p = run_pass(engine, w, oracle, PassKind::Single, None);
        out.pass(ops, p.failed);
        plain_ns.push(p.wall.as_nanos() as f64 / ops as f64);
        let p = run_pass(engine, w, oracle, PassKind::Single, Some(&mut tracer));
        out.pass(ops, p.failed);
        traced_ns.push(p.wall.as_nanos() as f64 / ops as f64);
    }
    out.set(
        "trace.overhead_ns_per_op",
        median(&traced_ns) - median(&plain_ns),
        TRACE_PAIRS,
    );

    let mut ledger = Ledger::new(w);
    let mut subject = Engine::build(w);
    let mut plain: Vec<ProtectionEngine> = (0..w.shards).map(|_| passes::plain_engine(w)).collect();
    let mut lo = Oracle::new(w);
    for measure in [false, true] {
        let failed = ledger.single_pass(w, &mut subject, &mut plain, &mut lo, measure);
        out.pass(ops, failed);
    }
    ledger.check_fidelity(&mut subject);
    let failed = ledger.batch_pass(w, &mut subject, &mut plain, &mut lo);
    out.pass(ops, failed);
    ledger.metrics(ops, &mut out.metrics);
    counts(w, &mut subject, 3 * ops, out);
    out.errors.extend(ledger.errors.iter().take(8).cloned());
    let (retries, rejected) = subject.retries_and_rejections();
    out.set("channel.retries", retries as f64, 1);
    out.set("device.rejected_full", rejected as f64, 1);

    let s = sim::run(&w.sim_traces);
    out.set("sim.noprotect_run_s", s.noprotect_s, s.noprotect.len());
    out.set("sim.toleo_run_s", s.toleo_s, s.toleo.len());
    out.set("sim.host_ns_per_mem_op", 1e9 / s.mem_ops_per_s(), 1);
    out.set(
        "sim.cycles",
        s.toleo.iter().map(|r| r.cycles).sum(),
        s.toleo.len(),
    );
    out.set(
        "sim.llc_misses",
        s.toleo.iter().map(|r| r.llc_misses as f64).sum(),
        s.toleo.len(),
    );
    let n = s.toleo.len().max(1) as f64;
    out.set(
        "sim.stealth_hit_rate",
        s.toleo.iter().map(|r| r.stealth_hit_rate).sum::<f64>() / n,
        s.toleo.len(),
    );
    out.set(
        "sim.avg_fresh_ns",
        s.toleo.iter().map(|r| r.avg_fresh_ns).sum::<f64>() / n,
        s.toleo.len(),
    );
    let instr: u64 = s.toleo.iter().map(|r| r.instructions).sum();
    let stealth: u64 = s.toleo.iter().map(|r| r.bytes_stealth).sum();
    out.set(
        "sim.bytes_stealth_per_instr",
        stealth as f64 / instr.max(1) as f64,
        1,
    );
    out.set("sim.mpki_abs_error", s.mpki_abs_error().unwrap_or(0.0), 1);

    tracer.absorb(std::mem::take(&mut ledger.tracer));
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.kind.name(), w.seed));
    match tracer.write(&path) {
        Ok(()) => println!("info spans written to {}", path.display()),
        Err(e) => out.errors.push(format!("writing spans: {e}")),
    }
}

/// Deterministic counters of the ledger's engine, from its public stats
/// getters (`ops` = every op it served).
fn counts(w: &Workload, e: &mut Engine, ops: u64, out: &mut Outcome) {
    let (stats, dev, stealth, mac, usages, resident) = match e {
        Engine::Plain(p) => {
            let resident = p.adversary().pages().count();
            (
                p.stats(),
                p.device_stats(),
                p.stealth_cache_stats(),
                p.mac_cache_stats(),
                vec![p.device().usage()],
                resident,
            )
        }
        Engine::Sharded(s) => {
            let n = s.shard_count();
            let resident = (0..n as u64)
                .map(|i| s.with_adversary(i * PAGE_BYTES as u64, |d| d.pages().count()))
                .sum();
            let r = s.robustness_stats();
            out.set("sharded.ops_served", r.ops_served as f64, 1);
            out.set("sharded.max_poll_lag_ops", r.max_poll_lag_ops as f64, 1);
            let usages = (0..n)
                .map(|i| s.shard_engine_mut(i).device().usage())
                .collect();
            (
                s.stats(),
                s.device_stats(),
                s.stealth_cache_stats(),
                s.mac_cache_stats(),
                usages,
                resident,
            )
        }
    };
    for k in ["sharded.ops_served", "sharded.max_poll_lag_ops"] {
        out.metrics.entry(k).or_insert(0.0);
    }
    let per_op = |n: u64| n as f64 / ops as f64;
    out.set("device.stealth_resets", dev.stealth_resets as f64, 1);
    out.set(
        "device.upgrades_to_uneven",
        dev.upgrades_to_uneven as f64,
        1,
    );
    out.set("device.upgrades_to_full", dev.upgrades_to_full as f64, 1);
    out.set(
        "device.uneven_pages",
        usages.iter().map(|u| u.uneven_pages).sum::<u64>() as f64,
        1,
    );
    out.set(
        "device.full_pages",
        usages.iter().map(|u| u.full_pages).sum::<u64>() as f64,
        1,
    );
    out.set("engine.stealth_hit_rate", stealth.hit_rate(), 1);
    out.set("engine.mac_hit_rate", mac.hit_rate(), 1);
    out.set(
        "engine.device_updates_per_op",
        per_op(stats.device_updates),
        1,
    );
    out.set("engine.device_reads_per_op", per_op(stats.device_reads), 1);
    out.set("engine.mac_fetches_per_op", per_op(stats.mac_fetches), 1);
    out.set(
        "engine.pages_reencrypted",
        stats.pages_reencrypted as f64,
        1,
    );
    out.set("arena.resident_pages", resident as f64, 1);
    out.set("arena.same_page_ratio", ledger::same_page_ratio(w), 1);
}

fn backend_id(b: toleo_crypto::backend::BackendKind) -> f64 {
    use toleo_crypto::backend::BackendKind;
    match b {
        BackendKind::Software => 0.0,
        BackendKind::AesNi => 1.0,
        BackendKind::ArmCe => 2.0,
    }
}

/// Prints every metric line and the result object; the exit code says
/// whether every check held.
fn report(args: &Args, out: &Outcome) -> ExitCode {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in table {
        let Some(&v) = out.metrics.get(name) else {
            missing.push(name);
            continue;
        };
        let n = out.samples.get(name).copied().unwrap_or(1);
        println!("metric {name} = {v} {unit} (n={n})");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(v)
        ));
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "metric failed_op_ratio = {ratio} ratio (n={})",
        out.attempted
    );
    let mut errors = out.errors.clone();
    if !missing.is_empty() {
        errors.push(format!("metrics not produced: {}", missing.join(", ")));
    }
    if out.failed > 0 {
        errors.push(format!(
            "{} of {} ops failed or read wrong data",
            out.failed, out.attempted
        ));
    }
    for e in &errors {
        eprintln!("perfbench: FAIL {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (Linux `VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// Finds each of `entries` in `doc`, in order.
    fn assert_in_order(doc: &str, entries: impl Iterator<Item = String>) {
        let mut from = 0;
        for entry in entries {
            let at = doc[from..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            from += at + entry.len();
        }
    }

    /// The metric tables here, `BENCHMARK.json` and `metrics.json` list the
    /// same metrics, in the same order, and `BENCHMARK.json` with the same
    /// units.
    #[test]
    fn metric_tables_match_the_manifests() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let bench = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json"))
            .expect("BENCHMARK.json is readable");
        let manifest = std::fs::read_to_string(format!("{dir}/metrics.json"))
            .expect("metrics.json is readable");
        let all = || END_TO_END.iter().chain(PER_LAYER.iter());
        let compact: String = bench.split_whitespace().collect();
        assert_in_order(
            &compact,
            all().map(|(name, unit)| format!("\"name\":\"{name}\",\"unit\":\"{unit}\"")),
        );
        assert_in_order(
            &manifest,
            all().map(|(name, _)| format!("\"name\": \"{name}\"")),
        );
    }
}
