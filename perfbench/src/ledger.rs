//! The traced run's layer ledger. A fresh engine replays the workload op
//! by op while a benchmark-side twin derives, from the same ops, the exact
//! calls the engine makes into each layer: device UPDATE/READ, channel,
//! stealth and MAC caches, arena slot lookups, page-index probes, and the
//! XTS/MAC seal, unseal and reset-walk work. Each layer's calls are then
//! replayed through that layer's public functions on instances of its own
//! and timed, chunk by chunk. What the layers do not explain is the
//! engine's plumbing.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use toleo_core::arena::{SlotId, UntrustedDram};
use toleo_core::cache::{MacCache, StealthCache};
use toleo_core::channel::{DeviceChannel, RetryPolicy};
use toleo_core::config::{LINES_PER_PAGE, PAGE_BYTES};
use toleo_core::device::ToleoDevice;
use toleo_core::engine::ProtectionEngine;
use toleo_core::layout;
use toleo_core::pagetable::PageIndex;
use toleo_core::sharded::ShardedEngine;
use toleo_core::trip::TripFormat;
use toleo_core::version::FullVersion;
use toleo_crypto::mac::{MacKey, Tag56};
use toleo_crypto::modes::{AesXts, Tweak};

use crate::oracle::{fingerprint, Block, Keys, ERR};
use crate::passes::{observe, plaintext, Engine, Oracle, Target};
use crate::spans::Tracer;
use crate::workload::{MemOp, Workload, MAX_BATCH};

/// Ops per ledger chunk: one span per layer per chunk.
const CHUNK: usize = 1024;

struct Seal {
    shard: usize,
    fv: u64,
    addr: u64,
    pt: Block,
    ct: Block,
}

struct Unseal {
    shard: usize,
    fv: u64,
    addr: u64,
    ct: Block,
    tag: Tag56,
}

/// One stealth-reset re-encryption walk: every resident line is unsealed
/// under its old version and sealed under `new_fv`.
struct Walk {
    shard: usize,
    new_fv: u64,
    lines: Vec<Unseal>,
    /// XTS tweaks of the lines under their old and new versions.
    old: Vec<Tweak>,
    new: Vec<Tweak>,
}

/// The calls one chunk of ops makes into each layer, in program order.
#[derive(Default)]
struct Calls {
    /// (shard, is_update, page, line)
    device: Vec<(usize, bool, u64, usize)>,
    /// (shard, page, format); `None` invalidates the page.
    stealth: Vec<(usize, u64, Option<TripFormat>)>,
    /// (shard, block address)
    mac_cache: Vec<(usize, u64)>,
    /// (shard, materialize, page): `ensure_slot` or `slot_id`, made only
    /// when the engine's last-page slot cache misses.
    arena: Vec<(usize, bool, u64)>,
    seals: Vec<Seal>,
    unseals: Vec<Unseal>,
    walks: Vec<Walk>,
}

/// Per-shard layer instances: an untimed twin that derives the calls, and
/// the timed instances they are replayed on.
struct Replica {
    twin_dev: ToleoDevice,
    twin_arena: UntrustedDram,
    twin_last: Option<(u64, SlotId)>,
    xts: AesXts,
    mac: MacKey,
    dev: ToleoDevice,
    chan: DeviceChannel,
    stealth: StealthCache,
    mac_cache: MacCache,
    arena: UntrustedDram,
    index: PageIndex,
}

impl Replica {
    fn new(w: &Workload, key: &[u8; 48]) -> Replica {
        let sub = |i: usize| {
            let mut k = [0u8; 16];
            k.copy_from_slice(&key[16 * i..16 * (i + 1)]);
            k
        };
        let dev = || ToleoDevice::new(w.cfg.clone()).expect("benchmark device config is valid");
        Replica {
            twin_dev: dev(),
            twin_arena: UntrustedDram::default(),
            twin_last: None,
            xts: AesXts::new(&sub(0), &sub(1)),
            mac: MacKey::new(sub(2)),
            dev: dev(),
            chan: DeviceChannel::new(dev(), None, RetryPolicy::default()),
            stealth: StealthCache::paper_default(),
            mac_cache: MacCache::paper_default(),
            arena: UntrustedDram::default(),
            index: PageIndex::new(),
        }
    }
}

fn seal(xts: &AesXts, mac: &MacKey, fv: u64, addr: u64, pt: &Block) -> (Block, Tag56) {
    let t = xts.tweak_block(Tweak {
        version: fv,
        address: addr,
    });
    let mut ct = *pt;
    xts.encrypt_with_tweak(t, &mut ct);
    let tag = mac.mac(fv, addr, &ct);
    (ct, tag)
}

fn unseal(xts: &AesXts, mac: &MacKey, u: &Unseal) -> Option<Block> {
    let t = xts.tweak_block(Tweak {
        version: u.fv,
        address: u.addr,
    });
    if !mac.mac(u.fv, u.addr, &u.ct).verify(&u.tag) {
        return None;
    }
    let mut pt = u.ct;
    xts.decrypt_with_tweak(t, &mut pt);
    Some(pt)
}

/// Ledger state across the traced run.
pub struct Ledger {
    shards: usize,
    replicas: Vec<Replica>,
    /// Mean cost of one empty `Instant` span, subtracted from per-call spans.
    span_overhead_ns: u64,
    pub tracer: Tracer,
    pub errors: Vec<String>,
    batch_calls: u64,
    batch_ops: u64,
    batch_shards: u64,
}

impl Ledger {
    pub fn new(w: &Workload) -> Ledger {
        // A plain engine's twin uses the engine's own keys, so its
        // ciphertexts must equal the engine's bit for bit. Shard keys are
        // derived inside the sharded engine; their twins use the root key
        // (same work, different bits).
        let shards = w.shards.max(1);
        Ledger {
            shards,
            replicas: (0..shards).map(|_| Replica::new(w, &w.key)).collect(),
            span_overhead_ns: calibrate_span(),
            tracer: Tracer::default(),
            errors: Vec::new(),
            batch_calls: 0,
            batch_ops: 0,
            batch_shards: 0,
        }
    }

    fn shard_of(&self, addr: u64) -> usize {
        (layout::page_of(addr) % self.shards as u64) as usize
    }

    /// Derives the layer calls of one op on the twin and performs them, so
    /// the twin's state follows the engine's. Returns the observation the
    /// engine must have made (0 for a write, the read's fingerprint).
    fn derive(&mut self, calls: &mut Calls, op: MemOp, pt: &Block) -> Result<u64, String> {
        let s = self.shard_of(op.addr);
        let r = &mut self.replicas[s];
        let bits = r.twin_dev.config().stealth_bits;
        let (page, line) = (layout::page_of(op.addr), layout::line_of(op.addr));
        if r.index.get(page).is_none() {
            r.index.insert(page, r.index.len() as u32);
        }
        calls.mac_cache.push((s, op.addr));
        if op.write {
            let resp = r
                .twin_dev
                .update(page, line)
                .map_err(|e| format!("twin update: {e}"))?;
            calls.device.push((s, true, page, line));
            calls.stealth.push((s, page, Some(resp.format)));
            let id = match r.twin_last {
                Some((p, id)) if p == page => id,
                _ => {
                    calls.arena.push((s, true, page));
                    let id = r.twin_arena.ensure_slot(page);
                    r.twin_last = Some((page, id));
                    id
                }
            };
            let slot = r.twin_arena.slot_mut(id);
            let mut uv = slot.uv();
            if let Some(notice) = &resp.reset {
                let new_uv = uv.incremented();
                let new_fv = FullVersion::compose(new_uv, notice.new_base, bits).raw();
                let mut walk = Walk {
                    shard: s,
                    new_fv,
                    lines: Vec::new(),
                    old: Vec::new(),
                    new: Vec::new(),
                };
                let resident: Vec<usize> = (0..LINES_PER_PAGE)
                    .filter(|&l| l != line && slot.has_block(l))
                    .collect();
                for l in resident {
                    let addr = page * PAGE_BYTES as u64 + 64 * l as u64;
                    let old = Unseal {
                        shard: s,
                        fv: FullVersion::compose(uv, notice.old_stealth[l], bits).raw(),
                        addr,
                        ct: *slot.block(l).ok_or("walk line vanished")?,
                        tag: slot.tag(l).ok_or("walk line without tag")?,
                    };
                    let pt = unseal(&r.xts, &r.mac, &old).ok_or("twin walk MAC mismatch")?;
                    let (ct, tag) = seal(&r.xts, &r.mac, new_fv, addr, &pt);
                    slot.set_block(l, ct);
                    slot.set_tag(l, tag);
                    walk.old.push(Tweak {
                        version: old.fv,
                        address: addr,
                    });
                    walk.new.push(Tweak {
                        version: new_fv,
                        address: addr,
                    });
                    walk.lines.push(old);
                }
                slot.set_uv(new_uv);
                uv = new_uv;
                calls.stealth.push((s, page, None));
                calls.walks.push(walk);
            }
            let fv = FullVersion::compose(uv, resp.stealth, bits).raw();
            let (ct, tag) = seal(&r.xts, &r.mac, fv, op.addr, pt);
            slot.set_block(line, ct);
            slot.set_tag(line, tag);
            calls.seals.push(Seal {
                shard: s,
                fv,
                addr: op.addr,
                pt: *pt,
                ct,
            });
            return Ok(0);
        }
        let (stealth, format) = r
            .twin_dev
            .read_versioned(page, line)
            .map_err(|e| format!("twin read: {e}"))?;
        calls.device.push((s, false, page, line));
        calls.stealth.push((s, page, Some(format)));
        let id = match r.twin_last {
            Some((p, id)) if p == page => Some(id),
            _ => {
                calls.arena.push((s, false, page));
                let id = r.twin_arena.slot_id(page);
                if let Some(id) = id {
                    r.twin_last = Some((page, id));
                }
                id
            }
        };
        let zero = fingerprint(&[0u8; 64]);
        let Some(id) = id else { return Ok(zero) };
        let slot = r.twin_arena.slot(id);
        let Some(ct) = slot.block(line) else {
            return Ok(zero);
        };
        let u = Unseal {
            shard: s,
            fv: FullVersion::compose(slot.uv(), stealth, bits).raw(),
            addr: op.addr,
            ct: *ct,
            tag: slot.tag(line).ok_or("resident line without tag")?,
        };
        let pt = unseal(&r.xts, &r.mac, &u).ok_or("twin read MAC mismatch")?;
        calls.unseals.push(u);
        Ok(fingerprint(&pt))
    }

    /// Replays one chunk's calls into every layer, timing each layer into
    /// the ledger when `measure` is set.
    fn replay(&mut self, calls: &Calls, id: u64, measure: bool) {
        let oh = self.span_overhead_ns;
        let mut unmeasured = Tracer::default();
        let tr = if measure {
            &mut self.tracer
        } else {
            &mut unmeasured
        };
        let reps = &mut self.replicas;

        // Device and channel: updates and reads interleave and share state,
        // so each call is timed on its own, less the empty-span cost.
        let t = Instant::now();
        let (mut upd, mut rd) = ((0u64, 0u32), (0u64, 0u32));
        for &(s, is_update, page, line) in &calls.device {
            let t0 = Instant::now();
            if is_update {
                black_box(reps[s].dev.update(page, line).is_ok());
            } else {
                black_box(reps[s].dev.read_versioned(page, line).is_ok());
            }
            let d = (t0.elapsed().as_nanos() as u64).saturating_sub(oh);
            let acc = if is_update { &mut upd } else { &mut rd };
            acc.0 += d;
            acc.1 += 1;
        }
        tr.record(id, "device.update", t, upd.0, upd.1);
        tr.record(id, "device.read", t, rd.0, rd.1);
        let t = Instant::now();
        let (mut upd, mut rd) = ((0u64, 0u32), (0u64, 0u32));
        for &(s, is_update, page, line) in &calls.device {
            let t0 = Instant::now();
            if is_update {
                black_box(reps[s].chan.update(page, line).is_ok());
            } else {
                black_box(reps[s].chan.read_versioned(page, line).is_ok());
            }
            let d = (t0.elapsed().as_nanos() as u64).saturating_sub(oh);
            let acc = if is_update { &mut upd } else { &mut rd };
            acc.0 += d;
            acc.1 += 1;
        }
        tr.record(id, "channel.update", t, upd.0, upd.1);
        tr.record(id, "channel.read", t, rd.0, rd.1);

        let t = Instant::now();
        for &(s, _, page, _) in &calls.device {
            black_box(reps[s].index.get(page));
        }
        tr.record(id, "pagetable.get", t, ns(t), calls.device.len() as u32);

        let t = Instant::now();
        for &(s, page, format) in &calls.stealth {
            match format {
                Some(f) => {
                    black_box(reps[s].stealth.access(page, f));
                }
                None => reps[s].stealth.invalidate_page(page),
            }
        }
        tr.record(id, "cache.stealth", t, ns(t), calls.stealth.len() as u32);
        let t = Instant::now();
        for &(s, addr) in &calls.mac_cache {
            black_box(reps[s].mac_cache.access(addr));
        }
        tr.record(id, "cache.mac", t, ns(t), calls.mac_cache.len() as u32);

        let t = Instant::now();
        let (mut ens, mut look) = ((0u64, 0u32), (0u64, 0u32));
        for &(s, materialize, page) in &calls.arena {
            let t0 = Instant::now();
            if materialize {
                black_box(reps[s].arena.ensure_slot(page));
            } else {
                black_box(reps[s].arena.slot_id(page));
            }
            let d = (t0.elapsed().as_nanos() as u64).saturating_sub(oh);
            let acc = if materialize { &mut ens } else { &mut look };
            acc.0 += d;
            acc.1 += 1;
        }
        tr.record(id, "arena.ensure_slot", t, ens.0, ens.1);
        tr.record(id, "arena.slot_lookup", t, look.0, look.1);

        let t = Instant::now();
        for c in &calls.seals {
            let r = &reps[c.shard];
            black_box(seal(&r.xts, &r.mac, c.fv, c.addr, &c.pt));
        }
        tr.record(id, "crypto.seal", t, ns(t), calls.seals.len() as u32);
        let t = Instant::now();
        for c in &calls.unseals {
            let r = &reps[c.shard];
            black_box(unseal(&r.xts, &r.mac, c));
        }
        tr.record(id, "crypto.unseal", t, ns(t), calls.unseals.len() as u32);
        let t = Instant::now();
        let mut walked = 0u32;
        let (mut ot, mut nt) = ([[0u8; 16]; LINES_PER_PAGE], [[0u8; 16]; LINES_PER_PAGE]);
        for wk in &calls.walks {
            let r = &reps[wk.shard];
            let n = wk.lines.len();
            r.xts.tweak_blocks(&wk.old, &mut ot[..n]);
            r.xts.tweak_blocks(&wk.new, &mut nt[..n]);
            for (k, u) in wk.lines.iter().enumerate() {
                if r.mac.mac(u.fv, u.addr, &u.ct).verify(&u.tag) {
                    let mut b = u.ct;
                    r.xts.decrypt_with_tweak(ot[k], &mut b);
                    r.xts.encrypt_with_tweak(nt[k], &mut b);
                    black_box(r.mac.mac(wk.new_fv, u.addr, &b));
                }
            }
            walked += n as u32;
        }
        tr.record(id, "crypto.walk", t, ns(t), walked);

        // Sub-layer characterisation (not part of the self-time sum): the
        // MAC alone, and the 8-wide pipelined tweak encryption.
        let t = Instant::now();
        for c in &calls.seals {
            black_box(reps[c.shard].mac.mac(c.fv, c.addr, &c.ct));
        }
        for c in &calls.unseals {
            black_box(reps[c.shard].mac.mac(c.fv, c.addr, &c.ct));
        }
        let macs = (calls.seals.len() + calls.unseals.len()) as u32;
        tr.record(id, "crypto.mac", t, ns(t), macs);
        let seal_tweaks = calls.seals.iter().map(|c| (c.shard, c.fv, c.addr));
        let unseal_tweaks = calls.unseals.iter().map(|c| (c.shard, c.fv, c.addr));
        let (shards, tweaks): (Vec<usize>, Vec<Tweak>) = seal_tweaks
            .chain(unseal_tweaks)
            .map(|(s, version, address)| (s, Tweak { version, address }))
            .unzip();
        let mut out = [[0u8; 16]; 8];
        let t = Instant::now();
        for (k, group) in tweaks.chunks(8).enumerate() {
            reps[shards[8 * k]].xts.tweak_blocks(group, &mut out);
            black_box(&out);
        }
        tr.record(id, "crypto.tweak8", t, ns(t), tweaks.len() as u32);
    }

    /// One single-op pass of the merged order through `engine` (and, for a
    /// sharded engine, through `plain` per-shard engines), checked against
    /// the twin and the oracle. With `measure`, spans are recorded and the
    /// layers replayed.
    pub fn single_pass(
        &mut self,
        w: &Workload,
        engine: &mut Engine,
        plain: &mut [ProtectionEngine],
        oracle: &mut Oracle,
        measure: bool,
    ) -> u64 {
        let order = w.merged_order();
        let keys: Vec<Keys> = (0..w.streams.len()).map(|s| oracle.keys(s)).collect();
        let mut obs: Vec<Vec<u64>> = w.streams.iter().map(|s| vec![0; s.len()]).collect();
        let mut chunk_obs = Vec::with_capacity(CHUNK);
        for (c, chunk) in order.chunks(CHUNK).enumerate() {
            let id = (c * CHUNK) as u64;
            let ops: Vec<(MemOp, Block)> = chunk
                .iter()
                .map(|&(s, i)| (w.streams[s][i], plaintext(&w.streams[s][i], keys[s], i)))
                .collect();
            chunk_obs.clear();
            let t = Instant::now();
            match engine {
                Engine::Plain(e) => {
                    for (op, pt) in &ops {
                        chunk_obs.push(observe(&mut **e, op, pt));
                    }
                }
                Engine::Sharded(e) => {
                    let mut target: &ShardedEngine = e;
                    for (op, pt) in &ops {
                        chunk_obs.push(observe(&mut target, op, pt));
                    }
                }
            }
            let d = ns(t);
            if measure {
                self.tracer
                    .record(id, "engine.single", t, d, ops.len() as u32);
            }
            if !plain.is_empty() {
                let t = Instant::now();
                let mut same = true;
                for ((op, pt), &o) in ops.iter().zip(&chunk_obs) {
                    let s = self.shard_of(op.addr);
                    same &= observe(&mut plain[s], op, pt) == o;
                }
                if measure {
                    self.tracer
                        .record(id, "plain.single", t, ns(t), ops.len() as u32);
                }
                if !same {
                    self.errors.push(format!(
                        "chunk {c}: plain engines diverged from the sharded engine"
                    ));
                }
            }
            let mut calls = Calls::default();
            for (k, (op, pt)) in ops.iter().enumerate() {
                match self.derive(&mut calls, *op, pt) {
                    Ok(expect) if expect == chunk_obs[k] => {}
                    Ok(_) => self.errors.push(format!(
                        "op {}: twin and engine observed different data",
                        id + k as u64
                    )),
                    Err(e) => self.errors.push(format!("op {}: {e}", id + k as u64)),
                }
            }
            self.replay(&calls, id, measure);
            for (&(s, i), &o) in chunk.iter().zip(&chunk_obs) {
                obs[s][i] = o;
            }
        }
        oracle.check(w, &obs)
    }

    /// One batched pass of the merged order: homogeneous runs of at most
    /// [`MAX_BATCH`] ops through the engine's batch calls. For a sharded
    /// engine the same per-shard sub-batches also go through the plain
    /// engines. Same-page groups are replayed through `read_run`.
    pub fn batch_pass(
        &mut self,
        w: &Workload,
        engine: &mut Engine,
        plain: &mut [ProtectionEngine],
        oracle: &mut Oracle,
    ) -> u64 {
        let order = w.merged_order();
        let keys: Vec<Keys> = (0..w.streams.len()).map(|s| oracle.keys(s)).collect();
        let mut obs: Vec<Vec<u64>> = w.streams.iter().map(|s| vec![0; s.len()]).collect();
        let mut start = 0;
        while start < order.len() {
            let write = w.streams[order[start].0][order[start].1].write;
            let mut end = start + 1;
            while end < order.len()
                && end - start < MAX_BATCH
                && w.streams[order[end].0][order[end].1].write == write
            {
                end += 1;
            }
            let run = &order[start..end];
            let id = start as u64;
            let ops: Vec<(u64, Block)> = run
                .iter()
                .map(|&(s, i)| {
                    (
                        w.streams[s][i].addr,
                        plaintext(&w.streams[s][i], keys[s], i),
                    )
                })
                .collect();
            let call = BatchIn::new(write, ops);
            let mut per_shard: Vec<Vec<(u64, Block)>> = vec![Vec::new(); self.shards];
            for op in &call.ops {
                per_shard[self.shard_of(op.0)].push(*op);
            }
            let subs: Vec<(usize, BatchIn)> = per_shard
                .into_iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(s, q)| (s, BatchIn::new(write, q)))
                .collect();
            let t = Instant::now();
            let result = match engine {
                Engine::Plain(e) => call.run(&mut **e),
                Engine::Sharded(e) => call.run(&mut { &**e }),
            };
            let d = ns(t);
            let layer = if plain.is_empty() {
                "engine.batch_call"
            } else {
                "sharded.batch_call"
            };
            self.tracer.record(id, layer, t, d, 1);
            self.batch_calls += 1;
            self.batch_ops += call.ops.len() as u64;
            self.batch_shards += subs.len() as u64;
            if !plain.is_empty() {
                let t = Instant::now();
                let results: Vec<_> = subs
                    .iter()
                    .map(|(s, sub)| sub.run(&mut plain[*s]))
                    .collect();
                self.tracer.record(id, "plain.sub_batches", t, ns(t), 1);
                if results.iter().any(Result::is_err) {
                    self.errors
                        .push(format!("run at {id}: plain sub-batch failed"));
                }
            }
            if !write {
                for (_, sub) in &subs {
                    self.replay_read_runs(id, &sub.addrs);
                }
            }
            let got = call.observations(result);
            for (&(s, i), o) in run.iter().zip(got) {
                obs[s][i] = o;
            }
            start = end;
        }
        oracle.check(w, &obs)
    }

    /// Replays the same-page groups a batched read makes into
    /// `ToleoDevice::read_run` (singleton groups take the single-op path).
    fn replay_read_runs(&mut self, id: u64, addrs: &[u64]) {
        let mut out = Vec::new();
        let mut i = 0;
        while i < addrs.len() {
            let page = layout::page_of(addrs[i]);
            let mut j = i + 1;
            while j < addrs.len() && layout::page_of(addrs[j]) == page {
                j += 1;
            }
            if j - i > 1 {
                let lines: Vec<usize> = addrs[i..j].iter().map(|&a| layout::line_of(a)).collect();
                let s = (page % self.shards as u64) as usize;
                let t = Instant::now();
                black_box(
                    self.replicas[s]
                        .dev
                        .read_run(page, &lines, &mut out)
                        .is_ok(),
                );
                self.tracer.record(id, "device.read_run", t, ns(t), 1);
            }
            i = j;
        }
    }

    /// Checks that the replayed layers saw what the engine's own layers
    /// saw: device counters, stealth/MAC cache counters, and (plain engine)
    /// every stored ciphertext. A mismatch means the replay timed a
    /// different program.
    pub fn check_fidelity(&mut self, engine: &mut Engine) {
        let Engine::Plain(e) = engine else { return };
        let r = &self.replicas[0];
        let pairs = [
            (
                "device",
                format!("{:?}", e.device_stats()),
                format!("{:?}", r.dev.stats()),
            ),
            (
                "twin device",
                format!("{:?}", e.device_stats()),
                format!("{:?}", r.twin_dev.stats()),
            ),
            (
                "stealth cache",
                format!("{:?}", e.stealth_cache_stats()),
                format!("{:?}", r.stealth.stats()),
            ),
            (
                "MAC cache",
                format!("{:?}", e.mac_cache_stats()),
                format!("{:?}", r.mac_cache.stats()),
            ),
        ];
        for (what, engine_side, replay_side) in pairs {
            if engine_side != replay_side {
                self.errors.push(format!(
                    "{what} stats differ: engine {engine_side}, replay {replay_side}"
                ));
            }
        }
        let mut differing = 0u64;
        for (page, id) in r.twin_arena.pages() {
            let slot = r.twin_arena.slot(id);
            for l in (0..LINES_PER_PAGE).filter(|&l| slot.has_block(l)) {
                let addr = page * PAGE_BYTES as u64 + 64 * l as u64;
                if e.adversary().ciphertext(addr) != slot.block(l) {
                    differing += 1;
                }
            }
        }
        if differing > 0 {
            self.errors.push(format!(
                "{differing} stored ciphertexts differ between engine and twin"
            ));
        }
    }

    /// The ledger's per-layer metrics for `ops` measured single-op calls.
    pub fn metrics(&self, ops: u64, out: &mut BTreeMap<&'static str, f64>) {
        let tr = &self.tracer;
        let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;
        let total = |l: &str| tr.total(l).0;
        let calls = |l: &str| tr.total(l).1;
        out.insert("crypto.seal_ns", tr.ns_per_call("crypto.seal"));
        out.insert("crypto.unseal_ns", tr.ns_per_call("crypto.unseal"));
        out.insert("crypto.mac_ns", tr.ns_per_call("crypto.mac"));
        out.insert(
            "crypto.tweak8_ns_per_block",
            tr.ns_per_call("crypto.tweak8"),
        );
        let lines = calls("crypto.seal") + calls("crypto.unseal") + 2 * calls("crypto.walk");
        out.insert("crypto.lines_per_op", lines as f64 / ops.max(1) as f64);
        out.insert("device.update_ns", tr.ns_per_call("device.update"));
        out.insert("device.read_ns", tr.ns_per_call("device.read"));
        out.insert("device.read_run_ns", tr.ns_per_call("device.read_run"));
        out.insert("channel.update_ns", tr.ns_per_call("channel.update"));
        out.insert("channel.read_ns", tr.ns_per_call("channel.read"));
        let dev = total("device.update") + total("device.read");
        let chan = total("channel.update") + total("channel.read");
        let dev_calls = calls("device.update") + calls("device.read");
        out.insert(
            "channel.overhead_ns",
            (chan as f64 - dev as f64) / dev_calls.max(1) as f64,
        );
        out.insert("cache.stealth_access_ns", tr.ns_per_call("cache.stealth"));
        out.insert("cache.mac_access_ns", tr.ns_per_call("cache.mac"));
        out.insert("arena.ensure_slot_ns", tr.ns_per_call("arena.ensure_slot"));
        out.insert("arena.slot_lookup_ns", tr.ns_per_call("arena.slot_lookup"));
        out.insert("pagetable.get_ns", tr.ns_per_call("pagetable.get"));
        // Self time of the layers on the single-op path: the channel's
        // self time is its span less the device inside it; page-index
        // probes happen inside the device and the arena.
        let layers = chan
            + total("cache.stealth")
            + total("cache.mac")
            + total("arena.ensure_slot")
            + total("arena.slot_lookup")
            + total("crypto.seal")
            + total("crypto.unseal")
            + total("crypto.walk");
        let engine_ns = per_op(total("engine.single"));
        out.insert("engine.single_ns_per_op", engine_ns);
        out.insert("engine.layers_ns_per_op", per_op(layers));
        out.insert("engine.plumbing_ns_per_op", engine_ns - per_op(layers));
        let sharded = self.shards > 1;
        let pick = |v: f64| if sharded { v } else { 0.0 };
        let bc = self.batch_calls.max(1) as f64;
        out.insert(
            "sharded.batch_call_us",
            pick(tr.ns_per_call("sharded.batch_call") / 1e3),
        );
        out.insert("sharded.ops_per_batch", pick(self.batch_ops as f64 / bc));
        out.insert(
            "sharded.shards_per_batch",
            pick(self.batch_shards as f64 / bc),
        );
        let batched_ops = self.batch_ops.max(1) as f64;
        out.insert(
            "sharded.fanout_ns_per_op",
            pick(
                (total("sharded.batch_call") as f64 - total("plain.sub_batches") as f64)
                    / batched_ops,
            ),
        );
        out.insert(
            "sharded.routing_ns_per_op",
            pick(per_op(total("engine.single")) - per_op(total("plain.single"))),
        );
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One batch call's input, built before the call is timed.
struct BatchIn {
    write: bool,
    ops: Vec<(u64, Block)>,
    addrs: Vec<u64>,
}

impl BatchIn {
    fn new(write: bool, ops: Vec<(u64, Block)>) -> Self {
        let addrs = ops.iter().map(|o| o.0).collect();
        BatchIn { write, ops, addrs }
    }

    /// The batch call itself; `Err(i)`: op `i` failed.
    fn run(&self, t: &mut impl Target) -> Result<Vec<Block>, usize> {
        if self.write {
            t.write_batch(&self.ops).map(|()| Vec::new())
        } else {
            t.read_batch(&self.addrs)
        }
    }

    /// Oracle observations of the call's ops.
    fn observations(&self, result: Result<Vec<Block>, usize>) -> Vec<u64> {
        let mut obs = vec![ERR; self.ops.len()];
        match result {
            Ok(_) if self.write => obs.fill(0),
            Ok(blocks) => {
                for (o, b) in obs.iter_mut().zip(&blocks) {
                    *o = fingerprint(b);
                }
            }
            Err(i) if self.write => obs[..i].fill(0),
            Err(_) => {}
        }
        obs
    }
}

/// Mean cost in ns of one empty `Instant::now()` / `elapsed()` pair.
fn calibrate_span() -> u64 {
    const N: u64 = 200_000;
    let mut sum = 0u64;
    for _ in 0..N {
        let t0 = Instant::now();
        black_box(());
        sum += t0.elapsed().as_nanos() as u64;
    }
    sum / N
}

/// Share of consecutive ops of each stream that stay on the same page (the
/// engine's last-page slot cache hits on exactly these).
pub fn same_page_ratio(w: &Workload) -> f64 {
    let (mut same, mut pairs) = (0u64, 0u64);
    for s in &w.streams {
        for p in s.windows(2) {
            pairs += 1;
            same += (layout::page_of(p[0].addr) == layout::page_of(p[1].addr)) as u64;
        }
    }
    same as f64 / pairs.max(1) as f64
}
