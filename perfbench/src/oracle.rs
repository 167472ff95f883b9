//! Correctness oracle: seeded write payloads, a reference map of the
//! last-written plaintexts, and per-read fingerprints checked against it.

use std::collections::HashMap;

use crate::workload::MemOp;

/// One 64-byte cache block.
pub type Block = [u8; 64];

/// Observation recorded for an op that returned `Err`. A real fingerprint
/// equals it with probability 2^-64.
pub const ERR: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64 step: the benchmark's only source of derived randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic payload for a payload key.
pub fn payload(key: u64) -> Block {
    let mut s = key;
    let mut b = [0u8; 64];
    for word in b.chunks_exact_mut(8) {
        word.copy_from_slice(&splitmix(&mut s).to_le_bytes());
    }
    b
}

/// 64-bit fingerprint of a block (any single-bit change alters it).
pub fn fingerprint(b: &Block) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64;
    for word in b.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x100_0000_01b3)
            .rotate_left(29);
    }
    h
}

/// Payload keys of one pass over one stream: the key of op `i` derives from
/// the run seed, the stream, the pass number and the op index, so every
/// write of a run carries a distinct plaintext.
#[derive(Clone, Copy)]
pub struct Keys {
    base: u64,
}

impl Keys {
    pub fn new(seed: u64, stream: usize, pass: u64) -> Self {
        let mut s = seed ^ (stream as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
        let base = splitmix(&mut s) ^ pass.wrapping_mul(0xa076_1d64_78bd_642f);
        Keys { base }
    }

    pub fn key(self, op: usize) -> u64 {
        let mut s = self.base ^ (op as u64).wrapping_mul(0xe703_7ed1_a0b4_28db);
        splitmix(&mut s)
    }
}

/// The last plaintext written to every address of one stream, as its
/// payload key (absent: never written, reads as zeros).
#[derive(Default)]
pub struct Reference {
    last: HashMap<u64, u64>,
}

impl Reference {
    /// Checks one pass's observations (`0` for a completed write, the
    /// fingerprint of each read, [`ERR`] for a failed op) against the
    /// reference, advancing it past the pass's writes. Returns the number
    /// of failed ops: errors plus reads of the wrong plaintext.
    pub fn check_pass(&mut self, ops: &[MemOp], keys: Keys, observed: &[u64]) -> u64 {
        let zero = fingerprint(&[0u8; 64]);
        let mut failed = 0;
        for (i, (op, &obs)) in ops.iter().zip(observed).enumerate() {
            if obs == ERR {
                failed += 1;
                if op.write {
                    // The block's state is unknown after a failed write.
                    self.last.remove(&op.addr);
                }
                continue;
            }
            if op.write {
                self.last.insert(op.addr, keys.key(i));
            } else {
                let expect = self
                    .last
                    .get(&op.addr)
                    .map_or(zero, |&k| fingerprint(&payload(k)));
                if obs != expect {
                    failed += 1;
                }
            }
        }
        failed
    }
}
