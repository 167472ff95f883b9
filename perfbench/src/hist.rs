//! Fixed-size latency histogram: exact below 65,536 ns, and above that
//! 1024 buckets per power of two (0.1% resolution). Memory stays the same
//! however many calls a run makes, so peak RSS does not grow with speed.

const EXACT: u64 = 1 << 16;
const SUB_BITS: u32 = 10;
const BUCKETS: usize = EXACT as usize + (64 - 16) * (1 << SUB_BITS);

pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (bucket lower bound), 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return lower_bound(b) as f64;
            }
        }
        lower_bound(BUCKETS - 1) as f64
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    EXACT as usize + ((exp - 16) as usize) * (1 << SUB_BITS) + sub as usize
}

fn lower_bound(b: usize) -> u64 {
    if (b as u64) < EXACT {
        return b as u64;
    }
    let k = b - EXACT as usize;
    let exp = 16 + (k >> SUB_BITS) as u32;
    let sub = (k & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}
