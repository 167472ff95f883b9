//! In-memory span recorder of the traced run. Per-layer totals and call
//! counts cover every call; raw spans are kept for one id in
//! [`SAMPLE_EVERY`] and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Raw spans are kept for ids divisible by this.
pub const SAMPLE_EVERY: u64 = 64;

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One recorded span. Spans with the same `id` belong to the same trace op
/// (for chunked layer replays: the first op of the chunk).
pub struct Span {
    pub id: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u32,
}

#[derive(Default)]
pub struct Tracer {
    /// Per layer: total ns and calls.
    pub totals: BTreeMap<&'static str, (u64, u64)>,
    pub raw: Vec<Span>,
}

impl Tracer {
    pub fn record(
        &mut self,
        id: u64,
        layer: &'static str,
        start: Instant,
        dur_ns: u64,
        calls: u32,
    ) {
        let e = self.totals.entry(layer).or_default();
        e.0 += dur_ns;
        e.1 += calls as u64;
        if id.is_multiple_of(SAMPLE_EVERY) {
            let start_ns = start.saturating_duration_since(origin()).as_nanos() as u64;
            self.raw.push(Span {
                id,
                layer,
                start_ns,
                dur_ns,
                calls,
            });
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        for (layer, (ns, calls)) in other.totals {
            let e = self.totals.entry(layer).or_default();
            e.0 += ns;
            e.1 += calls;
        }
        self.raw.extend(other.raw);
    }

    /// Total ns and calls of a layer.
    pub fn total(&self, layer: &str) -> (u64, u64) {
        self.totals.get(layer).copied().unwrap_or((0, 0))
    }

    /// Mean ns per call of a layer (0 when the layer was not called).
    pub fn ns_per_call(&self, layer: &str) -> f64 {
        let (ns, calls) = self.total(layer);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Writes the totals and the sampled raw spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (layer, (ns, calls)) in &self.totals {
            writeln!(
                out,
                "{{\"total\":\"{layer}\",\"ns\":{ns},\"calls\":{calls}}}"
            )?;
        }
        for s in &self.raw {
            writeln!(
                out,
                "{{\"id\":{},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.id, s.layer, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()
    }
}
