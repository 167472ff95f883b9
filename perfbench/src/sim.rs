//! Cycle-simulator pass: every trace under `NoProtect` and `Toleo`.

use std::time::Instant;

use toleo_sim::config::{Protection, SimConfig};
use toleo_sim::system::{RunStats, System};
use toleo_workloads::{Benchmark, Trace};

#[derive(Default)]
pub struct SimPass {
    pub noprotect_s: f64,
    pub toleo_s: f64,
    /// Memory ops modelled by both runs together.
    pub mem_ops: u64,
    pub noprotect: Vec<RunStats>,
    pub toleo: Vec<RunStats>,
}

pub fn run(traces: &[Trace]) -> SimPass {
    let mut pass = SimPass::default();
    for t in traces {
        // Construction is set-up work; only the runs are timed.
        let mut base = System::new(SimConfig::scaled(Protection::NoProtect));
        let mut toleo = System::new(SimConfig::scaled(Protection::Toleo));
        let t0 = Instant::now();
        pass.noprotect.push(base.run(t));
        pass.noprotect_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        pass.toleo.push(toleo.run(t));
        pass.toleo_s += t0.elapsed().as_secs_f64();
        pass.mem_ops += 2 * t.mem_ops();
    }
    pass
}

impl SimPass {
    /// Adds another pass's runs to this one.
    pub fn extend(&mut self, other: SimPass) {
        self.noprotect_s += other.noprotect_s;
        self.toleo_s += other.toleo_s;
        self.mem_ops += other.mem_ops;
        self.noprotect.extend(other.noprotect);
        self.toleo.extend(other.toleo);
    }

    pub fn mem_ops_per_s(&self) -> f64 {
        self.mem_ops as f64 / (self.noprotect_s + self.toleo_s)
    }

    /// Simulated Toleo overhead over all traces: Toleo cycles / NoProtect
    /// cycles - 1, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let base: f64 = self.noprotect.iter().map(|s| s.cycles).sum();
        let toleo: f64 = self.toleo.iter().map(|s| s.cycles).sum();
        (toleo / base - 1.0) * 100.0
    }

    /// Mean absolute error of the model's NoProtect LLC MPKI against the
    /// paper's Table 2, when the traces are the Table-2 benchmarks.
    pub fn mpki_abs_error(&self) -> Option<f64> {
        let all = Benchmark::all();
        if self.noprotect.len() != all.len() {
            return None;
        }
        let err: f64 = all
            .iter()
            .zip(&self.noprotect)
            .map(|(b, s)| (s.llc_mpki - b.paper_mpki()).abs())
            .sum();
        Some(err / all.len() as f64)
    }
}
