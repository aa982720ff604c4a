//! Simulation statistics: per-processor busy/idle accounting and
//! utilization reports (the simulator's analogue of the paper's SPE
//! decrementer measurements, §5.2.1).

use crate::cost::KernelCost;
use crate::time::Cycles;

/// Cycle accounting for one processor (an SPE or a PPE thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessorStats {
    /// Cycles spent in likelihood-loop compute.
    pub loop_cycles: Cycles,
    /// Cycles in scaling conditionals.
    pub cond_cycles: Cycles,
    /// Cycles in exponentials.
    pub exp_cycles: Cycles,
    /// Cycles stalled on DMA.
    pub dma_stall: Cycles,
    /// Cycles in signalling.
    pub comm: Cycles,
    /// Kernel invocations executed.
    pub invocations: u64,
}

impl ProcessorStats {
    /// Cycles doing useful work (compute + signalling). DMA-stall cycles are
    /// *not* busy — the SPE is waiting on the MFC, not working — and are
    /// reported separately by [`ProcessorStats::stalled`].
    pub fn busy(&self) -> Cycles {
        self.loop_cycles + self.cond_cycles + self.exp_cycles + self.comm
    }

    /// Cycles stalled waiting on DMA completion.
    pub fn stalled(&self) -> Cycles {
        self.dma_stall
    }

    /// Cycles the processor was occupied at all (busy or stalled); the
    /// complement of idle time over the makespan.
    pub fn occupied(&self) -> Cycles {
        self.busy() + self.stalled()
    }

    /// Add one priced invocation (the processor-side components).
    pub fn add(&mut self, cost: &KernelCost) {
        self.loop_cycles += cost.loop_cycles;
        self.cond_cycles += cost.cond_cycles;
        self.exp_cycles += cost.exp_cycles;
        self.dma_stall += cost.dma_stall;
        self.comm += cost.comm;
        self.invocations += 1;
    }
}

/// Whole-simulation statistics.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Per-SPE accounting.
    pub spes: Vec<ProcessorStats>,
    /// PPE busy cycles (kernel execution on the PPE plus offload
    /// marshalling), across all PPE threads.
    pub ppe_busy: Cycles,
    /// End-to-end simulated cycles.
    pub makespan: Cycles,
}

impl SimStats {
    /// Stats for a machine with `n_spes` SPEs.
    pub fn new(n_spes: usize) -> SimStats {
        SimStats { spes: vec![ProcessorStats::default(); n_spes], ppe_busy: 0, makespan: 0 }
    }

    /// Mean SPE utilization over the makespan (0–1): *useful* work only.
    /// DMA-stall time is excluded — see [`SimStats::spe_stall_fraction`].
    pub fn spe_utilization(&self) -> f64 {
        if self.makespan == 0 || self.spes.is_empty() {
            return 0.0;
        }
        let busy: Cycles = self.spes.iter().map(|s| s.busy()).sum();
        busy as f64 / (self.makespan as f64 * self.spes.len() as f64)
    }

    /// Mean fraction of the makespan the SPEs spent stalled on DMA (0–1).
    pub fn spe_stall_fraction(&self) -> f64 {
        if self.makespan == 0 || self.spes.is_empty() {
            return 0.0;
        }
        let stalled: Cycles = self.spes.iter().map(|s| s.stalled()).sum();
        stalled as f64 / (self.makespan as f64 * self.spes.len() as f64)
    }

    /// A compact human-readable utilization report.
    pub fn report(&self, clock_hz: f64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "makespan: {:.3} s | mean SPE utilization {:.1}% (+{:.1}% DMA-stalled)",
            self.makespan as f64 / clock_hz,
            self.spe_utilization() * 100.0,
            self.spe_stall_fraction() * 100.0,
        );
        for (i, s) in self.spes.iter().enumerate() {
            if s.invocations == 0 {
                continue;
            }
            let _ = write!(
                out,
                "  SPE{i}: {:>10} tasks, busy {:.3} s ({:.1}%) + stalled {:.3} s ({:.1}%)",
                s.invocations,
                s.busy() as f64 / clock_hz,
                100.0 * s.busy() as f64 / self.makespan.max(1) as f64,
                s.stalled() as f64 / clock_hz,
                100.0 * s.stalled() as f64 / self.makespan.max(1) as f64,
            );
            // Component split is only known when the caller recorded it
            // (the phase-level DES tracks busy and DMA-stall time only).
            if s.exp_cycles + s.cond_cycles + s.comm > 0 {
                let _ = write!(
                    out,
                    " [loops {:.0}% exp {:.0}% cond {:.0}% dma {:.1}% comm {:.1}%]",
                    100.0 * s.loop_cycles as f64 / s.occupied().max(1) as f64,
                    100.0 * s.exp_cycles as f64 / s.occupied().max(1) as f64,
                    100.0 * s.cond_cycles as f64 / s.occupied().max(1) as f64,
                    100.0 * s.dma_stall as f64 / s.occupied().max(1) as f64,
                    100.0 * s.comm as f64 / s.occupied().max(1) as f64,
                );
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(loops: Cycles) -> KernelCost {
        KernelCost {
            loop_cycles: loops,
            cond_cycles: 10,
            exp_cycles: 20,
            dma_stall: 5,
            comm: 1,
            ppe_overhead: 7,
        }
    }

    #[test]
    fn processor_accounting() {
        let mut p = ProcessorStats::default();
        p.add(&cost(100));
        p.add(&cost(200));
        assert_eq!(p.invocations, 2);
        // DMA stalls are accounted, but NOT as busy time.
        assert_eq!(p.busy(), 300 + 2 * (10 + 20 + 1));
        assert_eq!(p.stalled(), 2 * 5);
        assert_eq!(p.occupied(), p.busy() + p.stalled());
    }

    #[test]
    fn utilization_math() {
        let mut s = SimStats::new(2);
        s.spes[0].add(&cost(969)); // busy = 1000, stalled = 5
        s.makespan = 1000;
        assert_eq!(s.spes[0].busy(), 1000);
        assert_eq!(s.spes[0].stalled(), 5);
        // Utilization counts useful work only; stall time reports separately.
        assert!((s.spe_utilization() - 0.5).abs() < 1e-12);
        assert!((s.spe_stall_fraction() - 5.0 / 2000.0).abs() < 1e-12);
    }

    #[test]
    fn dma_stall_is_not_utilization() {
        // A pure-stall SPE has zero utilization — the pre-fix accounting
        // reported 100% here, inflating every SPE-utilization figure.
        let mut s = SimStats::new(1);
        s.spes[0].dma_stall = 1000;
        s.spes[0].invocations = 1;
        s.makespan = 1000;
        assert_eq!(s.spe_utilization(), 0.0);
        assert_eq!(s.spe_stall_fraction(), 1.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SimStats::new(8);
        assert_eq!(s.spe_utilization(), 0.0);
    }

    #[test]
    fn report_mentions_active_spes_only() {
        let mut s = SimStats::new(8);
        s.spes[3].add(&cost(1000));
        s.makespan = 5000;
        let r = s.report(3.2e9);
        assert!(r.contains("SPE3"));
        assert!(!r.contains("SPE0"));
        assert!(r.contains("makespan"));
    }
}
