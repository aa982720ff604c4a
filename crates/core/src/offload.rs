//! Mapping a real inference trace onto the simulated Cell.
//!
//! The `phylo` engine records every kernel invocation of an actual tree
//! search. This module decides, per invocation and ladder level, *where* it
//! runs (PPE or SPE), whether it pays the offload marshalling and signalling
//! round trip, and what it costs — producing the per-invocation
//! `(PPE cycles, SPE cycles)` streams the schedulers consume.

use crate::config::{OffloadStage, OptConfig};
use cellsim::cost::{CostModel, ExecutionFlags, KernelCost, Location};
use cellsim::Cycles;
use phylo::trace::{CallParent, KernelEvent};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fraction of total runtime outside the three kernels: the paper profiles
/// 98.77% inside them (§5.2), so the remainder is 1.23% of the total —
/// i.e. 1.23/98.77 of the kernel time — and always runs on the PPE.
pub const OTHER_WORK_RATIO: f64 = 0.0123 / 0.9877;

/// One priced kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PricedInvocation {
    /// Cycles of PPE-thread work (kernel-on-PPE compute, or offload
    /// marshalling when the kernel runs on an SPE).
    pub ppe: Cycles,
    /// SPE cycles that stay serial under loop-level parallelization
    /// (transition-matrix exponentials, signalling).
    pub spe_serial: Cycles,
    /// SPE compute cycles the LLP scheduler can split across SPEs (the big
    /// likelihood loops and conditionals).
    pub spe_parallel: Cycles,
    /// SPE DMA stall cycles — split across SPEs under LLP like the compute,
    /// but subject to EIB bandwidth contention when many SPEs stream at
    /// once.
    pub spe_dma: Cycles,
}

impl PricedInvocation {
    /// Total SPE-busy cycles when run on a single SPE.
    pub fn spe_busy(&self) -> Cycles {
        self.spe_serial + self.spe_parallel + self.spe_dma
    }

    /// End-to-end cycles under synchronous (blocking) offload.
    pub fn sequential(&self) -> Cycles {
        self.ppe + self.spe_busy()
    }

    /// SPE-busy cycles when the parallel portion is split across `k` SPEs,
    /// paying `dispatch` serial cycles per additional SPE (§5.3 LLP).
    /// `eib_factor` (≥ 1) inflates the DMA share for bus contention when
    /// `k × active workers` SPEs stream concurrently.
    pub fn spe_busy_llp(&self, k: usize, dispatch: Cycles, eib_factor: f64) -> Cycles {
        assert!(k >= 1);
        assert!(eib_factor >= 1.0);
        if self.spe_busy() == 0 || k == 1 {
            return self.spe_serial
                + self.spe_parallel
                + (self.spe_dma as f64 * eib_factor) as Cycles;
        }
        self.spe_serial
            + self.spe_parallel.div_ceil(k as u64)
            + (self.spe_dma as f64 * eib_factor) as Cycles / k as u64
            + (k as u64 - 1) * dispatch
    }

    /// The DMA-stall component of [`PricedInvocation::spe_busy_llp`] —
    /// exactly the cycles of that total an SPE spends waiting on the MFC
    /// rather than computing. `spe_busy_llp(…) - spe_dma_llp(…)` is the
    /// busy (compute + signalling) share. Replicates the parent's rounding
    /// bit-for-bit (cast before divide) so the split is exact.
    pub fn spe_dma_llp(&self, k: usize, eib_factor: f64) -> Cycles {
        assert!(k >= 1);
        assert!(eib_factor >= 1.0);
        let inflated = (self.spe_dma as f64 * eib_factor) as Cycles;
        if self.spe_busy() == 0 || k == 1 {
            inflated
        } else {
            inflated / k as u64
        }
    }
}

/// Decide where an invocation executes under a ladder level and with what
/// flags.
pub fn flags_for_event(ev: &KernelEvent, cfg: &OptConfig) -> ExecutionFlags {
    let on_spe = match cfg.stage {
        OffloadStage::PpeOnly => false,
        OffloadStage::NewviewOnly => ev.op.is_newview(),
        OffloadStage::AllThree => true,
    };
    if !on_spe {
        return ExecutionFlags {
            location: Location::Ppe,
            exp: cfg.exp_kind(),
            cond: cfg.cond_kind(),
            vectorized: cfg.vectorized,
            double_buffered: cfg.double_buffering,
            signal: cfg.signal_kind(),
            pay_offload: false,
        };
    }
    // On the SPE. With all three functions resident, `newview` invocations
    // nested inside an on-SPE `makenewz`/`evaluate` pay no PPE↔SPE
    // communication (§5.2.7); with only `newview` offloaded every call does.
    let nested_free = cfg.stage == OffloadStage::AllThree
        && ev.op.is_newview()
        && ev.parent != CallParent::Search;
    ExecutionFlags {
        location: Location::Spe,
        exp: cfg.exp_kind(),
        cond: cfg.cond_kind(),
        vectorized: cfg.vectorized,
        double_buffered: cfg.double_buffering,
        signal: cfg.signal_kind(),
        pay_offload: !nested_free,
    }
}

/// Price one event. Returns the invocation plus the raw [`KernelCost`].
pub fn price_event(
    ev: &KernelEvent,
    model: &CostModel,
    cfg: &OptConfig,
) -> (PricedInvocation, KernelCost) {
    let flags = flags_for_event(ev, cfg);
    let cost = model.kernel_cost(ev, &flags);
    let priced = match flags.location {
        Location::Ppe => {
            PricedInvocation { ppe: cost.total(), spe_serial: 0, spe_parallel: 0, spe_dma: 0 }
        }
        Location::Spe => PricedInvocation {
            ppe: cost.ppe_overhead,
            spe_serial: cost.serial(),
            spe_parallel: cost.loop_cycles + cost.cond_cycles,
            spe_dma: cost.dma_stall,
        },
    };
    (priced, cost)
}

/// A whole trace priced under one ladder level, with the bookkeeping the
/// schedulers and reports need.
#[derive(Debug, Clone)]
pub struct PricedTrace {
    /// Per-invocation costs in trace order. The final entry is the
    /// "other work" pseudo-invocation (PPE-only, §5.2's 1.23%).
    pub invocations: Vec<PricedInvocation>,
    /// Aggregate component cycles (for utilization breakdowns).
    pub totals: KernelCost,
}

impl PricedTrace {
    /// Total PPE-thread cycles (kernel-on-PPE + marshalling + other work).
    pub fn ppe_cycles(&self) -> Cycles {
        self.invocations.iter().map(|i| i.ppe).sum()
    }

    /// Total SPE-busy cycles.
    pub fn spe_cycles(&self) -> Cycles {
        self.invocations.iter().map(|i| i.spe_busy()).sum()
    }

    /// End-to-end cycles of one bootstrap under synchronous offload with a
    /// single worker.
    pub fn sequential_cycles(&self) -> Cycles {
        self.ppe_cycles() + self.spe_cycles()
    }
}

/// A multiplicative hash for the event keys of [`Pricer::new`]: SipHash,
/// the std default, costs more than pricing the event it would look up
/// (≈ 0.9 ms of a 33k-event trace). The keys are fields of events this
/// program recorded, so SipHash's resistance to crafted collisions buys
/// nothing here.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A trace's pricing inputs that no ladder level changes, derived once.
///
/// An event's price is a function of its fields, and a trace of tens of
/// thousands of events has a few dozen distinct ones (55 in an ALN42
/// capture). So each distinct event is priced once per ladder level and
/// the trace is rebuilt from those prices; the "other work"
/// pseudo-invocation, a fixed share of the PPE-only kernel time, is the
/// same at every level and is computed here.
#[derive(Debug, Clone)]
pub struct Pricer<'m> {
    model: &'m CostModel,
    /// One event of each distinct kind, and how many events are that kind.
    kinds: Vec<(KernelEvent, u64)>,
    /// Each event's index into `kinds`, in trace order.
    order: Vec<u32>,
    /// PPE-only cycles of the three kernels over the whole trace.
    ppe_kernels: Cycles,
}

impl<'m> Pricer<'m> {
    /// Derive the pricing inputs of `events` under `model`.
    pub fn new(events: &[KernelEvent], model: &'m CostModel) -> Pricer<'m> {
        let mut index: HashMap<_, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut kinds: Vec<(KernelEvent, u64)> = Vec::new();
        let order = events
            .iter()
            .map(|ev| {
                let counts = [ev.patterns, ev.rates, ev.exp_calls, ev.scaling_checks];
                let key =
                    (ev.op, ev.parent, counts, [ev.scalings, ev.newton_iters, ev.inner_operands]);
                let i = *index.entry(key).or_insert_with(|| {
                    kinds.push((*ev, 0));
                    (kinds.len() - 1) as u32
                });
                kinds[i as usize].1 += 1;
                i
            })
            .collect();
        let ppe_only = OptConfig::ppe_only();
        let ppe_kernels =
            kinds.iter().map(|(ev, n)| n * price_event(ev, model, &ppe_only).0.ppe).sum();
        Pricer { model, kinds, order, ppe_kernels }
    }

    /// The per-bootstrap PPE-side work outside the three kernels.
    pub fn other_work(&self) -> Cycles {
        (self.ppe_kernels as f64 * OTHER_WORK_RATIO) as Cycles
    }

    /// Cycles of one bootstrap run entirely on the PPE (Table 1a's rung):
    /// the kernels plus the other work.
    pub fn ppe_only_cycles(&self) -> Cycles {
        self.ppe_kernels + self.other_work()
    }

    /// Each kind of event priced under `cfg`, with how many events it covers.
    fn priced_kinds<'a>(
        &'a self,
        cfg: &'a OptConfig,
    ) -> impl Iterator<Item = (u64, PricedInvocation, KernelCost)> + 'a {
        self.kinds.iter().map(move |(ev, n)| {
            let (priced, cost) = price_event(ev, self.model, cfg);
            (*n, priced, cost)
        })
    }

    /// The trace priced under `cfg`, with the "other work" entry appended.
    pub fn price(&self, cfg: &OptConfig) -> PricedTrace {
        let mut prices = Vec::with_capacity(self.kinds.len());
        let mut totals = KernelCost::default();
        for (n, priced, cost) in self.priced_kinds(cfg) {
            totals.loop_cycles += n * cost.loop_cycles;
            totals.cond_cycles += n * cost.cond_cycles;
            totals.exp_cycles += n * cost.exp_cycles;
            totals.dma_stall += n * cost.dma_stall;
            totals.comm += n * cost.comm;
            totals.ppe_overhead += n * cost.ppe_overhead;
            prices.push(priced);
        }
        let other = PricedInvocation { ppe: self.other_work(), ..PricedInvocation::default() };
        let invocations = self.order.iter().map(|&i| prices[i as usize]).chain([other]).collect();
        PricedTrace { invocations, totals }
    }

    /// `(ppe_cycles, spe_cycles)` of [`Pricer::price`]`(cfg)` without
    /// building the trace: all the synchronous-worker tables read.
    pub fn cycles(&self, cfg: &OptConfig) -> (Cycles, Cycles) {
        self.priced_kinds(cfg).fold((self.other_work(), 0), |(ppe, spe), (n, p, _)| {
            (ppe + n * p.ppe, spe + n * p.spe_busy())
        })
    }
}

/// Price a full trace under a ladder level, appending the "other work"
/// pseudo-invocation.
pub fn price_trace(events: &[KernelEvent], model: &CostModel, cfg: &OptConfig) -> PricedTrace {
    Pricer::new(events, model).price(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::trace::KernelOp;

    fn ev(op: KernelOp, parent: CallParent) -> KernelEvent {
        KernelEvent {
            op,
            parent,
            patterns: 228,
            rates: 4,
            exp_calls: 32,
            scaling_checks: 912,
            scalings: 1,
            newton_iters: if op == KernelOp::Makenewz { 4 } else { 0 },
            inner_operands: 3,
        }
    }

    #[test]
    fn ppe_only_runs_everything_on_ppe() {
        let model = CostModel::paper_calibrated();
        let cfg = OptConfig::ppe_only();
        for op in [KernelOp::NewviewInnerInner, KernelOp::Makenewz, KernelOp::Evaluate] {
            let (p, _) = price_event(&ev(op, CallParent::Search), &model, &cfg);
            assert_eq!(p.spe_busy(), 0, "{op:?}");
            assert!(p.ppe > 0);
        }
    }

    #[test]
    fn newview_only_splits_by_kernel() {
        let model = CostModel::paper_calibrated();
        let cfg = OptConfig::naive_offload();
        let (nv, _) =
            price_event(&ev(KernelOp::NewviewTipInner, CallParent::Makenewz), &model, &cfg);
        assert!(nv.spe_busy() > 0, "newview goes to the SPE");
        assert_eq!(nv.ppe, model.offload_overhead, "marshalling stays on the PPE");
        let (mz, _) = price_event(&ev(KernelOp::Makenewz, CallParent::Search), &model, &cfg);
        assert_eq!(mz.spe_busy(), 0, "makenewz stays on the PPE");
    }

    #[test]
    fn nested_newview_is_comm_free_only_with_all_three() {
        let nested = ev(KernelOp::NewviewInnerInner, CallParent::Makenewz);

        let partial = flags_for_event(&nested, &OptConfig::naive_offload());
        assert!(partial.pay_offload, "NewviewOnly: every newview pays comm");

        let full = flags_for_event(&nested, &OptConfig::fully_optimized());
        assert!(!full.pay_offload, "AllThree: nested newview is free");

        let top = ev(KernelOp::NewviewInnerInner, CallParent::Search);
        assert!(flags_for_event(&top, &OptConfig::fully_optimized()).pay_offload);
    }

    #[test]
    fn ladder_monotonically_improves_sequential_time() {
        let model = CostModel::paper_calibrated();
        let events: Vec<KernelEvent> = vec![
            ev(KernelOp::NewviewInnerInner, CallParent::Search),
            ev(KernelOp::NewviewTipInner, CallParent::Makenewz),
            ev(KernelOp::NewviewTipInner, CallParent::Evaluate),
            ev(KernelOp::Makenewz, CallParent::Search),
            ev(KernelOp::Evaluate, CallParent::Search),
        ];
        let ladder = OptConfig::ladder();
        let mut times: Vec<Cycles> = Vec::new();
        for (_, cfg) in &ladder[1..] {
            times.push(price_trace(&events, &model, cfg).sequential_cycles());
        }
        for w in times.windows(2) {
            assert!(w[1] <= w[0], "each optimization must help: {times:?}");
        }
    }

    #[test]
    fn other_work_is_small_and_constant_across_levels() {
        let model = CostModel::paper_calibrated();
        let events = vec![ev(KernelOp::NewviewInnerInner, CallParent::Search); 10];
        let pricer = Pricer::new(&events, &model);
        let other = pricer.other_work();
        let frac = other as f64 / pricer.ppe_only_cycles() as f64;
        assert!((frac - 0.0123).abs() < 1e-3, "other fraction {frac}");
        for (label, cfg) in OptConfig::ladder() {
            assert_eq!(pricer.price(&cfg).invocations.last().unwrap().ppe, other, "{label}");
        }
    }

    #[test]
    fn llp_split_helps_parallel_portion_only() {
        let model = CostModel::paper_calibrated();
        let cfg = OptConfig::fully_optimized();
        let (p, _) =
            price_event(&ev(KernelOp::NewviewInnerInner, CallParent::Makenewz), &model, &cfg);
        let one = p.spe_busy_llp(1, model.llp_dispatch, 1.0);
        assert_eq!(one, p.spe_busy());
        let eight = p.spe_busy_llp(8, model.llp_dispatch, 2.0);
        assert!(eight < one, "8-way LLP must be faster: {eight} vs {one}");
        assert!(eight > p.spe_serial, "serial portion is not parallelized");
        // Extreme fan-out eventually loses to dispatch overhead.
        let huge = p.spe_busy_llp(64, model.llp_dispatch, 2.0);
        assert!(huge > eight, "dispatch overhead dominates at silly fan-outs");
    }

    #[test]
    fn dma_split_is_exact_for_all_fanouts() {
        let model = CostModel::paper_calibrated();
        let cfg = OptConfig::fully_optimized();
        let (p, _) =
            price_event(&ev(KernelOp::NewviewInnerInner, CallParent::Makenewz), &model, &cfg);
        assert!(p.spe_dma > 0, "offloaded newview must have a DMA share");
        for k in [1usize, 2, 3, 4, 8] {
            for eib in [1.0, 1.5, 2.0] {
                let total = p.spe_busy_llp(k, model.llp_dispatch, eib);
                let dma = p.spe_dma_llp(k, eib);
                assert!(dma <= total, "k={k} eib={eib}");
                // The busy remainder is exactly the non-DMA terms.
                let busy = total - dma;
                let expected_busy = if k == 1 {
                    p.spe_serial + p.spe_parallel
                } else {
                    p.spe_serial
                        + p.spe_parallel.div_ceil(k as u64)
                        + (k as u64 - 1) * model.llp_dispatch
                };
                assert_eq!(busy, expected_busy, "k={k} eib={eib}");
            }
        }
        // PPE-only invocations have no DMA share at all.
        let none = PricedInvocation { ppe: 1000, ..PricedInvocation::default() };
        assert_eq!(none.spe_dma_llp(8, 2.0), 0);
    }

    #[test]
    fn priced_trace_totals_are_consistent() {
        let model = CostModel::paper_calibrated();
        let cfg = OptConfig::fully_optimized();
        let events: Vec<KernelEvent> = vec![
            ev(KernelOp::NewviewInnerInner, CallParent::Search),
            ev(KernelOp::Makenewz, CallParent::Search),
        ];
        let t = price_trace(&events, &model, &cfg);
        assert_eq!(t.invocations.len(), 3, "two kernels + other-work entry");
        assert_eq!(t.sequential_cycles(), t.ppe_cycles() + t.spe_cycles());
        assert!(t.totals.loop_cycles > 0);
    }
}
