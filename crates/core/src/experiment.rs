//! End-to-end experiment drivers: capture a real inference workload, then
//! regenerate every table and figure of the paper from it.
//!
//! The pipeline is exactly the substitution DESIGN.md documents: a real ML
//! inference runs on a synthetic `42_SC`-equivalent alignment with full
//! kernel tracing; the trace is priced by the calibrated Cell cost model
//! under every rung of the optimization ladder; the schedulers distribute
//! the priced invocations over the simulated machine.

use crate::config::OptConfig;
use crate::config::Scheduler;
use crate::error::{ExperimentError, Result};
use crate::offload::{price_trace, PricedTrace, Pricer};
use crate::platform::PlatformModel;
use crate::report::{Comparison, FIGURE3_BOOTSTRAPS, PAPER_LADDER, PAPER_TABLE_8, TABLE_ROWS};
use crate::sched::{
    mgps_outcomes, schedule_makespan, sync_makespan, sync_workers_makespan, DesParams, SimOutcome,
};
use cellsim::cost::CostModel;
use cellsim::fault::FaultPlan;
use cellsim::tracelog::TraceLog;
use phylo::likelihood::LikelihoodConfig;
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use phylo::trace::{KernelEvent, KernelOp, TraceCounters};

/// What workload to capture.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub n_taxa: usize,
    pub n_sites: usize,
    pub seed: u64,
    pub search: SearchConfig,
}

impl WorkloadSpec {
    /// The paper's workload: the `42_SC`-equivalent dataset (42 taxa ×
    /// 1167 sites, ~250 patterns) under a complete rapid-hill-climbing
    /// inference.
    pub fn aln42() -> WorkloadSpec {
        let mut search = SearchConfig::standard();
        search.spr_radius = 8;
        search.max_spr_rounds = 6;
        search.branch_smoothings = 6;
        WorkloadSpec { n_taxa: 42, n_sites: 1167, seed: 0x42_5C, search }
    }

    /// A small workload for tests (same structure, much less work).
    ///
    /// NOTE: with only ~100 site patterns the per-offload marshalling
    /// dominates the kernels, so offloading does *not* pay off on this
    /// workload — a real granularity effect. Shape assertions that depend
    /// on 42_SC-like kernel sizes should use [`WorkloadSpec::test_mid`].
    pub fn small() -> WorkloadSpec {
        let mut search = SearchConfig::fast();
        search.spr_radius = 3;
        search.max_spr_rounds = 1;
        WorkloadSpec { n_taxa: 10, n_sites: 300, seed: 7, search }
    }

    /// A mid-size test workload standing in for [`Self::aln42`] at unit-test
    /// cost: a few hundred site patterns (428; ALN42 has 240), so offload
    /// granularity is in the paper's regime, and the same search structure
    /// as ALN42 — Γ shape and GTR rates fitted, then a lazy SPR round — so
    /// the kernel mix is too. At PPE pricing (`paper profile`) it is 53.0 %
    /// `newview` / 43.3 % `makenewz` / 2.4 % `evaluate`, against the full
    /// ALN42 capture's 51.0 / 47.6 / 0.2 (paper: 76.8 / 19.2 / 2.4).
    ///
    /// The model fit is what carries the mix: every trial value costs a full
    /// traversal. Without it `newview` stays at 38–46 % for any tree size
    /// up to 42 taxa and any radius up to 10, and because the `exp`
    /// replacement only touches the offloaded `newview`, Table 2's gain
    /// reads 0.24 where ALN42 reads 0.42.
    pub fn test_mid() -> WorkloadSpec {
        let mut search = SearchConfig::fast();
        search.spr_radius = 5;
        search.max_spr_rounds = 1;
        search.optimize_exchangeabilities = true;
        WorkloadSpec { n_taxa: 12, n_sites: 900, seed: 11, search }
    }
}

/// A captured workload: the full kernel-invocation trace of one inference.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Every kernel invocation, in execution order.
    pub events: Vec<KernelEvent>,
    /// Aggregate counters.
    pub counters: TraceCounters,
    /// SPR-round boundaries: each mark slices `events` into one round's
    /// invocations (plus setup/polish work outside any round).
    pub rounds: Vec<phylo::trace::RoundMark>,
    /// Final log-likelihood of the inference (sanity anchor).
    pub log_likelihood: f64,
    /// Distinct site patterns of the alignment.
    pub n_patterns: usize,
}

impl Workload {
    /// The events of one SPR round, by round mark.
    pub fn round_events(&self, mark: &phylo::trace::RoundMark) -> &[KernelEvent] {
        let begin = mark.begin.min(self.events.len());
        let end = mark.end.min(self.events.len());
        &self.events[begin..end]
    }
}

/// Run a real inference with full tracing and return its workload.
pub fn capture_workload(spec: &WorkloadSpec) -> Result<Workload> {
    if spec.n_taxa < 4 {
        return Err(ExperimentError::InvalidSpec {
            field: "n_taxa",
            value: spec.n_taxa,
            reason: "an unrooted tree search needs at least 4 taxa",
        });
    }
    if spec.n_sites == 0 {
        return Err(ExperimentError::InvalidSpec {
            field: "n_sites",
            value: spec.n_sites,
            reason: "an alignment needs at least one site",
        });
    }
    let sim = if spec.n_taxa == 42 && spec.n_sites == 1167 {
        SimulationConfig::aln42()
    } else {
        SimulationConfig::new(spec.n_taxa, spec.n_sites, spec.seed)
    };
    let generated = sim.generate();
    // The Cell model prices this trace: pin the Cell profile, so a host
    // `exp` choice cannot reach the simulated tables.
    let search = SearchConfig { likelihood: LikelihoodConfig::cell(), ..spec.search.clone() };
    let request = InferenceRequest::new(search, spec.seed);
    let result = run_inference(&generated.alignment, &request, InferenceOptions::new().traced())
        .expect("un-checkpointed search on finite data cannot fail")
        .result;
    if !result.log_likelihood.is_finite() {
        return Err(ExperimentError::NonFiniteLikelihood(result.log_likelihood));
    }
    let counters = *result.trace.counters();
    let rounds = result.trace.rounds().to_vec();
    let events = result.trace.into_events();
    if events.is_empty() {
        return Err(ExperimentError::EmptyTrace);
    }
    Ok(Workload {
        events,
        counters,
        rounds,
        log_likelihood: result.log_likelihood,
        n_patterns: generated.alignment.n_patterns(),
    })
}

/// The fault-free, untraced schedule every table and figure prices.
fn clean_schedule(
    scheduler: Scheduler,
    priced: &PricedTrace,
    n_jobs: usize,
    model: &CostModel,
    params: &DesParams,
) -> SimOutcome {
    let (plan, mut off) = (FaultPlan::none(), TraceLog::disabled());
    schedule_makespan(scheduler, priced, n_jobs, model, params, &plan, &mut off)
}

/// Reject workloads whose trace has nothing to price.
fn check_workload(workload: &Workload) -> Result<()> {
    if workload.events.is_empty() {
        return Err(ExperimentError::EmptyTrace);
    }
    Ok(())
}

/// One rung of the ladder with its four workload rows.
#[derive(Debug, Clone)]
pub struct LevelResult {
    pub label: &'static str,
    pub config: OptConfig,
    pub rows: Vec<Comparison>,
}

/// Reproduce Tables 1a–7: every ladder rung × the paper's four workload
/// rows (1 worker × 1 bootstrap, 2 workers × 8/16/32 bootstraps) under
/// synchronous-worker scheduling.
pub fn run_ladder(workload: &Workload, model: &CostModel) -> Result<Vec<LevelResult>> {
    check_workload(workload)?;
    let pricer = Pricer::new(&workload.events, model);
    let levels = OptConfig::ladder()
        .into_iter()
        .enumerate()
        .map(|(i, (label, config))| {
            let (ppe, spe) = pricer.cycles(&config);
            let rows = TABLE_ROWS
                .iter()
                .zip(PAPER_LADDER[i].iter())
                .map(|(&(row_label, workers, bootstraps), &paper)| Comparison {
                    label: row_label.to_string(),
                    paper_seconds: paper,
                    simulated_seconds: model.seconds(sync_makespan(ppe, spe, bootstraps, workers)),
                })
                .collect();
            LevelResult { label, config, rows }
        })
        .collect();
    Ok(levels)
}

/// Reproduce Table 8: the MGPS dynamic scheduler over 1/8/16/32 bootstraps
/// with the fully optimized code.
pub fn run_table8(
    workload: &Workload,
    model: &CostModel,
    params: &DesParams,
) -> Result<Vec<Comparison>> {
    check_workload(workload)?;
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let counts = PAPER_TABLE_8.map(|(n, _)| n);
    let outcomes = mgps_outcomes(&priced, &counts, model, params);
    Ok(PAPER_TABLE_8
        .iter()
        .zip(&outcomes)
        .map(|(&(n, paper), out)| Comparison {
            label: format!("{n} bootstrap{}", if n == 1 { "" } else { "s" }),
            paper_seconds: paper,
            simulated_seconds: model.seconds(out.makespan),
        })
        .collect())
}

/// Figure 3 data: execution time vs #bootstraps on Cell (MGPS), Power5 and
/// Xeon.
#[derive(Debug, Clone)]
pub struct Figure3 {
    pub bootstraps: Vec<usize>,
    pub cell: Vec<f64>,
    pub power5: Vec<f64>,
    pub xeon: Vec<f64>,
}

/// Reproduce Figure 3.
pub fn run_figure3(workload: &Workload, model: &CostModel, params: &DesParams) -> Result<Figure3> {
    check_workload(workload)?;
    let pricer = Pricer::new(&workload.events, model);
    let optimized = pricer.price(&OptConfig::fully_optimized());
    let ppe_bootstrap_seconds = model.seconds(pricer.ppe_only_cycles());

    let power5 = PlatformModel::power5();
    let xeon = PlatformModel::xeon();
    let mut fig = Figure3 {
        bootstraps: FIGURE3_BOOTSTRAPS.to_vec(),
        cell: Vec::new(),
        power5: Vec::new(),
        xeon: Vec::new(),
    };
    let mgps = mgps_outcomes(&optimized, &FIGURE3_BOOTSTRAPS, model, params);
    for (&n, mgps) in FIGURE3_BOOTSTRAPS.iter().zip(&mgps) {
        fig.cell.push(model.seconds(mgps.makespan));
        fig.power5.push(power5.makespan_seconds(ppe_bootstrap_seconds, n));
        fig.xeon.push(xeon.makespan_seconds(ppe_bootstrap_seconds, n));
    }
    Ok(fig)
}

/// One optimization's isolated and leave-one-out impact.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub name: &'static str,
    /// Seconds when ONLY this optimization is applied to the naive offload.
    pub alone_seconds: f64,
    /// Improvement over the naive offload when applied alone.
    pub alone_gain: f64,
    /// Seconds when this optimization is REMOVED from the full config.
    pub without_seconds: f64,
    /// Cost of removing it from the full config.
    pub without_loss: f64,
}

/// Ablation study of the five SPE optimizations (beyond the paper's
/// cumulative ladder): each measured both *in isolation* on the naive
/// offload and *left out* of the fully optimized configuration. Interaction
/// effects — e.g. double buffering being worth more once compute shrinks —
/// show up as the difference between the two views.
pub fn run_ablation(workload: &Workload, model: &CostModel) -> Result<Vec<AblationRow>> {
    check_workload(workload)?;
    let naive = OptConfig::naive_offload();
    let mut full = OptConfig::fully_optimized();
    // Keep the offload stage fixed at NewviewOnly so the comparison is
    // purely about the five SPE-code optimizations.
    full.stage = crate::config::OffloadStage::NewviewOnly;

    let seconds = |cfg: &OptConfig| {
        model.seconds(price_trace(&workload.events, model, cfg).sequential_cycles())
    };
    let naive_s = seconds(&naive);
    let full_s = seconds(&full);

    type Toggle = fn(&mut OptConfig, bool);
    let toggles: [(&'static str, Toggle); 5] = [
        ("SDK exp (§5.2.2)", |c, v| c.sdk_exp = v),
        ("int-cast conditionals (§5.2.3)", |c, v| c.cast_conditionals = v),
        ("double buffering (§5.2.4)", |c, v| c.double_buffering = v),
        ("vectorized loops (§5.2.5)", |c, v| c.vectorized = v),
        ("direct memory comm (§5.2.6)", |c, v| c.direct_comm = v),
    ];

    Ok(toggles
        .iter()
        .map(|&(name, toggle)| {
            let mut alone = naive;
            toggle(&mut alone, true);
            let alone_seconds = seconds(&alone);
            let mut without = full;
            toggle(&mut without, false);
            let without_seconds = seconds(&without);
            AblationRow {
                name,
                alone_seconds,
                alone_gain: 1.0 - alone_seconds / naive_s,
                without_seconds,
                without_loss: without_seconds / full_s - 1.0,
            }
        })
        .collect())
}

/// One code-budget scenario of the overlay what-if study.
#[derive(Debug, Clone)]
pub struct OverlayScenario {
    /// Code budget in bytes.
    pub budget: usize,
    /// Overlay faults over the whole trace.
    pub faults: u64,
    /// Overlay fault rate (faults / kernel calls).
    pub fault_rate: f64,
    /// Seconds of code-reload DMA added to one bootstrap.
    pub overhead_seconds: f64,
    /// The Table 7 bootstrap time with this overhead added.
    pub bootstrap_seconds: f64,
}

/// The §5.2.4 counterfactual: what if the three kernels had NOT fit in the
/// local store and needed manually managed code overlays? Replays the real
/// call sequence through an LRU overlay manager at several code budgets and
/// prices the reload DMA. The paper avoided this by keeping the footprint
/// at 117 KB; the study quantifies what that design care was worth.
pub fn run_overlay_study(workload: &Workload, model: &CostModel) -> Result<Vec<OverlayScenario>> {
    use cellsim::overlay::{overlay_overhead, paper_modules};

    check_workload(workload)?;
    let base = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let base_seconds = model.seconds(base.sequential_cycles());

    let call_seq: Vec<usize> = workload
        .events
        .iter()
        .map(|ev| match ev.op {
            op if op.is_newview() => 0usize,
            phylo::trace::KernelOp::Makenewz => 1,
            _ => 2,
        })
        .collect();

    // 139 KB is what the real port had free-plus-code; 117 KB fits exactly;
    // smaller budgets force increasingly severe thrashing.
    Ok([139 * 1024, 117 * 1024, 100 * 1024, 80 * 1024, 64 * 1024]
        .into_iter()
        .map(|budget| {
            let (mgr, cycles) =
                overlay_overhead(call_seq.iter().copied(), paper_modules(), budget, &model.dma);
            let (_, faults, _) = mgr.stats();
            let overhead_seconds = model.seconds(cycles);
            OverlayScenario {
                budget,
                faults,
                fault_rate: mgr.fault_rate(),
                overhead_seconds,
                bootstrap_seconds: base_seconds + overhead_seconds,
            }
        })
        .collect())
}

/// One point of the multilevel-parallelism comparison.
#[derive(Debug, Clone)]
pub struct MultilevelPoint {
    pub n_bootstraps: usize,
    /// Pure task-level parallelism (EDTLP; two layers: tasks + vectors).
    pub edtlp_seconds: f64,
    /// Pure loop-level parallelism (LLP with min(n,4) workers; three
    /// layers: tasks + loops + vectors).
    pub llp_seconds: f64,
    /// The dynamic MGPS scheduler.
    pub mgps_seconds: f64,
}

/// Reproduce the paper's Contribution III: "two layers of parallelism …
/// being more beneficial for large and realistic workloads and three layers
/// … being beneficial for workloads with a low degree (≤ 4) of task-level
/// parallelism". Sweeps the bootstrap count and compares pure EDTLP, pure
/// LLP, and the dynamic MGPS that switches between them.
pub fn run_multilevel_study(
    workload: &Workload,
    model: &CostModel,
    params: &DesParams,
) -> Result<Vec<MultilevelPoint>> {
    check_workload(workload)?;
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    Ok([1usize, 2, 3, 4, 6, 8, 12, 16, 32]
        .into_iter()
        .map(|n| {
            let seconds = |scheduler| {
                model.seconds(clean_schedule(scheduler, &priced, n, model, params).makespan)
            };
            MultilevelPoint {
                n_bootstraps: n,
                edtlp_seconds: seconds(Scheduler::Edtlp),
                llp_seconds: seconds(Scheduler::Llp { workers: n.min(4) }),
                mgps_seconds: seconds(Scheduler::Mgps),
            }
        })
        .collect())
}

/// One machine scale point of the SPE-scaling projection.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub n_spes: usize,
    pub ppe_threads: usize,
    pub makespan_seconds: f64,
    /// Speedup over the 1-SPE synchronous baseline.
    pub speedup: f64,
    /// Mean SPE utilization.
    pub spe_utilization: f64,
}

/// Projection study: how does the MGPS throughput scale with the number of
/// SPEs? The paper's blade has two Cells (16 SPEs) but uses one; IBM's
/// Petaflop plans (§1) stack many. The projection shows where the 2-thread
/// PPE becomes the bottleneck — the scaling wall the EDTLP design implies.
pub fn run_scaling_study(
    workload: &Workload,
    model: &CostModel,
    n_bootstraps: usize,
) -> Result<Vec<ScalingPoint>> {
    check_workload(workload)?;
    if n_bootstraps == 0 {
        return Err(ExperimentError::InvalidParameter {
            name: "n_bootstraps",
            value: 0,
            reason: "the scaling projection needs at least one bootstrap to schedule",
        });
    }
    let priced = price_trace(&workload.events, model, &OptConfig::fully_optimized());
    let baseline = model.seconds(sync_workers_makespan(&priced, n_bootstraps, 1));

    Ok([(1usize, 2usize), (2, 2), (4, 2), (8, 2), (16, 2), (16, 4)]
        .into_iter()
        .map(|(n_spes, ppe_threads)| {
            let params = DesParams { n_spes, n_ppe_threads: ppe_threads, ..DesParams::default() };
            let out = clean_schedule(Scheduler::Mgps, &priced, n_bootstraps, model, &params);
            let makespan_seconds = model.seconds(out.makespan);
            ScalingPoint {
                n_spes,
                ppe_threads,
                makespan_seconds,
                speedup: baseline / makespan_seconds,
                spe_utilization: out.stats.spe_utilization(),
            }
        })
        .collect())
}

/// The §5.2 profile breakdown of a workload under PPE-only pricing.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Fraction of PPE time per kernel: (newview, makenewz, evaluate, other).
    pub fractions: [f64; 4],
    /// Fraction of `newview` calls nested inside `makenewz`/`evaluate`.
    pub nested_fraction: f64,
    /// Total kernel invocations.
    pub invocations: u64,
    /// Mean FLOPs per `newview` invocation (paper: ≈25,554 on 42_SC).
    pub newview_mean_flops: f64,
}

/// Profile a workload like the paper's gprofile run (§5.2).
pub fn profile_breakdown(workload: &Workload, model: &CostModel) -> Result<ProfileReport> {
    check_workload(workload)?;
    let cfg = OptConfig::ppe_only();
    let mut per_kernel = [0u64; 3]; // newview, makenewz, evaluate
    let mut newview_flops = 0u64;
    let mut newview_calls = 0u64;
    for ev in &workload.events {
        let (p, _) = crate::offload::price_event(ev, model, &cfg);
        let idx = match ev.op {
            KernelOp::NewviewTipTip | KernelOp::NewviewTipInner | KernelOp::NewviewInnerInner => {
                newview_flops += ev.flops();
                newview_calls += 1;
                0
            }
            KernelOp::Makenewz => 1,
            KernelOp::Evaluate => 2,
        };
        per_kernel[idx] += p.ppe;
    }
    let other = Pricer::new(&workload.events, model).other_work();
    let total = (per_kernel.iter().sum::<u64>() + other) as f64;
    let nested =
        workload.counters.newview_nested as f64 / workload.counters.newview_calls.max(1) as f64;
    Ok(ProfileReport {
        fractions: [
            per_kernel[0] as f64 / total,
            per_kernel[1] as f64 / total,
            per_kernel[2] as f64 / total,
            other as f64 / total,
        ],
        nested_fraction: nested,
        invocations: workload.events.len() as u64,
        newview_mean_flops: newview_flops as f64 / newview_calls.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::shape_deviation;
    use std::sync::OnceLock;

    /// Capture the mid-size workload once; it is used by several tests.
    fn workload() -> &'static Workload {
        static CACHE: OnceLock<Workload> = OnceLock::new();
        CACHE.get_or_init(|| capture_workload(&WorkloadSpec::test_mid()).expect("capture"))
    }

    #[test]
    fn capture_produces_a_real_trace() {
        let w = workload();
        // This capture is 989 events: 746 newview + 238 makenewz + 5
        // evaluate (1064 with 821 newview before the SPR scan followed the
        // tree). The floors leave room for a leaner scan, not for an empty
        // round.
        assert!(w.events.len() > 800, "a search makes many kernel calls: {}", w.events.len());
        assert!(w.log_likelihood.is_finite() && w.log_likelihood < 0.0);
        assert!(w.counters.newview_calls > 500);
        assert!(w.counters.makenewz_calls > 50);
        assert!(w.n_patterns > 10);
    }

    #[test]
    fn ladder_reproduces_the_paper_shape_qualitatively() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let ladder = run_ladder(w, &model).unwrap();
        assert_eq!(ladder.len(), 8);

        // Single-bootstrap column across the ladder.
        let col: Vec<f64> = ladder.iter().map(|l| l.rows[0].simulated_seconds).collect();
        // Naive offload is slower than the PPE.
        assert!(col[1] > col[0], "naive offload must hurt: {col:?}");
        // Every subsequent optimization helps.
        for i in 2..8 {
            assert!(col[i] < col[i - 1], "level {i} must improve: {col:?}");
        }
        // The fully offloaded version beats the PPE (the paper's 25%).
        assert!(col[7] < col[0], "final config must beat PPE: {col:?}");
    }

    #[test]
    fn ladder_workload_rows_scale_like_the_paper() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let ladder = run_ladder(w, &model).unwrap();
        for level in &ladder {
            // Within a table, rows scale with bootstraps/workers: the shape
            // deviation against the paper must be modest. (The mid-size
            // test workload has a different PPE/SPE balance than 42_SC, so
            // the band is wider than what the ALN42 run achieves — the
            // `tables` bench reports 0.7–10% there.)
            let dev = shape_deviation(&level.rows);
            assert!(dev < 0.25, "{}: deviation {dev}", level.label);
        }
    }

    #[test]
    fn table8_mgps_beats_sync_and_scales() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        let t8 = run_table8(w, &model, &params).unwrap();
        assert_eq!(t8.len(), 4);
        // MGPS over 32 bootstraps crushes 2 synchronous workers (Table 7
        // row 4 vs Table 8 row 4 in the paper: 444.87 → 167.57).
        let ladder = run_ladder(w, &model).unwrap();
        let t7_32 = ladder[7].rows[3].simulated_seconds;
        let mgps_32 = t8[3].simulated_seconds;
        assert!(mgps_32 < t7_32 * 0.55, "MGPS must give a large speedup: {mgps_32} vs {t7_32}");
        // 1 bootstrap: LLP must help over plain sequential.
        let t7_1 = ladder[7].rows[0].simulated_seconds;
        let mgps_1 = t8[0].simulated_seconds;
        assert!(mgps_1 < t7_1, "LLP must beat one SPE: {mgps_1} vs {t7_1}");
    }

    #[test]
    fn figure3_preserves_the_platform_ranking() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        let fig = run_figure3(w, &model, &params).unwrap();
        for i in 0..fig.bootstraps.len() {
            assert!(
                fig.cell[i] < fig.power5[i],
                "Cell must beat Power5 at {} bootstraps",
                fig.bootstraps[i]
            );
            assert!(
                fig.power5[i] < fig.xeon[i],
                "Power5 must beat Xeon at {} bootstraps",
                fig.bootstraps[i]
            );
        }
        // At scale, Xeon is >2× the Cell (the paper's §6 claim).
        let last = fig.bootstraps.len() - 1;
        assert!(fig.xeon[last] / fig.cell[last] > 2.0);
        // Times grow with bootstraps.
        for series in [&fig.cell, &fig.power5, &fig.xeon] {
            for w in series.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn ablation_is_consistent_with_the_ladder() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_ablation(w, &model).unwrap();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            // Alone, every optimization helps (or at worst is neutral).
            assert!(r.alone_gain >= -1e-9, "{}: alone gain {}", r.name, r.alone_gain);
            // Removing any optimization from the full build never helps.
            assert!(r.without_loss >= -1e-9, "{}: loss {}", r.name, r.without_loss);
        }
        // The paper's headline ordering: the exp replacement is the single
        // biggest lever, and the conditional cast beats FP vectorization.
        let gain = |name: &str| rows.iter().find(|r| r.name.starts_with(name)).unwrap().alone_gain;
        assert!(gain("SDK exp") > gain("int-cast"), "exp dominates");
        assert!(
            gain("int-cast") > gain("vectorized loops"),
            "control-flow vectorization beats FP vectorization (§5.2.5)"
        );
    }

    #[test]
    fn multilevel_study_reproduces_contribution_iii() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_multilevel_study(w, &model, &DesParams::default()).unwrap();
        let at = |n: usize| rows.iter().find(|r| r.n_bootstraps == n).unwrap();
        // Low task-level parallelism: three layers (LLP) win.
        assert!(at(1).llp_seconds < at(1).edtlp_seconds, "LLP must win at 1 bootstrap");
        // Ample task-level parallelism: two layers (EDTLP) win.
        assert!(at(32).edtlp_seconds < at(32).llp_seconds, "EDTLP must win at 32 bootstraps");
        // MGPS is never meaningfully worse than the better pure strategy.
        for r in &rows {
            let best = r.edtlp_seconds.min(r.llp_seconds);
            assert!(
                r.mgps_seconds <= best * 1.10,
                "n={}: MGPS {} vs best pure {}",
                r.n_bootstraps,
                r.mgps_seconds,
                best
            );
        }
    }

    #[test]
    fn overlay_study_shows_the_papers_design_margin() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_overlay_study(w, &model).unwrap();
        assert_eq!(rows.len(), 5);
        // At the real 139 KB budget there are exactly the 3 cold faults.
        assert_eq!(rows[0].faults, 3);
        assert!(rows[0].overhead_seconds < 1e-3);
        // Shrinking the budget never reduces faults and never reduces cost.
        for pair in rows.windows(2) {
            assert!(pair[1].faults >= pair[0].faults);
            assert!(pair[1].overhead_seconds >= pair[0].overhead_seconds);
        }
        // The tightest budget must actually thrash.
        assert!(rows[4].fault_rate > 0.1, "rate {}", rows[4].fault_rate);
    }

    #[test]
    fn scaling_study_shows_the_ppe_wall() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let rows = run_scaling_study(w, &model, 32).unwrap();
        // Speedup grows with SPEs…
        for pair in rows.windows(2) {
            assert!(
                pair[1].speedup >= pair[0].speedup * 0.95,
                "speedup should not collapse: {:?}",
                rows
            );
        }
        // …but 16 SPEs behind 2 PPE threads gain much less than the extra
        // hardware would suggest, while 4 PPE threads unlock them.
        let spe16_2t = rows.iter().find(|r| r.n_spes == 16 && r.ppe_threads == 2).unwrap();
        let spe16_4t = rows.iter().find(|r| r.n_spes == 16 && r.ppe_threads == 4).unwrap();
        let spe8 = rows.iter().find(|r| r.n_spes == 8).unwrap();
        assert!(
            spe16_4t.speedup > spe16_2t.speedup * 1.2,
            "more PPE threads must matter at 16 SPEs: {} vs {}",
            spe16_4t.speedup,
            spe16_2t.speedup
        );
        assert!(spe16_2t.speedup < spe8.speedup * 1.5, "the 2-thread PPE caps the 16-SPE gain");
    }

    #[test]
    fn profile_breakdown_matches_expectations() {
        let w = workload();
        let model = CostModel::paper_calibrated();
        let p = profile_breakdown(w, &model).unwrap();
        let total: f64 = p.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The likelihood kernels dominate (the paper's 98.77% claim); the
        // newview/makenewz balance depends on tree size — on the small
        // 12-taxon test workload the lazy SPR's per-candidate makenewz
        // calls rival newview, while the 42-taxon ALN42 run shows the
        // paper-like newview domination (see the `tables` bench output).
        assert!(p.fractions[0] + p.fractions[1] > 0.9, "kernels must dominate: {:?}", p.fractions);
        assert!(p.fractions[0] > 0.3, "newview is a major component: {:?}", p.fractions);
        assert!(p.fractions[3] < 0.05, "other work is small");
        assert!(p.nested_fraction > 0.0 && p.nested_fraction <= 1.0);
        assert!(p.newview_mean_flops > 1000.0);
    }

    #[test]
    fn capture_rejects_degenerate_specs() {
        let mut spec = WorkloadSpec::small();
        spec.n_taxa = 3;
        match capture_workload(&spec) {
            Err(ExperimentError::InvalidSpec { field: "n_taxa", .. }) => {}
            other => panic!("expected InvalidSpec for n_taxa: {other:?}"),
        }
        let mut spec = WorkloadSpec::small();
        spec.n_sites = 0;
        match capture_workload(&spec) {
            Err(ExperimentError::InvalidSpec { field: "n_sites", .. }) => {}
            other => panic!("expected InvalidSpec for n_sites: {other:?}"),
        }
    }

    #[test]
    fn drivers_reject_empty_traces_instead_of_panicking() {
        let empty = Workload {
            events: Vec::new(),
            counters: TraceCounters::default(),
            rounds: Vec::new(),
            log_likelihood: -1.0,
            n_patterns: 10,
        };
        let model = CostModel::paper_calibrated();
        let params = DesParams::default();
        assert_eq!(run_ladder(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_table8(&empty, &model, &params).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_figure3(&empty, &model, &params).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_ablation(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(run_overlay_study(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        assert_eq!(
            run_multilevel_study(&empty, &model, &params).unwrap_err(),
            ExperimentError::EmptyTrace
        );
        assert_eq!(profile_breakdown(&empty, &model).unwrap_err(), ExperimentError::EmptyTrace);
        match run_scaling_study(workload(), &model, 0) {
            Err(ExperimentError::InvalidParameter { name: "n_bootstraps", .. }) => {}
            other => panic!("expected InvalidParameter: {other:?}"),
        }
    }
}
