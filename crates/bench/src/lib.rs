//! Shared fixtures and report printers for the Criterion benches and the
//! `paper` table/figure regeneration binary.
//!
//! Everything rendered here is simulated Cell cycles priced from a captured
//! kernel trace — deterministic for a given workload, so there are no
//! baselines and no gate. Host-side measurement lives in the standalone
//! `benchmark/` package.
//!
//! Every helper that runs an experiment driver propagates its
//! [`ExperimentError`]; the binaries funnel through [`or_exit`] so a bad
//! workload prints a diagnosis and exits nonzero instead of unwinding.

pub mod cli;

use cellsim::cost::CostModel;
use raxml_cell::error::ExperimentError;
use raxml_cell::experiment::{
    capture_workload, profile_breakdown, run_figure3, run_ladder, run_table8, Figure3, Workload,
    WorkloadSpec,
};
use raxml_cell::report::{format_comparison, shape_deviation, PAPER_PROFILE};
use raxml_cell::sched::DesParams;
use std::path::Path;

/// Unwrap a driver result in a binary: print the error and exit nonzero.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Capture the `42_SC`-equivalent workload (a full traced inference on the
/// 42 × 1167 synthetic alignment). This is the expensive step — call once
/// and reuse.
pub fn aln42_workload() -> Result<Workload, ExperimentError> {
    capture_workload(&WorkloadSpec::aln42())
}

/// Capture a reduced workload for quick runs.
pub fn quick_workload() -> Result<Workload, ExperimentError> {
    capture_workload(&WorkloadSpec::test_mid())
}

/// Regenerate and print every table and the figure. Returns the full text.
pub fn run_all_tables(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let mut out = String::new();

    out.push_str(&format!(
        "workload: {} kernel invocations, {} patterns, final lnL {:.2}\n",
        workload.events.len(),
        workload.n_patterns,
        workload.log_likelihood
    ));
    out.push_str(&profile_text(workload, &model)?);
    out.push('\n');

    for level in run_ladder(workload, &model)? {
        out.push_str(&format_comparison(level.label, &level.rows));
        out.push_str(&format!(
            "  [workload-scaling shape deviation vs paper: {:.1}%]\n\n",
            shape_deviation(&level.rows) * 100.0
        ));
    }

    let t8 = run_table8(workload, &model, &params)?;
    out.push_str(&format_comparison("MGPS dynamic scheduler (Table 8)", &t8));
    out.push_str(&format!(
        "  [shape deviation vs paper: {:.1}%]\n\n",
        shape_deviation(&t8) * 100.0
    ));

    out.push_str(&figure3_text(&run_figure3(workload, &model, &params)?));
    Ok(out)
}

/// §5.2-style profile report text.
pub fn profile_text(workload: &Workload, model: &CostModel) -> Result<String, ExperimentError> {
    let p = profile_breakdown(workload, model)?;
    let mut out = String::from("profile (PPE pricing, paper §5.2 reference in parens):\n");
    let names = ["newview", "makenewz", "evaluate"];
    for (i, name) in names.iter().enumerate() {
        out.push_str(&format!(
            "  {:<9} {:>6.2}%  (paper: {:.2}%)\n",
            name,
            p.fractions[i] * 100.0,
            PAPER_PROFILE[i].1 * 100.0
        ));
    }
    out.push_str(&format!(
        "  other     {:>6.2}%  (paper: 1.23%)\n  nested newview fraction: {:.1}% | mean newview FLOPs: {:.0} (paper: ~25,554 ops/invocation)\n",
        p.fractions[3] * 100.0,
        p.nested_fraction * 100.0,
        p.newview_mean_flops
    ));
    Ok(out)
}

/// Figure 3 as an aligned text series.
pub fn figure3_text(fig: &Figure3) -> String {
    let mut out = String::from(
        "Figure 3 — execution time [s] vs number of bootstraps\n  bootstraps      Cell(MGPS)      IBM Power5      Intel Xeon\n",
    );
    for (i, &n) in fig.bootstraps.iter().enumerate() {
        out.push_str(&format!(
            "  {:>10} {:>15.2} {:>15.2} {:>15.2}\n",
            n, fig.cell[i], fig.power5[i], fig.xeon[i]
        ));
    }
    let (cell, power5, xeon) =
        (*fig.cell.last().unwrap(), *fig.power5.last().unwrap(), *fig.xeon.last().unwrap());
    let mut ranking = [("Cell", cell), ("Power5", power5), ("Xeon", xeon)];
    ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
    out.push_str(&format!(
        "  ranking at {} bootstraps: {} < {} < {} (paper: Cell < Power5 < Xeon) — Power5/Cell = {:.2} (paper: ~1.10), Xeon/Cell = {:.2} (paper: >2)\n",
        fig.bootstraps[fig.bootstraps.len() - 1],
        ranking[0].0,
        ranking[1].0,
        ranking[2].0,
        power5 / cell,
        xeon / cell,
    ));
    out
}

/// Text for one ladder level (0 = Table 1a … 7 = Table 7).
pub fn ladder_level_text(workload: &Workload, level: usize) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let ladder = run_ladder(workload, &model)?;
    let l = &ladder[level];
    let mut out = format_comparison(l.label, &l.rows);
    out.push_str(&format!(
        "  [workload-scaling shape deviation vs paper: {:.1}%]\n",
        shape_deviation(&l.rows) * 100.0
    ));
    Ok(out)
}

/// Text for Table 8 (MGPS).
pub fn table8_text(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    let t8 = run_table8(workload, &model, &DesParams::default())?;
    let mut out = format_comparison("MGPS dynamic scheduler (Table 8)", &t8);
    out.push_str(&format!("  [shape deviation vs paper: {:.1}%]\n", shape_deviation(&t8) * 100.0));
    Ok(out)
}

/// Utilization report for an MGPS run at a given bootstrap count (the
/// simulator's answer to the paper's decrementer measurements).
pub fn mgps_utilization_text(workload: &Workload, n_bootstraps: usize) -> String {
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::offload::price_trace;
    use raxml_cell::sched::schedule_makespan;
    let model = CostModel::paper_calibrated();
    let priced = price_trace(&workload.events, &model, &OptConfig::fully_optimized());
    let mut tlog = TraceLog::enabled();
    let out = schedule_makespan(
        Scheduler::Mgps,
        &priced,
        n_bootstraps,
        &model,
        &DesParams::default(),
        &FaultPlan::none(),
        &mut tlog,
    );
    // Component composition comes from the trace's counter channel: the
    // scheduler annotates every run with the per-component cycle totals it
    // actually dispatched, so the report and any exported trace agree by
    // construction. One bootstrap's worth, so fractions are exact.
    let c = |name: &str| tlog.last_counter(name).unwrap_or(0.0);
    let loops = c("trace_loop_cycles");
    let exp = c("trace_exp_cycles");
    let cond = c("trace_cond_cycles");
    let dma = c("trace_dma_stall");
    let comm = c("trace_comm");
    let spe_total = loops + exp + cond + dma + comm;
    format!(
        "MGPS utilization at {n_bootstraps} bootstraps:\n{}  SPE work composition: loops {:.1}% | exp {:.1}% | conditionals {:.1}% | DMA {:.1}% | comm {:.1}%\n",
        out.stats.report(model.clock_hz),
        100.0 * loops / spe_total,
        100.0 * exp / spe_total,
        100.0 * cond / spe_total,
        100.0 * dma / spe_total,
        100.0 * comm / spe_total,
    )
}

/// One scheduler's traced simulation of a single SPR round: the DES's own
/// accounting plus the trace-derived view and both exporter payloads.
pub struct RoundProfile {
    /// Scheduler label ("EDTLP", "LLP/2", "MGPS").
    pub label: &'static str,
    /// Full DES outcome (makespan, `SimStats`, fault report).
    pub outcome: raxml_cell::sched::SimOutcome,
    /// Totals re-derived from the emitted trace events alone.
    pub summary: cellsim::tracelog::TraceSummary,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome_json: String,
    /// JSONL metrics snapshot (one object per line).
    pub metrics_jsonl: String,
}

/// Price one SPR round's kernel events (falling back to the whole trace when
/// the workload recorded no round marks) and simulate it under EDTLP, LLP/2
/// and MGPS with event tracing enabled.
pub fn profile_spr_round(workload: &Workload, n_jobs: usize) -> Vec<RoundProfile> {
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::offload::price_trace;
    use raxml_cell::sched::schedule_makespan;

    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let events = match workload.rounds.first() {
        Some(mark) => workload.round_events(mark),
        None => &workload.events[..],
    };
    let priced = price_trace(events, &model, &OptConfig::fully_optimized());
    let schedulers: [(Scheduler, &'static str); 3] = [
        (Scheduler::Edtlp, "EDTLP"),
        (Scheduler::Llp { workers: 2 }, "LLP/2"),
        (Scheduler::Mgps, "MGPS"),
    ];
    schedulers
        .iter()
        .map(|&(sched, label)| {
            let mut tlog = TraceLog::enabled();
            let outcome = schedule_makespan(
                sched,
                &priced,
                n_jobs,
                &model,
                &params,
                &FaultPlan::none(),
                &mut tlog,
            );
            tlog.round_span(0, 0, outcome.makespan);
            let summary = tlog.summary(params.n_spes);
            let chrome_json = tlog.to_chrome_trace(model.clock_hz);
            let metrics_jsonl = tlog.to_metrics_jsonl(model.clock_hz, params.n_spes);
            RoundProfile { label, outcome, summary, chrome_json, metrics_jsonl }
        })
        .collect()
}

/// Cross-check one profile: the trace-derived per-SPE utilization must match
/// the DES's `SimStats` accounting exactly, and both exporter payloads must
/// be well-formed. Returns a description of the first mismatch.
pub fn check_profile(p: &RoundProfile) -> Result<(), String> {
    let stats = &p.outcome.stats;
    if p.summary.end != p.outcome.makespan {
        return Err(format!(
            "{}: trace end {} != makespan {}",
            p.label, p.summary.end, p.outcome.makespan
        ));
    }
    if p.summary.ppe_busy != stats.ppe_busy {
        return Err(format!(
            "{}: trace PPE busy {} != stats {}",
            p.label, p.summary.ppe_busy, stats.ppe_busy
        ));
    }
    for (s, spe) in stats.spes.iter().enumerate() {
        if p.summary.spe_busy[s] != spe.busy() {
            return Err(format!(
                "{}: SPE {s} trace busy {} != stats {}",
                p.label,
                p.summary.spe_busy[s],
                spe.busy()
            ));
        }
        if p.summary.spe_stalled[s] != spe.stalled() {
            return Err(format!(
                "{}: SPE {s} trace stalled {} != stats {}",
                p.label,
                p.summary.spe_stalled[s],
                spe.stalled()
            ));
        }
        let trace_util = p.summary.utilization(s);
        let stats_util = spe.busy() as f64 / p.outcome.makespan.max(1) as f64;
        if (trace_util - stats_util).abs() > 1e-12 {
            return Err(format!(
                "{}: SPE {s} trace utilization {trace_util} != stats {stats_util}",
                p.label
            ));
        }
    }
    obs::json::parse(&p.chrome_json)
        .map_err(|e| format!("{}: chrome trace invalid: {e}", p.label))?;
    obs::json::parse_lines(&p.metrics_jsonl)
        .map_err(|e| format!("{}: metrics jsonl invalid: {e}", p.label))?;
    Ok(())
}

/// Human-readable per-scheduler timeline report for a profiled round: the
/// §5.2-style utilization breakdown regenerated from the trace itself.
pub fn profile_report_text(profiles: &[RoundProfile], clock_hz: f64) -> String {
    let mut out = String::from("per-scheduler timeline (trace-derived, one SPR round):\n");
    for p in profiles {
        out.push_str(&format!(
            "  {:<6} makespan {:>12} cycles ({:.3} ms) | mean SPE utilization {:>5.1}% | mean DMA stall {:>4.1}% | PPE busy {:>5.1}% | {} events\n",
            p.label,
            p.outcome.makespan,
            p.outcome.makespan as f64 / clock_hz * 1e3,
            100.0 * p.summary.mean_utilization(),
            100.0 * p.summary.mean_stall_fraction(),
            100.0 * p.summary.ppe_busy as f64 / p.outcome.makespan.max(1) as f64,
            p.summary.spe_bursts.iter().sum::<u64>(),
        ));
    }
    out
}

/// Text for Figure 3.
pub fn figure3_text_for(workload: &Workload) -> Result<String, ExperimentError> {
    let model = CostModel::paper_calibrated();
    Ok(figure3_text(&run_figure3(workload, &model, &DesParams::default())?))
}

/// Sweep uniform fault rates and a dead-SPE scenario across the DES
/// schedulers, returning the structured rows: `(rate_sweep, spe_deaths)`.
fn fault_study_rows(
    workload: &Workload,
    n_jobs: usize,
) -> (Vec<raxml_cell::report::FaultRow>, Vec<raxml_cell::report::FaultRow>) {
    use cellsim::fault::FaultPlan;
    use cellsim::tracelog::TraceLog;
    use raxml_cell::config::{OptConfig, Scheduler};
    use raxml_cell::offload::price_trace;
    use raxml_cell::report::FaultRow;
    use raxml_cell::sched::schedule_makespan;

    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let priced = price_trace(&workload.events, &model, &OptConfig::fully_optimized());
    let run = |sched, plan: &FaultPlan| {
        schedule_makespan(sched, &priced, n_jobs, &model, &params, plan, &mut TraceLog::disabled())
    };
    let schedulers: [(Scheduler, &str); 3] = [
        (Scheduler::Edtlp, "EDTLP"),
        (Scheduler::Llp { workers: 2 }, "LLP/2"),
        (Scheduler::Mgps, "MGPS"),
    ];

    let mut sweep = Vec::new();
    for &(sched, label) in &schedulers {
        let clean = run(sched, &FaultPlan::none()).makespan;
        for rate in [0.01, 0.05, 0.2] {
            let o = run(sched, &FaultPlan::uniform(29, rate));
            sweep.push(FaultRow {
                scheduler: label.to_string(),
                fault_rate: rate,
                makespan: o.makespan,
                clean_makespan: clean,
                report: o.faults,
            });
        }
    }

    let mut deaths = Vec::new();
    for &(sched, label) in &schedulers {
        let clean = run(sched, &FaultPlan::none()).makespan;
        let plan = FaultPlan::none().with_death(0, clean / 4).with_death(3, clean / 2);
        let o = run(sched, &plan);
        deaths.push(FaultRow {
            scheduler: label.to_string(),
            fault_rate: 0.0,
            makespan: o.makespan,
            clean_makespan: clean,
            report: o.faults,
        });
    }
    (sweep, deaths)
}

/// Sweep uniform fault rates and a dead-SPE scenario across the DES
/// schedulers, reporting makespan degradation and what the recovery
/// machinery (retries, re-dispatch, blacklisting, PPE degradation) did.
pub fn fault_study_text(workload: &Workload, n_jobs: usize) -> String {
    use raxml_cell::report::format_fault_table;

    let (sweep, deaths) = fault_study_rows(workload, n_jobs);
    let mut out = String::new();
    out.push_str(&format_fault_table(
        &format!("Fault-rate sweep ({n_jobs} bootstraps, uniform plan, seed 29)"),
        &sweep,
    ));
    out.push('\n');
    out.push_str(&format_fault_table(
        "Permanent SPE deaths (SPE 0 at 25% of clean makespan, SPE 3 at 50%)",
        &deaths,
    ));
    out
}

/// Ablation of the five SPE-code optimizations: each applied alone to the
/// naive offload, and each removed from the fully optimized build.
fn ablation_text(workload: &Workload) -> Result<String, ExperimentError> {
    use std::fmt::Write;
    let rows = raxml_cell::experiment::run_ablation(workload, &CostModel::paper_calibrated())?;
    let mut out = String::from("\nablation of the SPE optimizations (1 worker × 1 bootstrap):\n\n");
    let _ = writeln!(
        out,
        "  {:<34} {:>10} {:>10} | {:>12} {:>10}",
        "optimization", "alone [s]", "gain", "without [s]", "loss"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:<34} {:>10.2} {:>9.1}% | {:>12.2} {:>9.1}%",
            r.name,
            r.alone_seconds,
            r.alone_gain * 100.0,
            r.without_seconds,
            r.without_loss * 100.0
        );
    }
    out.push_str(
        "\n'gain' = improvement over the naive offload when applied in isolation;\n\
         'loss' = slowdown when removed from the fully optimized configuration.\n\
         Differences between columns are interaction effects (e.g. double\n\
         buffering matters more after the compute it hides behind shrinks).\n",
    );
    Ok(out)
}

/// Contribution III of the paper: the EDTLP vs LLP crossover that motivates
/// the dynamic MGPS scheduler — "three layers of parallelism \[win\] for
/// workloads with a low degree (≤4) of task-level parallelism; two layers
/// for large and realistic workloads".
fn multilevel_text(workload: &Workload) -> Result<String, ExperimentError> {
    use std::fmt::Write;
    let rows = raxml_cell::experiment::run_multilevel_study(
        workload,
        &CostModel::paper_calibrated(),
        &DesParams::default(),
    )?;
    let mut out =
        String::from("\nEDTLP (2 layers) vs LLP (3 layers) vs dynamic MGPS [seconds]:\n\n");
    let _ = writeln!(
        out,
        "  {:>10} {:>10} {:>10} {:>10}   winner",
        "bootstraps", "EDTLP", "LLP", "MGPS"
    );
    for r in &rows {
        let winner = if r.llp_seconds < r.edtlp_seconds { "LLP" } else { "EDTLP" };
        let _ = writeln!(
            out,
            "  {:>10} {:>10.2} {:>10.2} {:>10.2}   {winner}",
            r.n_bootstraps, r.edtlp_seconds, r.llp_seconds, r.mgps_seconds
        );
    }
    out.push_str(
        "\nThe crossover reproduces the paper's Contribution III: LLP wins at low\n\
         task-level parallelism, EDTLP wins once ≥8 independent bootstraps exist,\n\
         and MGPS tracks whichever is better — 'no single model performs best in\n\
         all cases' (§5.3).\n",
    );
    Ok(out)
}

/// Projection: MGPS throughput vs SPE count (1 → 16 SPEs, including the
/// dual-Cell blade's 16-SPE / 4-PPE-thread configuration the paper's
/// hardware offered but its software never used).
fn scaling_text(workload: &Workload) -> Result<String, ExperimentError> {
    use std::fmt::Write;
    let rows =
        raxml_cell::experiment::run_scaling_study(workload, &CostModel::paper_calibrated(), 32)?;
    let mut out = String::from("\nMGPS scaling at 32 bootstraps:\n\n");
    let _ = writeln!(
        out,
        "  {:>6} {:>12} {:>14} {:>10} {:>10}",
        "SPEs", "PPE threads", "makespan [s]", "speedup", "SPE util"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:>6} {:>12} {:>14.2} {:>9.2}× {:>9.1}%",
            r.n_spes,
            r.ppe_threads,
            r.makespan_seconds,
            r.speedup,
            r.spe_utilization * 100.0
        );
    }
    out.push_str(
        "\nThe last two rows compare a 16-SPE machine behind the Cell's 2 PPE\n\
         threads against one with 4 (a dual-Cell blade): where they differ, the\n\
         PPE is the scaling bottleneck the paper's EDTLP design works around.\n",
    );
    Ok(out)
}

/// The §5.2.4 counterfactual: what would code overlays have cost if the
/// three kernels had not fit the SPE local store?
fn overlay_text(workload: &Workload) -> Result<String, ExperimentError> {
    use std::fmt::Write;
    let rows = raxml_cell::experiment::run_overlay_study(workload, &CostModel::paper_calibrated())?;
    let mut out =
        String::from("\ncode-overlay what-if (one bootstrap, fully optimized config):\n\n");
    let _ = writeln!(
        out,
        "  {:>10} {:>12} {:>12} {:>14} {:>14}",
        "budget", "faults", "fault rate", "overhead [s]", "bootstrap [s]"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:>7} KB {:>12} {:>11.1}% {:>14.3} {:>14.2}",
            r.budget / 1024,
            r.faults,
            r.fault_rate * 100.0,
            r.overhead_seconds,
            r.bootstrap_seconds
        );
    }
    out.push_str(
        "\nThe paper kept the kernel footprint at 117 KB so the whole module set\n\
         stays resident (3 cold faults). Below that, calls alternate between\n\
         newview and makenewz/evaluate and the LRU set thrashes.\n",
    );
    Ok(out)
}

/// Simulate one SPR round under EDTLP, LLP/2 and MGPS with event tracing
/// on, cross-check each trace against the DES's own accounting, write a
/// Perfetto-loadable Chrome trace and a JSONL metrics snapshot per
/// scheduler into `out_dir`, and report the trace-derived timeline.
fn traces_text(workload: &Workload, out_dir: &Path) -> Result<String, String> {
    let profiles = profile_spr_round(workload, 16);
    let mut out = format!("{} SPR rounds marked\n", workload.rounds.len());
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    for p in &profiles {
        check_profile(p).map_err(|e| format!("trace/stats cross-check failed: {e}"))?;
        let slug = p.label.to_lowercase().replace('/', "");
        for (suffix, payload) in
            [("trace.json", &p.chrome_json), ("metrics.jsonl", &p.metrics_jsonl)]
        {
            let path = out_dir.join(format!("round0_{slug}.{suffix}"));
            std::fs::write(&path, payload).map_err(|e| format!("write {}: {e}", path.display()))?;
            out.push_str(&format!("wrote {}\n", path.display()));
        }
    }
    out.push_str(&profile_report_text(&profiles, CostModel::paper_calibrated().clock_hz));
    Ok(out)
}

/// Capture the workload a binary runs on (reduced when `quick`) and return
/// it together with its label.
pub fn workload_for(quick: bool) -> Result<(Workload, &'static str), ExperimentError> {
    if quick {
        Ok((quick_workload()?, "test_mid (quick)"))
    } else {
        eprintln!("capturing the 42_SC-equivalent workload (a real traced inference)…");
        Ok((aln42_workload()?, "42_SC-equivalent (ALN42)"))
    }
}

/// The `paper` binary's subcommands, in usage order.
pub const PAPER_SUBCOMMANDS: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure3",
    "profile",
    "all",
    "ablation",
    "multilevel",
    "scaling",
    "overlay",
    "fault",
    "traces",
];

/// Render one `paper` subcommand on `workload`. Only `traces` writes files
/// (into `out_dir`); every other subcommand ignores it.
pub fn paper_text(
    subcommand: &str,
    workload: &Workload,
    out_dir: &Path,
) -> Result<String, Box<dyn std::error::Error>> {
    Ok(match subcommand {
        // Table 1 is two ladder levels: (a) PPE-only, (b) naive offload.
        "table1" => {
            format!("{}\n{}\n", ladder_level_text(workload, 0)?, ladder_level_text(workload, 1)?)
        }
        // Tables 2–7 are ladder levels 2–7.
        "table2" | "table3" | "table4" | "table5" | "table6" | "table7" => {
            let level = usize::from(subcommand.as_bytes()[5] - b'0');
            format!("{}\n", ladder_level_text(workload, level)?)
        }
        "table8" => {
            let mut out = format!("{}\n", table8_text(workload)?);
            for n in [1usize, 8, 32] {
                out.push_str(&format!("{}\n", mgps_utilization_text(workload, n)));
            }
            out
        }
        "figure3" => format!("{}\n", figure3_text_for(workload)?),
        // The profile prices the trace on the simulated PPE; the tier line
        // says what the capture itself ran on.
        "profile" => format!(
            "host kernels: {}\n{}\n",
            phylo::likelihood::KernelTier::probe(),
            profile_text(workload, &CostModel::paper_calibrated())?
        ),
        "all" => format!("{}\n", run_all_tables(workload)?),
        "ablation" => ablation_text(workload)?,
        "multilevel" => multilevel_text(workload)?,
        "scaling" => scaling_text(workload)?,
        "overlay" => overlay_text(workload)?,
        "fault" => fault_study_text(workload, 16),
        "traces" => traces_text(workload, out_dir)?,
        other => return Err(format!("unknown subcommand {other:?}").into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_tables_render() {
        let w = quick_workload().expect("capture");
        let text = run_all_tables(&w).expect("tables");
        assert!(text.contains("Table 1a"));
        assert!(text.contains("Table 8"));
        assert!(text.contains("Figure 3"));
        assert!(text.contains("newview"));

        let dir = std::env::temp_dir().join(format!("raxml-cell-paper-{}", std::process::id()));
        for sub in PAPER_SUBCOMMANDS {
            let text = paper_text(sub, &w, &dir).unwrap_or_else(|e| panic!("paper {sub}: {e}"));
            assert!(!text.trim().is_empty(), "paper {sub} rendered nothing");
        }
        let written = std::fs::read_dir(&dir).expect("traces wrote its exports").count();
        assert_eq!(written, 6, "a Chrome trace and a metrics snapshot per scheduler");
        std::fs::remove_dir_all(&dir).ok();
        assert!(paper_text("nosuch", &w, &dir).is_err());
    }

    #[test]
    fn profiled_round_trace_matches_stats_for_every_scheduler() {
        let w = quick_workload().expect("capture");
        let profiles = profile_spr_round(&w, 8);
        assert_eq!(profiles.len(), 3, "one profile per scheduler");
        for p in &profiles {
            check_profile(p).expect("trace-derived utilization must equal SimStats");
        }
        let text = profile_report_text(&profiles, CostModel::paper_calibrated().clock_hz);
        assert!(text.contains("EDTLP") && text.contains("LLP/2") && text.contains("MGPS"));
    }

    #[test]
    fn mgps_utilization_composition_comes_from_the_trace() {
        let w = quick_workload().expect("capture");
        let text = mgps_utilization_text(&w, 8);
        assert!(text.contains("SPE work composition"));
        assert!(text.contains("loops"));
        // Fractions must be finite percentages that roughly sum to 100.
        let pct: Vec<f64> = text
            .split('%')
            .filter_map(|chunk| chunk.rsplit(' ').next().and_then(|t| t.parse::<f64>().ok()))
            .collect();
        let composition: f64 = pct.iter().rev().take(5).sum();
        assert!((composition - 100.0).abs() < 0.5, "composition sums to {composition}");
    }

    #[test]
    fn figure3_ranking_sentence_follows_the_numbers() {
        let fig = |cell, power5, xeon| Figure3 {
            bootstraps: vec![128],
            cell: vec![cell],
            power5: vec![power5],
            xeon: vec![xeon],
        };
        let paper = figure3_text(&fig(10.0, 11.0, 21.0));
        assert!(paper.contains("128 bootstraps: Cell < Power5 < Xeon (paper:"), "{paper}");
        let inverted = figure3_text(&fig(10.0, 6.1, 12.3));
        assert!(inverted.contains("128 bootstraps: Power5 < Cell < Xeon (paper:"), "{inverted}");
        assert!(inverted.contains("Power5/Cell = 0.61"), "{inverted}");
    }

    #[test]
    fn empty_trace_surfaces_as_an_error_not_a_panic() {
        let empty = Workload {
            events: Vec::new(),
            counters: Default::default(),
            rounds: Vec::new(),
            log_likelihood: -1.0,
            n_patterns: 1,
        };
        assert!(run_all_tables(&empty).is_err());
        assert!(table8_text(&empty).is_err());
        assert!(figure3_text_for(&empty).is_err());
    }
}
