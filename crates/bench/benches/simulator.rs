//! Criterion benchmarks of the simulator itself: trace pricing throughput,
//! discrete-event scheduling speed, and the three table drivers the
//! benchmark's `cell_tables` workload times (`experiment/{ladder, table8,
//! figure3}`) on one real ALN42 capture, taken once outside the timed loop.
//! These are the costs of *running the reproduction*, useful when scaling
//! to bigger traces or sweeps.

use cellsim::cost::CostModel;
use cellsim::fault::FaultPlan;
use cellsim::tracelog::TraceLog;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phylo::trace::{CallParent, KernelEvent, KernelOp};
use raxml_cell::config::{OptConfig, Scheduler};
use raxml_cell::experiment::{run_figure3, run_ladder, run_table8};
use raxml_cell::offload::price_trace;
use raxml_cell::sched::{des, schedule_makespan, simulate_task_parallel, DesParams};

fn synthetic_trace(n: usize) -> Vec<KernelEvent> {
    (0..n)
        .map(|i| KernelEvent {
            op: match i % 7 {
                6 => KernelOp::Makenewz,
                5 => KernelOp::NewviewTipTip,
                _ => KernelOp::NewviewTipInner,
            },
            parent: if i % 7 == 6 { CallParent::Search } else { CallParent::Makenewz },
            patterns: 240,
            rates: 4,
            exp_calls: 32,
            scaling_checks: 960,
            scalings: 0,
            newton_iters: if i % 7 == 6 { 4 } else { 0 },
            inner_operands: 2,
        })
        .collect()
}

fn bench_pricing(c: &mut Criterion) {
    let model = CostModel::paper_calibrated();
    let trace = synthetic_trace(50_000);
    let mut group = c.benchmark_group("pricing");
    group.sample_size(20);
    for (label, cfg) in
        [("ppe_only", OptConfig::ppe_only()), ("fully_optimized", OptConfig::fully_optimized())]
    {
        group.bench_function(format!("50k_events/{label}"), |b| {
            b.iter(|| price_trace(black_box(&trace), &model, &cfg).sequential_cycles())
        });
    }
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    let model = CostModel::paper_calibrated();
    let trace = synthetic_trace(50_000);
    let priced = price_trace(&trace, &model, &OptConfig::fully_optimized());
    let params = DesParams::default();

    let mut group = c.benchmark_group("des");
    group.sample_size(20);

    let phases = des::phases_for(&priced, 1, model.llp_dispatch, model.edtlp_context_switch, 1.0);
    let jobs = vec![phases.as_slice(); 32];
    let (plan, mut off) = (FaultPlan::none(), TraceLog::disabled());
    group.bench_function("edtlp/32_jobs_4096_phases", |b| {
        b.iter(|| simulate_task_parallel(black_box(&jobs), 8, 1, &params, &plan, &mut off).makespan)
    });
    group.bench_function("mgps/128_jobs_end_to_end", |b| {
        b.iter(|| {
            let priced = black_box(&priced);
            schedule_makespan(Scheduler::Mgps, priced, 128, &model, &params, &plan, &mut off)
                .makespan
        })
    });
    group.finish();
}

fn bench_experiment(c: &mut Criterion) {
    let workload = bench::or_exit(bench::aln42_workload());
    let model = CostModel::paper_calibrated();
    let params = DesParams::default();
    let mut group = c.benchmark_group("experiment");
    group.sample_size(20);
    group.bench_function("ladder", |b| b.iter(|| run_ladder(black_box(&workload), &model)));
    group
        .bench_function("table8", |b| b.iter(|| run_table8(black_box(&workload), &model, &params)));
    group.bench_function("figure3", |b| {
        b.iter(|| run_figure3(black_box(&workload), &model, &params))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_pricing, bench_des, bench_experiment
}
criterion_main!(benches);
