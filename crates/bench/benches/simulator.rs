//! Criterion benchmarks of the simulator itself: trace pricing throughput
//! and discrete-event scheduling speed. These are the costs of *running the
//! reproduction*, useful when scaling to bigger traces or sweeps.

use cellsim::cost::CostModel;
use cellsim::fault::FaultPlan;
use cellsim::tracelog::TraceLog;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phylo::trace::{CallParent, KernelEvent, KernelOp};
use raxml_cell::config::{OptConfig, Scheduler};
use raxml_cell::offload::price_trace;
use raxml_cell::sched::{
    compress_phases, des, schedule_makespan, simulate_task_parallel, DesParams,
};

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
    let compressed = compress_phases(&phases, 4096);
    let jobs = vec![compressed.as_slice(); 32];
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

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_pricing, bench_des
}
criterion_main!(benches);
