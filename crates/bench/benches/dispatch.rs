//! Fused `TraversalOps` dispatch and workspace pooling vs fresh
//! allocation — the host-side benchmarks of the zero-allocation hot path.
//!
//! `dispatch/*` measures one full-tree likelihood on the ALN42-sized
//! workload (42 taxa × 1167 sites, ~250 patterns): every inner partial
//! recomputed, then one `evaluate`, with the traversal compiled into a
//! descriptor list executed out of preallocated arenas.
//!
//! `workspace/*` measures a complete small inference end-to-end, fresh
//! arenas each run vs one recycled workspace (the bootstrap worker's
//! steady state).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::{LikelihoodConfig, LikelihoodWorkspace};
use phylo::model::{GammaRates, SubstModel};
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;

fn bench_dispatch(c: &mut Criterion) {
    let w = SimulationConfig::aln42().generate();
    let aln = &w.alignment;
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.8).unwrap();
    let config = LikelihoodConfig { parallel: false, ..LikelihoodConfig::optimized() };
    let tree = &w.true_tree;
    let edge = tree.edges()[0];

    let mut group = c.benchmark_group("dispatch");
    let mut engine = LikelihoodEngine::new(aln, model, rates, config);
    group.bench_function("fused/full_traversal_aln42", |b| {
        b.iter(|| {
            engine.invalidate_all();
            black_box(engine.log_likelihood_at(tree, edge))
        })
    });
    group.bench_function("fused/branch_sweep_aln42", |b| {
        let edges = tree.edges();
        b.iter(|| {
            let mut acc = 0.0;
            for &e in edges.iter().step_by(8) {
                engine.invalidate_for_branch(e.0, e.1);
                acc += engine.log_likelihood_at(tree, e);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_workspace_pooling(c: &mut Criterion) {
    let w = SimulationConfig::new(10, 400, 3).generate();
    let config = SearchConfig::fast();

    let mut group = c.benchmark_group("workspace");
    group.sample_size(10);
    group.bench_function("fresh/inference_10x400", |b| {
        b.iter(|| {
            let request = InferenceRequest::new(config.clone(), 5);
            let outcome = run_inference(&w.alignment, &request, InferenceOptions::new()).unwrap();
            black_box(outcome.result.log_likelihood)
        })
    });
    group.bench_function("pooled/inference_10x400", |b| {
        let mut ws = Some(LikelihoodWorkspace::new());
        b.iter(|| {
            let request = InferenceRequest::new(config.clone(), 5);
            let options = InferenceOptions::new().with_workspace(ws.take().unwrap());
            let outcome = run_inference(&w.alignment, &request, options).unwrap();
            ws = Some(outcome.workspace);
            black_box(outcome.result.log_likelihood)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch, bench_workspace_pooling);
criterion_main!(benches);
