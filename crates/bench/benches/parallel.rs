//! Criterion benchmarks of the parallelism layers on the host CPU.
//!
//! * `llp/*` — loop-level parallelism over site-pattern stripes (the paper's
//!   third parallelization layer / the RAxML-OMP analogue) on a multi-gene-
//!   sized alignment, where the paper says it "scales particularly well".
//! * `task_level/*` — the master–worker bootstrap scheme (§3.1) on the
//!   inference farm at different worker counts.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phylo::farm::run_batch;
use phylo::likelihood::engine::LikelihoodEngine;
use phylo::likelihood::LikelihoodConfig;
use phylo::model::{GammaRates, SubstModel};
use phylo::search::{run_inference, InferenceOptions, InferenceRequest, SearchConfig};
use phylo::simulate::SimulationConfig;
use phylo::tree::Tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_llp(c: &mut Criterion) {
    // A long multi-gene-style alignment: many patterns so the loop split
    // pays off.
    let w =
        SimulationConfig { mean_branch: 0.2, ..SimulationConfig::new(16, 12_000, 77) }.generate();
    let aln = w.alignment;
    let mut rng = StdRng::seed_from_u64(3);
    let tree = Tree::random(16, 0.1, &mut rng).unwrap();
    let model = SubstModel::gtr(aln.base_frequencies(), [1.0; 6]).unwrap();
    let rates = GammaRates::standard(0.7).unwrap();

    let mut group = c.benchmark_group("llp");
    group.sample_size(15);
    for (parallel, name) in [(false, "sequential"), (true, "parallel")] {
        let cfg = LikelihoodConfig { parallel, ..LikelihoodConfig::optimized() };
        let mut engine = LikelihoodEngine::new(&aln, model.clone(), rates.clone(), cfg);
        group.bench_function(format!("full_tree_lnl/{name}"), |b| {
            b.iter(|| {
                engine.invalidate_all();
                black_box(engine.log_likelihood(&tree))
            })
        });
    }
    group.finish();
}

fn bench_task_level(c: &mut Criterion) {
    // Embarrassingly parallel bootstraps under the master–worker scheme.
    let w = SimulationConfig::new(8, 300, 5).generate();
    let aln = w.alignment;
    let mut search = SearchConfig::fast();
    search.max_spr_rounds = 1;
    search.spr_radius = 2;
    search.optimize_alpha = false;

    let mut group = c.benchmark_group("task_level");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("bootstraps8/workers{workers}"), |b| {
            b.iter(|| {
                let jobs: Vec<u64> = (0..8).collect();
                run_batch(jobs, workers, |_, seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let rep = aln.bootstrap_replicate(&mut rng);
                    let request = InferenceRequest::new(search.clone(), seed);
                    run_inference(&rep, &request, InferenceOptions::new())
                        .unwrap()
                        .result
                        .log_likelihood
                })
            })
        });
    }
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
    targets = bench_llp, bench_task_level
}
criterion_main!(benches);
