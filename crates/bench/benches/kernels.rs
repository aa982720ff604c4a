//! Criterion microbenchmarks of the real (host-CPU) likelihood kernels:
//!
//! * `newview/*`   — the three §5.2.3 cases on the dispatched lanes, labelled
//!   with the probed tier: four lanes with AVX2, else two (§5.2.5)
//! * `exp/*`       — libm vs SDK-style exponential (§5.2.2, Table 2)
//! * `evaluate/*`, `makenewz/*` — the other two offloaded kernels (§5.2.7)
//! * `alignment/bootstrap_replicate` — one compacted replicate, aln42 shape

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phylo::likelihood::kernels::{
    build_sumtable, build_tip_tables, evaluate_lnl, newton_derivatives_scratch, newview,
    tile_partials, tiled_len, Child, EvalOperand, Mat4, NewtonPass, NewtonScratch,
};
use phylo::likelihood::KernelTier;
use phylo::math::fast_exp;
use phylo::model::{ExpImpl, GammaRates, SubstModel};
use phylo::simulate::SimulationConfig;
use rand::{rngs::StdRng, SeedableRng};

const N_PATTERNS: usize = 250; // the 42_SC regime (~250 distinct patterns)
const N_RATES: usize = 4;

struct Fixture {
    model: SubstModel,
    rates: Vec<f64>,
    pl: Vec<Mat4>,
    pr: Vec<Mat4>,
    xl: Vec<f64>,
    xr: Vec<f64>,
    zeros: Vec<u32>,
    codes: Vec<u8>,
    weights: Vec<f64>,
}

fn fixture() -> Fixture {
    let model = SubstModel::gtr([0.3, 0.2, 0.25, 0.25], [1.2, 3.1, 0.8, 0.9, 3.4, 1.0]).unwrap();
    let gamma = GammaRates::standard(0.7).unwrap();
    let rates = gamma.rates().to_vec();
    let pl: Vec<Mat4> =
        rates.iter().map(|&r| model.transition_matrix(0.13, r, ExpImpl::Sdk)).collect();
    let pr: Vec<Mat4> =
        rates.iter().map(|&r| model.transition_matrix(0.31, r, ExpImpl::Sdk)).collect();
    let stride = N_RATES * 4;
    let mut seed = 0.37f64;
    let mut next = move || {
        seed = (seed * 9301.0 + 49297.0) % 233280.0 / 233280.0;
        0.01 + seed
    };
    // Partials live in the tiled pattern-block layout the kernels consume.
    let aos_l: Vec<f64> = (0..N_PATTERNS * stride).map(|_| next()).collect();
    let aos_r: Vec<f64> = (0..N_PATTERNS * stride).map(|_| next()).collect();
    let xl = tile_partials(&aos_l, N_PATTERNS, N_RATES);
    let xr = tile_partials(&aos_r, N_PATTERNS, N_RATES);
    let zeros = vec![0u32; N_PATTERNS];
    let codes: Vec<u8> = (0..N_PATTERNS).map(|i| ((i % 15) + 1) as u8).collect();
    let weights: Vec<f64> = (0..N_PATTERNS).map(|i| 1.0 + (i % 5) as f64).collect();
    Fixture { model, rates, pl, pr, xl, xr, zeros, codes, weights }
}

fn bench_newview(c: &mut Criterion) {
    let f = fixture();
    let mut out = vec![0.0; tiled_len(N_PATTERNS, N_RATES)];
    let mut scale = vec![0u32; N_PATTERNS];

    let tier = KernelTier::probe().name();
    let lt = build_tip_tables(&f.pl);
    let rt = build_tip_tables(&f.pr);
    let cases = [
        (
            "inner_inner",
            Child::Inner { x: &f.xl, scale: &f.zeros, pmats: &f.pl },
            Child::Inner { x: &f.xr, scale: &f.zeros, pmats: &f.pr },
        ),
        (
            "tip_inner",
            Child::Tip { codes: &f.codes, tables: &lt },
            Child::Inner { x: &f.xr, scale: &f.zeros, pmats: &f.pr },
        ),
        (
            "tip_tip",
            Child::Tip { codes: &f.codes, tables: &lt },
            Child::Tip { codes: &f.codes, tables: &rt },
        ),
    ];
    let mut group = c.benchmark_group("newview");
    for (name, left, right) in &cases {
        group.bench_function(format!("{name}/{tier}"), |b| {
            b.iter(|| newview(left, right, black_box(&mut out), &mut scale, N_RATES))
        });
    }
    group.finish();
}

fn bench_exp(c: &mut Criterion) {
    let args: Vec<f64> = (0..1024).map(|i| -(i as f64) * 0.05).collect();
    let mut group = c.benchmark_group("exp");
    group.bench_function("libm", |b| {
        b.iter(|| args.iter().map(|&x| black_box(x).exp()).sum::<f64>())
    });
    group.bench_function("sdk_fast_exp", |b| {
        b.iter(|| args.iter().map(|&x| fast_exp(black_box(x))).sum::<f64>())
    });
    // The consumer of exp: transition-matrix reconstruction (the "small
    // loop" of §5.2.5).
    let f = fixture();
    group.bench_function("transition_matrix/libm", |b| {
        b.iter(|| {
            f.rates
                .iter()
                .map(|&r| f.model.transition_matrix(black_box(0.2), r, ExpImpl::Libm)[0][0])
                .sum::<f64>()
        })
    });
    group.bench_function("transition_matrix/sdk", |b| {
        b.iter(|| {
            f.rates
                .iter()
                .map(|&r| f.model.transition_matrix(black_box(0.2), r, ExpImpl::Sdk)[0][0])
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("evaluate");
    group.bench_function("lnl", |b| {
        b.iter(|| {
            evaluate_lnl(
                &EvalOperand::Tip { codes: &f.codes },
                &EvalOperand::Inner { x: &f.xr, scale: &f.zeros },
                &f.pl,
                f.model.freqs(),
                black_box(&f.weights),
                N_RATES,
            )
        })
    });
    group.finish();
}

fn bench_makenewz(c: &mut Criterion) {
    let f = fixture();
    let u = EvalOperand::Tip { codes: &f.codes };
    let v = EvalOperand::Inner { x: &f.xr, scale: &f.zeros };
    let mut group = c.benchmark_group("makenewz");
    group.bench_function("build_sumtable", |b| {
        b.iter(|| {
            build_sumtable(black_box(&u), black_box(&v), &f.model.eigen().w, N_PATTERNS, N_RATES)
        })
    });
    // One pass over the sum table as the engine calls it (caller-owned
    // scratch), at the aln42 pattern count and a wide one.
    let passes = [
        (NewtonPass::Derivatives, ExpImpl::Libm, "derivatives"),
        (NewtonPass::Derivatives, ExpImpl::Sdk, "derivatives_sdk"),
        (NewtonPass::LnlOnly, ExpImpl::Libm, "lnl_only"),
    ];
    for n in [245usize, 1999] {
        let aos: Vec<f64> = (0..n * N_RATES * 4).map(|i| 0.01 + (i * 7919 % 997) as f64).collect();
        let x = tile_partials(&aos, n, N_RATES);
        let inner = EvalOperand::Inner { x: &x, scale: &vec![0; n] };
        let st = build_sumtable(&inner, &inner, &f.model.eigen().w, n, N_RATES);
        let (weights, mut scratch) = (vec![2.0; n], NewtonScratch::default());
        for (pass, exp, name) in passes {
            group.bench_function(format!("newton_pass/{name}/{n}"), |b| {
                b.iter(|| {
                    newton_derivatives_scratch(
                        &st.data,
                        &st.scale,
                        N_RATES,
                        &f.model.eigen().values,
                        &f.rates,
                        black_box(0.17),
                        &weights,
                        exp,
                        pass,
                        &mut scratch,
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_bootstrap_replicate(c: &mut Criterion) {
    let aln = SimulationConfig::aln42().generate().alignment;
    c.benchmark_group("alignment").bench_function("bootstrap_replicate", |b| {
        b.iter(|| aln.bootstrap_replicate(&mut StdRng::seed_from_u64(black_box(7))))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_newview, bench_exp, bench_evaluate, bench_makenewz,
        bench_bootstrap_replicate
}
criterion_main!(benches);
