//! Parallelism layers.
//!
//! The paper exploits RAxML parallelism at three granularities:
//!
//! 1. **Task level** — embarrassingly parallel bootstraps/inferences under a
//!    master–worker scheme (§3.1). Here: [`crate::farm`], the one-queue
//!    inference farm (the MPI analogue).
//! 2. **Loop level** — the likelihood loops distributed across processors
//!    (the RAxML-OMP / LLP-across-SPEs layer). Here: one rule
//!    (`stripe_width`) cuts the pattern range into block-aligned stripes and
//!    one runner gives each stripe a thread. A fused `newview` traversal owns
//!    its stripe of every partial start to end (`run_striped`); the
//!    reductions ([`evaluate_dispatch`], [`newton_dispatch`]) write one slot
//!    per `REDUCE_BLOCK` and fold the slots in block order.
//! 3. **Data level** — the lane-generic vector kernels themselves, 4 lanes
//!    on AVX2 hosts and 2 elsewhere ([`crate::likelihood::kernels`]).

use crate::likelihood::kernels::{
    self, evaluate_lnl, EvalOperand, Mat4, NewtonPass, NewtonScratch,
};
use crate::likelihood::TILE;
use crate::model::ExpImpl;
use std::sync::OnceLock;
use std::time::Instant;

/// Minimum patterns per thread: below this the spawn overhead dominates the
/// ~100ns/pattern kernel work.
const MIN_CHUNK: usize = 64;

/// Fixed floating-point *association unit* for the parallel reductions.
///
/// Deliberately *not* derived from the thread count: these 256-pattern
/// block boundaries define the floating-point association of the
/// reduction, so they must be a pure function of the alignment. Each
/// block's partial log-likelihood lands in its own indexed slot and the
/// slots are folded sequentially in block order, which makes
/// `evaluate_dispatch`/`newton_dispatch` bit-reproducible run-to-run and
/// across any thread count and stripe width — the BEAGLE-style determinism
/// contract for parallel likelihood accumulation.
const REDUCE_BLOCK: usize = 256;

/// Wall-clock telemetry for the loop-level reductions: batch latency
/// histograms (`evaluate_dispatch_ns`, `newton_dispatch_ns`) and pattern
/// throughput counters (`*_patterns_total`, patterns/sec once divided by
/// wall time). Handles are resolved from the global [`obs`] registry once
/// per process; while the registry is disabled every dispatch pays one
/// atomic load and skips the clock reads entirely, so the instrumented
/// path stays allocation-free and — because timing never feeds back into
/// the arithmetic — bit-identical in its likelihood results.
struct DispatchMetrics {
    evaluate_ns: obs::Histogram,
    newton_ns: obs::Histogram,
    evaluate_patterns: obs::Counter,
    newton_patterns: obs::Counter,
}

fn dispatch_metrics() -> Option<&'static DispatchMetrics> {
    let reg = obs::global();
    if !reg.is_enabled() {
        return None;
    }
    static CELL: OnceLock<DispatchMetrics> = OnceLock::new();
    Some(CELL.get_or_init(|| DispatchMetrics {
        evaluate_ns: reg.histogram("evaluate_dispatch_ns"),
        newton_ns: reg.histogram("newton_dispatch_ns"),
        evaluate_patterns: reg.counter("evaluate_patterns_total"),
        newton_patterns: reg.counter("newton_patterns_total"),
    }))
}

/// Where patterns `[lo, hi)` live in a tiled buffer (partials or sum
/// table). The tiled layout is cut on whole blocks: `lo` must be
/// block-aligned (chunk boundaries are multiples of `REDUCE_BLOCK`, which
/// `TILE` divides), and the end rounds up so a ragged tail chunk keeps its
/// zero-padded final block.
fn tiled_range(lo: usize, hi: usize, n_rates: usize) -> std::ops::Range<usize> {
    debug_assert_eq!(lo % TILE, 0, "chunk start must be tile-aligned");
    let block = n_rates * 4 * TILE;
    (lo / TILE) * block..hi.div_ceil(TILE) * block
}

/// Restrict an evaluate/makenewz operand to the pattern range `[lo, hi)`.
fn slice_operand<'a>(
    op: &EvalOperand<'a>,
    lo: usize,
    hi: usize,
    n_rates: usize,
) -> EvalOperand<'a> {
    match *op {
        EvalOperand::Tip { codes } => EvalOperand::Tip { codes: &codes[lo..hi] },
        EvalOperand::Inner { x, scale } => {
            EvalOperand::Inner { x: &x[tiled_range(lo, hi, n_rates)], scale: &scale[lo..hi] }
        }
    }
}

/// Loop-level threads: `RAYON_NUM_THREADS` when it holds a positive integer
/// (the variable CI and the determinism tests set), otherwise the host's
/// available parallelism. Read per call, so tests can vary it in-process.
fn thread_count() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Stripe width, in patterns, of loop-level work: the [`REDUCE_BLOCK`]s of
/// the pattern range dealt evenly to the threads, so there are at most that
/// many stripes and every boundary is block-aligned. `None` when loop-level
/// parallelism does not engage (`parallel` off, or too few patterns to pay
/// for a thread). This is the one engagement and width rule for `newview`,
/// `evaluate` and Newton alike. Reads the thread count from the
/// environment: call it once per traversal or reduction, not once per
/// kernel.
pub(crate) fn stripe_width(parallel: bool, n_patterns: usize) -> Option<usize> {
    (parallel && n_patterns >= 2 * MIN_CHUNK)
        .then(|| n_patterns.div_ceil(REDUCE_BLOCK).div_ceil(thread_count()) * REDUCE_BLOCK)
}

/// The one place loop-level threads are spawned: `body(k, stripe)` for
/// every stripe, stripe 0 on the caller and each other stripe on a scoped
/// thread of its own. Results come back in stripe order; a stripe's panic
/// is resumed on the caller.
fn run_stripes<T: Send, R: Send>(
    stripes: impl IntoIterator<Item = T>,
    body: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let body = &body;
    std::thread::scope(|s| {
        let mut stripes = stripes.into_iter().enumerate();
        let first = stripes.next();
        let spawned: Vec<_> = stripes.map(|(k, stripe)| s.spawn(move || body(k, stripe))).collect();
        let mut out = Vec::with_capacity(spawned.len() + 1);
        out.extend(first.map(|(k, stripe)| body(k, stripe)));
        for handle in spawned {
            out.push(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

/// One thread's share of a node: its stripe of the tiled partial and of the
/// scale counts.
pub(crate) type StripeSlot<'a> = (&'a mut [f64], &'a mut [u32]);

/// Stripe-owned loop-level parallelism. Every node's tiled partial and
/// scale vector is cut at the same `width`-pattern boundaries (`width` a
/// multiple of [`TILE`], so the cuts fall on whole blocks and the last
/// stripe keeps the zero-padded tail); stripe `k` of *every* node goes to
/// one thread, which runs `body(first pattern, its slots in node order)` —
/// typically a whole descriptor list — start to end.
///
/// Because `newview` is pattern-local, what a stripe computes does not
/// depend on where the other cuts fall: any `width` and any thread count
/// give bit-identical partials.
pub(crate) fn run_striped<'a, R: Send>(
    nodes: impl Iterator<Item = StripeSlot<'a>>,
    n_rates: usize,
    width: usize,
    body: impl Fn(usize, &mut [StripeSlot<'a>]) -> R + Sync,
) -> Vec<R> {
    const _: () = assert!(REDUCE_BLOCK.is_multiple_of(TILE), "stripes must cover whole tiles");
    assert!(width > 0 && width.is_multiple_of(TILE), "stripe width must cover whole tiles");
    let mut stripes: Vec<Vec<StripeSlot<'a>>> = Vec::new();
    for (x, scale) in nodes {
        // `width * n_rates * 4` f64s are `width / TILE` whole blocks, so the
        // x-chunks and the scale-chunks pair off exactly.
        let cut = x.chunks_mut(width * n_rates * 4).zip(scale.chunks_mut(width));
        for (k, slot) in cut.enumerate() {
            if k == stripes.len() {
                stripes.push(Vec::new());
            }
            stripes[k].push(slot);
        }
    }
    run_stripes(stripes, |k, mut slots| body(k * width, &mut slots))
}

/// The striped body of a reduction over `n` patterns: stripes of `width`
/// patterns (a whole number of [`REDUCE_BLOCK`]s), `block(lo, hi, state)`
/// once per block with one `St` per stripe, and the per-block results
/// returned in block order — the order every caller folds them in, so the
/// association is the same at any width.
fn per_block<S, St>(
    n: usize,
    width: usize,
    block: impl Fn(usize, usize, &mut St) -> S + Sync,
) -> Vec<S>
where
    S: Copy + Default + Send,
    St: Default,
{
    assert!(width > 0 && width.is_multiple_of(REDUCE_BLOCK), "stripes must cover whole blocks");
    let mut slots = vec![S::default(); n.div_ceil(REDUCE_BLOCK)];
    run_stripes(slots.chunks_mut(width / REDUCE_BLOCK), |k, stripe| {
        let mut state = St::default();
        for (b, slot) in stripe.iter_mut().enumerate() {
            let lo = k * width + b * REDUCE_BLOCK;
            *slot = block(lo, n.min(lo + REDUCE_BLOCK), &mut state);
        }
    });
    slots
}

/// `evaluate` with optional loop-level parallelism over site patterns.
///
/// Deterministic: each fixed 256-pattern `REDUCE_BLOCK` writes its
/// partial log-likelihood into an indexed slot and the slots are summed
/// sequentially in block order, so the result is bit-identical run-to-run,
/// across thread counts, and across stripe widths.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_dispatch(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    weights: &[f64],
    n_rates: usize,
    parallel: bool,
) -> f64 {
    let n = weights.len();
    let metrics = dispatch_metrics();
    let t0 = metrics.map(|_| Instant::now());
    let lnl = match stripe_width(parallel, n) {
        None => evaluate_lnl(u, v, pmats, freqs, weights, n_rates),
        Some(width) => evaluate_striped(u, v, pmats, freqs, weights, n_rates, width),
    };
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.evaluate_ns.record(t0.elapsed().as_nanos() as u64);
        m.evaluate_patterns.add(n as u64);
    }
    lnl
}

/// Parallel `evaluate` at an explicit stripe width (a multiple of
/// [`REDUCE_BLOCK`]); factored out so tests can prove width invariance.
fn evaluate_striped(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    weights: &[f64],
    n_rates: usize,
    width: usize,
) -> f64 {
    per_block(weights.len(), width, |lo, hi, _: &mut ()| {
        let su = slice_operand(u, lo, hi, n_rates);
        let sv = slice_operand(v, lo, hi, n_rates);
        evaluate_lnl(&su, &sv, pmats, freqs, &weights[lo..hi], n_rates)
    })
    .iter()
    .sum()
}

/// One pass over the `makenewz` sum table — Newton derivatives, or the
/// log-likelihood alone — with optional loop-level parallelism, on raw
/// tiled sum-table slices (see [`kernels::SumTable`]) with caller-owned
/// exponential scratch (the sequential path is zero-allocation; each
/// stripe fills a scratch of its own from sub-slices, no sum-table copies).
#[allow(clippy::too_many_arguments)]
pub fn newton_dispatch(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: ExpImpl,
    pass: NewtonPass,
    parallel: bool,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    let n = weights.len();
    let metrics = dispatch_metrics();
    let t0 = metrics.map(|_| Instant::now());
    let derivs = match stripe_width(parallel, n) {
        None => kernels::newton_derivatives_scratch(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, pass, scratch,
        ),
        Some(width) => newton_striped(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, pass, width,
        ),
    };
    if let (Some(m), Some(t0)) = (metrics, t0) {
        m.newton_ns.record(t0.elapsed().as_nanos() as u64);
        m.newton_patterns.add(n as u64);
    }
    derivs
}

/// Parallel Newton pass at an explicit stripe width; same deterministic
/// scheme as [`evaluate_striped`] — indexed per-block partial triples
/// folded sequentially in block order. Each stripe reuses one exponential
/// scratch across its blocks. The tiled table is cut on [`REDUCE_BLOCK`]
/// boundaries, which are whole-tile boundaries.
#[allow(clippy::too_many_arguments)]
fn newton_striped(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: ExpImpl,
    pass: NewtonPass,
    width: usize,
) -> (f64, f64, f64) {
    per_block(weights.len(), width, |lo, hi, scratch: &mut NewtonScratch| {
        let (l, d1, d2) = kernels::newton_derivatives_scratch(
            &st_data[tiled_range(lo, hi, n_rates)],
            &st_scale[lo..hi],
            n_rates,
            lambdas,
            rates,
            t,
            &weights[lo..hi],
            exp_impl,
            pass,
            scratch,
        );
        [l, d1, d2]
    })
    .iter()
    .fold((0.0, 0.0, 0.0), |a, p| (a.0 + p[0], a.1 + p[1], a.2 + p[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::engine::LikelihoodEngine;
    use crate::likelihood::kernels::Child;
    use crate::likelihood::LikelihoodConfig;
    use crate::model::{GammaRates, SubstModel};
    use crate::simulate::SimulationConfig;
    use crate::tree::Tree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The stripe widths the invariance tests sweep, in patterns: one
    /// block, small and odd multiples, and one stripe wider than the input.
    const WIDTHS: [usize; 5] =
        [REDUCE_BLOCK, 2 * REDUCE_BLOCK, 3 * REDUCE_BLOCK, 5 * REDUCE_BLOCK, 32 * REDUCE_BLOCK];

    /// Loop-level parallelism only engages above MIN_CHUNK patterns; this
    /// exercises it on a large-pattern alignment and checks agreement with
    /// the sequential path through the full engine (newview, evaluate and
    /// the Newton derivatives all go parallel).
    #[test]
    fn parallel_paths_match_sequential_on_large_alignments() {
        // High divergence ⇒ >> 128 distinct patterns.
        let w =
            SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(10, 3000, 99) }.generate();
        assert!(
            w.alignment.n_patterns() > 2 * MIN_CHUNK,
            "need enough patterns to engage the parallel path: {}",
            w.alignment.n_patterns()
        );
        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let rates = GammaRates::standard(0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut tree = Tree::random(10, 0.2, &mut rng).unwrap();

        let mut seq_engine = LikelihoodEngine::new(
            &w.alignment,
            model.clone(),
            rates.clone(),
            LikelihoodConfig { parallel: false, ..LikelihoodConfig::optimized() },
        );
        let mut par_engine = LikelihoodEngine::new(
            &w.alignment,
            model,
            rates,
            LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
        );

        let a = seq_engine.log_likelihood(&tree);
        let b = par_engine.log_likelihood(&tree);
        // Seq vs par may differ by the blocked reduction's floating-point
        // association (documented epsilon); par vs par must be bit-equal,
        // and equal to the value the parallel path has always produced.
        assert!((a - b).abs() < 1e-9, "evaluate: {a} vs {b}");
        let b2 = par_engine.log_likelihood(&tree);
        assert_eq!(b.to_bits(), b2.to_bits(), "parallel evaluate not reproducible");
        assert_eq!(b.to_bits(), 0xc0de_74f7_2394_6d44, "parallel lnL moved: {b}");

        // Branch optimization drives newton_dispatch + the striped newview.
        // The blocked reduction changes floating-point association, which
        // can shift Newton's final iterate slightly — so the seq-vs-par
        // comparison is near-equality, not bit-equality.
        let tree0 = tree.clone();
        let mut tree2 = tree.clone();
        let la = seq_engine.optimize_all_branches(&mut tree, 2);
        let lb = par_engine.optimize_all_branches(&mut tree2, 2);
        assert!((la - lb).abs() < 1e-3, "optimize: {la} vs {lb}");
        assert_eq!(lb.to_bits(), 0xc0dc_6491_16f3_02ee, "parallel optimize moved: {lb}");
        for (e1, e2) in tree.edges().iter().zip(tree2.edges().iter()) {
            assert_eq!(e1, e2);
            let l1 = tree.branch_length(e1.0, e1.1);
            let l2 = tree2.branch_length(e2.0, e2.1);
            assert!((l1 - l2).abs() < 1e-4, "branch {e1:?}: {l1} vs {l2}");
        }

        // A second, fresh parallel engine repeating the same optimization
        // from the same starting tree must agree with the first *to the
        // bit* — the reduction order is fixed by REDUCE_BLOCK, not by
        // scheduling.
        let model2 = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let mut par_engine2 = LikelihoodEngine::new(
            &w.alignment,
            model2,
            GammaRates::standard(0.7).unwrap(),
            LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
        );
        let mut tree3 = tree0.clone();
        let lb2 = par_engine2.optimize_all_branches(&mut tree3, 2);
        assert_eq!(lb.to_bits(), lb2.to_bits(), "parallel optimize not reproducible");
        for (e2, e3) in tree2.edges().iter().zip(tree3.edges().iter()) {
            assert_eq!(e2, e3);
            let l2 = tree2.branch_length(e2.0, e2.1);
            let l3 = tree3.branch_length(e3.0, e3.1);
            assert_eq!(l2.to_bits(), l3.to_bits(), "branch {e2:?}: {l2} vs {l3}");
        }
    }

    /// The determinism contract across thread counts: the same parallel
    /// likelihood under `RAYON_NUM_THREADS` ∈ {1, 2, 3, 4, 8} must be the
    /// same f64 to the bit, and within the documented 1e-9 of sequential.
    /// A stripe computes the same partials wherever the other cuts fall,
    /// `REDUCE_BLOCK` fixes the association boundaries and the indexed
    /// partial buffers fix the reduction order, so thread count can only
    /// change scheduling, never association.
    #[test]
    fn parallel_lnl_is_bit_identical_across_thread_counts() {
        let w =
            SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(8, 2400, 41) }.generate();
        assert!(w.alignment.n_patterns() > 2 * MIN_CHUNK);
        let mut rng = StdRng::seed_from_u64(11);
        let tree = Tree::random(8, 0.2, &mut rng).unwrap();

        let run = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
            let mut engine = LikelihoodEngine::new(
                &w.alignment,
                model,
                GammaRates::standard(0.7).unwrap(),
                LikelihoodConfig { parallel: true, ..LikelihoodConfig::optimized() },
            );
            let lnl = engine.log_likelihood(&tree);
            let opt = engine.optimize_all_branches(&mut tree.clone(), 2);
            (lnl.to_bits(), opt.to_bits())
        };

        let one = run("1");
        let others = ["2", "3", "4", "8"].map(|threads| (threads, run(threads)));
        std::env::remove_var("RAYON_NUM_THREADS");
        for (threads, got) in others {
            assert_eq!(one, got, "1 vs {threads} threads");
        }

        let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
        let rates = GammaRates::standard(0.7).unwrap();
        let mut sequential =
            LikelihoodEngine::new(&w.alignment, model, rates, LikelihoodConfig::optimized());
        let seq = sequential.log_likelihood(&tree);
        assert!((f64::from_bits(one.0) - seq).abs() < 1e-9, "parallel vs sequential lnL");
    }

    /// A whole traversal under stripe-owned parallelism leaves exactly what
    /// the sequential driver leaves: every partial, every scale count and —
    /// per-descriptor scaling statistics being summed over stripes — every
    /// kernel-trace event. Once with a ragged last stripe, once below the
    /// engagement threshold where the parallel engine runs sequentially.
    #[test]
    fn striped_traversal_leaves_the_sequential_partials_scales_and_events() {
        for (sites, engages) in [(700, true), (40, false)] {
            let w = SimulationConfig { mean_branch: 0.4, ..SimulationConfig::new(150, sites, 7) }
                .generate();
            let n = w.alignment.n_patterns();
            assert_eq!(stripe_width(true, n).is_some(), engages, "{n} patterns");
            assert!(!n.is_multiple_of(REDUCE_BLOCK), "{n} patterns: want a ragged last stripe");
            let tree = Tree::random(150, 0.4, &mut StdRng::seed_from_u64(5)).unwrap();

            let traverse = |parallel: bool| {
                let model = SubstModel::gtr(w.alignment.base_frequencies(), [1.0; 6]).unwrap();
                let config = LikelihoodConfig { parallel, ..LikelihoodConfig::optimized() };
                let rates = GammaRates::standard(0.7).unwrap();
                let mut engine = LikelihoodEngine::new(&w.alignment, model, rates, config);
                engine.enable_event_recording();
                let lnl = engine.log_likelihood(&tree);
                (engine, lnl)
            };
            let (seq, seq_lnl) = traverse(false);
            let (par, par_lnl) = traverse(true);

            for node in tree.n_taxa()..tree.n_nodes() {
                assert!(seq.node_partial(node).is_some(), "node {node} was not computed");
                assert_eq!(seq.node_partial(node), par.node_partial(node), "node {node}");
            }
            assert_eq!(seq.trace().events(), par.trace().events());
            let fired: u32 = seq.trace().events().iter().map(|e| e.scalings).sum();
            assert!(fired > 0, "{n} patterns: scaling never fired, its statistics are untested");
            if engages {
                assert!((seq_lnl - par_lnl).abs() < 1e-9, "{seq_lnl} vs {par_lnl}");
            } else {
                assert_eq!(seq_lnl.to_bits(), par_lnl.to_bits());
            }
        }
    }

    /// Synthetic tip codes for the width-invariance tests: a cycle of the
    /// four unambiguous DNA bit codes plus occasional ambiguity codes, so
    /// per-pattern likelihoods vary and a mis-sliced block would change the
    /// sum.
    fn synthetic_codes(n: usize) -> Vec<u8> {
        (0..n).map(|i| [1u8, 2, 4, 8, 1, 2, 5, 15][i % 8]).collect()
    }

    /// Per-rate `P` matrices that are valid (rows sum to 1) but asymmetric
    /// enough that every pattern/rate contributes a distinct value.
    fn synthetic_pmats(n_rates: usize) -> Vec<Mat4> {
        (0..n_rates)
            .map(|c| {
                let d = 0.55 + 0.08 * c as f64;
                let o = (1.0 - d) / 3.0;
                let mut m = [[o; 4]; 4];
                for (s, row) in m.iter_mut().enumerate() {
                    row[s] = d;
                }
                m
            })
            .collect()
    }

    /// `evaluate_striped` must be bit-identical at *every* stripe width,
    /// because the floating-point association is pinned to
    /// [`REDUCE_BLOCK`]-sized slots, not to the stripe. The constant is the
    /// value the parallel path has produced since the block association
    /// was introduced, so it also pins the association across commits.
    #[test]
    fn evaluate_is_bit_identical_across_stripe_widths() {
        const PINNED: u64 = 0xc0d8_688b_575d_9484;
        let n = 3001; // ragged tail: not a multiple of REDUCE_BLOCK or TILE
        let n_rates = 4;
        let codes_u = synthetic_codes(n);
        let codes_v: Vec<u8> = synthetic_codes(n).into_iter().rev().collect();
        let (u, v) = (EvalOperand::Tip { codes: &codes_u }, EvalOperand::Tip { codes: &codes_v });
        let pmats = synthetic_pmats(n_rates);
        let freqs = [0.22, 0.28, 0.31, 0.19];
        let weights: Vec<f64> = (0..n).map(|i| (i % 7 + 1) as f64).collect();

        for width in WIDTHS {
            let got = evaluate_striped(&u, &v, &pmats, &freqs, &weights, n_rates, width);
            assert_eq!(got.to_bits(), PINNED, "width {width} changed the evaluate association");
        }
        let dispatched = evaluate_dispatch(&u, &v, &pmats, &freqs, &weights, n_rates, true);
        assert_eq!(dispatched.to_bits(), PINNED, "dispatch at this run's thread count");
    }

    /// Same invariant for the Newton reduction over the tiled sum table:
    /// per-block partial triples keep their own slots, so any stripe width
    /// — and the dispatcher at whatever thread count the run has — folds in
    /// the same order, to pinned bits. The blocked fold differs from the
    /// sequential one in association only, so it stays within 1e-9 of the
    /// scalar `[pattern][rate][k]` reference, and the lnL-only pass is the
    /// full pass's `lnl` to the bit.
    #[test]
    fn newton_is_bit_identical_across_stripe_widths() {
        use crate::likelihood::reference::{newton_derivatives_aos, sumtable_aos};
        use rand::Rng;
        const PINNED: [u64; 3] =
            [0xc12e_cc79_19ca_c810, 0x4074_1aad_467a_0492, 0xc097_2d22_c2fb_5329];
        let n = 2817; // eleven REDUCE_BLOCKs and a ragged last tile
        let n_rates = 4;
        let mut rng = StdRng::seed_from_u64(23);
        let aos: Vec<f64> = (0..n * n_rates * 4).map(|_| rng.gen_range(0.01..1.0)).collect();
        let x = kernels::tile_partials(&aos, n, n_rates);
        let scale: Vec<u32> = (0..n as u32).map(|i| i % 3).collect();
        let codes = synthetic_codes(n);
        let u = EvalOperand::Tip { codes: &codes };
        let v = EvalOperand::Inner { x: &x, scale: &scale };
        let model =
            SubstModel::gtr([0.3, 0.2, 0.25, 0.25], [1.2, 3.1, 0.8, 0.9, 3.4, 1.0]).unwrap();
        let (w, lambdas) = (model.eigen().w, model.eigen().values);
        let st = kernels::build_sumtable(&u, &v, &w, n, n_rates);
        let rates = [0.2, 0.6, 1.1, 2.1];
        let weights: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let (t, exp) = (0.083, ExpImpl::Libm);

        let bits = |(l, d1, d2): (f64, f64, f64)| [l.to_bits(), d1.to_bits(), d2.to_bits()];
        let newton = |pass: NewtonPass, width: usize| {
            let (data, scale) = (&st.data, &st.scale);
            bits(newton_striped(
                data, scale, n_rates, &lambdas, &rates, t, &weights, exp, pass, width,
            ))
        };
        let lnl_only = [PINNED[0], 0, 0];
        for width in WIDTHS {
            assert_eq!(newton(NewtonPass::Derivatives, width), PINNED, "width {width}");
            assert_eq!(newton(NewtonPass::LnlOnly, width), lnl_only, "width {width}");
        }

        for (pass, want) in [(NewtonPass::Derivatives, PINNED), (NewtonPass::LnlOnly, lnl_only)] {
            let mut scratch = NewtonScratch::default();
            let mut dispatch = || {
                bits(newton_dispatch(
                    &st.data,
                    &st.scale,
                    n_rates,
                    &lambdas,
                    &rates,
                    t,
                    &weights,
                    exp,
                    pass,
                    true,
                    &mut scratch,
                ))
            };
            assert_eq!(dispatch(), want, "{pass:?} dispatch");
            assert_eq!(dispatch(), want, "{pass:?} is not reproducible");
        }

        let (aos_table, aos_scale) = sumtable_aos(&u, &v, &w, n, n_rates);
        let want = newton_derivatives_aos(
            &aos_table, &aos_scale, n_rates, &lambdas, &rates, t, &weights, exp,
        );
        let got = PINNED.map(f64::from_bits);
        for (got, want) in [(got[0], want.0), (got[1], want.1), (got[2], want.2)] {
            assert!((got - want).abs() <= 1e-9 * want.abs(), "blocked {got} vs sequential {want}");
        }
    }

    /// `newview` writes are per-pattern disjoint, so any stripe width — one
    /// stripe, an odd count, a ragged last one — must reproduce the
    /// sequential kernel bit-for-bit: partials, scale counts, and the
    /// integer scaling statistics.
    #[test]
    fn newview_is_bit_identical_across_stripe_widths_and_vs_sequential() {
        let n = 1931;
        let n_rates = 4;
        let codes_l = synthetic_codes(n);
        let codes_r: Vec<u8> = synthetic_codes(n).into_iter().rev().collect();
        let pmats = synthetic_pmats(n_rates);
        let tables_l = kernels::build_tip_tables(&pmats);
        let tables_r = kernels::build_tip_tables(&pmats);
        let len = kernels::tiled_len(n, n_rates);
        let newview = |codes_l: &[u8], codes_r: &[u8], x: &mut [f64], scale: &mut [u32]| {
            let left = Child::Tip { codes: codes_l, tables: &tables_l };
            let right = Child::Tip { codes: codes_r, tables: &tables_r };
            kernels::newview(&left, &right, x, scale, n_rates)
        };

        let mut seq_x = vec![0.0f64; len];
        let mut seq_scale = vec![0u32; n];
        let seq_stats = newview(&codes_l, &codes_r, &mut seq_x, &mut seq_scale);

        for width in WIDTHS {
            let mut x = vec![0.0f64; len];
            let mut scale = vec![0u32; n];
            // `ScaleStats::merge` is integer addition (associative and
            // commutative), so there is no association to pin.
            let stats = run_striped(
                std::iter::once((&mut x[..], &mut scale[..])),
                n_rates,
                width,
                |lo, mine| {
                    let (ox, os) = std::mem::take(&mut mine[0]);
                    let hi = lo + os.len();
                    newview(&codes_l[lo..hi], &codes_r[lo..hi], ox, os)
                },
            )
            .into_iter()
            .fold(kernels::ScaleStats::default(), kernels::ScaleStats::merge);
            assert_eq!(stats, seq_stats, "width {width} changed the scale stats");
            assert_eq!(scale, seq_scale, "width {width} changed the scale counts");
            assert!(
                x.iter().zip(seq_x.iter()).all(|(a, b)| a.to_bits() == b.to_bits()),
                "width {width} changed the partials"
            );
        }
    }
}
