//! A deliberately naive likelihood implementation used to validate the
//! optimized kernels.
//!
//! Independence from the production path is the point: transition matrices
//! are computed by scaling-and-squaring series exponentiation of the rate
//! matrix (not eigendecomposition), conditional likelihoods by direct
//! recursion (no case specialization, no tiles, no lanes). Underflow is
//! handled by a rule of its own, not the engine's 2⁻²⁵⁶ threshold: every
//! conditional vector is divided by its largest entry and the logarithm of
//! that factor carried per pattern, so deep trees stay finite.
//!
//! It also keeps the scalar `makenewz` formulas the tiled kernels replaced
//! ([`sumtable_aos`], [`newton_derivatives_aos`]) — one pattern at a time
//! over a `[pattern][rate][k]` table — as the differential reference the
//! kernels must match to the bit.

use super::kernels::EvalOperand;
use super::LN_SCALE;
use crate::alignment::PatternAlignment;
use crate::alphabet::TIP_LIKELIHOODS;
use crate::model::{ExpImpl, GammaRates, SubstModel};
use crate::tree::{NodeId, Tree};

/// Build the normalized GTR rate matrix from first principles (duplicating
/// the model's internal construction on purpose).
fn rate_matrix(model: &SubstModel) -> [[f64; 4]; 4] {
    let f = model.freqs();
    let ex = model.exchange();
    let order = [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let mut r = [[0.0; 4]; 4];
    for (idx, &(i, j)) in order.iter().enumerate() {
        r[i][j] = ex[idx];
        r[j][i] = ex[idx];
    }
    let mut q = [[0.0; 4]; 4];
    for i in 0..4 {
        let mut row = 0.0;
        for j in 0..4 {
            if i != j {
                q[i][j] = r[i][j] * f[j];
                row += q[i][j];
            }
        }
        q[i][i] = -row;
    }
    let mu: f64 = -(0..4).map(|i| f[i] * q[i][i]).sum::<f64>();
    for row in &mut q {
        for x in row.iter_mut() {
            *x /= mu;
        }
    }
    q
}

/// Matrix exponential `e^{Q·t}` by scaling and squaring with a Taylor
/// series — slow, simple, and independent of the eigen path.
pub fn expm(q: &[[f64; 4]; 4], t: f64) -> [[f64; 4]; 4] {
    // Scale so the argument is small, exponentiate by series, square back.
    let norm: f64 =
        q.iter().map(|row| row.iter().map(|x| x.abs()).sum::<f64>()).fold(0.0, f64::max);
    let mut squarings = 0u32;
    let mut scale = t;
    while norm * scale.abs() > 0.5 {
        scale *= 0.5;
        squarings += 1;
    }

    // Taylor series for e^{Q·scale}.
    let mut result = identity();
    let mut term = identity();
    for k in 1..=24 {
        term = mat_mul(&term, &mat_scale(q, scale / k as f64));
        result = mat_add(&result, &term);
    }
    for _ in 0..squarings {
        result = mat_mul(&result, &result);
    }
    result
}

fn identity() -> [[f64; 4]; 4] {
    let mut m = [[0.0; 4]; 4];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

fn mat_mul(a: &[[f64; 4]; 4], b: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    let mut c = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                c[i][j] += a[i][k] * b[k][j];
            }
        }
    }
    c
}

fn mat_add(a: &[[f64; 4]; 4], b: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
    let mut c = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            c[i][j] = a[i][j] + b[i][j];
        }
    }
    c
}

fn mat_scale(a: &[[f64; 4]; 4], s: f64) -> [[f64; 4]; 4] {
    let mut c = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            c[i][j] = a[i][j] * s;
        }
    }
    c
}

/// `P · x`, each entry summed in state order.
fn mat_vec(p: &[[f64; 4]; 4], x: &[f64; 4]) -> [f64; 4] {
    std::array::from_fn(|s| p[s].iter().zip(x).map(|(a, b)| a * b).sum())
}

/// Conditional likelihoods of the subtree at `node` (seen from `parent`)
/// under one rate multiplier, per pattern: each 4-vector divided by its
/// largest entry, with the natural log of the factors taken out of the
/// subtree in the second vector. Each branch's `P` is computed once.
fn conditional(
    tree: &Tree,
    aln: &PatternAlignment,
    q: &[[f64; 4]; 4],
    rate: f64,
    node: NodeId,
    parent: NodeId,
) -> (Vec<[f64; 4]>, Vec<f64>) {
    let n = aln.n_patterns();
    if tree.is_tip(node) {
        let x = aln.tip_row(node).iter().map(|&code| TIP_LIKELIHOODS[code as usize]).collect();
        return (x, vec![0.0; n]);
    }
    let mut x = vec![[1.0; 4]; n];
    let mut ln_scale = vec![0.0; n];
    for (child, len) in tree.neighbors_of(node) {
        if child == parent {
            continue;
        }
        let p = expm(q, len * rate);
        let (cx, cs) = conditional(tree, aln, q, rate, child, node);
        for i in 0..n {
            let px = mat_vec(&p, &cx[i]);
            for s in 0..4 {
                x[i][s] *= px[s];
            }
            ln_scale[i] += cs[i];
        }
    }
    for (xi, si) in x.iter_mut().zip(&mut ln_scale) {
        let top = xi.iter().copied().fold(0.0, f64::max);
        if top > 0.0 {
            xi.iter_mut().for_each(|v| *v /= top);
            *si += top.ln();
        }
    }
    (x, ln_scale)
}

/// Naive log-likelihood of the tree under the model — the ground truth the
/// optimized engine is validated against.
pub fn log_likelihood_naive(
    tree: &Tree,
    aln: &PatternAlignment,
    model: &SubstModel,
    rates: &GammaRates,
) -> f64 {
    let q = rate_matrix(model);
    let freqs = model.freqs();
    let (u, v) = tree.edges()[0];
    // Per rate, per pattern: the site likelihood as (mantissa, ln scale).
    let per_rate: Vec<Vec<(f64, f64)>> = rates
        .rates()
        .iter()
        .map(|&r| {
            let (xu, su) = conditional(tree, aln, &q, r, u, v);
            let (xv, sv) = conditional(tree, aln, &q, r, v, u);
            let p = expm(&q, tree.branch_length(u, v) * r);
            (0..aln.n_patterns())
                .map(|i| {
                    let pv = mat_vec(&p, &xv[i]);
                    let site: f64 = (0..4).map(|s| freqs[s] * xu[i][s] * pv[s]).sum();
                    (site, su[i] + sv[i])
                })
                .collect()
        })
        .collect();
    let n_rates = rates.n_categories() as f64;
    let mut lnl = 0.0;
    for (i, &w) in aln.weights().iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        // Σ_c site_c · e^{scale_c}, factored by the largest scale.
        let top = per_rate.iter().map(|r| r[i].1).fold(f64::NEG_INFINITY, f64::max);
        let site: f64 = per_rate.iter().map(|r| r[i].0 * (r[i].1 - top).exp()).sum();
        lnl += w * ((site / n_rates).ln() + top);
    }
    lnl
}

/// The `makenewz` sum table in `[pattern][rate][k]` layout with its
/// per-pattern scale counts: `st[i][c][k] = (W x_u)[k] · (W x_v)[k]`, each
/// `W x` row associated `((w₀q₀ + w₁q₁) + w₂q₂) + w₃q₃`.
pub fn sumtable_aos(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    w: &[[f64; 4]; 4],
    n_patterns: usize,
    n_rates: usize,
) -> (Vec<f64>, Vec<u32>) {
    let mut wtip = [[0.0f64; 4]; 16];
    for code in 0..16 {
        for k in 0..4 {
            let mut acc = 0.0;
            for s in 0..4 {
                acc += w[k][s] * TIP_LIKELIHOODS[code][s];
            }
            wtip[code][k] = acc;
        }
    }
    let wx = |op: &EvalOperand<'_>, i: usize, c: usize| -> [f64; 4] {
        match op {
            EvalOperand::Tip { codes } => wtip[codes[i] as usize],
            EvalOperand::Inner { .. } => {
                let q = op.quad(i, c, n_rates);
                let mut out = [0.0; 4];
                for k in 0..4 {
                    out[k] = w[k][0] * q[0] + w[k][1] * q[1] + w[k][2] * q[2] + w[k][3] * q[3];
                }
                out
            }
        }
    };

    let mut data = vec![0.0; n_patterns * n_rates * 4];
    let mut scale = vec![0; n_patterns];
    for i in 0..n_patterns {
        scale[i] = u.scale_at(i) + v.scale_at(i);
        for c in 0..n_rates {
            let wu = wx(u, i, c);
            let wv = wx(v, i, c);
            let off = (i * n_rates + c) * 4;
            for k in 0..4 {
                data[off + k] = wu[k] * wv[k];
            }
        }
    }
    (data, scale)
}

/// `(lnl, d_lnl, dd_lnl)` w.r.t. the branch length `t` from a
/// [`sumtable_aos`] table, pattern at a time, zero-weight patterns skipped.
#[allow(clippy::too_many_arguments)]
pub fn newton_derivatives_aos(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: ExpImpl,
) -> (f64, f64, f64) {
    let inv_c = 1.0 / n_rates as f64;
    let mut e0 = vec![[0.0; 4]; n_rates];
    let mut e1 = e0.clone();
    let mut e2 = e0.clone();
    for c in 0..n_rates {
        for k in 0..4 {
            let lr = lambdas[k] * rates[c];
            let e = exp_impl.eval(lr * t);
            e0[c][k] = e;
            e1[c][k] = lr * e;
            e2[c][k] = lr * lr * e;
        }
    }

    let mut lnl = 0.0;
    let mut d1 = 0.0;
    let mut d2 = 0.0;
    for (i, &wgt) in weights.iter().enumerate() {
        if wgt == 0.0 {
            continue;
        }
        let mut li = 0.0;
        let mut dli = 0.0;
        let mut ddli = 0.0;
        for c in 0..n_rates {
            let off = (i * n_rates + c) * 4;
            let s = &st_data[off..off + 4];
            li += s[0] * e0[c][0] + s[1] * e0[c][1] + s[2] * e0[c][2] + s[3] * e0[c][3];
            dli += s[0] * e1[c][0] + s[1] * e1[c][1] + s[2] * e1[c][2] + s[3] * e1[c][3];
            ddli += s[0] * e2[c][0] + s[1] * e2[c][1] + s[2] * e2[c][2] + s[3] * e2[c][3];
        }
        li *= inv_c;
        dli *= inv_c;
        ddli *= inv_c;
        let li_safe = li.max(1e-300);
        lnl += wgt * (li_safe.ln() + st_scale[i] as f64 * LN_SCALE);
        d1 += wgt * (dli / li_safe);
        d2 += wgt * ((ddli * li_safe - dli * dli) / (li_safe * li_safe));
    }
    (lnl, d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::likelihood::engine::LikelihoodEngine;
    use crate::likelihood::LikelihoodConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expm_matches_eigendecomposition() {
        let m = SubstModel::gtr([0.3, 0.2, 0.25, 0.25], [1.2, 3.1, 0.8, 0.9, 3.4, 1.0]).unwrap();
        let q = rate_matrix(&m);
        for &t in &[0.01, 0.2, 1.0, 5.0] {
            let series = expm(&q, t);
            let eigen = m.transition_matrix(t, 1.0, ExpImpl::Libm);
            for i in 0..4 {
                for j in 0..4 {
                    assert!(
                        (series[i][j] - eigen[i][j]).abs() < 1e-10,
                        "t={t} ({i},{j}): {} vs {}",
                        series[i][j],
                        eigen[i][j]
                    );
                }
            }
        }
    }

    /// Hand-computable 3-taxon case: L_col = Σ_s π_s Π_j P(t_j)[s][x_j].
    #[test]
    fn three_taxon_closed_form() {
        let aln = Alignment::from_named_sequences(&[("a", "AC"), ("b", "AG"), ("c", "AT")])
            .unwrap()
            .compress();
        let model = SubstModel::jc69();
        let rates = GammaRates::homogeneous();
        let tree = Tree::initial_triplet(3, 0.2).unwrap();

        let naive = log_likelihood_naive(&tree, &aln, &model, &rates);

        // Closed form under JC with all branch lengths 0.2.
        let e = (-4.0 * 0.2 / 3.0f64).exp();
        let p_same = 0.25 + 0.75 * e;
        let p_diff = 0.25 - 0.25 * e;
        // Column 1 (A,A,A): Σ_s π_s P[s][A]³ = ¼(p_same³ + 3·p_diff³).
        let col1: f64 = 0.25 * (p_same.powi(3) + 3.0 * p_diff.powi(3));
        // Column 2 (C,G,T): Σ_s π_s P[s][C]·P[s][G]·P[s][T]
        //   = ¼(p_diff³ + 3·p_same·p_diff²)  (root = A gives the p_diff³ term).
        let col2: f64 = 0.25 * (p_diff.powi(3) + 3.0 * p_same * p_diff * p_diff);
        let expected = col1.ln() + col2.ln();
        assert!((naive - expected).abs() < 1e-10, "naive {naive} vs closed form {expected}");
    }

    #[test]
    fn engine_matches_naive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(20260706);
        for trial in 0..5 {
            let workload = crate::simulate::SimulationConfig::new(6, 40, 1000 + trial).generate();
            let aln = workload.alignment;
            let tree = Tree::random(6, 0.15, &mut rng).unwrap();
            let model =
                SubstModel::gtr(aln.base_frequencies(), [1.1, 2.5, 0.7, 1.3, 2.9, 1.0]).unwrap();
            let rates = GammaRates::standard(0.6).unwrap();

            let naive = log_likelihood_naive(&tree, &aln, &model, &rates);
            let mut eng = LikelihoodEngine::new(&aln, model, rates, LikelihoodConfig::optimized());
            let fast = eng.log_likelihood(&tree);
            assert!(
                (naive - fast).abs() < 1e-6 * naive.abs().max(1.0),
                "trial {trial}: naive {naive} vs engine {fast}"
            );
        }
    }

    #[test]
    fn engine_matches_naive_with_bootstrap_weights() {
        let mut rng = StdRng::seed_from_u64(42);
        let workload = crate::simulate::SimulationConfig::new(5, 60, 7).generate();
        let aln = workload.alignment.bootstrap_replicate(&mut rng);
        let tree = Tree::random(5, 0.2, &mut rng).unwrap();
        let model = SubstModel::jc69();
        let rates = GammaRates::standard(1.0).unwrap();
        let naive = log_likelihood_naive(&tree, &aln, &model, &rates);
        let mut eng = LikelihoodEngine::new(&aln, model, rates, LikelihoodConfig::optimized());
        let fast = eng.log_likelihood(&tree);
        assert!((naive - fast).abs() < 1e-6 * naive.abs().max(1.0), "{naive} vs {fast}");
    }
}
