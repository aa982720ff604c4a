//! Case-specialized likelihood kernels over pattern-blocked SoA tiles.
//!
//! `newview` at an inner node `p` with children `l`, `r` computes, for each
//! site pattern `i`, rate category `c` and state `s`:
//!
//! ```text
//! x_p[i,c,s] = (Σ_t P_l(c)[s][t] · x_l[i,c,t]) · (Σ_t P_r(c)[s][t] · x_r[i,c,t])
//! ```
//!
//! When a child is a tip its contribution collapses to a 16-entry lookup
//! (per rate category) — the paper's §5.2.3 case split (tip/tip, tip/inner,
//! inner/inner), each "a distinct — highly optimized — version of the loop".
//!
//! # Tiled CLV layout
//!
//! Partials are stored in pattern blocks of [`TILE`] sites: element
//! `(pattern i, rate c, state s)` lives at
//!
//! ```text
//! (i / TILE) · n_rates·4·TILE  +  (c·4 + s) · TILE  +  i % TILE
//! ```
//!
//! so the values of `TILE` consecutive patterns for one `(c, s)` are
//! contiguous. Every kernel body is written once over a lane type (`Lanes`)
//! that holds `N` consecutive *patterns* of one tile row, and walks each
//! block as whole rows, `TILE / N` groups at a time, with plain contiguous
//! loads; every lane performs the exact scalar operation sequence for its
//! pattern. Because IEEE-754 addition and multiplication are lane-local and
//! the per-pattern association never changes, every lane type is
//! bit-identical, including the §5.2.3 underflow-scaling conditional, which
//! is decided per pattern whatever the width: once a block is written its
//! tile rows are walked once, one compare per lane per row.
//!
//! Two lane types exist: the portable `[f64; W]` arrays (`W = 2`, one
//! 128-bit register as on the SPE, runs on a CPU without wider registers;
//! `W = 1`, the paper's scalar starting point, is the tests' reference) and,
//! on `x86_64`, a 4-lane type over one AVX2 register. Every kernel picks one
//! from [`KernelTier::probe`] alone: there is no setting.
//!
//! Buffers are padded to a whole number of blocks; padding lanes are
//! written as zeros so buffer-level bit comparisons stay deterministic, and
//! the kernels compute them like any other lane (tip codes are copied into a
//! zero-padded block first) so there is no remainder loop. Per-pattern
//! metadata (scale counts, tip codes, weights) stays unpadded.
//!
//! The `makenewz` sum table uses the same layout with the eigen-index `k`
//! in the state's place, so `build_sumtable_into` reads its operands and
//! the Newton pass reads the table as tile rows, one lane group at a time;
//! only the `ln` and the order-sensitive weighted sums are scalar, in
//! pattern order.
//!
//! This module holds the crate's only `unsafe`: the AVX2 lane type's
//! intrinsics and the three call sites that enter it. See `Lanes` for the
//! argument.

#![deny(clippy::undocumented_unsafe_blocks)]

use super::{LN_SCALE, SCALE_MULTIPLIER, TILE};
use crate::alphabet::TIP_LIKELIHOODS;

/// A 4×4 transition-probability matrix, row-major (`m[from][to]`).
pub type Mat4 = [[f64; 4]; 4];

/// Per-rate tip lookup table: `table[code][state] = Σ_t P[state][t] · tip(code)[t]`.
pub type TipTable16 = [[f64; 4]; 16];

/// Number of `f64`s in a tiled partial buffer covering `n_patterns` sites:
/// the pattern count rounded up to whole [`TILE`] blocks, times the
/// `n_rates × 4` states per pattern.
pub fn tiled_len(n_patterns: usize, n_rates: usize) -> usize {
    n_patterns.div_ceil(TILE) * TILE * n_rates * 4
}

/// Flat index of `(pattern, rate, state)` in the tiled layout.
#[inline(always)]
pub fn tiled_index(pattern: usize, rate: usize, state: usize, n_rates: usize) -> usize {
    (pattern / TILE) * n_rates * 4 * TILE + (rate * 4 + state) * TILE + pattern % TILE
}

/// Convert a `[pattern][rate][state]` AoS partial vector into the tiled
/// layout (padding lanes zeroed). Test/bench helper; the engine builds
/// partials tiled in place.
pub fn tile_partials(aos: &[f64], n_patterns: usize, n_rates: usize) -> Vec<f64> {
    assert_eq!(aos.len(), n_patterns * n_rates * 4);
    let mut out = vec![0.0; tiled_len(n_patterns, n_rates)];
    for i in 0..n_patterns {
        for c in 0..n_rates {
            for s in 0..4 {
                out[tiled_index(i, c, s, n_rates)] = aos[(i * n_rates + c) * 4 + s];
            }
        }
    }
    out
}

/// Precompute the tip lookup tables for a branch (one per rate category).
pub fn build_tip_tables(pmats: &[Mat4]) -> Vec<TipTable16> {
    let mut out = vec![[[0.0; 4]; 16]; pmats.len()];
    fill_tip_tables(pmats, &mut out);
    out
}

/// As [`build_tip_tables`], into a caller-owned slice of one table per rate
/// so the steady-state hot path allocates nothing.
pub fn fill_tip_tables(pmats: &[Mat4], out: &mut [TipTable16]) {
    assert_eq!(out.len(), pmats.len(), "one tip table per rate category");
    for (p, table) in pmats.iter().zip(out.iter_mut()) {
        for (code, row) in table.iter_mut().enumerate() {
            for s in 0..4 {
                let mut acc = 0.0;
                for t in 0..4 {
                    acc += p[s][t] * TIP_LIKELIHOODS[code][t];
                }
                row[s] = acc;
            }
        }
    }
}

/// One `newview` child operand.
pub enum Child<'a> {
    /// A tip: encoded pattern codes and the per-rate lookup tables built by
    /// [`build_tip_tables`] for the child branch.
    Tip { codes: &'a [u8], tables: &'a [TipTable16] },
    /// An inner node: its tiled partial vector (see the module docs for the
    /// layout; length [`tiled_len`]), per-pattern scale counts, and the
    /// per-rate `P` matrices of the child branch.
    Inner { x: &'a [f64], scale: &'a [u32], pmats: &'a [Mat4] },
}

impl Child<'_> {
    fn is_tip(&self) -> bool {
        matches!(self, Child::Tip { .. })
    }
}

/// Scaling statistics returned by a `newview` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Number of scaling conditionals executed (one per pattern per rate).
    pub checks: u64,
    /// Number of patterns actually rescaled.
    pub fired: u64,
}

impl ScaleStats {
    pub fn merge(self, other: ScaleStats) -> ScaleStats {
        ScaleStats { checks: self.checks + other.checks, fired: self.fired + other.fired }
    }
}

const THRESHOLD_BITS: u64 = 0x2FF0_0000_0000_0000; // (2^-256).to_bits()
const ABS_MASK: u64 = 0x7FFF_FFFF_FFFF_FFFF;

/// Evaluate the §5.2.3 conditional for all [`TILE`] patterns of a block at
/// once: walk the block's `n_rates × 4` tile rows, AND-ing one compare per
/// lane per row — contiguous loads, no per-pattern gather. Lane `j` of the
/// result says every value of pattern `j` is below threshold.
///
/// This is §5.2.3's integer-cast form of the paper's `ABS(x) <
/// minlikelihood`: clear the sign bit with a logical AND (the spu_and
/// trick), then compare the bit patterns as integers — for IEEE-754 doubles
/// of equal sign that ordering matches the numeric one, and NaN and ±∞ are
/// "not below" under both. Both sides are below 2⁶³, so `a < T` is the sign
/// bit of `a − T`, and a lane's compares AND together as the sign bit of the
/// AND of its differences: one subtract and two ANDs per value, no branch.
#[inline(always)]
fn lanes_below_threshold(block: &[f64]) -> [bool; TILE] {
    let mut diffs = [u64::MAX; TILE];
    for row in block.chunks_exact(TILE) {
        for (d, &x) in diffs.iter_mut().zip(row) {
            *d &= (x.to_bits() & ABS_MASK).wrapping_sub(THRESHOLD_BITS);
        }
    }
    diffs.map(|d| d >> 63 == 1)
}

// ---------------------------------------------------------------------------
// Lane types
// ---------------------------------------------------------------------------

/// `N` consecutive site patterns of one tile row, held in one register (or,
/// for the portable arrays, in as many as the target needs).
///
/// What an implementation must guarantee, and all the kernel bodies rely on:
/// every operation is lane-local and is the IEEE-754 double operation the
/// scalar code would perform on that lane's pattern — `mul` one rounded
/// multiply, `add`/`sub`/`div` one rounded add, subtract, divide,
/// [`Lanes::madd`] a multiply *then* an add (never fused: a fused
/// multiply-add rounds once, and would change bits), [`Lanes::max`] as
/// documented on it;
/// `load`/`store` move lane `j` from/to `b[off + j]` and panic, like slice
/// indexing, when `off + N` exceeds the slice; `tip_rows` reads
/// `table[codes[j]]` for lane `j`. `N` divides [`TILE`].
///
/// # The `unsafe` argument
///
/// The portable `[f64; W]` implementation is safe code. The AVX2 one calls
/// `std::arch` intrinsics, which are undefined behaviour on a CPU without
/// the feature, and unaligned pointer loads and stores. Two facts, both
/// local to this module, make them sound. (1) `Avx2Lanes` is private and
/// its operations are instantiated in exactly three places: the
/// `#[target_feature(enable = "avx2")]` entry points [`newview_avx2`],
/// [`build_sumtable_avx2`] and [`newton_avx2`], each called from one site
/// that has just seen [`KernelTier::probe`] return [`KernelTier::Avx2`]
/// (and from this module's tests, behind the same probe) — so no intrinsic
/// runs on a CPU that lacks it. (2) Every pointer handed to
/// a load or store comes from a slice (or a table row) that was indexed to
/// exactly the bytes accessed first, so a bad offset panics before the
/// access, exactly as in the portable code.
trait Lanes: Copy {
    /// Patterns per group.
    const N: usize;
    /// `spu_splats`: replicate a scalar into every lane.
    fn splat(x: f64) -> Self;
    /// Load lanes `b[off .. off + N]`.
    fn load(b: &[f64], off: usize) -> Self;
    /// Store to `b[off .. off + N]`.
    fn store(self, b: &mut [f64], off: usize);
    /// Lane-wise multiply.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise add.
    fn add(self, o: Self) -> Self;
    /// Lane-wise subtract.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise divide.
    fn div(self, o: Self) -> Self;
    /// Lane-wise `f64::max` for an `o` that is neither NaN nor zero: the
    /// value to clamp goes in `self`, the floor in `o`. (Where either lane
    /// is NaN or both are zeros `vmaxpd` returns its second operand.)
    fn max(self, o: Self) -> Self;
    /// `spu_madd`: lane-wise `a·b + c` as two rounded operations.
    #[inline(always)]
    fn madd(a: Self, b: Self, c: Self) -> Self {
        a.mul(b).add(c)
    }
    /// The four state rows of a tip lookup: row `s`, lane `j` is
    /// `table[codes[j]][s]`, for the first `N` codes.
    fn tip_rows(table: &TipTable16, codes: &[u8]) -> [Self; 4];
}

/// The lane offsets `0, N, 2N, …` that cover one tile row.
#[inline(always)]
fn lane_groups<L: Lanes>() -> impl Iterator<Item = usize> {
    const { assert!(L::N > 0 && TILE.is_multiple_of(L::N), "a lane group must divide the tile") };
    (0..TILE / L::N).map(|g| g * L::N)
}

/// The portable lane type. `W = 2` mirrors the SPE's 128-bit registers (paper
/// Figure 2) and is one SSE2 or NEON register.
impl<const W: usize> Lanes for [f64; W] {
    const N: usize = W;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        [x; W]
    }

    #[inline(always)]
    fn load(b: &[f64], off: usize) -> Self {
        std::array::from_fn(|j| b[off + j])
    }

    #[inline(always)]
    fn store(self, b: &mut [f64], off: usize) {
        b[off..off + W].copy_from_slice(&self);
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] * o[j])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] + o[j])
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] - o[j])
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] / o[j])
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j].max(o[j]))
    }

    #[inline(always)]
    fn tip_rows(table: &TipTable16, codes: &[u8]) -> [Self; 4] {
        let rows: [&[f64; 4]; W] = std::array::from_fn(|j| &table[codes[j] as usize]);
        std::array::from_fn(|s| std::array::from_fn(|j| rows[j][s]))
    }
}

/// Four patterns in one 256-bit register. See [`Lanes`] for why the `unsafe`
/// blocks below are sound; "the feature is present" in their comments means
/// fact (1) there.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2Lanes(std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2Lanes {
    const N: usize = 4;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_set1_pd(x) })
    }

    #[inline(always)]
    fn load(b: &[f64], off: usize) -> Self {
        let src: &[f64] = &b[off..off + 4];
        // SAFETY: the feature is present; `src` is four readable `f64`s (the
        // slicing above panics otherwise) and `loadu` needs no alignment.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, b: &mut [f64], off: usize) {
        let dst: &mut [f64] = &mut b[off..off + 4];
        // SAFETY: the feature is present; `dst` is four writable `f64`s
        // borrowed exclusively (the slicing above panics otherwise) and
        // `storeu` needs no alignment.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_mul_pd(self.0, o.0) })
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_add_pd(self.0, o.0) })
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_sub_pd(self.0, o.0) })
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_div_pd(self.0, o.0) })
    }

    #[inline(always)]
    fn max(self, o: Self) -> Self {
        // SAFETY: the feature is present; the intrinsic touches no memory.
        Avx2Lanes(unsafe { std::arch::x86_64::_mm256_max_pd(self.0, o.0) })
    }

    /// Four 32-byte row loads — `table[code]` is the four states of one
    /// pattern — and a 4×4 transpose, instead of sixteen scalar gathers.
    #[inline(always)]
    fn tip_rows(table: &TipTable16, codes: &[u8]) -> [Self; 4] {
        use std::arch::x86_64::{
            _mm256_loadu_pd, _mm256_permute2f128_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
        };
        let rows: [&[f64; 4]; 4] = std::array::from_fn(|j| &table[codes[j] as usize]);
        // SAFETY: the feature is present; each `rows[j]` is a `&[f64; 4]` —
        // 32 readable bytes, bounds-checked by the table indexing above —
        // and `loadu` needs no alignment. The unpacks and permutes touch no
        // memory.
        unsafe {
            let [p0, p1, p2, p3] = rows.map(|r| _mm256_loadu_pd(r.as_ptr()));
            // pN = states 0..4 of pattern N. Interleave pairs of patterns
            // within each 128-bit half, then gather the halves.
            let s02_p01 = _mm256_unpacklo_pd(p0, p1); // [p0s0 p1s0 | p0s2 p1s2]
            let s13_p01 = _mm256_unpackhi_pd(p0, p1); // [p0s1 p1s1 | p0s3 p1s3]
            let s02_p23 = _mm256_unpacklo_pd(p2, p3);
            let s13_p23 = _mm256_unpackhi_pd(p2, p3);
            [
                Avx2Lanes(_mm256_permute2f128_pd::<0x20>(s02_p01, s02_p23)),
                Avx2Lanes(_mm256_permute2f128_pd::<0x20>(s13_p01, s13_p23)),
                Avx2Lanes(_mm256_permute2f128_pd::<0x31>(s02_p01, s02_p23)),
                Avx2Lanes(_mm256_permute2f128_pd::<0x31>(s13_p01, s13_p23)),
            ]
        }
    }
}

/// Which lane type the `newview`, sum-table and Newton kernels run on: the
/// widest this CPU has. A value to read (logs, `/metrics`), not a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// `[f64; 2]` arrays: one 128-bit register, every architecture.
    Portable,
    /// Four patterns per 256-bit AVX2 register.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl KernelTier {
    /// Ask the CPU. `std` caches the `cpuid` answer, so this is one relaxed
    /// atomic load per kernel call.
    #[inline]
    pub fn probe() -> KernelTier {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelTier::Avx2;
        }
        KernelTier::Portable
    }

    /// `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Site patterns per register.
    pub fn lanes(self) -> usize {
        match self {
            KernelTier::Portable => <[f64; 2] as Lanes>::N,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => Avx2Lanes::N,
        }
    }
}

/// `avx2 (4 lanes)` — the form the binaries log at start-up.
impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} lanes)", self.name(), self.lanes())
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
thread_local! {
    // Entries into the AVX2 instantiations on this thread, so a test can
    // assert that the dispatch reaches them.
    static AVX2_ENTRIES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn note_avx2_entry() {
    #[cfg(test)]
    AVX2_ENTRIES.set(AVX2_ENTRIES.get() + 1);
}

// ---------------------------------------------------------------------------
// newview
// ---------------------------------------------------------------------------

/// Compute one `newview` over all patterns in the supplied (pre-sliced)
/// buffers. `out_x` is a tiled buffer of [`tiled_len`] entries; `out_scale`
/// has one entry per pattern. Pattern counts of all operands must agree.
/// Runs on [`KernelTier::probe`]'s lanes.
pub fn newview(
    left: &Child<'_>,
    right: &Child<'_>,
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    match KernelTier::probe() {
        KernelTier::Portable => newview_lanes::<[f64; 2]>(left, right, out_x, out_scale, n_rates),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: the probe has just reported AVX2 on this CPU.
            unsafe { newview_avx2(left, right, out_x, out_scale, n_rates) }
        }
    }
}

/// [`newview_lanes`] over [`Avx2Lanes`], compiled with the feature on so the
/// lane operations inline to single instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn newview_avx2(
    left: &Child<'_>,
    right: &Child<'_>,
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    note_avx2_entry();
    newview_lanes::<Avx2Lanes>(left, right, out_x, out_scale, n_rates)
}

/// The one `newview` body: check the operands, pick the §5.2.3 case.
#[inline(always)]
fn newview_lanes<L: Lanes>(
    left: &Child<'_>,
    right: &Child<'_>,
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    let n_patterns = out_scale.len();
    assert_eq!(out_x.len(), tiled_len(n_patterns, n_rates), "output buffer size mismatch");

    // Normalize so a tip operand, if any, is on the left: the math is
    // symmetric and this halves the number of specialized paths, exactly as
    // RAxML canonicalizes its cases.
    let (a, b) = if !left.is_tip() && right.is_tip() { (right, left) } else { (left, right) };

    match (a, b) {
        (Child::Tip { codes: lc, tables: lt }, Child::Tip { codes: rc, tables: rt }) => {
            assert_eq!(lc.len(), n_patterns);
            assert_eq!(rc.len(), n_patterns);
            newview_tip_tip::<L>(lc, lt, rc, rt, out_x, out_scale, n_rates)
        }
        (Child::Tip { codes: lc, tables: lt }, Child::Inner { x: rx, scale: rs, pmats: rp }) => {
            assert_eq!(lc.len(), n_patterns);
            assert_eq!(rx.len(), tiled_len(n_patterns, n_rates));
            newview_tip_inner::<L>(lc, lt, rx, rs, rp, out_x, out_scale, n_rates)
        }
        (
            Child::Inner { x: lx, scale: ls, pmats: lp },
            Child::Inner { x: rx, scale: rs, pmats: rp },
        ) => {
            assert_eq!(lx.len(), tiled_len(n_patterns, n_rates));
            assert_eq!(rx.len(), tiled_len(n_patterns, n_rates));
            newview_inner_inner::<L>(lx, ls, lp, rx, rs, rp, out_x, out_scale, n_rates)
        }
        _ => unreachable!("tip operand is always normalized to the left"),
    }
}

/// Shared per-block epilogue: zero the padding lanes (so buffer-level bit
/// comparisons are deterministic), then run the §5.2.3 scaling conditional
/// row-wise over the block and fold the children's scale counts into
/// `out_scale`. A pattern that fires has its `n_rates × 4` values multiplied
/// by 2²⁵⁶ in place (an exact power-of-two shift, so rescaling is bit-neutral
/// to the likelihood). The conditional is per pattern whatever the lane
/// type, which is what keeps every one's `ScaleStats` identical.
#[inline(always)]
fn finish_block(
    ob: &mut [f64],
    out_scale: &mut [u32],
    base: usize,
    valid: usize,
    n_rates: usize,
    stats: &mut ScaleStats,
    child_scale: impl Fn(usize) -> u32,
) {
    for row in ob.chunks_exact_mut(TILE) {
        row[valid..].fill(0.0);
    }
    let below = lanes_below_threshold(ob);
    stats.checks += (valid * n_rates) as u64;
    for (lane, &fired) in below[..valid].iter().enumerate() {
        if fired {
            for row in ob.chunks_exact_mut(TILE) {
                row[lane] *= SCALE_MULTIPLIER;
            }
            stats.fired += 1;
        }
        out_scale[base + lane] = child_scale(base + lane) + fired as u32;
    }
}

/// The `valid` tip codes of the block starting at pattern `base`, zero-padded
/// to a whole tile. Code 0 is a legal table index (the all-zero tip vector),
/// so the padding lanes run the same lookups as the rest and what they
/// produce is overwritten by [`finish_block`].
#[inline(always)]
fn block_codes(codes: &[u8], base: usize, valid: usize) -> [u8; TILE] {
    let mut out = [0; TILE];
    out[..valid].copy_from_slice(&codes[base..base + valid]);
    out
}

#[inline(always)]
fn newview_tip_tip<L: Lanes>(
    lc: &[u8],
    lt: &[TipTable16],
    rc: &[u8],
    rt: &[TipTable16],
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    let n_patterns = out_scale.len();
    let bs = n_rates * 4 * TILE;
    let mut stats = ScaleStats::default();
    for (blk, ob) in out_x.chunks_exact_mut(bs).enumerate() {
        let base = blk * TILE;
        let valid = TILE.min(n_patterns - base);
        let lcb = block_codes(lc, base, valid);
        let rcb = block_codes(rc, base, valid);
        for l0 in lane_groups::<L>() {
            tip_tip_group::<L>(&lcb[l0..], lt, &rcb[l0..], rt, ob, l0);
        }
        finish_block(ob, out_scale, base, valid, n_rates, &mut stats, |_| 0);
    }
    stats
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn newview_tip_inner<L: Lanes>(
    lc: &[u8],
    lt: &[TipTable16],
    rx: &[f64],
    rs: &[u32],
    rp: &[Mat4],
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    let n_patterns = out_scale.len();
    let bs = n_rates * 4 * TILE;
    let mut stats = ScaleStats::default();
    for (blk, ob) in out_x.chunks_exact_mut(bs).enumerate() {
        let base = blk * TILE;
        let valid = TILE.min(n_patterns - base);
        let lcb = block_codes(lc, base, valid);
        let rb = &rx[blk * bs..(blk + 1) * bs];
        for l0 in lane_groups::<L>() {
            tip_inner_group::<L>(&lcb[l0..], lt, rb, rp, ob, l0);
        }
        finish_block(ob, out_scale, base, valid, n_rates, &mut stats, |i| rs[i]);
    }
    stats
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn newview_inner_inner<L: Lanes>(
    lx: &[f64],
    ls: &[u32],
    lp: &[Mat4],
    rx: &[f64],
    rs: &[u32],
    rp: &[Mat4],
    out_x: &mut [f64],
    out_scale: &mut [u32],
    n_rates: usize,
) -> ScaleStats {
    let n_patterns = out_scale.len();
    let bs = n_rates * 4 * TILE;
    let mut stats = ScaleStats::default();
    for (blk, ob) in out_x.chunks_exact_mut(bs).enumerate() {
        let base = blk * TILE;
        let valid = TILE.min(n_patterns - base);
        let lb = &lx[blk * bs..(blk + 1) * bs];
        let rb = &rx[blk * bs..(blk + 1) * bs];
        for l0 in lane_groups::<L>() {
            inner_inner_group::<L>(lb, lp, rb, rp, ob, l0);
        }
        finish_block(ob, out_scale, base, valid, n_rates, &mut stats, |i| ls[i] + rs[i]);
    }
    stats
}

/// `((p₀x₀ + p₁x₁) + p₂x₂) + p₃x₃` on every lane: one matrix row against the
/// four state rows of a child.
#[inline(always)]
fn row_dot<L: Lanes>(p: &[f64; 4], x: &[L; 4]) -> L {
    let mut acc = L::splat(p[0]).mul(x[0]);
    acc = L::madd(L::splat(p[1]), x[1], acc);
    acc = L::madd(L::splat(p[2]), x[2], acc);
    L::madd(L::splat(p[3]), x[3], acc)
}

/// One lane group of a tip/tip block (`lc`, `rc` start at the group's first
/// code): per rate, the two lookups and one lane-wise multiply per state.
#[inline(always)]
fn tip_tip_group<L: Lanes>(
    lc: &[u8],
    lt: &[TipTable16],
    rc: &[u8],
    rt: &[TipTable16],
    ob: &mut [f64],
    l0: usize,
) {
    for (c, (ltab, rtab)) in lt.iter().zip(rt).enumerate() {
        let q = c * 4 * TILE;
        let lv = L::tip_rows(ltab, lc);
        let rv = L::tip_rows(rtab, rc);
        for s in 0..4 {
            lv[s].mul(rv[s]).store(ob, q + s * TILE + l0);
        }
    }
}

/// One lane group of a tip/inner block: the inner child's dot products come
/// from contiguous tile loads; the tip contribution is a lookup.
#[inline(always)]
fn tip_inner_group<L: Lanes>(
    lc: &[u8],
    lt: &[TipTable16],
    rb: &[f64],
    rp: &[Mat4],
    ob: &mut [f64],
    l0: usize,
) {
    for (c, (ltab, p)) in lt.iter().zip(rp).enumerate() {
        let q = c * 4 * TILE;
        let lv = L::tip_rows(ltab, lc);
        let b: [L; 4] = std::array::from_fn(|t| L::load(rb, q + t * TILE + l0));
        for s in 0..4 {
            lv[s].mul(row_dot(&p[s], &b)).store(ob, q + s * TILE + l0);
        }
    }
}

/// One lane group of an inner/inner block: both children's dot products are
/// contiguous tile loads against splatted matrix entries.
#[inline(always)]
fn inner_inner_group<L: Lanes>(
    lb: &[f64],
    lp: &[Mat4],
    rb: &[f64],
    rp: &[Mat4],
    ob: &mut [f64],
    l0: usize,
) {
    for (c, (pl, pr)) in lp.iter().zip(rp).enumerate() {
        let q = c * 4 * TILE;
        let a: [L; 4] = std::array::from_fn(|t| L::load(lb, q + t * TILE + l0));
        let b: [L; 4] = std::array::from_fn(|t| L::load(rb, q + t * TILE + l0));
        for s in 0..4 {
            row_dot(&pl[s], &a).mul(row_dot(&pr[s], &b)).store(ob, q + s * TILE + l0);
        }
    }
}

// ---------------------------------------------------------------------------
// evaluate
// ---------------------------------------------------------------------------

/// One side of an `evaluate`/`makenewz` branch.
pub enum EvalOperand<'a> {
    /// A tip: its encoded pattern codes.
    Tip { codes: &'a [u8] },
    /// An inner node: tiled partials and per-pattern scale counts.
    Inner { x: &'a [f64], scale: &'a [u32] },
}

impl EvalOperand<'_> {
    pub(crate) fn scale_at(&self, i: usize) -> u32 {
        match self {
            EvalOperand::Tip { .. } => 0,
            EvalOperand::Inner { scale, .. } => scale[i],
        }
    }

    /// The conditional-likelihood 4-vector of pattern `i`, rate `c`.
    #[inline]
    pub(crate) fn quad(&self, i: usize, c: usize, n_rates: usize) -> [f64; 4] {
        match self {
            EvalOperand::Tip { codes } => TIP_LIKELIHOODS[codes[i] as usize],
            EvalOperand::Inner { x, .. } => {
                let off = tiled_index(i, c, 0, n_rates);
                [x[off], x[off + TILE], x[off + 2 * TILE], x[off + 3 * TILE]]
            }
        }
    }
}

/// Log-likelihood at a branch: `Σ_i w_i · ln((1/C) Σ_c x_uᵀ diag(π) P_c x_v)`
/// plus the accumulated scaling corrections.
///
/// There is one formulation, pattern at a time.
pub fn evaluate_lnl(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    weights: &[f64],
    n_rates: usize,
) -> f64 {
    let n_patterns = weights.len();
    let inv_c = 1.0 / n_rates as f64;
    let mut lnl = 0.0;
    for i in 0..n_patterns {
        if weights[i] == 0.0 {
            // A `set_weights` caller's zero costs nothing and adds nothing,
            // exactly as if the pattern had been compacted away.
            continue;
        }
        let mut site = 0.0;
        for (c, p) in pmats.iter().enumerate() {
            let xu = u.quad(i, c, n_rates);
            let xv = v.quad(i, c, n_rates);
            site += eval_site(&xu, &xv, p, freqs);
        }
        site *= inv_c;
        let scale = (u.scale_at(i) + v.scale_at(i)) as f64;
        lnl += weights[i] * (site.max(1e-300).ln() + scale * LN_SCALE);
    }
    lnl
}

/// Per-pattern log-likelihoods at a branch (unweighted): the same
/// computation as [`evaluate_lnl`], reported per site pattern. Used for
/// per-site rate estimation (the CAT model) and diagnostics.
pub fn evaluate_site_lnls(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    pmats: &[Mat4],
    freqs: &[f64; 4],
    n_patterns: usize,
    n_rates: usize,
) -> Vec<f64> {
    let inv_c = 1.0 / n_rates as f64;
    let mut out = Vec::with_capacity(n_patterns);
    for i in 0..n_patterns {
        let mut site = 0.0;
        for (c, p) in pmats.iter().enumerate() {
            let xu = u.quad(i, c, n_rates);
            let xv = v.quad(i, c, n_rates);
            site += eval_site(&xu, &xv, p, freqs);
        }
        site *= inv_c;
        let scale = (u.scale_at(i) + v.scale_at(i)) as f64;
        out.push(site.max(1e-300).ln() + scale * LN_SCALE);
    }
    out
}

#[inline]
fn eval_site(xu: &[f64; 4], xv: &[f64; 4], p: &Mat4, freqs: &[f64; 4]) -> f64 {
    let mut acc = 0.0;
    for s in 0..4 {
        let pv = p[s][0] * xv[0] + p[s][1] * xv[1] + p[s][2] * xv[2] + p[s][3] * xv[3];
        acc += freqs[s] * xu[s] * pv;
    }
    acc
}

// ---------------------------------------------------------------------------
// makenewz (sum table + Newton derivatives)
// ---------------------------------------------------------------------------

/// The `makenewz` sum table: for a branch `(u, v)` and eigensystem `W`, `λ`,
/// `st[i][c][k] = (W x_u)[k] · (W x_v)[k]`, so that the per-site likelihood
/// at branch length `t` is `Σ_k st[i][c][k] · e^{λ_k r_c t}` — making first
/// and second derivatives w.r.t. `t` nearly free. RAxML builds exactly this
/// table once per `makenewz` and iterates Newton on it.
pub struct SumTable {
    /// Tiled exactly like the partials it is built from (see the module
    /// docs): entry `(pattern i, rate c, eigen-index k)` lives at
    /// [`tiled_index`]`(i, c, k, n_rates)`, length [`tiled_len`]. Padding
    /// lanes hold the product of the operands' padding (zeros) and are never
    /// folded into a result.
    pub data: Vec<f64>,
    pub n_rates: usize,
    /// Combined (u + v) scale counts, one per pattern (unpadded) — constant
    /// offsets that cancel in the Newton ratio but are kept for exactness
    /// checks.
    pub scale: Vec<u32>,
}

/// Build the sum table. `w` is the model's `W = Vᵀ D^{1/2}` matrix.
pub fn build_sumtable(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    w: &[[f64; 4]; 4],
    n_patterns: usize,
    n_rates: usize,
) -> SumTable {
    let mut data = vec![0.0; tiled_len(n_patterns, n_rates)];
    let mut scale = vec![0; n_patterns];
    build_sumtable_into(u, v, w, n_rates, &mut data, &mut scale);
    SumTable { data, n_rates, scale }
}

/// One operand's side of a sum-table block. Lives on the stack for the
/// length of one block; boxing the tip rows would put an allocation on the
/// zero-allocation path.
#[allow(clippy::large_enum_variant)]
enum BlockRows<'a> {
    /// A tip: `W·tip(code)` looked up once for the block (tips are
    /// rate-independent), row `k` holding the block's [`TILE`] lanes.
    Tip([[f64; TILE]; 4]),
    /// An inner node: its tiled partials for this block.
    Inner(&'a [f64]),
}

impl<'a> BlockRows<'a> {
    /// Block `blk` (`valid` patterns) of an operand; `wtip[code] = W·tip(code)`.
    #[inline(always)]
    fn of<L: Lanes>(
        op: &EvalOperand<'a>,
        wtip: &TipTable16,
        blk: usize,
        valid: usize,
        n_rates: usize,
    ) -> BlockRows<'a> {
        match *op {
            EvalOperand::Tip { codes } => {
                let codes = block_codes(codes, blk * TILE, valid);
                let mut rows = [[0.0; TILE]; 4];
                for l0 in lane_groups::<L>() {
                    let group = L::tip_rows(wtip, &codes[l0..]);
                    for k in 0..4 {
                        group[k].store(&mut rows[k], l0);
                    }
                }
                BlockRows::Tip(rows)
            }
            EvalOperand::Inner { x, .. } => {
                let bs = n_rates * 4 * TILE;
                BlockRows::Inner(&x[blk * bs..(blk + 1) * bs])
            }
        }
    }

    /// `(W x)[k]` for rate `c` on the lane group at `l0`, each lane keeping
    /// the per-pattern association `((w₀q₀ + w₁q₁) + w₂q₂) + w₃q₃`.
    #[inline(always)]
    fn w_times<L: Lanes>(&self, w: &[[f64; 4]; 4], c: usize, l0: usize) -> [L; 4] {
        match self {
            BlockRows::Tip(rows) => std::array::from_fn(|k| L::load(&rows[k], l0)),
            BlockRows::Inner(xb) => {
                let q: [L; 4] = std::array::from_fn(|s| L::load(xb, (c * 4 + s) * TILE + l0));
                std::array::from_fn(|k| row_dot(&w[k], &q))
            }
        }
    }
}

/// As [`build_sumtable`], writing into caller-owned buffers — `data` of
/// [`tiled_len`] entries, `scale` one per pattern — so the steady-state
/// `makenewz` path allocates nothing. Runs on [`KernelTier::probe`]'s lanes.
///
/// The table is built a block at a time over the operands' own tiles: an
/// inner operand is read as tile rows, a tip operand looks up `W·tip(code)`
/// once per block instead of once per rate.
pub fn build_sumtable_into(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    w: &[[f64; 4]; 4],
    n_rates: usize,
    data: &mut [f64],
    scale: &mut [u32],
) {
    match KernelTier::probe() {
        KernelTier::Portable => build_sumtable_lanes::<[f64; 2]>(u, v, w, n_rates, data, scale),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: the probe has just reported AVX2 on this CPU.
            unsafe { build_sumtable_avx2(u, v, w, n_rates, data, scale) }
        }
    }
}

/// [`build_sumtable_lanes`] over [`Avx2Lanes`], compiled with the feature on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn build_sumtable_avx2(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    w: &[[f64; 4]; 4],
    n_rates: usize,
    data: &mut [f64],
    scale: &mut [u32],
) {
    note_avx2_entry();
    build_sumtable_lanes::<Avx2Lanes>(u, v, w, n_rates, data, scale)
}

/// The one sum-table body.
#[inline(always)]
fn build_sumtable_lanes<L: Lanes>(
    u: &EvalOperand<'_>,
    v: &EvalOperand<'_>,
    w: &[[f64; 4]; 4],
    n_rates: usize,
    data: &mut [f64],
    scale: &mut [u32],
) {
    let n_patterns = scale.len();
    assert_eq!(data.len(), tiled_len(n_patterns, n_rates), "sum table size mismatch");

    // Precompute W·tip(code) for all 16 codes.
    let mut wtip: TipTable16 = [[0.0; 4]; 16];
    for code in 0..16 {
        for k in 0..4 {
            let mut acc = 0.0;
            for s in 0..4 {
                acc += w[k][s] * TIP_LIKELIHOODS[code][s];
            }
            wtip[code][k] = acc;
        }
    }

    let bs = n_rates * 4 * TILE;
    for (blk, (tb, sb)) in data.chunks_exact_mut(bs).zip(scale.chunks_mut(TILE)).enumerate() {
        let base = blk * TILE;
        for (lane, s) in sb.iter_mut().enumerate() {
            *s = u.scale_at(base + lane) + v.scale_at(base + lane);
        }
        let rows = |op| BlockRows::of::<L>(op, &wtip, blk, sb.len(), n_rates);
        let (ru, rv) = (rows(u), rows(v));
        for c in 0..n_rates {
            for l0 in lane_groups::<L>() {
                let wu = ru.w_times::<L>(w, c, l0);
                let wv = rv.w_times::<L>(w, c, l0);
                for k in 0..4 {
                    wu[k].mul(wv[k]).store(tb, (c * 4 + k) * TILE + l0);
                }
            }
        }
    }
}

/// First and second derivatives of the log-likelihood w.r.t. the branch
/// length `t`, plus the log-likelihood itself, evaluated from a sum table.
///
/// Returns `(lnl, d_lnl, dd_lnl)`.
pub fn newton_derivatives(
    st: &SumTable,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: crate::model::ExpImpl,
) -> (f64, f64, f64) {
    let mut scratch = NewtonScratch::default();
    newton_derivatives_scratch(
        &st.data,
        &st.scale,
        st.n_rates,
        lambdas,
        rates,
        t,
        weights,
        exp_impl,
        NewtonPass::Derivatives,
        &mut scratch,
    )
}

/// Exponential-table scratch for [`newton_derivatives_scratch`]: the three
/// `[rate][k]` tables of the §5.2.2 "small loop" (`e^{λ_k r_c t}` and its
/// `λr`- and `(λr)²`-weighted variants), owned by the caller so repeated
/// Newton iterations allocate nothing.
#[derive(Debug, Default)]
pub struct NewtonScratch {
    e0: Vec<[f64; 4]>,
    e1: Vec<[f64; 4]>,
    e2: Vec<[f64; 4]>,
}

impl NewtonScratch {
    /// Size the tables for `n_rates` categories (capacity is retained).
    pub fn ensure(&mut self, n_rates: usize) {
        self.e0.resize(n_rates, [0.0; 4]);
        self.e1.resize(n_rates, [0.0; 4]);
        self.e2.resize(n_rates, [0.0; 4]);
    }
}

/// What one pass over the sum table computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewtonPass {
    /// `(lnl, d_lnl, dd_lnl)` — a Newton iteration.
    Derivatives,
    /// `(lnl, 0, 0)` with `lnl` bit-equal to the full pass's, at a third of
    /// the dot products — what `makenewz` needs once Newton has stopped.
    LnlOnly,
}

/// As [`newton_derivatives`], operating on raw sum-table slices (the tiled
/// table + per-pattern scale counts, see [`SumTable`]) with caller-owned
/// exponential scratch — the zero-allocation form the engine and the
/// parallel dispatcher use. Runs on [`KernelTier::probe`]'s lanes.
#[allow(clippy::too_many_arguments)]
pub fn newton_derivatives_scratch(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: crate::model::ExpImpl,
    pass: NewtonPass,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    match KernelTier::probe() {
        KernelTier::Portable => newton_lanes::<[f64; 2]>(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, pass, scratch,
        ),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            // SAFETY: the probe has just reported AVX2 on this CPU.
            unsafe {
                newton_avx2(
                    st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, pass, scratch,
                )
            }
        }
    }
}

/// [`newton_lanes`] over [`Avx2Lanes`], compiled with the feature on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn newton_avx2(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: crate::model::ExpImpl,
    pass: NewtonPass,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    note_avx2_entry();
    newton_lanes::<Avx2Lanes>(
        st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, pass, scratch,
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn newton_lanes<L: Lanes>(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: crate::model::ExpImpl,
    pass: NewtonPass,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    match pass {
        NewtonPass::Derivatives => newton_pass::<L, true>(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, scratch,
        ),
        NewtonPass::LnlOnly => newton_pass::<L, false>(
            st_data, st_scale, n_rates, lambdas, rates, t, weights, exp_impl, scratch,
        ),
    }
}

/// The one Newton loop. Per block the per-pattern likelihood (and, with
/// `DERIVS`, its two `t`-derivatives) accumulate lane-wise over the rates
/// and become the clamped `L` and the Newton ratios `L′/L`, `(L″L − L′²)/L²`
/// on the same lanes; the `ln` and the three weighted sums are then folded
/// scalar, in pattern order, zero-weight patterns skipped. Without `DERIVS`
/// the derivative rows are compiled out and the last two results are zero.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn newton_pass<L: Lanes, const DERIVS: bool>(
    st_data: &[f64],
    st_scale: &[u32],
    n_rates: usize,
    lambdas: &[f64; 4],
    rates: &[f64],
    t: f64,
    weights: &[f64],
    exp_impl: crate::model::ExpImpl,
    scratch: &mut NewtonScratch,
) -> (f64, f64, f64) {
    let n_patterns = weights.len();
    assert_eq!(st_data.len(), tiled_len(n_patterns, n_rates), "sum table size mismatch");
    let inv_c = L::splat(1.0 / n_rates as f64);
    let floor = L::splat(1e-300);

    // The "small loop": per (rate, eigenvalue) exponentials — 4 × C exp
    // calls per Newton iteration (§5.2.2's hot spot).
    scratch.ensure(n_rates);
    let (e0, e1, e2) = (&mut scratch.e0, &mut scratch.e1, &mut scratch.e2);
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
    let blocks = st_data.chunks_exact(n_rates * 4 * TILE);
    for ((tb, wb), sb) in blocks.zip(weights.chunks(TILE)).zip(st_scale.chunks(TILE)) {
        // The clamped likelihood and the two ratios of each lane. A padding
        // lane's second ratio is 0/0: only `wb.len()` lanes are folded below.
        let mut li = [0.0; TILE];
        let mut r1 = [0.0; TILE];
        let mut r2 = [0.0; TILE];
        for l0 in lane_groups::<L>() {
            // Summed over the rates: each rate's four table rows against one
            // row of an exponential table.
            let mut acc = [L::splat(0.0); 3];
            for c in 0..n_rates {
                let s: [L; 4] = std::array::from_fn(|k| L::load(tb, (c * 4 + k) * TILE + l0));
                acc[0] = acc[0].add(row_dot(&e0[c], &s));
                if DERIVS {
                    acc[1] = acc[1].add(row_dot(&e1[c], &s));
                    acc[2] = acc[2].add(row_dot(&e2[c], &s));
                }
            }
            let li_safe = acc[0].mul(inv_c).max(floor);
            li_safe.store(&mut li, l0);
            if DERIVS {
                let dli = acc[1].mul(inv_c);
                let ddli = acc[2].mul(inv_c);
                dli.div(li_safe).store(&mut r1, l0);
                let curvature = ddli.mul(li_safe).sub(dli.mul(dli));
                curvature.div(li_safe.mul(li_safe)).store(&mut r2, l0);
            }
        }
        // The fold is scalar and in pattern order: the three sums are
        // order-sensitive. A zero weight (a `set_weights` caller's; bootstrap
        // replicates hold none) is skipped: no `ln`, no `0 · ∞` from a clamped
        // pattern's ratio, and the sums a compacted alignment would give.
        for (lane, (&wgt, &scale)) in wb.iter().zip(sb).enumerate() {
            if wgt == 0.0 {
                continue;
            }
            lnl += wgt * (li[lane].ln() + scale as f64 * LN_SCALE);
            if DERIVS {
                d1 += wgt * r1[lane];
                d2 += wgt * r2[lane];
            }
        }
    }
    (lnl, d1, d2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::SCALE_THRESHOLD;
    use crate::model::{ExpImpl, SubstModel};

    fn pmats(model: &SubstModel, t: f64, rates: &[f64]) -> Vec<Mat4> {
        rates.iter().map(|&r| model.transition_matrix(t, r, ExpImpl::Libm)).collect()
    }

    fn model() -> SubstModel {
        SubstModel::gtr([0.3, 0.2, 0.25, 0.25], [1.2, 3.1, 0.8, 0.9, 3.4, 1.0]).unwrap()
    }

    /// One instantiation of the kernel bodies: a portable lane count, or the
    /// AVX2 lane type.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Inst {
        Portable(usize),
        #[cfg(target_arch = "x86_64")]
        Avx2,
    }

    /// Every instantiation this CPU can run; `Portable(1)`, the reference,
    /// comes first.
    fn instantiations() -> Vec<Inst> {
        let mut all: Vec<Inst> = [1, 2, 4, 8].map(Inst::Portable).to_vec();
        #[cfg(target_arch = "x86_64")]
        if KernelTier::probe() == KernelTier::Avx2 {
            all.push(Inst::Avx2);
        }
        all
    }

    /// Call body `$lanes::<L>` — or entry point `$avx2` — with `$args` for
    /// the lane type `$inst` names.
    macro_rules! instantiate {
        ($inst:expr, $lanes:ident, $avx2:ident, $args:tt) => {
            match $inst {
                Inst::Portable(1) => $lanes::<[f64; 1]> $args,
                Inst::Portable(2) => $lanes::<[f64; 2]> $args,
                Inst::Portable(4) => $lanes::<[f64; 4]> $args,
                Inst::Portable(8) => $lanes::<[f64; 8]> $args,
                Inst::Portable(w) => panic!("no {w}-lane instantiation"),
                #[cfg(target_arch = "x86_64")]
                Inst::Avx2 => {
                    assert_eq!(KernelTier::probe(), KernelTier::Avx2);
                    // SAFETY: the probe has just reported AVX2 on this CPU.
                    unsafe { $avx2 $args }
                }
            }
        };
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The padding lanes of the last block of a tiled buffer of `n` patterns.
    fn padding(buf: &[f64], n: usize, n_rates: usize) -> impl Iterator<Item = &f64> {
        let last = &buf[buf.len() - n_rates * 4 * TILE..];
        last.chunks_exact(TILE).flat_map(move |row| &row[(n - 1) % TILE + 1..])
    }

    /// The pattern counts of the differential tests: a lone lane, ragged
    /// last tiles, one exact tile, the paper's alignment, and more than one
    /// `REDUCE_BLOCK`.
    const DIFF_PATTERNS: [usize; 6] = [1, 7, 8, 13, 245, 257];

    #[test]
    fn tip_tables_match_direct_sum() {
        let m = model();
        let p = pmats(&m, 0.2, &[0.5, 1.5]);
        let tables = build_tip_tables(&p);
        for c in 0..2 {
            for code in 0..16usize {
                for s in 0..4 {
                    let direct: f64 = (0..4).map(|t| p[c][s][t] * TIP_LIKELIHOODS[code][t]).sum();
                    assert!((tables[c][code][s] - direct).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn tiled_index_round_trips() {
        let n_rates = 3;
        let n = 21; // not a multiple of TILE — exercises the tail block
        let aos: Vec<f64> = (0..n * n_rates * 4).map(|i| i as f64).collect();
        let tiled = tile_partials(&aos, n, n_rates);
        assert_eq!(tiled.len(), tiled_len(n, n_rates));
        for i in 0..n {
            for c in 0..n_rates {
                for s in 0..4 {
                    assert_eq!(
                        tiled[tiled_index(i, c, s, n_rates)],
                        aos[(i * n_rates + c) * 4 + s]
                    );
                }
            }
        }
        // Padding lanes are zero.
        let block = (n / TILE) * n_rates * 4 * TILE;
        for c in 0..n_rates {
            for s in 0..4 {
                for pad in (n % TILE)..TILE {
                    assert_eq!(tiled[block + (c * 4 + s) * TILE + pad], 0.0);
                }
            }
        }
    }

    /// Replace a tip operand with an equivalent inner operand whose partial
    /// is the raw tip vector; newview must produce identical results.
    #[test]
    fn tip_paths_agree_with_inner_path() {
        let m = model();
        let rates = [0.3, 1.0, 2.2];
        let n_rates = rates.len();
        let pl = pmats(&m, 0.17, &rates);
        let pr = pmats(&m, 0.42, &rates);
        let lt = build_tip_tables(&pl);
        let rt = build_tip_tables(&pr);

        let codes_l: Vec<u8> = vec![1, 2, 4, 8, 5, 15, 3, 10, 12];
        let codes_r: Vec<u8> = vec![8, 8, 1, 2, 15, 4, 7, 1, 9];
        let n = codes_l.len();

        // Fake "inner" operands replicating the tip vectors per rate.
        let expand = |codes: &[u8]| -> Vec<f64> {
            let mut x = vec![0.0; n * n_rates * 4];
            for i in 0..n {
                for c in 0..n_rates {
                    for s in 0..4 {
                        x[(i * n_rates + c) * 4 + s] = TIP_LIKELIHOODS[codes[i] as usize][s];
                    }
                }
            }
            tile_partials(&x, n, n_rates)
        };
        let xl = expand(&codes_l);
        let xr = expand(&codes_r);
        let zeros = vec![0u32; n];

        let mut out_tt = vec![0.0; tiled_len(n, n_rates)];
        let mut sc_tt = vec![0u32; n];
        newview(
            &Child::Tip { codes: &codes_l, tables: &lt },
            &Child::Tip { codes: &codes_r, tables: &rt },
            &mut out_tt,
            &mut sc_tt,
            n_rates,
        );

        let mut out_ii = vec![0.0; tiled_len(n, n_rates)];
        let mut sc_ii = vec![0u32; n];
        newview(
            &Child::Inner { x: &xl, scale: &zeros, pmats: &pl },
            &Child::Inner { x: &xr, scale: &zeros, pmats: &pr },
            &mut out_ii,
            &mut sc_ii,
            n_rates,
        );

        let mut out_ti = vec![0.0; tiled_len(n, n_rates)];
        let mut sc_ti = vec![0u32; n];
        newview(
            &Child::Tip { codes: &codes_l, tables: &lt },
            &Child::Inner { x: &xr, scale: &zeros, pmats: &pr },
            &mut out_ti,
            &mut sc_ti,
            n_rates,
        );

        for (a, b) in out_tt.iter().zip(&out_ii) {
            assert!((a - b).abs() < 1e-14, "{a} vs {b}");
        }
        for (a, b) in out_ti.iter().zip(&out_ii) {
            assert!((a - b).abs() < 1e-14, "{a} vs {b}");
        }
        assert_eq!(sc_tt, sc_ii);
        assert_eq!(sc_ti, sc_ii);
    }

    /// Tip rows that cover all 16 codes (0 — the padding value — included),
    /// with a non-zero code on the last pattern so a ragged block's final
    /// lane cannot be mistaken for padding.
    fn diff_codes(n: usize, salt: usize) -> Vec<u8> {
        let mut codes: Vec<u8> = (0..n).map(|i| ((i * 5 + salt) % 16) as u8).collect();
        codes[n - 1] = 15 - salt as u8;
        codes
    }

    /// One `newview` instance, all three cases: every lane instantiation
    /// against the 1-lane one — every output value, `out_scale` and
    /// `ScaleStats` to the bit, padding lanes `+0.0`. Both inner children
    /// are drawn in `0.01..1` and scaled below 2⁻²⁵⁶ on the tile lanes set
    /// in `tiny_mask`, and carry random scale counts. With row-stochastic
    /// `P`, a pattern fires exactly where an inner child is tiny or a tip
    /// code is 0 (no state): each pattern's count is checked against that.
    fn check_newview_instance(
        rng: &mut rand::rngs::StdRng,
        pl: &[Mat4],
        pr: &[Mat4],
        lc: &[u8],
        rc: &[u8],
        tiny_mask: u8,
    ) {
        use rand::Rng;
        let (n, n_rates) = (lc.len(), pl.len());
        let tiny = |i: usize| (tiny_mask >> (i % TILE)) & 1 == 1;
        let mut partial = || {
            let aos: Vec<f64> = (0..n * n_rates * 4)
                .map(|j| {
                    let x = rng.gen_range(0.01..1.0);
                    if tiny(j / (n_rates * 4)) {
                        x * SCALE_THRESHOLD
                    } else {
                        x
                    }
                })
                .collect();
            tile_partials(&aos, n, n_rates)
        };
        let (xl, xr) = (partial(), partial());
        let ls: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..4)).collect();
        let rs: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..4)).collect();
        let (lt, rt) = (build_tip_tables(pl), build_tip_tables(pr));
        let cases = [
            (Child::Tip { codes: lc, tables: &lt }, Child::Tip { codes: rc, tables: &rt }),
            (Child::Inner { x: &xl, scale: &ls, pmats: pl }, Child::Tip { codes: rc, tables: &rt }),
            (
                Child::Inner { x: &xl, scale: &ls, pmats: pl },
                Child::Inner { x: &xr, scale: &rs, pmats: pr },
            ),
        ];
        for (case, (a, b)) in cases.iter().enumerate() {
            let mut want: Option<(Vec<u64>, Vec<u32>, ScaleStats)> = None;
            for inst in instantiations() {
                let what = format!("{inst:?}: {n} patterns, {n_rates} rates, case {case}");
                // Stale contents must not survive, padding included.
                let mut out = vec![f64::NAN; tiled_len(n, n_rates)];
                let mut sc = vec![u32::MAX; n];
                let stats = instantiate!(
                    inst,
                    newview_lanes,
                    newview_avx2,
                    (a, b, &mut out, &mut sc, n_rates)
                );
                let mut pad = padding(&out, n, n_rates);
                assert!(pad.all(|x| x.to_bits() == 0), "{what}: padding");
                for i in 0..n {
                    let (child, fires) = match case {
                        0 => (0, lc[i] == 0 || rc[i] == 0),
                        1 => (ls[i], tiny(i) || rc[i] == 0),
                        _ => (ls[i] + rs[i], tiny(i)),
                    };
                    assert_eq!(sc[i], child + fires as u32, "{what}: pattern {i} fires: {fires}");
                }
                let got = (bits(&out), sc, stats);
                match &want {
                    None => want = Some(got),
                    Some(want) => assert!(got == *want, "{what}"),
                }
            }
        }
    }

    /// [`check_newview_instance`] on the model's `P` matrices over the
    /// differential pattern counts, with tip rows over all 16 codes and
    /// patterns 3 and 4 of every tile (the last lane of one AVX2 group, the
    /// first of the next) tiny; then on random instances — random
    /// row-stochastic `P`, pattern and rate counts, tip codes and tiny lanes.
    #[test]
    fn newview_is_bit_equal_across_lane_types() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = model();
        let all_rates = [0.25, 0.8, 1.3, 2.7];
        let mut rng = StdRng::seed_from_u64(19);
        for n in DIFF_PATTERNS {
            for n_rates in 1..=4 {
                let rates = &all_rates[..n_rates];
                let (pl, pr) = (pmats(&m, 0.11, rates), pmats(&m, 0.29, rates));
                let (lc, rc) = (diff_codes(n, 1), diff_codes(n, 4));
                check_newview_instance(&mut rng, &pl, &pr, &lc, &rc, 0b0001_1000);
            }
        }
        for _ in 0..150 {
            let n = rng.gen_range(1usize..40);
            let n_rates = rng.gen_range(1usize..5);
            let mut random_pmats = || -> Vec<Mat4> {
                (0..n_rates)
                    .map(|_| {
                        std::array::from_fn(|_| {
                            let row: [f64; 4] = std::array::from_fn(|_| rng.gen_range(0.05..1.0));
                            let sum: f64 = row.iter().sum();
                            row.map(|p| p / sum)
                        })
                    })
                    .collect()
            };
            let (pl, pr) = (random_pmats(), random_pmats());
            let mut codes = || (0..n).map(|_| rng.gen_range(1u8..16)).collect::<Vec<_>>();
            let (lc, rc) = (codes(), codes());
            let tiny_mask = rng.gen_range(0u32..256) as u8;
            check_newview_instance(&mut rng, &pl, &pr, &lc, &rc, tiny_mask);
        }
    }

    /// `build_sumtable_into` and both Newton passes: every lane
    /// instantiation against the 1-lane one — table, scale counts, `lnl`,
    /// `d1`, `d2` to the bit — on operands with non-zero scale counts, tip
    /// rows over all 16 codes (code 0 has no state: a likelihood of zero, on
    /// the clamp) and zero weights.
    #[test]
    fn makenewz_is_bit_equal_across_lane_types() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let m = model();
        let (w, lambdas) = (m.eigen().w, m.eigen().values);
        let all_rates = [0.21, 0.64, 1.13, 2.02];
        let mut rng = StdRng::seed_from_u64(23);
        for n in DIFF_PATTERNS {
            for n_rates in 1..=4 {
                let rates = &all_rates[..n_rates];
                let mut ops = random_operands(&mut rng, n, n_rates);
                ops.codes = [diff_codes(n, 1), diff_codes(n, 4)];
                let pairings = ops.pairings().into_iter().chain([(ops.tip(0), ops.tip(1))]);
                for (case, (u, v)) in pairings.enumerate() {
                    let mut want = None;
                    for inst in instantiations() {
                        let what =
                            format!("{inst:?}: {n} patterns, {n_rates} rates, pairing {case}");
                        let mut data = vec![f64::NAN; tiled_len(n, n_rates)];
                        let mut scale = vec![u32::MAX; n];
                        instantiate!(
                            inst,
                            build_sumtable_lanes,
                            build_sumtable_avx2,
                            (&u, &v, &w, n_rates, &mut data, &mut scale)
                        );
                        assert!(padding(&data, n, n_rates).all(|&x| x == 0.0), "{what}: padding");
                        let mut newton = Vec::new();
                        for exp in [ExpImpl::Sdk, ExpImpl::Libm] {
                            for t in [1e-6, 0.013, 0.2, 1.7] {
                                for pass in [NewtonPass::Derivatives, NewtonPass::LnlOnly] {
                                    let mut scratch = NewtonScratch::default();
                                    let (lnl, d1, d2) = instantiate!(
                                        inst,
                                        newton_lanes,
                                        newton_avx2,
                                        (
                                            &data,
                                            &scale,
                                            n_rates,
                                            &lambdas,
                                            rates,
                                            t,
                                            &ops.weights,
                                            exp,
                                            pass,
                                            &mut scratch
                                        )
                                    );
                                    newton.push([lnl, d1, d2].map(f64::to_bits));
                                }
                            }
                        }
                        let got = (bits(&data), scale, newton);
                        match &want {
                            None => want = Some(got),
                            Some(want) => assert!(got == *want, "{what}"),
                        }
                    }
                }
            }
        }
    }

    /// `value.max(floor)` is `f64::max` on every lane type: NaN yields the
    /// floor (`vmaxpd` with the operands swapped would yield the NaN).
    #[test]
    fn lane_max_is_the_scalar_clamp() {
        #[inline(always)]
        fn clamp_lanes<L: Lanes>(v: &[f64; TILE], out: &mut [f64; TILE]) {
            for l0 in lane_groups::<L>() {
                L::load(v, l0).max(L::splat(1e-300)).store(out, l0);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn clamp_avx2(v: &[f64; TILE], out: &mut [f64; TILE]) {
            clamp_lanes::<Avx2Lanes>(v, out)
        }
        let v = [f64::NAN, -0.0, 5e-324, 1e-300, 2e-300, -1.0, f64::INFINITY, 0.0];
        for inst in instantiations() {
            let mut out = [0.0; TILE];
            instantiate!(inst, clamp_lanes, clamp_avx2, (&v, &mut out));
            assert_eq!(bits(&out), bits(&v.map(|x| x.max(1e-300))), "{inst:?}");
        }
    }

    /// What the probe says is what runs: on a CPU with AVX2 `newview`, the
    /// sum table and the Newton pass each enter the AVX2 instantiation — so
    /// a green suite on such a host has tested the wide path, not the
    /// portable one.
    #[test]
    fn dispatch_follows_the_probe() {
        let tier = KernelTier::probe();
        println!("kernel tier: {tier}"); // scripts/ci.sh shows this line
        let want = if tier == KernelTier::Portable { ("portable", 2) } else { ("avx2", 4) };
        assert_eq!((tier.name(), tier.lanes()), want);
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            assert_eq!(tier == KernelTier::Avx2, avx2);
            // Each dispatched call enters once where the CPU has AVX2.
            let step = avx2 as u32;
            let m = model();
            let tables = build_tip_tables(&pmats(&m, 0.2, &[1.0]));
            let codes = [1u8, 2, 4];
            let tip = Child::Tip { codes: &codes, tables: &tables };
            let (mut out, mut sc) = (vec![0.0; tiled_len(3, 1)], vec![0u32; 3]);
            let start = AVX2_ENTRIES.get();
            newview(&tip, &tip, &mut out, &mut sc, 1);
            assert_eq!(AVX2_ENTRIES.get(), start + step, "newview");
            let u = EvalOperand::Tip { codes: &codes };
            let st = build_sumtable(&u, &u, &m.eigen().w, 3, 1);
            assert_eq!(AVX2_ENTRIES.get(), start + 2 * step, "build_sumtable_into");
            newton_derivatives(&st, &m.eigen().values, &[1.0], 0.1, &[1.0; 3], ExpImpl::Libm);
            assert_eq!(AVX2_ENTRIES.get(), start + 3 * step, "newton_derivatives_scratch");
        }
    }

    #[test]
    fn scaling_fires_and_preserves_likelihood_meaning() {
        let m = model();
        let rates = [1.0];
        let pl = pmats(&m, 0.1, &rates);
        let pr = pmats(&m, 0.1, &rates);
        // Inner children with very small partials force a scaling event.
        let tiny = SCALE_THRESHOLD * 1e-3;
        let xl = tile_partials(&[tiny; 4], 1, 1);
        let xr = tile_partials(&[tiny; 4], 1, 1);
        let ls = vec![3u32];
        let rs = vec![5u32];
        let mut out = vec![0.0; tiled_len(1, 1)];
        let mut sc = vec![0u32; 1];
        let stats = newview(
            &Child::Inner { x: &xl, scale: &ls, pmats: &pl },
            &Child::Inner { x: &xr, scale: &rs, pmats: &pr },
            &mut out,
            &mut sc,
            1,
        );
        assert_eq!(stats.fired, 1);
        assert_eq!(sc[0], 3 + 5 + 1, "scale counts must accumulate");
        // The rescaled values must be exactly 2^256 × the raw products.
        for s in 0..4 {
            let la: f64 = (0..4).map(|t| pl[0][s][t] * tiny).sum();
            let ra: f64 = (0..4).map(|t| pr[0][s][t] * tiny).sum();
            assert_eq!(
                out[tiled_index(0, 0, s, 1)],
                la * ra * SCALE_MULTIPLIER,
                "rescale must be an exact power-of-two shift"
            );
        }
    }

    #[test]
    fn scaling_is_per_lane_in_mixed_blocks() {
        // One block where only some lanes underflow: the conditional must
        // fire for exactly those patterns.
        let m = model();
        let rates = [1.0];
        let pl = pmats(&m, 0.1, &rates);
        let pr = pmats(&m, 0.1, &rates);
        let n = TILE;
        let tiny = SCALE_THRESHOLD * 1e-3;
        let mut aos = vec![0.5; n * 4];
        for i in [1, 3, 4, 7] {
            for s in 0..4 {
                aos[i * 4 + s] = tiny;
            }
        }
        let xl = tile_partials(&aos, n, 1);
        let xr = tile_partials(&aos, n, 1);
        let zeros = vec![0u32; n];
        let mut out = vec![0.0; tiled_len(n, 1)];
        let mut sc = vec![0u32; n];
        let stats = newview(
            &Child::Inner { x: &xl, scale: &zeros, pmats: &pl },
            &Child::Inner { x: &xr, scale: &zeros, pmats: &pr },
            &mut out,
            &mut sc,
            1,
        );
        assert_eq!(sc, vec![0, 1, 0, 1, 1, 0, 0, 1], "per-lane firing");
        assert_eq!(stats.fired, 4);
    }

    /// Values on both sides of 2⁻²⁵⁶ plus every special the conditional
    /// could meet.
    const SCALING_PROBES: [f64; 17] = [
        0.0,
        -0.0,
        5e-324, // smallest subnormal
        1e-310,
        1e-300,
        SCALE_THRESHOLD / 2.0,
        SCALE_THRESHOLD * 0.999999,
        SCALE_THRESHOLD,
        SCALE_THRESHOLD * 1.000001,
        1e-20,
        0.5,
        1.0,
        -SCALE_THRESHOLD / 2.0,
        -SCALE_THRESHOLD,
        -1.0,
        f64::INFINITY,
        f64::NAN,
    ];

    /// The integer-cast conditional against the paper's float compare,
    /// `ABS(x) < minlikelihood`, on every pair of probes.
    #[test]
    fn float_and_int_scaling_checks_agree() {
        for &a in &SCALING_PROBES {
            for &b in &SCALING_PROBES {
                // Two rows of one block: lane `j` holds the pair (a, b).
                let mut block = [a; 2 * TILE];
                block[TILE..].fill(b);
                let want = a.abs() < SCALE_THRESHOLD && b.abs() < SCALE_THRESHOLD;
                assert_eq!(lanes_below_threshold(&block), [want; TILE], "on ({a:e}, {b:e})");
            }
        }
    }

    /// The epilogue as it was before the conditional went row-wise and
    /// integer-cast: one pattern at a time, gathering its `n_rates × 4`
    /// strided values, the paper's float compare on each.
    fn finish_block_per_lane(
        ob: &mut [f64],
        out_scale: &mut [u32],
        valid: usize,
        n_rates: usize,
    ) -> ScaleStats {
        let mut stats = ScaleStats::default();
        for row in ob.chunks_exact_mut(TILE) {
            row[valid..].fill(0.0);
        }
        for lane in 0..valid {
            let mut fire = true;
            for c in 0..n_rates {
                let q = c * 4 * TILE + lane;
                let quad = [ob[q], ob[q + TILE], ob[q + 2 * TILE], ob[q + 3 * TILE]];
                fire &= quad.iter().all(|x| x.abs() < SCALE_THRESHOLD);
            }
            if fire {
                for r in 0..n_rates * 4 {
                    ob[r * TILE + lane] *= SCALE_MULTIPLIER;
                }
            }
            stats.checks += n_rates as u64;
            stats.fired += fire as u64;
            out_scale[lane] = 7 + fire as u32;
        }
        stats
    }

    #[test]
    fn rowwise_scaling_fires_exactly_the_per_lane_reference_lanes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5_2_3);
        let mut fired_total = 0;
        for trial in 0..400 {
            let n_rates = 1 + trial % 4;
            let valid = 1 + (trial / 4) % TILE;
            // A lane fires only when all its values are small, so draw most
            // lanes entirely from the small probes and spoil the rest.
            let mut block = vec![0.0; n_rates * 4 * TILE];
            for lane in 0..TILE {
                let spoil = rng.gen_range(0..3) == 0;
                for r in 0..n_rates * 4 {
                    let small = SCALING_PROBES[rng.gen_range(0usize..7)];
                    let any = SCALING_PROBES[rng.gen_range(0..SCALING_PROBES.len())];
                    block[r * TILE + lane] =
                        if spoil && rng.gen_range(0..4) == 0 { any } else { small };
                }
            }
            let mut want = block.clone();
            let mut want_scale = vec![0u32; valid];
            let want_stats = finish_block_per_lane(&mut want, &mut want_scale, valid, n_rates);
            let mut got = block;
            let mut got_scale = vec![0u32; valid];
            let mut got_stats = ScaleStats::default();
            finish_block(&mut got, &mut got_scale, 0, valid, n_rates, &mut got_stats, |_| 7);
            assert_eq!(bits(&got), bits(&want), "trial {trial}");
            assert_eq!(got_scale, want_scale, "trial {trial}");
            assert_eq!(got_stats, want_stats, "trial {trial}");
            for row in got.chunks_exact(TILE) {
                assert!(row[valid..].iter().all(|&x| x.to_bits() == 0), "padding not zero");
            }
            fired_total += got_stats.fired;
        }
        assert!(fired_total > 250, "only {fired_total} lanes fired: the test is vacuous");
    }

    #[test]
    fn sumtable_reproduces_evaluate() {
        // lnl from newton_derivatives at the same t must equal evaluate_lnl.
        let m = model();
        let gam = crate::model::GammaRates::standard(0.7).unwrap();
        let rates = gam.rates();
        let n_rates = rates.len();
        let t = 0.23;
        let p = pmats(&m, t, rates);
        let n = 5;
        let aos: Vec<f64> = (0..n * n_rates * 4).map(|i| 0.02 + (i % 5) as f64 * 0.17).collect();
        let xv = tile_partials(&aos, n, n_rates);
        let sv = vec![2u32; n];
        let codes: Vec<u8> = vec![1, 8, 2, 4, 10];
        let weights = vec![1.0, 4.0, 2.0, 1.0, 1.0];

        let u = EvalOperand::Tip { codes: &codes };
        let v = EvalOperand::Inner { x: &xv, scale: &sv };
        let direct = evaluate_lnl(&u, &v, &p, m.freqs(), &weights, n_rates);
        assert!(direct < 0.0, "log likelihood of probabilities < 1 must be negative");

        let st = build_sumtable(&u, &v, &m.eigen().w, n, n_rates);
        let (lnl, _, _) =
            newton_derivatives(&st, &m.eigen().values, rates, t, &weights, ExpImpl::Libm);
        assert!((lnl - direct).abs() < 1e-9, "{lnl} vs {direct}");
    }

    /// Random `makenewz` operands for `n` patterns: two inner partials with
    /// non-zero scale counts, two tip rows, and weights a third of which are
    /// zero (as a `set_weights` caller may pass).
    struct Operands {
        x: [Vec<f64>; 2],
        scale: [Vec<u32>; 2],
        codes: [Vec<u8>; 2],
        weights: Vec<f64>,
    }

    fn random_operands(rng: &mut rand::rngs::StdRng, n: usize, n_rates: usize) -> Operands {
        use rand::Rng;
        let mut partial = || {
            let aos: Vec<f64> = (0..n * n_rates * 4).map(|_| rng.gen_range(0.01..1.0)).collect();
            tile_partials(&aos, n, n_rates)
        };
        let x = [partial(), partial()];
        let mut counts = || (0..n).map(|_| rng.gen_range(0u32..4)).collect::<Vec<_>>();
        let scale = [counts(), counts()];
        let mut row = || (0..n).map(|_| rng.gen_range(1u8..16)).collect::<Vec<_>>();
        let codes = [row(), row()];
        let weights = (0..n).map(|_| rng.gen_range(0u32..3) as f64).collect();
        Operands { x, scale, codes, weights }
    }

    impl Operands {
        fn inner(&self, side: usize) -> EvalOperand<'_> {
            EvalOperand::Inner { x: &self.x[side], scale: &self.scale[side] }
        }

        fn tip(&self, side: usize) -> EvalOperand<'_> {
            EvalOperand::Tip { codes: &self.codes[side] }
        }

        /// Tip/inner, inner/tip and inner/inner.
        fn pairings(&self) -> [(EvalOperand<'_>, EvalOperand<'_>); 3] {
            [
                (self.tip(0), self.inner(1)),
                (self.inner(0), self.tip(1)),
                (self.inner(0), self.inner(1)),
            ]
        }
    }

    /// The tiled sum table and the block-wise Newton pass against the scalar
    /// `[pattern][rate][k]` formulas they replaced: every table entry, `lnl`,
    /// `d1` and `d2` to the bit, and the lnL-only pass equal to the full
    /// pass's `lnl`. Pattern counts cover a lone lane, ragged last tiles and
    /// more than one `REDUCE_BLOCK`; a third of the weights are zero.
    #[test]
    fn tiled_makenewz_is_bit_equal_to_the_aos_reference() {
        use crate::likelihood::reference::{newton_derivatives_aos, sumtable_aos};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let m = model();
        let (w, lambdas) = (m.eigen().w, m.eigen().values);
        let all_rates = [0.21, 0.64, 1.13, 2.02];
        let mut rng = StdRng::seed_from_u64(16);
        for n in [1, 7, 8, 13, 193, 257] {
            for n_rates in 1..=4 {
                let rates = &all_rates[..n_rates];
                let mut ops = random_operands(&mut rng, n, n_rates);
                assert!(ops.weights.contains(&0.0) || n == 1);
                // Tip code 0 has no state: wherever tip 0 is an operand the
                // last pattern's likelihood is zero and sits on the clamp.
                (ops.codes[0][n - 1], ops.weights[n - 1]) = (0, 2.0);
                for (case, (u, v)) in ops.pairings().iter().enumerate() {
                    let what = format!("{n} patterns, {n_rates} rates, pairing {case}");
                    let (want, want_scale) = sumtable_aos(u, v, &w, n, n_rates);
                    let st = build_sumtable(u, v, &w, n, n_rates);
                    assert_eq!(st.scale, want_scale, "{what}");
                    for i in 0..n {
                        for c in 0..n_rates {
                            for k in 0..4 {
                                assert_eq!(
                                    st.data[tiled_index(i, c, k, n_rates)].to_bits(),
                                    want[(i * n_rates + c) * 4 + k].to_bits(),
                                    "{what}: entry ({i}, {c}, {k})"
                                );
                            }
                        }
                    }
                    for exp in [ExpImpl::Sdk, ExpImpl::Libm] {
                        for t in [1e-6, 0.013, 0.2, 1.7] {
                            let want = newton_derivatives_aos(
                                &want,
                                &want_scale,
                                n_rates,
                                &lambdas,
                                rates,
                                t,
                                &ops.weights,
                                exp,
                            );
                            let pass = |pass| {
                                newton_derivatives_scratch(
                                    &st.data,
                                    &st.scale,
                                    n_rates,
                                    &lambdas,
                                    rates,
                                    t,
                                    &ops.weights,
                                    exp,
                                    pass,
                                    &mut NewtonScratch::default(),
                                )
                            };
                            let got = pass(NewtonPass::Derivatives);
                            assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: lnl at {t}");
                            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{what}: d1 at {t}");
                            assert_eq!(got.2.to_bits(), want.2.to_bits(), "{what}: d2 at {t}");
                            // A padding lane's 0/0 ratio never reaches a sum.
                            assert!(case == 0 || got.2.is_finite(), "{what}: d2 at {t}");
                            let lnl_only = pass(NewtonPass::LnlOnly);
                            assert_eq!(lnl_only.0.to_bits(), want.0.to_bits(), "{what}: lnL-only");
                            assert_eq!((lnl_only.1, lnl_only.2), (0.0, 0.0));
                        }
                    }
                }
            }
        }
    }

    /// Analytic `d1`/`d2` against central finite differences of `lnl` on 100
    /// random branches — a check from outside the kernels' own algebra.
    #[test]
    fn newton_derivatives_match_finite_differences() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = model();
        let all_rates = [0.21, 0.64, 1.13, 2.02];
        let mut rng = StdRng::seed_from_u64(4);
        for branch in 0..100 {
            let n = rng.gen_range(1usize..60);
            let n_rates = 1 + branch % 4;
            let rates = &all_rates[..n_rates];
            let mut ops = random_operands(&mut rng, n, n_rates);
            // Scale counts add a constant hundreds of times the size of the
            // differences taken below; all it would contribute is round-off.
            ops.scale.iter_mut().for_each(|s| s.fill(0));
            let (u, v) = &ops.pairings()[branch % 3];
            let st = build_sumtable(u, v, &m.eigen().w, n, n_rates);
            let t = 10f64.powf(rng.gen_range(-2.0..0.3));
            let at = |t: f64| {
                newton_derivatives(&st, &m.eigen().values, rates, t, &ops.weights, ExpImpl::Libm)
            };
            let (lnl, d1, d2) = at(t);
            // The second difference cancels ~16 digits, so it takes a larger
            // step to keep round-off below the tolerance.
            let h1 = 1e-4 * t;
            let fd1 = (at(t + h1).0 - at(t - h1).0) / (2.0 * h1);
            assert!(
                (d1 - fd1).abs() <= 1e-5 * d1.abs().max(1.0),
                "branch {branch} (t = {t}): d1 {d1} vs finite difference {fd1}"
            );
            let h2 = 1e-2 * t;
            let fd2 = (at(t + h2).0 - 2.0 * lnl + at(t - h2).0) / (h2 * h2);
            assert!(
                (d2 - fd2).abs() <= 1e-3 * d2.abs().max(1.0),
                "branch {branch} (t = {t}): d2 {d2} vs finite difference {fd2}"
            );
        }
    }

    #[test]
    fn site_lnls_sum_to_evaluate() {
        let m = model();
        let rates = [0.5, 1.5];
        let n_rates = 2;
        let p = pmats(&m, 0.27, &rates);
        let n = 7;
        let aos: Vec<f64> = (0..n * n_rates * 4).map(|i| 0.02 + (i % 9) as f64 * 0.11).collect();
        let xv = tile_partials(&aos, n, n_rates);
        let sv = vec![2u32; n];
        let codes: Vec<u8> = vec![1, 8, 2, 4, 10, 15, 5];
        let weights: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let u = EvalOperand::Tip { codes: &codes };
        let v = EvalOperand::Inner { x: &xv, scale: &sv };
        let site = evaluate_site_lnls(&u, &v, &p, m.freqs(), n, n_rates);
        let total: f64 = site.iter().zip(&weights).map(|(s, w)| s * w).sum();
        let direct = evaluate_lnl(&u, &v, &p, m.freqs(), &weights, n_rates);
        assert!((total - direct).abs() < 1e-10, "{total} vs {direct}");
    }

    #[test]
    fn zero_weight_patterns_are_skipped() {
        let m = model();
        let p = pmats(&m, 0.2, &[1.0]);
        let codes = vec![1u8, 2];
        let x = tile_partials(&[0.5; 8], 2, 1);
        let s = vec![0u32; 2];
        let u = EvalOperand::Tip { codes: &codes };
        let v = EvalOperand::Inner { x: &x, scale: &s };
        let full = evaluate_lnl(&u, &v, &p, m.freqs(), &[1.0, 1.0], 1);
        let half = evaluate_lnl(&u, &v, &p, m.freqs(), &[1.0, 0.0], 1);
        assert!(half > full, "dropping a pattern must raise (less negative) lnl");
    }
}
