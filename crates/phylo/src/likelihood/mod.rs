//! The likelihood core: the three kernels RAxML-Cell offloads to the SPEs.
//!
//! * [`kernels`] — case-specialized `newview` partial-likelihood loops
//!   (paper §5.2.3: tip/tip, tip/inner, inner/inner), vectorized over site
//!   patterns (§5.2.5, Figure 2: two lanes, or four where the CPU has AVX2 —
//!   [`KernelTier`] picks, there is no setting), with the integer-cast
//!   underflow-scaling conditional (§5.2.3).
//! * [`cat`] — the CAT per-site rate approximation (fit, per-site rate
//!   estimation, CAT likelihood).
//! * [`engine`] — the [`engine::LikelihoodEngine`]: per-node partial
//!   buffers, lazy virtual-root traversal, `evaluate` and `makenewz`.
//! * [`workspace`] — preallocated [`workspace::LikelihoodWorkspace`] arenas
//!   (all hot-path buffers, allocated once and pooled across replicates)
//!   and the fused [`workspace::TraversalOps`] descriptor lists traversals
//!   compile into (the SPE DMA-list / BEAGLE operation-array analogue).
//! * [`mod@reference`] — a deliberately naive implementation used only to
//!   validate the optimized kernels.

pub mod cat;
pub mod engine;
pub mod kernels;
pub mod reference;
pub mod workspace;

pub use kernels::KernelTier;
pub use workspace::{LikelihoodWorkspace, TraversalOp, TraversalOps, WorkspaceOptions};

/// RAxML's `minlikelihood`: partials below this threshold (for every state
/// and rate category of a site) are rescaled to avoid numerical underflow.
/// The value is 2⁻²⁵⁶, so the rescaling multiplier is exactly representable.
pub const SCALE_THRESHOLD: f64 = 8.636168555094445e-78; // 2^-256

/// The rescaling multiplier 2²⁵⁶ (RAxML's `twotothe256`).
pub const SCALE_MULTIPLIER: f64 = 1.157920892373162e77; // 2^256

/// ln(2⁻²⁵⁶): each scaling event contributes this constant to the per-site
/// log-likelihood.
pub const LN_SCALE: f64 = -177.445_678_223_346; // -256 · ln 2

/// Pattern-block width of the tiled CLV layout: partials are stored in
/// blocks of `TILE` site patterns so that a kernel of any lane count that
/// divides it reads full lanes from one contiguous tile row.
pub const TILE: usize = 8;

/// Runtime configuration of the likelihood engine: the two settings that
/// change results or threads. The kernels' lane width follows the CPU
/// ([`KernelTier::probe`]) and the scaling conditional has one form, so
/// neither is a setting; both are bit-neutral.
///
/// Two named profiles matter (DESIGN.md, "Profiles"): [`Self::optimized`],
/// the fastest choices on this host and the `Default`, and [`Self::cell`],
/// the Cell-optimal choices the simulated tables and the search goldens pin.
/// They differ in `exp_impl` only, which changes log-likelihood bits;
/// `parallel` threads/stripes do not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LikelihoodConfig {
    /// libm vs SDK-style exponential (§5.2.2).
    pub exp_impl: crate::model::ExpImpl,
    /// Loop-level parallelism over site patterns (the RAxML-OMP analogue;
    /// the paper's third parallelism layer).
    pub parallel: bool,
}

impl Default for LikelihoodConfig {
    fn default() -> LikelihoodConfig {
        LikelihoodConfig::optimized()
    }
}

impl LikelihoodConfig {
    /// The host profile: what measures fastest on the machines this runs on
    /// (sequential). libm `exp` — 34 ns per P matrix against 88 ns for the
    /// SDK-style polynomial.
    pub fn optimized() -> LikelihoodConfig {
        LikelihoodConfig { exp_impl: crate::model::ExpImpl::Libm, parallel: false }
    }

    /// The Cell profile: the paper's final SPE configuration — SDK-style
    /// `exp` (§5.2.2); the vector loops (§5.2.5) and integer-cast scaling
    /// conditional (§5.2.3) are what every profile runs. Everything whose
    /// recorded output must not move with a host `exp` choice sets it
    /// explicitly: the kernel-trace capture the Cell model prices, and the
    /// search goldens.
    pub fn cell() -> LikelihoodConfig {
        LikelihoodConfig { exp_impl: crate::model::ExpImpl::Sdk, ..LikelihoodConfig::optimized() }
    }

    /// Vestigial: the same configuration as [`Self::optimized`], since the
    /// lane width and the scaling conditional are no longer settings. It
    /// survives only because the standalone `benchmark/` package still calls
    /// it (its search and wide-scoring workloads re-score under it); it goes
    /// when that package stops calling it.
    pub fn baseline() -> LikelihoodConfig {
        LikelihoodConfig::optimized()
    }
}
