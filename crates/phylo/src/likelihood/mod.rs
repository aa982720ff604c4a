//! The likelihood core: the three kernels RAxML-Cell offloads to the SPEs.
//!
//! * [`kernels`] — case-specialized `newview` partial-likelihood loops
//!   (paper §5.2.3: tip/tip, tip/inner, inner/inner), in scalar and
//!   vectorized form (§5.2.5, Figure 2: two lanes, or four where the CPU has
//!   AVX2 — [`KernelTier`]), with both the floating-point and the
//!   integer-cast underflow-scaling conditional (§5.2.3).
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

/// Which arithmetic formulation the `newview` loops use. Lanes map to
/// *patterns* (never to states), so both kinds perform the identical
/// per-pattern operation sequence and are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// One pattern at a time in portable code, whatever the CPU (the
    /// paper's starting point, and the tests' reference).
    Scalar,
    /// The widest lanes this CPU has ([`KernelTier::probe`]): four patterns
    /// per AVX2 register, else two per 128-bit register as on the SPE
    /// (paper Figure 2).
    #[default]
    Vector,
}

/// How the underflow-scaling conditional is evaluated (paper §5.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalingCheck {
    /// `ABS(x) < minlikelihood` on doubles — 8 hard-to-predict conditions.
    FloatCompare,
    /// Reinterpret the (positive) doubles as unsigned integers and compare
    /// those: IEEE-754 doubles of one sign are lexicographically ordered by
    /// their bit patterns, so the outcome is identical and branch-friendly.
    #[default]
    IntegerCast,
}

/// Runtime configuration of the likelihood engine — every switch corresponds
/// to one of the paper's optimizations so each can be measured independently.
///
/// Two named profiles matter (DESIGN.md, "Profiles"): [`Self::optimized`],
/// the fastest choices on this host and the `Default`, and [`Self::cell`],
/// the Cell-optimal choices the simulated tables and the search goldens pin.
/// They differ in `exp_impl` only, which changes log-likelihood bits; lane
/// type, scaling conditional and `parallel` threads/stripes do not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LikelihoodConfig {
    /// libm vs SDK-style exponential (§5.2.2).
    pub exp_impl: crate::model::ExpImpl,
    /// Scalar vs vectorized likelihood loops (§5.2.5).
    pub kernel: KernelKind,
    /// Float vs integer-cast scaling conditional (§5.2.3).
    pub scaling: ScalingCheck,
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
    /// SDK-style polynomial; the widest lanes the CPU has; the integer-cast
    /// conditional stays because the float compare measures within noise of
    /// it.
    pub fn optimized() -> LikelihoodConfig {
        LikelihoodConfig { exp_impl: crate::model::ExpImpl::Libm, ..LikelihoodConfig::cell() }
    }

    /// The Cell profile: the paper's final SPE configuration — SDK-style
    /// `exp` (§5.2.2), vector loops (§5.2.5; bit-identical at any lane
    /// count), integer-cast scaling conditional (§5.2.3). Everything whose
    /// recorded output must not move with a host `exp` choice sets it
    /// explicitly: the kernel-trace capture the Cell model prices, and the
    /// search goldens.
    pub fn cell() -> LikelihoodConfig {
        LikelihoodConfig {
            exp_impl: crate::model::ExpImpl::Sdk,
            kernel: KernelKind::Vector,
            scaling: ScalingCheck::IntegerCast,
            parallel: false,
        }
    }

    /// The unoptimized baseline (what the naive Cell port ran).
    pub fn baseline() -> LikelihoodConfig {
        LikelihoodConfig {
            exp_impl: crate::model::ExpImpl::Libm,
            kernel: KernelKind::Scalar,
            scaling: ScalingCheck::FloatCompare,
            parallel: false,
        }
    }
}
