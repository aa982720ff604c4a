//! # phylo — maximum-likelihood phylogenetic inference
//!
//! A from-scratch Rust implementation of an RAxML-class maximum-likelihood
//! (ML) phylogenetic tree inference engine, built as the application substrate
//! for reproducing *"RAxML-Cell: Parallel Phylogenetic Tree Inference on the
//! Cell Broadband Engine"* (Blagojevic et al., IPPS 2007).
//!
//! The crate provides everything a real phylogenetic analysis needs:
//!
//! * **Data**: DNA alignments with IUPAC ambiguity codes, site-pattern
//!   compression, FASTA/PHYLIP/Newick I/O ([`alphabet`], [`alignment`],
//!   [`io`]).
//! * **Models**: time-reversible nucleotide substitution models (JC69, HKY85,
//!   GTR) with Γ-distributed and CAT rate heterogeneity ([`model`]).
//! * **Likelihood**: the three kernels the paper offloads to the Cell SPEs —
//!   `newview` (partial likelihood vectors, four case-specialized paths),
//!   `evaluate` (log-likelihood at a branch), and `makenewz` (Newton–Raphson
//!   branch-length optimization) — in scalar and vectorized form, four
//!   patterns per register where the CPU has AVX2, else two ([`likelihood`]).
//! * **Search**: randomized stepwise-addition parsimony starting trees and
//!   SPR-based rapid hill climbing ([`search`]).
//! * **Analyses**: multiple inferences, non-parametric bootstrapping, and
//!   bipartition support values ([`bootstrap`]).
//! * **Parallelism**: loop-level parallelism over site patterns (the
//!   RAxML-OMP analogue: a thread owns a pattern stripe for a whole
//!   traversal, and reductions are bit-reproducible; [`parallel`]),
//!   and a one-queue inference farm for embarrassingly parallel
//!   replicates — bounded submission, deterministic result order, typed
//!   per-job failures ([`farm`]).
//! * **Instrumentation**: a kernel-invocation trace ([`trace`]) consumed by
//!   the `cellsim` crate to replay workloads on the simulated Cell.
//! * **Workloads**: a sequence-evolution simulator generating the `42_SC`
//!   equivalent dataset used throughout the paper ([`simulate`]).
//! * **Proteins**: 20-state amino-acid likelihoods — the Poisson model,
//!   PAML-format empirical matrices, and a general-N evaluator
//!   ([`protein`]).
//!
//! ## Quick start
//!
//! ```
//! use phylo::prelude::*;
//!
//! // Generate a small synthetic dataset (8 taxa, 300 sites).
//! let workload = phylo::simulate::SimulationConfig::new(8, 300, 42).generate();
//! let alignment = workload.alignment;
//!
//! // Infer a maximum-likelihood tree.
//! let request = InferenceRequest::new(SearchConfig::fast(), 1);
//! let result = run_inference(&alignment, &request, InferenceOptions::new()).unwrap().result;
//! assert!(result.log_likelihood.is_finite());
//! println!("best tree: {}", result.tree.to_newick(&alignment.taxon_names()));
//! ```

// Indexed loops over the 4-state arrays mirror the kernel mathematics
// (states, rate categories, eigenvalues); iterator adaptors would obscure
// the correspondence with the paper's loop structure.
#![allow(clippy::needless_range_loop)]
// The crate's only `unsafe` is the AVX2 lane type in `likelihood::kernels`;
// nothing may hide an unsafe operation inside an `unsafe fn`'s body.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod alignment;
pub mod alphabet;
pub mod bipartitions;
pub mod bootstrap;
pub mod checkpoint;
pub mod error;
pub mod farm;
pub mod io;
pub mod likelihood;
pub mod math;
pub mod model;
pub mod parallel;
pub mod protein;
pub mod search;
pub mod simulate;
pub mod trace;
pub mod tree;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::alignment::{Alignment, PatternAlignment};
    pub use crate::alphabet::{encode_base, DnaCode};
    pub use crate::bipartitions::robinson_foulds;
    pub use crate::bootstrap::{
        AnalysisResult, BootstrapAnalysis, BootstrapCheckpointPolicy, SupportTree,
    };
    pub use crate::checkpoint::{BootstrapStore, SearchCheckpointer};
    pub use crate::error::PhyloError;
    pub use crate::farm::{
        run_batch, run_farm, FarmConfig, FarmError, FarmEvent, FarmFaultPlan, FarmObserver,
        FarmOutcome, FarmStats,
    };
    pub use crate::io::{parse_fasta, parse_newick, parse_phylip, write_phylip};
    pub use crate::likelihood::engine::LikelihoodEngine;
    pub use crate::likelihood::{
        LikelihoodConfig, LikelihoodWorkspace, TraversalOps, WorkspaceOptions,
    };
    pub use crate::model::{GammaRates, SubstModel};
    pub use crate::search::{
        run_inference, InferenceOptions, InferenceOutcome, InferenceRequest, SearchConfig,
        SearchConfigBuilder, SearchResult,
    };
    pub use crate::simulate::SimulationConfig;
    pub use crate::trace::Trace;
    pub use crate::tree::{NodeId, Tree};
}
