//! # raxml-cell — the paper's contribution, reproduced
//!
//! This crate reproduces the porting-and-optimization study of *"RAxML-Cell:
//! Parallel Phylogenetic Tree Inference on the Cell Broadband Engine"*
//! (Blagojevic et al., IPPS 2007) on top of the two substrates built for it:
//!
//! * [`phylo`] — the RAxML-class maximum-likelihood inference engine whose
//!   kernels (`newview`, `makenewz`, `evaluate`) are the offload targets;
//! * [`cellsim`] — the Cell Broadband Engine performance model.
//!
//! The pieces:
//!
//! * [`config`] — the paper's optimization ladder (§5.2): PPE-only → naive
//!   `newview` offload → +SDK exp → +integer-cast conditionals → +double
//!   buffering → +vectorization → +direct memory communication → all three
//!   functions offloaded.
//! * [`offload`] — maps every kernel invocation of a real inference trace
//!   onto the simulated machine under a given ladder level.
//! * [`sched`] — the scheduling models: synchronous workers (the naive MPI
//!   port), EDTLP (event-driven task-level parallelism, §5.3), LLP
//!   (loop-level parallelism across SPEs) and MGPS (the dynamic multi-grain
//!   scheduler).
//! * [`platform`] — the IBM Power5 and Intel Xeon comparison platforms of
//!   §6 (Figure 3).
//! * [`experiment`] — end-to-end drivers that regenerate every table and
//!   figure of the paper from a real captured workload trace.
//! * [`error`] — the [`ExperimentError`] type every driver returns instead
//!   of panicking; the table/figure binaries print it and exit nonzero.
//! * [`report`] — the paper's published numbers and table formatting.

pub mod config;
pub mod error;
pub mod experiment;
pub mod offload;
pub mod platform;
pub mod report;
pub mod sched;

pub use config::{OffloadStage, OptConfig, Scheduler};
pub use error::ExperimentError;
pub use experiment::{capture_workload, Workload, WorkloadSpec};
