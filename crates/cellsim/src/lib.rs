//! # cellsim — a Cell Broadband Engine performance simulator
//!
//! The RAxML-Cell paper (Blagojevic et al., IPPS 2007) runs on a real
//! dual-Cell blade. This crate is the reproduction's hardware substitute: a
//! performance model of one Cell processor (a 2-way SMT PPE running the
//! control program, eight SPEs), kept to the parts a printed number or an
//! architecture rule needs —
//!
//! * a calibrated per-operation cycle cost model ([`cost`]) that prices
//!   real kernel-invocation traces recorded by the `phylo` crate,
//! * what it charges: MFC DMA stream stalls, blocking or double-buffered,
//!   next to the architecture's transfer size/alignment/list rules
//!   ([`dma`]); PPE↔SPE signalling via mailboxes or direct
//!   memory-to-memory writes ([`comm`]); Element Interconnect Bus
//!   contention under its 204.8 GB/s aggregate bandwidth ([`eib`]); code
//!   overlay residency ([`overlay`]),
//! * the 256 KB software-managed local-store budget ([`localstore`]),
//! * the deterministic fault plan ([`fault`]), utilization accounting
//!   ([`stats`]) and event log ([`tracelog`]) the scheduler simulation in
//!   `raxml-cell` runs on.
//!
//! The simulator does **not** execute SPE code; it *prices* the actual
//! likelihood workload. The `phylo` engine records every `newview` /
//! `evaluate` / `makenewz` invocation with its true operation counts
//! (patterns, rate categories, `exp` calls, scaling conditionals, DMA
//! bytes); [`cost::CostModel::kernel_cost`] converts each invocation into
//! cycles under a given optimization configuration. Scheduling (which SPE
//! runs what, when) is simulated by the `raxml-cell` crate.
//!
//! ## Calibration
//!
//! Cost constants are calibrated once against the component measurements the
//! paper publishes for the `42_SC` workload (§5.2.1–5.2.7): libm `exp` = 50%
//! of naive SPE time, the scaling conditional = 45% of `newview`, DMA wait =
//! 11.4%, the two likelihood loops 69.4% → 57% after vectorization, and the
//! per-optimization deltas of Tables 1–7. See [`cost`] for the derivations.

pub mod comm;
pub mod cost;
pub mod dma;
pub mod eib;
pub mod fault;
pub mod localstore;
pub mod overlay;
pub mod stats;
pub mod time;
pub mod tracelog;

pub use comm::SignalKind;
pub use cost::{CondKind, CostModel, ExecutionFlags, ExpKind, KernelCost, Location};
pub use fault::{FaultKind, FaultPlan, FaultReport, SpeDeath};
pub use time::Cycles;
pub use tracelog::{EventData, TraceEvent, TraceLog, TraceSummary};
