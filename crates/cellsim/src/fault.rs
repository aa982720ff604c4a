//! Deterministic fault injection for the simulated Cell.
//!
//! The paper's blade is assumed perfectly reliable: every DMA lands, every
//! mailbox message arrives, every SPE finishes its offload. A production
//! system cannot assume any of that, so the simulator can now inject faults
//! from a [`FaultPlan`]: DMA transfer failures and timeouts, dropped or
//! corrupted PPE↔SPE signals, transient SPE stalls, and permanent SPE death
//! at chosen cycle points.
//!
//! Everything is **counter-based and seed-driven**: a fault decision is a
//! pure function of `(seed, stream, index, attempt, site)`, hashed through
//! splitmix64. No RNG state is carried between draws, so any component can
//! ask "does this offload fault?" in any order and two simulations with the
//! same plan replay the exact same fault history — the property the
//! determinism tests in `tests/robustness.rs` lock down.

use crate::time::Cycles;
use obs::trace::splitmix64;

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A DMA transfer fails outright (MFC tag status reports an error).
    DmaFailure,
    /// A DMA transfer hangs and is only detected by timeout.
    DmaTimeout,
    /// A mailbox/flag signal never arrives.
    SignalDropped,
    /// A signal arrives with a corrupted payload (caught by validation).
    SignalCorrupted,
    /// The SPE stalls transiently (e.g. livelocked channel) but recovers.
    SpeStall,
    /// The SPE dies permanently.
    SpeDeath,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::DmaFailure => "dma-failure",
            FaultKind::DmaTimeout => "dma-timeout",
            FaultKind::SignalDropped => "signal-dropped",
            FaultKind::SignalCorrupted => "signal-corrupted",
            FaultKind::SpeStall => "spe-stall",
            FaultKind::SpeDeath => "spe-death",
        };
        f.write_str(s)
    }
}

/// A scheduled permanent SPE failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeDeath {
    /// Absolute SPE index on the machine.
    pub spe: usize,
    /// Simulation time at which the SPE stops responding.
    pub at: Cycles,
}

/// Capped exponential backoff between retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the first retry.
    pub base: Cycles,
    /// Upper bound on any single delay.
    pub cap: Cycles,
    /// Total attempts before the offload is given up and re-dispatched.
    pub max_attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { base: 1_000, cap: 64_000, max_attempts: 5 }
    }
}

impl Backoff {
    /// Delay charged after failed attempt `attempt` (0-based):
    /// `min(base · 2^attempt, cap)`.
    pub fn delay(&self, attempt: u32) -> Cycles {
        if attempt >= 64 {
            return self.cap;
        }
        self.base.checked_mul(1u64 << attempt).unwrap_or(self.cap).min(self.cap)
    }
}

/// A deterministic, seed-driven fault schedule.
///
/// Rates are per-*site* probabilities in `[0, 1]`: each offload attempt
/// draws once per fault category. [`FaultPlan::none`] injects nothing and
/// is guaranteed to leave every consumer bit-identical to the fault-free
/// code path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Probability that a DMA transfer attempt fails outright.
    pub dma_failure_rate: f64,
    /// Probability that a DMA transfer attempt hangs until timeout.
    pub dma_timeout_rate: f64,
    /// Probability that a signal is dropped.
    pub signal_drop_rate: f64,
    /// Probability that a signal payload is corrupted.
    pub signal_corrupt_rate: f64,
    /// Probability that a successful offload still suffers a transient stall.
    pub stall_rate: f64,
    /// Cycles lost to one transient stall.
    pub stall_cycles: Cycles,
    /// Cycles before a hung transfer / dropped signal is declared lost.
    pub detect_timeout: Cycles,
    /// Retry policy for failed attempts.
    pub backoff: Backoff,
    /// Scheduled permanent SPE deaths.
    pub deaths: Vec<SpeDeath>,
    /// Slowdown factor when offloaded work degrades to PPE-only execution
    /// (the PPE runs the scalar kernel; calibrated loosely to Table 1a's
    /// PPE-only vs offloaded gap).
    pub ppe_fallback_factor: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no probabilistic faults, no deaths. Consumers must
    /// behave bit-identically to their fault-free paths under this plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dma_failure_rate: 0.0,
            dma_timeout_rate: 0.0,
            signal_drop_rate: 0.0,
            signal_corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall_cycles: 50_000,
            detect_timeout: 20_000,
            backoff: Backoff::default(),
            deaths: Vec::new(),
            ppe_fallback_factor: 2.5,
        }
    }

    /// A plan applying `rate` uniformly to every probabilistic category.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0, 1]");
        FaultPlan {
            seed,
            dma_failure_rate: rate,
            dma_timeout_rate: rate,
            signal_drop_rate: rate,
            signal_corrupt_rate: rate,
            stall_rate: rate,
            ..FaultPlan::none()
        }
    }

    /// Add a scheduled permanent SPE death.
    pub fn with_death(mut self, spe: usize, at: Cycles) -> FaultPlan {
        self.deaths.push(SpeDeath { spe, at });
        self
    }

    /// True when the plan can never inject anything: consumers use this to
    /// short-circuit straight onto the fault-free (bit-exact) path.
    pub fn is_inert(&self) -> bool {
        self.dma_failure_rate == 0.0
            && self.dma_timeout_rate == 0.0
            && self.signal_drop_rate == 0.0
            && self.signal_corrupt_rate == 0.0
            && self.stall_rate == 0.0
            && self.deaths.is_empty()
    }

    /// A uniform draw in `[0, 1)` for the given site. `stream` identifies
    /// the drawing component (e.g. a worker id), `index` the operation
    /// within the stream, `attempt` the retry, and `salt` the category.
    fn draw(&self, stream: u64, index: u64, attempt: u32, salt: u64) -> f64 {
        let mut x = self.seed ^ salt;
        x = splitmix64(x);
        x ^= stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = splitmix64(x);
        x ^= index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= (attempt as u64).wrapping_mul(0x94d0_49bb_1331_11eb);
        let bits = splitmix64(x);
        // 53 high bits → uniform double in [0, 1).
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does this DMA transfer attempt fault, and how?
    pub fn dma_fault(&self, stream: u64, index: u64, attempt: u32) -> Option<FaultKind> {
        if self.draw(stream, index, attempt, SALT_DMA_FAIL) < self.dma_failure_rate {
            return Some(FaultKind::DmaFailure);
        }
        if self.draw(stream, index, attempt, SALT_DMA_HANG) < self.dma_timeout_rate {
            return Some(FaultKind::DmaTimeout);
        }
        None
    }

    /// Does this signal round trip fault, and how?
    pub fn signal_fault(&self, stream: u64, index: u64, attempt: u32) -> Option<FaultKind> {
        if self.draw(stream, index, attempt, SALT_SIG_DROP) < self.signal_drop_rate {
            return Some(FaultKind::SignalDropped);
        }
        if self.draw(stream, index, attempt, SALT_SIG_CORRUPT) < self.signal_corrupt_rate {
            return Some(FaultKind::SignalCorrupted);
        }
        None
    }

    /// Transient stall on an otherwise successful offload: the cycles lost,
    /// if one strikes.
    pub fn stall(&self, stream: u64, index: u64) -> Option<Cycles> {
        (self.draw(stream, index, 0, SALT_STALL) < self.stall_rate).then_some(self.stall_cycles)
    }

    /// Time at which `spe` dies permanently, if the plan schedules one.
    pub fn death_time(&self, spe: usize) -> Option<Cycles> {
        self.deaths.iter().filter(|d| d.spe == spe).map(|d| d.at).min()
    }

    /// Is `spe` dead at time `now`?
    pub fn dead_at(&self, spe: usize, now: Cycles) -> bool {
        self.death_time(spe).is_some_and(|at| at <= now)
    }

    /// Cycle cost of detecting one fault of the given kind: an outright DMA
    /// failure is reported immediately by the MFC tag status; everything
    /// else is only discovered by timeout.
    pub fn detect_cost(&self, kind: FaultKind) -> Cycles {
        match kind {
            FaultKind::DmaFailure => 0,
            _ => self.detect_timeout,
        }
    }

    /// Walk one complete offload through the fault/retry state machine:
    /// signal and DMA draws per attempt, capped exponential backoff between
    /// attempts, an optional transient stall on the successful attempt.
    ///
    /// The returned [`Recovery`] is everything a scheduler needs: how many
    /// faults were injected, how many retries were paid, the extra cycles to
    /// charge, and whether the offload exhausted its attempts (`gave_up`) —
    /// in which case the caller re-dispatches the work elsewhere.
    pub fn offload_recovery(&self, stream: u64, index: u64) -> Recovery {
        let mut rec = Recovery::default();
        if self.is_inert() {
            return rec;
        }
        for attempt in 0..self.backoff.max_attempts {
            let fault = self
                .signal_fault(stream, index, attempt)
                .or_else(|| self.dma_fault(stream, index, attempt));
            let Some(kind) = fault else {
                if let Some(stall) = self.stall(stream, index) {
                    rec.injected += 1;
                    rec.extra_cycles += stall;
                }
                return rec;
            };
            rec.injected += 1;
            if rec.first_fault.is_none() {
                rec.first_fault = Some(kind);
            }
            rec.extra_cycles += self.detect_cost(kind) + self.backoff.delay(attempt);
            if attempt + 1 == self.backoff.max_attempts {
                rec.gave_up = true;
            } else {
                rec.retries += 1;
            }
        }
        rec
    }
}

const SALT_DMA_FAIL: u64 = 0xd31a_0001;
const SALT_DMA_HANG: u64 = 0xd31a_0002;
const SALT_SIG_DROP: u64 = 0x5160_0001;
const SALT_SIG_CORRUPT: u64 = 0x5160_0002;
const SALT_STALL: u64 = 0x57a1_0001;

/// What one offload went through under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Faults injected across all attempts (including a stall, if any).
    pub injected: u32,
    /// Retries actually paid (a gave-up final attempt is not a retry).
    pub retries: u32,
    /// Extra cycles charged: detection timeouts, backoff delays, stalls.
    pub extra_cycles: Cycles,
    /// All attempts exhausted: the caller must re-dispatch the work.
    pub gave_up: bool,
    /// The first fault encountered, if any.
    pub first_fault: Option<FaultKind>,
}

/// Aggregated fault accounting for one simulation, threaded through
/// `SimOutcome` so degradation shows up next to makespans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Fault events injected.
    pub injected: u64,
    /// Offload retries paid.
    pub retries: u64,
    /// Offloads whose attempts were exhausted and had to be re-dispatched.
    pub redispatches: u64,
    /// Workers that fell back to PPE-only execution.
    pub degradations: u64,
    /// SPEs removed from service (scheduled deaths + repeat offenders).
    pub blacklisted: u64,
    /// Extra cycles charged for detection, backoff, stalls, and fallback.
    pub penalty_cycles: Cycles,
}

impl FaultReport {
    /// Accumulate another report (e.g. an MGPS tail phase) into this one.
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected += other.injected;
        self.retries += other.retries;
        self.redispatches += other.redispatches;
        self.degradations += other.degradations;
        self.blacklisted += other.blacklisted;
        self.penalty_cycles += other.penalty_cycles;
    }

    /// True when nothing at all happened.
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_inert());
        for i in 0..100 {
            assert_eq!(plan.dma_fault(0, i, 0), None);
            assert_eq!(plan.signal_fault(3, i, 1), None);
            assert_eq!(plan.stall(1, i), None);
            assert_eq!(plan.offload_recovery(0, i), Recovery::default());
        }
        assert!(!plan.dead_at(0, u64::MAX / 2));
    }

    #[test]
    fn draws_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::uniform(42, 0.3);
        let b = FaultPlan::uniform(42, 0.3);
        let c = FaultPlan::uniform(43, 0.3);
        let hist = |p: &FaultPlan| -> Vec<Recovery> {
            (0..200).map(|i| p.offload_recovery(i % 8, i)).collect()
        };
        assert_eq!(hist(&a), hist(&b), "same seed must replay identically");
        assert_ne!(hist(&a), hist(&c), "different seed must diverge");
    }

    #[test]
    fn rates_shape_the_fault_frequency() {
        let low = FaultPlan::uniform(7, 0.01);
        let high = FaultPlan::uniform(7, 0.5);
        let count =
            |p: &FaultPlan| (0..1000u64).filter(|&i| p.dma_fault(0, i, 0).is_some()).count();
        let (lo, hi) = (count(&low), count(&high));
        assert!(lo < 60, "1% rate fired {lo}/1000 times");
        assert!(hi > 500, "50% rate (two categories) fired only {hi}/1000 times");
    }

    #[test]
    fn certain_faults_exhaust_attempts() {
        let plan = FaultPlan::uniform(1, 1.0);
        let rec = plan.offload_recovery(0, 0);
        assert!(rec.gave_up);
        assert_eq!(rec.injected, plan.backoff.max_attempts);
        assert_eq!(rec.retries, plan.backoff.max_attempts - 1);
        assert!(rec.extra_cycles > 0);
        // Rate 1.0 drops every signal first: that is the recorded kind.
        assert_eq!(rec.first_fault, Some(FaultKind::SignalDropped));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let b = Backoff { base: 1_000, cap: 10_000, max_attempts: 8 };
        assert_eq!(b.delay(0), 1_000);
        assert_eq!(b.delay(1), 2_000);
        assert_eq!(b.delay(3), 8_000);
        assert_eq!(b.delay(4), 10_000, "caps at 10k");
        assert_eq!(b.delay(63), 10_000);
        assert_eq!(b.delay(200), 10_000, "oversized shifts saturate at the cap");
    }

    #[test]
    fn death_schedule_is_a_step_function() {
        let plan = FaultPlan::none().with_death(3, 1_000).with_death(3, 500).with_death(5, 2_000);
        assert!(!plan.is_inert(), "deaths make a plan non-inert");
        assert_eq!(plan.death_time(3), Some(500), "earliest death wins");
        assert_eq!(plan.death_time(4), None);
        assert!(!plan.dead_at(3, 499));
        assert!(plan.dead_at(3, 500));
        assert!(plan.dead_at(5, 2_000));
        assert!(!plan.dead_at(5, 1_999));
    }

    #[test]
    fn stall_costs_show_up_in_recovery() {
        let mut plan = FaultPlan::none();
        plan.stall_rate = 1.0;
        plan.stall_cycles = 777;
        let rec = plan.offload_recovery(2, 9);
        assert_eq!(rec.extra_cycles, 777);
        assert_eq!(rec.injected, 1);
        assert!(!rec.gave_up);
        assert_eq!(rec.retries, 0);
    }

    #[test]
    fn report_merging_accumulates() {
        let mut a =
            FaultReport { injected: 3, retries: 2, penalty_cycles: 100, ..Default::default() };
        let b = FaultReport {
            injected: 1,
            redispatches: 1,
            blacklisted: 2,
            degradations: 1,
            retries: 0,
            penalty_cycles: 50,
        };
        a.merge(&b);
        assert_eq!(a.injected, 4);
        assert_eq!(a.redispatches, 1);
        assert_eq!(a.blacklisted, 2);
        assert_eq!(a.degradations, 1);
        assert_eq!(a.penalty_cycles, 150);
        assert!(!a.is_clean());
        assert!(FaultReport::default().is_clean());
    }
}
