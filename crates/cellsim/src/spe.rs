//! Per-SPE state: local store, run state, and the decrementer.
//!
//! The paper measures SPE-side time with the decrementer register
//! (§5.2.1: "We used the SPE decrementer register to measure the time spent
//! in the SPE thread by newview()"). The decrementer is a 32-bit counter
//! that counts *down* at the timebase rate and wraps; measuring an interval
//! means writing a start value, running, reading, and subtracting — exactly
//! what [`Decrementer::elapsed`] models, wrap-around included.

use crate::comm::Channel;
use crate::localstore::LocalStore;
use crate::time::Cycles;

/// The SPE decrementer: a 32-bit down-counter driven by the timebase.
///
/// On real hardware the decrementer ticks at the timebase frequency
/// (14.318 MHz on the paper's blades), not the core clock; `ticks_per_cycle`
/// captures that ratio.
#[derive(Debug, Clone, Copy)]
pub struct Decrementer {
    /// Value written at start.
    start_value: u32,
    /// Simulation time of the write.
    written_at: Cycles,
    /// Decrementer ticks per core cycle (< 1).
    ticks_per_cycle: f64,
}

impl Decrementer {
    /// Timebase/clock ratio of the paper's blade: 14.318 MHz / 3.2 GHz.
    pub const CELL_TICKS_PER_CYCLE: f64 = 14.318e6 / 3.2e9;

    /// Write the decrementer at simulation time `now`.
    pub fn write(value: u32, now: Cycles) -> Decrementer {
        Decrementer {
            start_value: value,
            written_at: now,
            ticks_per_cycle: Self::CELL_TICKS_PER_CYCLE,
        }
    }

    /// A decrementer with an explicit tick ratio (for tests).
    pub fn with_ratio(value: u32, now: Cycles, ticks_per_cycle: f64) -> Decrementer {
        Decrementer { start_value: value, written_at: now, ticks_per_cycle }
    }

    /// Current register value at simulation time `now` (wrapping).
    pub fn read(&self, now: Cycles) -> u32 {
        let ticks = ((now - self.written_at) as f64 * self.ticks_per_cycle) as u64;
        self.start_value.wrapping_sub((ticks % (1u64 << 32)) as u32)
    }

    /// Elapsed ticks between the write and `now`, reconstructed the way
    /// measurement code does: `start − read`, wrap-safe for intervals
    /// shorter than one full wrap.
    pub fn elapsed(&self, now: Cycles) -> u32 {
        self.start_value.wrapping_sub(self.read(now))
    }

    /// Convert elapsed ticks back to core cycles.
    pub fn ticks_to_cycles(&self, ticks: u32) -> Cycles {
        (ticks as f64 / self.ticks_per_cycle) as Cycles
    }
}

/// Attempt to use an SPE that has died permanently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeDead {
    /// Index of the dead SPE.
    pub id: usize,
}

impl std::fmt::Display for SpeDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SPE{} is dead", self.id)
    }
}

impl std::error::Error for SpeDead {}

/// One Synergistic Processing Element.
#[derive(Debug, Clone)]
pub struct Spe {
    /// Index on the chip (0–7).
    pub id: usize,
    /// The 256 KB software-managed local store.
    pub local_store: LocalStore,
    /// PPE↔SPE signalling channel state.
    pub channel: Channel,
    /// Busy horizon: the SPE is executing until this simulation time.
    busy_until: Cycles,
    /// Total busy cycles accumulated.
    busy_total: Cycles,
    /// Cycles lost to transient stalls (not useful work).
    stalled_total: Cycles,
    /// Tasks executed.
    tasks: u64,
    /// False once the SPE has died permanently.
    alive: bool,
}

impl Spe {
    /// A fresh SPE with an empty Cell-sized local store.
    pub fn new(id: usize) -> Spe {
        Spe {
            id,
            local_store: LocalStore::cell(),
            channel: Channel::default(),
            busy_until: 0,
            busy_total: 0,
            stalled_total: 0,
            tasks: 0,
            alive: true,
        }
    }

    /// Is the SPE executing at time `now`?
    pub fn is_busy(&self, now: Cycles) -> bool {
        now < self.busy_until
    }

    /// Is the SPE still in service?
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kill the SPE permanently: it accepts no further tasks.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Start a task of the given duration at time `now` (which must not be
    /// before the current busy horizon) and return its completion time. A
    /// dead SPE returns [`SpeDead`] instead of accepting work. Overlapping
    /// tasks panic: that is a scheduler bug, not a runtime condition.
    pub fn try_run_task(&mut self, now: Cycles, duration: Cycles) -> Result<Cycles, SpeDead> {
        if !self.alive {
            return Err(SpeDead { id: self.id });
        }
        assert!(
            now >= self.busy_until,
            "SPE{} is busy until {} (asked to start at {now})",
            self.id,
            self.busy_until
        );
        self.busy_until = now + duration;
        self.busy_total += duration;
        self.tasks += 1;
        Ok(self.busy_until)
    }

    /// A transient stall at time `now`: pushes the busy horizon out by
    /// `cycles` without counting the time as useful work. Returns the new
    /// horizon.
    pub fn stall(&mut self, now: Cycles, cycles: Cycles) -> Cycles {
        self.busy_until = self.busy_until.max(now) + cycles;
        self.stalled_total += cycles;
        self.busy_until
    }

    /// Cycles lost to transient stalls.
    pub fn stalled_total(&self) -> Cycles {
        self.stalled_total
    }

    /// Completion time of the current task (or the last one).
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Accumulated busy cycles.
    pub fn busy_total(&self) -> Cycles {
        self.busy_total
    }

    /// Number of tasks executed.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: Cycles) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy_total as f64 / horizon as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decrementer_counts_down() {
        let d = Decrementer::with_ratio(1000, 0, 0.5);
        assert_eq!(d.read(0), 1000);
        assert_eq!(d.read(100), 950); // 100 cycles × 0.5 ticks/cycle
        assert_eq!(d.elapsed(100), 50);
        assert_eq!(d.ticks_to_cycles(50), 100);
    }

    #[test]
    fn decrementer_wraps_like_hardware() {
        // Start near zero: the register wraps below zero but the interval
        // reconstruction still works.
        let d = Decrementer::with_ratio(10, 0, 1.0);
        assert_eq!(d.read(5), 5);
        assert_eq!(d.read(15), u32::MAX - 4); // wrapped
        assert_eq!(d.elapsed(15), 15, "interval survives the wrap");
    }

    #[test]
    fn decrementer_interval_aliases_modulo_one_full_wrap() {
        // The 32-bit interval path: elapsed() reconstructs `start − read`,
        // which is exact for intervals < 2³² ticks and aliases modulo 2³²
        // beyond that — exactly how the hardware register behaves.
        let d = Decrementer::with_ratio(100, 0, 1.0);
        let wrap = 1u64 << 32;

        // One tick short of a full wrap: still measurable.
        assert_eq!(d.elapsed(wrap - 1), u32::MAX);
        // Exactly one full wrap: the register is back at its start value and
        // the measured interval collapses to zero.
        assert_eq!(d.read(wrap), 100);
        assert_eq!(d.elapsed(wrap), 0);
        // Past one wrap: only the remainder is visible.
        assert_eq!(d.read(wrap + 7), 93);
        assert_eq!(d.elapsed(wrap + 7), 7);
        // Several wraps behave the same: 3·2³² + 12345 → 12345.
        assert_eq!(d.elapsed(3 * wrap + 12_345), 12_345);
    }

    #[test]
    fn decrementer_wrap_interval_with_fractional_tick_ratio() {
        // At the real timebase ratio a wrap takes 2³² / ratio core cycles;
        // the tick count must still reduce modulo 2³².
        let ratio = Decrementer::CELL_TICKS_PER_CYCLE;
        let d = Decrementer::write(5, 0);
        let cycles_per_wrap = ((1u64 << 32) as f64 / ratio) as Cycles;
        let ticks_past = 1_000u64;
        let now = cycles_per_wrap + (ticks_past as f64 / ratio) as Cycles;
        let elapsed = d.elapsed(now) as u64;
        // Float rounding in the tick conversion allows a few ticks of slop,
        // but the measured interval must be the post-wrap remainder, not the
        // ~4.3-billion-tick true interval.
        assert!(
            elapsed.abs_diff(ticks_past) < 5,
            "expected ≈{ticks_past} ticks after one wrap, got {elapsed}"
        );
    }

    #[test]
    fn cell_ratio_measures_microseconds() {
        // 3200 cycles = 1 µs at 3.2 GHz ≈ 14.3 decrementer ticks.
        let d = Decrementer::write(u32::MAX, 0);
        let ticks = d.elapsed(3200);
        assert!((14..=15).contains(&ticks), "ticks = {ticks}");
        // Round-trip back to cycles is within one tick's resolution.
        let cycles = d.ticks_to_cycles(ticks);
        assert!((cycles as i64 - 3200).unsigned_abs() < 250, "cycles = {cycles}");
    }

    #[test]
    fn spe_task_accounting() {
        let mut spe = Spe::new(3);
        assert!(!spe.is_busy(0));
        let done = spe.try_run_task(100, 50).unwrap();
        assert_eq!(done, 150);
        assert!(spe.is_busy(120));
        assert!(!spe.is_busy(150));
        spe.try_run_task(200, 25).unwrap();
        assert_eq!(spe.busy_total(), 75);
        assert_eq!(spe.tasks(), 2);
        assert!((spe.utilization(300) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "is busy until")]
    fn spe_rejects_overlapping_tasks() {
        let mut spe = Spe::new(0);
        spe.try_run_task(0, 100).unwrap();
        let _ = spe.try_run_task(50, 10);
    }

    #[test]
    fn dead_spe_refuses_work() {
        let mut spe = Spe::new(2);
        assert!(spe.is_alive());
        assert_eq!(spe.try_run_task(0, 10), Ok(10));
        spe.kill();
        assert!(!spe.is_alive());
        assert_eq!(spe.try_run_task(20, 10), Err(SpeDead { id: 2 }));
        assert_eq!(spe.tasks(), 1, "the rejected task must not be counted");
    }

    #[test]
    fn stalls_extend_the_horizon_without_counting_as_work() {
        let mut spe = Spe::new(1);
        spe.try_run_task(0, 100).unwrap();
        assert_eq!(spe.stall(50, 30), 130, "stall extends the current task");
        assert_eq!(spe.stall(500, 20), 520, "idle stall starts from now");
        assert_eq!(spe.busy_total(), 100);
        assert_eq!(spe.stalled_total(), 50);
        assert!(spe.is_busy(510));
    }

    #[test]
    fn spe_local_store_is_full_size() {
        let spe = Spe::new(1);
        assert_eq!(spe.local_store.capacity(), 256 * 1024);
        assert_eq!(spe.local_store.used(), 0);
    }
}
