//! Bridge from the inference farm's observer events to the `cellsim`
//! structured trace log.
//!
//! Layering: `phylo` cannot depend on `cellsim`, so the farm exposes the
//! neutral [`phylo::farm::FarmObserver`] trait and this crate adapts it —
//! farm-tier runs export the same Chrome-trace / JSONL metric artifacts as
//! the simulator (`paper traces`-grade observability for the task tier).
//!
//! The farm timestamps events in wall nanoseconds; the trace log speaks
//! simulated cycles. The tracer converts at a caller-chosen `clock_hz` —
//! pass `1e9` to record wall nanoseconds as "cycles" 1:1, which keeps the
//! exporters' cycles→seconds conversion exact.

use cellsim::tracelog::TraceLog;
use phylo::farm::{FarmEvent, FarmObserver, FarmStats};

/// A [`FarmObserver`] that forwards farm events into a [`TraceLog`]:
/// job lifecycles become Task events, failures land in the fault lane,
/// steals and the end-of-run aggregates become counters.
#[derive(Debug)]
pub struct FarmTracer<'a> {
    log: &'a mut TraceLog,
    clock_hz: f64,
    steals: u64,
}

impl<'a> FarmTracer<'a> {
    /// Record farm events into `log`, converting nanosecond timestamps to
    /// cycles at `clock_hz` (use `1e9` for 1 cycle = 1 ns).
    pub fn new(log: &'a mut TraceLog, clock_hz: f64) -> FarmTracer<'a> {
        FarmTracer { log, clock_hz, steals: 0 }
    }

    fn cycles(&self, at_nanos: u64) -> u64 {
        (at_nanos as f64 * self.clock_hz / 1e9) as u64
    }

    /// Emit the run's aggregate counters and consume the tracer. Call after
    /// `run_farm` returns, with the outcome's stats.
    pub fn finish(self, stats: &FarmStats) {
        let at = self.cycles(stats.elapsed_nanos);
        self.log.counter(at, "farm_jobs", stats.n_jobs as f64);
        self.log.counter(at, "farm_failed", stats.n_failed as f64);
        self.log.counter(at, "farm_steals", stats.steals as f64);
        self.log.counter(at, "farm_max_in_flight", stats.max_in_flight as f64);
        self.log.counter(at, "farm_workers_died", stats.workers_died as f64);
        self.log.counter(at, "farm_jobs_per_sec", stats.jobs_per_sec());
    }
}

/// Mirror every [`TraceLog`] counter's latest value into same-named gauges
/// in `registry` — the bridge from the simulator's cycle-domain telemetry
/// to the wall-clock metrics exporters, so one Prometheus scrape or JSONL
/// snapshot carries both domains. Reads the log's per-name counter index
/// ([`TraceLog::counters_snapshot`]), not the event buffer, so a per-scrape
/// call stays O(distinct counters) regardless of trace length.
///
/// Gauges (not counters) because trace counters are snapshots of
/// already-aggregated values — `farm_jobs_per_sec` is a rate, re-emitted
/// values overwrite — and because the registry's own farm counters use the
/// `_total` suffix, so the two namespaces cannot collide in kind.
pub fn bridge_counters_to_gauges(log: &TraceLog, registry: &obs::Registry) {
    if !registry.is_enabled() {
        return;
    }
    for &(name, value) in log.counters_snapshot() {
        registry.gauge(name).set(value);
    }
}

impl FarmObserver for FarmTracer<'_> {
    fn on_event(&mut self, event: FarmEvent) {
        match event {
            FarmEvent::JobStarted { at_nanos, worker, job, .. } => {
                self.log.task_start(self.cycles(at_nanos), worker, job);
            }
            FarmEvent::JobCompleted { at_nanos, worker, job, ok, .. } => {
                let at = self.cycles(at_nanos);
                if !ok {
                    self.log.task_failed(at, worker);
                }
                self.log.task_complete(at, worker, job);
            }
            FarmEvent::JobSealed { at_nanos, job, .. } => {
                // The in-order seal frontier: job indices are sealed 0..n,
                // so the latest sealed index is a monotone progress counter.
                self.log.counter(self.cycles(at_nanos), "farm_sealed", (job + 1) as f64);
            }
            FarmEvent::JobStolen { at_nanos, .. } => {
                self.steals += 1;
                self.log.counter(self.cycles(at_nanos), "farm_steals", self.steals as f64);
            }
            FarmEvent::WorkerDied { at_nanos, worker } => {
                self.log.fault(self.cycles(at_nanos), "worker-death", worker);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::tracelog::{validate_json, validate_jsonl, EventData};
    use phylo::farm::{run_farm, FarmConfig, FarmFaultPlan};

    #[test]
    fn tracer_records_coherent_task_lifecycles() {
        let mut log = TraceLog::enabled();
        let mut tracer = FarmTracer::new(&mut log, 1e9);
        let config = FarmConfig::new(2).with_fault(FarmFaultPlan::none().fail_job(3));
        let outcome = run_farm(
            &config,
            (0..12u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut tracer),
            |_, _| {},
        );
        tracer.finish(&outcome.stats);

        let starts =
            log.events().iter().filter(|e| matches!(e.data, EventData::TaskStart { .. })).count();
        let completes = log
            .events()
            .iter()
            .filter(|e| matches!(e.data, EventData::TaskComplete { .. }))
            .count();
        assert_eq!(starts, 12);
        assert_eq!(completes, 12);
        // The injected failure shows up in the fault lane…
        assert_eq!(log.summary(0).faults, 1);
        // …and in the aggregate counters.
        assert_eq!(log.last_counter("farm_failed"), Some(1.0));
        assert_eq!(log.last_counter("farm_jobs"), Some(12.0));
        assert!(log.last_counter("farm_jobs_per_sec").unwrap() > 0.0);

        // Both exporters must produce parseable artifacts.
        validate_json(&log.to_chrome_trace(1e9)).unwrap();
        validate_jsonl(&log.to_metrics_jsonl(1e9, 0)).unwrap();
    }

    #[test]
    fn counters_bridge_into_registry_gauges() {
        let mut log = TraceLog::enabled();
        log.counter(10, "farm_jobs", 12.0);
        log.counter(20, "farm_jobs_per_sec", 340.5);
        log.counter(30, "farm_jobs", 24.0);

        let registry = obs::Registry::new(true);
        bridge_counters_to_gauges(&log, &registry);
        assert_eq!(registry.gauge("farm_jobs").get(), 24.0, "latest value wins");
        assert_eq!(registry.gauge("farm_jobs_per_sec").get(), 340.5);

        // A disabled registry is left untouched.
        let off = obs::Registry::new(false);
        bridge_counters_to_gauges(&log, &off);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn disabled_log_stays_inert_under_farm_events() {
        let mut log = TraceLog::disabled();
        let mut tracer = FarmTracer::new(&mut log, 1e9);
        let outcome = run_farm(
            &FarmConfig::new(2),
            (0..5u32).collect::<Vec<_>>(),
            |_| (),
            |(), _, j| j,
            Some(&mut tracer),
            |_, _| {},
        );
        tracer.finish(&outcome.stats);
        assert!(log.is_empty());
    }
}
