//! The open-loop arrival schedule and its bookkeeping.
//!
//! Jobs are due on a fixed schedule whatever the service does. A latency
//! runs from the job's *due* time ([`Schedule::due`], the origin the load
//! generator stamps on every job) to the poll that first saw it terminal,
//! so a stall that delays later submissions is charged to them (no
//! coordinated omission), and how late the generator itself ran is
//! reported beside it, so a slow generator is not read as a slow service.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, jobs_per_second: f64) -> Schedule {
        Schedule { start, interval: Duration::from_secs_f64(1.0 / jobs_per_second) }
    }

    /// When job `index` is due.
    pub fn due(&self, index: u64) -> Instant {
        self.start + self.interval.mul_f64(index as f64)
    }

    /// Jobs due strictly before `seconds` have passed.
    pub fn jobs_within(&self, seconds: f64) -> u64 {
        (seconds / self.interval.as_secs_f64()).ceil().max(1.0) as u64
    }
}

/// What the generator recorded for one job.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub index: u64,
    /// When the submit frame was written.
    pub sent_at: Instant,
    /// When the admission reply arrived.
    pub acked_at: Instant,
}

/// Milliseconds from `from` to `to`; 0 when `to` is the earlier one.
pub fn elapsed_ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl Schedule {
    /// How long after its due time the generator wrote the submission.
    pub fn late_ms(&self, sent: &Sent) -> f64 {
        elapsed_ms(self.due(sent.index), sent.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_schedule_not_the_service() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 10.0);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(25), start + Duration::from_millis(2500));
        assert_eq!(schedule.jobs_within(25.0), 250);
        assert_eq!(schedule.jobs_within(0.0), 1);
    }

    #[test]
    fn latency_is_stamped_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 10.0);
        // Job 3 is due at 300 ms. The generator was stalled and wrote it at
        // 450 ms; the service answered at 460 ms and a poll saw it done at
        // 520 ms. The client waited 220 ms, not 70.
        let at = |ms: u64| start + Duration::from_millis(ms);
        let sent = Sent { index: 3, sent_at: at(450), acked_at: at(460) };
        assert!((elapsed_ms(schedule.due(3), at(520)) - 220.0).abs() < 1e-9);
        assert!((schedule.late_ms(&sent) - 150.0).abs() < 1e-9);
        assert_eq!(sent.acked_at.duration_since(sent.sent_at), Duration::from_millis(10));
    }

    #[test]
    fn lateness_is_never_negative() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 100.0);
        let at = |ms: u64| start + Duration::from_millis(ms);
        // Written exactly on time, 4 ms late, and (clock granularity) a
        // hair early: early counts as on time.
        let late: Vec<f64> = [(0, 0), (1, 14), (2, 20), (10, 99)]
            .into_iter()
            .map(|(index, written)| {
                let sent = Sent { index, sent_at: at(written), acked_at: at(written + 1) };
                schedule.late_ms(&sent)
            })
            .collect();
        assert_eq!(late, vec![0.0, 4.0, 0.0, 0.0]);
        assert_eq!(elapsed_ms(schedule.due(10), at(130)), 30.0);
    }
}
