//! Simulated time: cycle counts and second conversions.

/// A point in (or span of) simulated time, in processor cycles.
pub type Cycles = u64;

/// Convert a cycle count to seconds at a given clock.
#[inline]
pub fn cycles_to_seconds(cycles: Cycles, clock_hz: f64) -> f64 {
    cycles as f64 / clock_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: f64 = 3.2e9; // the Cell's 3.2 GHz

    #[test]
    fn cycles_convert_to_seconds_at_the_clock() {
        assert!((cycles_to_seconds(3_200_000_000, CLOCK) - 1.0).abs() < 1e-12);
        assert!((cycles_to_seconds(1_600_000_000, CLOCK) - 0.5).abs() < 1e-12);
    }
}
