//! PPE↔SPE signalling: mailboxes vs direct memory-to-memory writes.
//!
//! Paper §5.2.6: the first port signalled offloads through the SPE
//! mailboxes; replacing mailbox traffic with the PPE writing a flag directly
//! into SPE local store (and the SPE committing results directly to main
//! memory) improved whole-program time by 2–11%, with the benefit growing
//! with the number of active SPEs because the offloaded functions are
//! fine-grained (71 µs average for `newview`).

use crate::time::Cycles;

/// How the PPE and an SPE signal each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignalKind {
    /// MMIO mailbox registers (the naive port).
    Mailbox,
    /// PPE writes a flag word into SPE local store; SPE commits results
    /// straight to main memory (§5.2.6).
    #[default]
    DirectMemory,
}

/// Signalling cost parameters (cycles at 3.2 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCosts {
    /// Full offload round trip via mailboxes: PPE MMIO write, SPE mailbox
    /// read, result mailbox write, PPE MMIO read. MMIO to an SPE's
    /// problem-state registers is slow (hundreds of ns each way);
    /// calibrated to ≈4.6 µs ≙ 14,850 cycles so that Table 6's 2–11%
    /// improvement falls out of the 42_SC trace.
    pub mailbox_roundtrip: Cycles,
    /// Round trip via direct memory: a cacheable store into local storage
    /// plus a busy-wait poll on the SPE — ≈0.3 µs ≙ 960 cycles.
    pub direct_roundtrip: Cycles,
}

impl Default for CommCosts {
    fn default() -> Self {
        CommCosts { mailbox_roundtrip: 14_850, direct_roundtrip: 960 }
    }
}

impl CommCosts {
    /// Round-trip cycles for one offload signal under the given mechanism.
    pub fn roundtrip(&self, kind: SignalKind) -> Cycles {
        match kind {
            SignalKind::Mailbox => self.mailbox_roundtrip,
            SignalKind::DirectMemory => self.direct_roundtrip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_memory_is_much_cheaper() {
        let c = CommCosts::default();
        assert!(c.roundtrip(SignalKind::DirectMemory) * 10 < c.roundtrip(SignalKind::Mailbox));
    }
}
