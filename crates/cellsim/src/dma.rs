//! MFC DMA transfer model.
//!
//! Architecture rules (paper §4): transfers move data between main memory
//! and local store in sizes of 1, 2, 4, 8 bytes or multiples of 16 bytes, at
//! most 16 KB per request, 128-bit aligned; DMA lists batch up to 2,048
//! requests. Latency is modelled as a fixed startup (MFC issue + EIB
//! arbitration + memory latency) plus size over bandwidth.
//!
//! The strip-mining pattern of §5.2.4 (2 KB buffers, 16 loop iterations per
//! batch) appears here as a *stream*: `n` chunks fetched one after another,
//! either blocking (the SPE stalls for every chunk) or double-buffered (the
//! next chunk transfers while the current one is processed — §5.2.4 removed
//! an 11.4% stall this way).

use crate::time::Cycles;

/// Maximum size of a single DMA request.
pub const MAX_TRANSFER: usize = 16 * 1024;
/// Maximum entries in a DMA list.
pub const MAX_LIST_ENTRIES: usize = 2048;

/// DMA timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaCosts {
    /// Fixed cycles per request: MFC issue, EIB arbitration, memory access.
    /// Kistler et al. (the paper’s citation \[17\]) measured small-transfer round-trip
    /// latencies in the hundreds of nanoseconds; we use ~250 ns ≙ 800
    /// cycles at 3.2 GHz, which reproduces the paper's 11.4% `newview`
    /// DMA-wait share (§5.2.4) on the 42_SC trace.
    pub startup_cycles: Cycles,
    /// Sustained transfer bandwidth into one SPE, bytes per cycle
    /// (25.6 GB/s ≙ 8 B/cycle; we model 16 B/cycle for the combined
    /// in/out streams of the strip-mining loop).
    pub bytes_per_cycle: f64,
}

impl Default for DmaCosts {
    fn default() -> Self {
        DmaCosts { startup_cycles: 800, bytes_per_cycle: 16.0 }
    }
}

/// Why a transfer request is illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// Size not in {1, 2, 4, 8} and not a multiple of 16.
    BadSize(usize),
    /// Size exceeds 16 KB.
    TooLarge(usize),
    /// Address not 128-bit (16-byte) aligned.
    Misaligned(u64),
    /// DMA list longer than 2,048 entries.
    ListTooLong(usize),
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::BadSize(s) => write!(f, "illegal DMA size {s} (must be 1,2,4,8 or 16n)"),
            DmaError::TooLarge(s) => write!(f, "DMA size {s} exceeds the 16 KB limit"),
            DmaError::Misaligned(a) => write!(f, "address {a:#x} is not 128-bit aligned"),
            DmaError::ListTooLong(n) => write!(f, "DMA list with {n} entries exceeds 2048"),
        }
    }
}

impl std::error::Error for DmaError {}

/// Validate a single transfer request (size and alignment rules of §4).
pub fn validate_transfer(bytes: usize, addr: u64) -> Result<(), DmaError> {
    if bytes > MAX_TRANSFER {
        return Err(DmaError::TooLarge(bytes));
    }
    let size_ok = matches!(bytes, 1 | 2 | 4 | 8) || (bytes > 0 && bytes.is_multiple_of(16));
    if !size_ok {
        return Err(DmaError::BadSize(bytes));
    }
    if !addr.is_multiple_of(16) {
        return Err(DmaError::Misaligned(addr));
    }
    Ok(())
}

/// Split a large transfer into a DMA list of ≤16 KB entries.
/// Returns the entry sizes, or an error if the list would be too long.
pub fn build_dma_list(total_bytes: usize) -> Result<Vec<usize>, DmaError> {
    let full = total_bytes / MAX_TRANSFER;
    let rest = total_bytes % MAX_TRANSFER;
    let n = full + usize::from(rest > 0);
    if n > MAX_LIST_ENTRIES {
        return Err(DmaError::ListTooLong(n));
    }
    let mut entries = vec![MAX_TRANSFER; full];
    if rest > 0 {
        // Round the tail up to a legal size.
        let tail = if matches!(rest, 1 | 2 | 4 | 8) { rest } else { rest.div_ceil(16) * 16 };
        entries.push(tail);
    }
    Ok(entries)
}

/// Cycles for one transfer: startup plus size over bandwidth.
pub fn transfer_cycles(bytes: usize, costs: &DmaCosts) -> Cycles {
    costs.startup_cycles + (bytes as f64 / costs.bytes_per_cycle).ceil() as Cycles
}

/// Total stall cycles for streaming `total_bytes` through `chunk`-byte
/// buffers with *blocking* waits: the SPE waits out every chunk (the
/// original port, Table 4's "before" case).
pub fn stream_stall_blocking(total_bytes: u64, chunk: usize, costs: &DmaCosts) -> Cycles {
    if total_bytes == 0 {
        return 0;
    }
    let n_chunks = total_bytes.div_ceil(chunk as u64);
    n_chunks * transfer_cycles(chunk, costs)
}

/// Stall cycles beyond compute when the same stream is *double-buffered*:
/// the first chunk's latency is exposed, every later transfer overlaps the
/// previous chunk's compute; stalls only occur when transfer time exceeds
/// per-chunk compute (§5.2.4 "eliminated this waiting time").
pub fn stream_stall_double_buffered(
    total_bytes: u64,
    chunk: usize,
    compute_cycles: Cycles,
    costs: &DmaCosts,
) -> Cycles {
    if total_bytes == 0 {
        return 0;
    }
    let n_chunks = total_bytes.div_ceil(chunk as u64);
    let per_chunk_dma = transfer_cycles(chunk, costs);
    let per_chunk_compute = compute_cycles / n_chunks.max(1);
    // Pipeline: expose the first fill, then each of the remaining n−1
    // transfers hides behind one chunk of compute.
    let hidden_deficit = per_chunk_dma.saturating_sub(per_chunk_compute);
    per_chunk_dma + (n_chunks - 1) * hidden_deficit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_sizes() {
        for s in [1usize, 2, 4, 8, 16, 32, 2048, 16 * 1024] {
            assert!(validate_transfer(s, 0).is_ok(), "size {s}");
        }
        for s in [3usize, 5, 7, 9, 12, 17, 100] {
            assert_eq!(validate_transfer(s, 0), Err(DmaError::BadSize(s)), "size {s}");
        }
        assert_eq!(validate_transfer(0, 0), Err(DmaError::BadSize(0)));
        assert_eq!(validate_transfer(16 * 1024 + 16, 0), Err(DmaError::TooLarge(16 * 1024 + 16)));
    }

    #[test]
    fn alignment() {
        assert!(validate_transfer(16, 0x1000).is_ok());
        assert_eq!(validate_transfer(16, 0x1008), Err(DmaError::Misaligned(0x1008)));
    }

    #[test]
    fn dma_lists_split_correctly() {
        let entries = build_dma_list(40 * 1024).unwrap();
        assert_eq!(entries, vec![16 * 1024, 16 * 1024, 8 * 1024]);
        let entries = build_dma_list(16 * 1024 + 100).unwrap();
        assert_eq!(entries, vec![16 * 1024, 112], "tail rounds up to 16n");
        // > 2048 × 16 KB overflows the list.
        assert!(matches!(
            build_dma_list(MAX_LIST_ENTRIES * MAX_TRANSFER + 1),
            Err(DmaError::ListTooLong(_))
        ));
        assert_eq!(build_dma_list(MAX_LIST_ENTRIES * MAX_TRANSFER).unwrap().len(), 2048);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let c = DmaCosts::default();
        let small = transfer_cycles(128, &c);
        let large = transfer_cycles(16 * 1024, &c);
        assert!(large > small);
        assert_eq!(small, 800 + 8);
        assert_eq!(large, 800 + 1024);
    }

    #[test]
    fn blocking_stall_counts_every_chunk() {
        let c = DmaCosts::default();
        let stall = stream_stall_blocking(8192, 2048, &c);
        assert_eq!(stall, 4 * transfer_cycles(2048, &c));
        assert_eq!(stream_stall_blocking(0, 2048, &c), 0);
    }

    #[test]
    fn double_buffering_hides_transfers_behind_compute() {
        let c = DmaCosts::default();
        // Plenty of compute per chunk: only the first fill is exposed.
        let stall = stream_stall_double_buffered(8192, 2048, 1_000_000, &c);
        assert_eq!(stall, transfer_cycles(2048, &c));
        // No compute at all: double buffering degenerates to blocking-ish.
        let stall = stream_stall_double_buffered(8192, 2048, 0, &c);
        assert_eq!(stall, 4 * transfer_cycles(2048, &c));
    }

    #[test]
    fn double_buffering_always_at_least_as_good_as_blocking() {
        let c = DmaCosts::default();
        for total in [2048u64, 10_000, 87_000, 500_000] {
            for compute in [0u64, 10_000, 100_000, 10_000_000] {
                let b = stream_stall_blocking(total, 2048, &c);
                let d = stream_stall_double_buffered(total, 2048, compute, &c);
                assert!(d <= b, "total={total} compute={compute}: {d} > {b}");
            }
        }
    }
}
