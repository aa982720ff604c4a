//! Deterministic wire-level fault injection for the service tier.
//!
//! The simulator already has a gold-standard chaos model in
//! `cellsim::fault`: every fault decision is a **pure function** of
//! `(seed, stream, index, salt)` hashed through splitmix64, so no RNG state
//! is carried between draws and two runs under the same plan replay the
//! exact same fault history. This module draws through the same function
//! (`obs::trace::counter_draw`) at the TCP front door: a [`ServeFaultPlan`]
//! decides, per connection and per I/O operation, whether to drop the
//! connection, truncate a write mid-frame, corrupt a byte, or stall — and
//! a [`FaultyStream`] wrapper injects those decisions around any
//! `Read + Write` transport.
//!
//! Determinism is the point: a chaos run that loses a job is only
//! debuggable if the same plan replays the same faults bit-exactly.
//! [`ServeFaultPlan::sequence_fingerprint`] collapses the full decision
//! sequence over a site grid into one u64 so tests can assert replay
//! identity cheaply.
//!
//! Injected faults surface as `io::Error`s of ordinary kinds
//! (`ConnectionReset`, `WouldBlock`-free stalls are plain sleeps), so the
//! code under test cannot tell chaos from a hostile network — which is the
//! property the exactly-once retry machinery must survive.

use obs::trace::{counter_draw, splitmix64};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The kinds of wire fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFault {
    /// The connection is torn down before the operation (peer sees a reset).
    ConnDrop,
    /// A write delivers only a prefix of the buffer, then the connection
    /// drops — the peer observes a torn frame.
    Truncate,
    /// One byte of the payload is bit-flipped in transit.
    Corrupt,
    /// The operation stalls for [`ServeFaultPlan::stall`] before
    /// proceeding — long enough to trip a peer's deadline when aggressive.
    Stall,
}

impl std::fmt::Display for WireFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WireFault::ConnDrop => "conn-drop",
            WireFault::Truncate => "truncate",
            WireFault::Corrupt => "corrupt",
            WireFault::Stall => "stall",
        })
    }
}

/// A deterministic, seed-driven wire fault schedule.
///
/// Rates are per-operation probabilities in `[0, 1]`; each read and each
/// write on a [`FaultyStream`] draws once per category, indexed by
/// `(stream, op)`. [`ServeFaultPlan::none`] injects nothing and leaves the
/// wrapped stream behaviourally identical to the bare transport.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFaultPlan {
    /// Seed mixed into every draw.
    pub seed: u64,
    /// Probability a read/write begins on a dead connection.
    pub drop_rate: f64,
    /// Probability a write delivers only a prefix then drops (writes only).
    pub truncate_rate: f64,
    /// Probability one byte of the operation's payload is bit-flipped.
    pub corrupt_rate: f64,
    /// Probability the operation stalls for [`stall`](Self::stall) first.
    pub stall_rate: f64,
    /// Duration of one injected stall.
    pub stall: Duration,
}

impl Default for ServeFaultPlan {
    fn default() -> Self {
        ServeFaultPlan::none()
    }
}

impl ServeFaultPlan {
    /// The inert plan: wrapped streams behave exactly like the bare ones.
    pub fn none() -> ServeFaultPlan {
        ServeFaultPlan {
            seed: 0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall: Duration::from_millis(20),
        }
    }

    /// A plan applying `rate` uniformly to every fault category.
    pub fn uniform(seed: u64, rate: f64) -> ServeFaultPlan {
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0, 1]");
        ServeFaultPlan {
            seed,
            drop_rate: rate,
            truncate_rate: rate,
            corrupt_rate: rate,
            stall_rate: rate,
            ..ServeFaultPlan::none()
        }
    }

    /// An aggressive mix for stress tests: frequent corruption and stalls,
    /// occasional drops and torn frames. (The restart test in
    /// `tests/serve_chaos.rs` uses a custom mix without corruption, whose
    /// silent bit flips belong to the wire fuzz tests rather than an
    /// accounting check.)
    pub fn aggressive(seed: u64) -> ServeFaultPlan {
        ServeFaultPlan {
            seed,
            drop_rate: 0.02,
            truncate_rate: 0.02,
            corrupt_rate: 0.05,
            stall_rate: 0.05,
            stall: Duration::from_millis(5),
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        self.drop_rate == 0.0
            && self.truncate_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.stall_rate == 0.0
    }

    /// A uniform draw in `[0, 1)` for the given site — `cellsim::fault`'s
    /// draw at attempt 0, so the replay guarantees carry over verbatim.
    fn draw(&self, stream: u64, op: u64, salt: u64) -> f64 {
        counter_draw(self.seed, salt, stream, op, 0)
    }

    /// Fault decision for read operation `op` on `stream`, if any.
    /// Priority: drop > corrupt > stall (a dropped connection cannot also
    /// corrupt). Reads never truncate — a short read is normal TCP.
    pub fn read_fault(&self, stream: u64, op: u64) -> Option<WireFault> {
        if self.draw(stream, op, SALT_READ_DROP) < self.drop_rate {
            return Some(WireFault::ConnDrop);
        }
        if self.draw(stream, op, SALT_READ_CORRUPT) < self.corrupt_rate {
            return Some(WireFault::Corrupt);
        }
        if self.draw(stream, op, SALT_READ_STALL) < self.stall_rate {
            return Some(WireFault::Stall);
        }
        None
    }

    /// Fault decision for write operation `op` on `stream`, if any.
    /// Priority: drop > truncate > corrupt > stall.
    pub fn write_fault(&self, stream: u64, op: u64) -> Option<WireFault> {
        if self.draw(stream, op, SALT_WRITE_DROP) < self.drop_rate {
            return Some(WireFault::ConnDrop);
        }
        if self.draw(stream, op, SALT_WRITE_TRUNC) < self.truncate_rate {
            return Some(WireFault::Truncate);
        }
        if self.draw(stream, op, SALT_WRITE_CORRUPT) < self.corrupt_rate {
            return Some(WireFault::Corrupt);
        }
        if self.draw(stream, op, SALT_WRITE_STALL) < self.stall_rate {
            return Some(WireFault::Stall);
        }
        None
    }

    /// Which byte of an `n`-byte payload a [`WireFault::Corrupt`] flips,
    /// and the bit mask flipped into it.
    pub fn corrupt_site(&self, stream: u64, op: u64, n: usize) -> (usize, u8) {
        let bits = splitmix64(self.seed ^ splitmix64(stream) ^ op ^ SALT_CORRUPT_SITE);
        let pos = if n == 0 { 0 } else { (bits as usize) % n };
        let mask = 1u8 << ((bits >> 32) & 7);
        (pos, mask)
    }

    /// How many bytes of an `n`-byte write a [`WireFault::Truncate`]
    /// delivers before the connection drops (always a strict prefix).
    pub fn truncate_len(&self, stream: u64, op: u64, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let bits = splitmix64(self.seed ^ splitmix64(stream ^ SALT_TRUNC_SITE) ^ op);
        (bits as usize) % n
    }

    /// Collapse the full decision sequence over `streams × ops` sites into
    /// one u64. Two plans with equal parameters produce equal fingerprints;
    /// replaying the same plan twice is therefore provably bit-identical.
    pub fn sequence_fingerprint(&self, streams: u64, ops: u64) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            acc = splitmix64(acc ^ v);
        };
        for s in 0..streams {
            for o in 0..ops {
                mix(fault_code(self.read_fault(s, o)));
                mix(fault_code(self.write_fault(s, o)));
                let (pos, mask) = self.corrupt_site(s, o, 64);
                mix((pos as u64) << 8 | mask as u64);
                mix(self.truncate_len(s, o, 64) as u64);
            }
        }
        acc
    }
}

fn fault_code(f: Option<WireFault>) -> u64 {
    match f {
        None => 0,
        Some(WireFault::ConnDrop) => 1,
        Some(WireFault::Truncate) => 2,
        Some(WireFault::Corrupt) => 3,
        Some(WireFault::Stall) => 4,
    }
}

const SALT_READ_DROP: u64 = 0x3e4d_0001;
const SALT_READ_CORRUPT: u64 = 0x3e4d_0002;
const SALT_READ_STALL: u64 = 0x3e4d_0003;
const SALT_WRITE_DROP: u64 = 0x3e57_0001;
const SALT_WRITE_TRUNC: u64 = 0x3e57_0002;
const SALT_WRITE_CORRUPT: u64 = 0x3e57_0003;
const SALT_WRITE_STALL: u64 = 0x3e57_0004;
const SALT_CORRUPT_SITE: u64 = 0x3e5e_0001;
const SALT_TRUNC_SITE: u64 = 0x3e5e_0002;

/// Shared tally of injected faults, readable while a chaos run is live.
#[derive(Debug, Default)]
pub struct FaultTally {
    pub drops: AtomicU64,
    pub truncations: AtomicU64,
    pub corruptions: AtomicU64,
    pub stalls: AtomicU64,
}

impl FaultTally {
    pub fn total(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
            + self.truncations.load(Ordering::Relaxed)
            + self.corruptions.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
    }
}

/// A `Read + Write` transport with a [`ServeFaultPlan`] injected around
/// every operation. `stream_id` must be stable for the wrapped connection —
/// the server uses its accept counter, clients their tenant index — so the
/// per-connection fault sequence is a pure function of the plan.
pub struct FaultyStream<S> {
    inner: S,
    plan: Arc<ServeFaultPlan>,
    tally: Arc<FaultTally>,
    stream_id: u64,
    reads: u64,
    writes: u64,
    dead: bool,
}

impl<S> FaultyStream<S> {
    pub fn new(
        inner: S,
        plan: Arc<ServeFaultPlan>,
        tally: Arc<FaultTally>,
        stream_id: u64,
    ) -> FaultyStream<S> {
        FaultyStream { inner, plan, tally, stream_id, reads: 0, writes: 0, dead: false }
    }

    /// The wrapped transport (e.g. to set socket deadlines on a
    /// `TcpStream`).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// True once an injected drop or truncation killed the connection.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn killed(&mut self, kind: WireFault) -> std::io::Error {
        self.dead = true;
        match kind {
            WireFault::ConnDrop => self.tally.drops.fetch_add(1, Ordering::Relaxed),
            WireFault::Truncate => self.tally.truncations.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        obs::global().counter("serve_fault_injected_total").inc();
        std::io::Error::new(ErrorKind::ConnectionReset, "injected connection drop")
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(ErrorKind::ConnectionReset, "connection dropped"));
        }
        let op = self.reads;
        self.reads += 1;
        match self.plan.read_fault(self.stream_id, op) {
            Some(WireFault::ConnDrop) => return Err(self.killed(WireFault::ConnDrop)),
            Some(WireFault::Stall) => {
                self.tally.stalls.fetch_add(1, Ordering::Relaxed);
                obs::global().counter("serve_fault_injected_total").inc();
                std::thread::sleep(self.plan.stall);
            }
            Some(WireFault::Corrupt) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let (pos, mask) = self.plan.corrupt_site(self.stream_id, op, n);
                    buf[pos] ^= mask;
                    self.tally.corruptions.fetch_add(1, Ordering::Relaxed);
                    obs::global().counter("serve_fault_injected_total").inc();
                }
                return Ok(n);
            }
            Some(WireFault::Truncate) | None => {}
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(ErrorKind::ConnectionReset, "connection dropped"));
        }
        let op = self.writes;
        self.writes += 1;
        match self.plan.write_fault(self.stream_id, op) {
            Some(WireFault::ConnDrop) => return Err(self.killed(WireFault::ConnDrop)),
            Some(WireFault::Truncate) => {
                let keep = self.plan.truncate_len(self.stream_id, op, buf.len());
                if keep > 0 {
                    // Deliver the torn prefix so the peer sees a mid-frame
                    // cut, then kill the connection.
                    let _ = self.inner.write(&buf[..keep]);
                    let _ = self.inner.flush();
                }
                return Err(self.killed(WireFault::Truncate));
            }
            Some(WireFault::Corrupt) if !buf.is_empty() => {
                let (pos, mask) = self.plan.corrupt_site(self.stream_id, op, buf.len());
                let mut copy = buf.to_vec();
                copy[pos] ^= mask;
                self.tally.corruptions.fetch_add(1, Ordering::Relaxed);
                obs::global().counter("serve_fault_injected_total").inc();
                return self.inner.write(&copy);
            }
            Some(WireFault::Stall) => {
                self.tally.stalls.fetch_add(1, Ordering::Relaxed);
                obs::global().counter("serve_fault_injected_total").inc();
                std::thread::sleep(self.plan.stall);
            }
            // An empty-buffer corrupt draw has no byte to flip.
            Some(WireFault::Corrupt) | None => {}
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = ServeFaultPlan::none();
        assert!(plan.is_inert());
        for s in 0..4u64 {
            for o in 0..200u64 {
                assert_eq!(plan.read_fault(s, o), None);
                assert_eq!(plan.write_fault(s, o), None);
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = ServeFaultPlan::uniform(42, 0.3);
        let b = ServeFaultPlan::uniform(42, 0.3);
        let c = ServeFaultPlan::uniform(43, 0.3);
        assert_eq!(
            a.sequence_fingerprint(8, 256),
            b.sequence_fingerprint(8, 256),
            "same seed must replay identically"
        );
        assert_ne!(
            a.sequence_fingerprint(8, 256),
            c.sequence_fingerprint(8, 256),
            "different seed must diverge"
        );
    }

    /// The decision sequences recorded before both plans drew through
    /// `obs::trace::counter_draw`: sharing the draw moved no fault.
    #[test]
    fn fingerprints_match_the_recording() {
        assert_eq!(
            ServeFaultPlan::uniform(42, 0.3).sequence_fingerprint(8, 256),
            0x06c0_83cd_6d0c_6ab0
        );
        assert_eq!(
            ServeFaultPlan::aggressive(7).sequence_fingerprint(4, 64),
            0xb54d_02c3_d901_1fcf
        );
    }

    #[test]
    fn rates_shape_the_fault_frequency() {
        let low = ServeFaultPlan::uniform(7, 0.01);
        let high = ServeFaultPlan::uniform(7, 0.5);
        let count =
            |p: &ServeFaultPlan| (0..1000u64).filter(|&o| p.write_fault(0, o).is_some()).count();
        assert!(count(&low) < 100, "1% rate fired {} / 1000 times", count(&low));
        assert!(count(&high) > 500, "50% rate fired only {} / 1000 times", count(&high));
    }

    #[test]
    fn inert_wrapper_is_transparent() {
        let plan = Arc::new(ServeFaultPlan::none());
        let tally = Arc::new(FaultTally::default());
        let mut buf = Vec::new();
        let mut s =
            FaultyStream::new(std::io::Cursor::new(&mut buf), plan.clone(), tally.clone(), 0);
        s.write_all(b"hello frames").unwrap();
        drop(s);
        assert_eq!(buf, b"hello frames");
        let mut s = FaultyStream::new(std::io::Cursor::new(buf.clone()), plan, tally.clone(), 0);
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"hello frames");
        assert_eq!(tally.total(), 0);
    }

    #[test]
    fn certain_drop_kills_the_stream_permanently() {
        let plan = Arc::new(ServeFaultPlan { drop_rate: 1.0, ..ServeFaultPlan::none() });
        let tally = Arc::new(FaultTally::default());
        let mut s = FaultyStream::new(std::io::Cursor::new(Vec::new()), plan, tally.clone(), 3);
        assert_eq!(s.write(b"x").unwrap_err().kind(), ErrorKind::ConnectionReset);
        assert!(s.is_dead());
        let mut byte = [0u8];
        assert_eq!(s.read(&mut byte).unwrap_err().kind(), ErrorKind::ConnectionReset);
        assert_eq!(tally.drops.load(Ordering::Relaxed), 1, "death is injected once");
    }

    #[test]
    fn truncation_delivers_a_strict_prefix_then_dies() {
        let plan = Arc::new(ServeFaultPlan { truncate_rate: 1.0, ..ServeFaultPlan::none() });
        let tally = Arc::new(FaultTally::default());
        let mut sink = Vec::new();
        let mut s =
            FaultyStream::new(std::io::Cursor::new(&mut sink), plan.clone(), tally.clone(), 1);
        let payload = vec![0xabu8; 64];
        assert!(s.write_all(&payload).is_err());
        drop(s);
        assert_eq!(sink.len(), plan.truncate_len(1, 0, 64));
        assert!(sink.len() < 64, "must be a strict prefix");
        assert_eq!(tally.truncations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let plan = Arc::new(ServeFaultPlan { corrupt_rate: 1.0, ..ServeFaultPlan::none() });
        let tally = Arc::new(FaultTally::default());
        let mut sink = Vec::new();
        let mut s =
            FaultyStream::new(std::io::Cursor::new(&mut sink), plan.clone(), tally.clone(), 2);
        let payload = vec![0u8; 32];
        s.write_all(&payload).unwrap();
        drop(s);
        assert_eq!(sink.len(), 32);
        let flipped: u32 = sink.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {sink:?}");
        let (pos, mask) = plan.corrupt_site(2, 0, 32);
        assert_eq!(sink[pos], mask);
        assert_eq!(tally.corruptions.load(Ordering::Relaxed), 1);
    }
}
