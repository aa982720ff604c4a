//! On-disk checkpoints for long-running analyses.
//!
//! Two artifacts live here:
//!
//! * [`SearchCheckpointer`] — whole-file snapshots of an SPR hill climb,
//!   rewritten atomically (temp file + rename) after every improvement
//!   round. A killed search resumes from the last completed round and
//!   finishes **bit-identically** to an uninterrupted run, because the
//!   deterministic prefix (stepwise-addition start, engine construction)
//!   is recomputed from the seed and only the mutable state (tree, Γ
//!   shape, round counters) is restored from disk.
//! * [`BootstrapStore`] — an append-only log of completed bootstrap /
//!   inference jobs, one [`obs::log`] record per job. A record cut short by
//!   a crash mid-append is dropped on reload (the job simply re-runs); a
//!   damaged record anywhere before the final line is an error, and the
//!   file is left as it is.
//!
//! Both formats are plain text, versioned by a header line, and guarded by
//! an FNV-1a fingerprint of the analysis inputs so a checkpoint written
//! for one alignment/seed/configuration can never silently resume
//! another. Floating-point state is stored as `f64::to_bits` hex — exact,
//! locale-proof, round-trip safe.

use crate::alignment::PatternAlignment;
use crate::error::{PhyloError, Result};
use crate::search::SearchConfig;
use obs::log::{Format, RecordLog, SyncPolicy, Verdict};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Wall-clock telemetry for durable writes: snapshot/append latency
/// histograms (fsync included, so these are the honest numbers) and byte
/// counters. Resolved from the global [`obs`] registry once per process;
/// with the registry disabled each write pays one atomic load and no
/// clock reads.
struct CkptMetrics {
    write_ns: obs::Histogram,
    write_bytes: obs::Counter,
    append_ns: obs::Histogram,
    append_bytes: obs::Counter,
}

fn ckpt_metrics() -> Option<&'static CkptMetrics> {
    let reg = obs::global();
    if !reg.is_enabled() {
        return None;
    }
    static CELL: OnceLock<CkptMetrics> = OnceLock::new();
    Some(CELL.get_or_init(|| CkptMetrics {
        write_ns: reg.histogram("checkpoint_write_ns"),
        write_bytes: reg.counter("checkpoint_bytes_total"),
        append_ns: reg.histogram("bootstrap_append_ns"),
        append_bytes: reg.counter("bootstrap_append_bytes_total"),
    }))
}

/// First line of a search snapshot; its version is bumped on any
/// incompatible layout change.
const HEADER: &str = "#RAXML-CELL-CHECKPOINT v1 search";

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a-64 ([`obs::trace::fnv1a`]) over the little-endian bytes of the
/// `u64`s that define an analysis.
///
/// Not cryptographic — it only needs to make accidental cross-analysis
/// resumes (wrong alignment, wrong seed, changed search radius) fail loudly
/// instead of producing silently wrong trees.
pub fn fingerprint(values: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    obs::trace::fnv1a(&bytes)
}

/// Fingerprint of one ML search: alignment shape and taxa, the seed, and
/// every [`SearchConfig`] knob that alters the search trajectory. Each taxon
/// name enters as its length and then its bytes, so ("ab","c") and
/// ("a","bc") differ.
pub fn search_fingerprint(aln: &PatternAlignment, config: &SearchConfig, seed: u64) -> u64 {
    let mut bytes: Vec<u8> = [aln.n_taxa(), aln.n_sites(), aln.n_patterns()]
        .into_iter()
        .flat_map(|n| (n as u64).to_le_bytes())
        .collect();
    for name in aln.taxon_names() {
        bytes.extend((name.len() as u64).to_le_bytes());
        bytes.extend(name.as_bytes());
    }
    let knobs = [
        seed,
        config.spr_radius as u64,
        config.max_spr_rounds as u64,
        config.epsilon.to_bits(),
        config.n_rate_categories as u64,
        config.initial_alpha.to_bits(),
        config.initial_branch_length.to_bits(),
        u64::from(config.optimize_alpha),
    ];
    bytes.extend(knobs.into_iter().flat_map(u64::to_le_bytes));
    obs::trace::fnv1a(&bytes)
}

// ---------------------------------------------------------------------------
// I/O helpers
// ---------------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> PhyloError {
    PhyloError::Io { path: path.display().to_string(), message: e.to_string() }
}

fn bad(path: &Path, message: impl Into<String>) -> PhyloError {
    PhyloError::Checkpoint { path: path.display().to_string(), message: message.into() }
}

fn parse_hex_u64(path: &Path, field: &str, text: &str) -> Result<u64> {
    u64::from_str_radix(text, 16).map_err(|_| bad(path, format!("bad {field} value {text:?}")))
}

fn parse_usize(path: &Path, field: &str, text: &str) -> Result<usize> {
    text.parse().map_err(|_| bad(path, format!("bad {field} value {text:?}")))
}

fn check_fingerprint(path: &Path, found: u64, fingerprint: u64) -> Result<()> {
    if found != fingerprint {
        return Err(bad(
            path,
            format!(
                "fingerprint mismatch ({found:016x} on disk, {fingerprint:016x} expected): \
                 checkpoint belongs to a different analysis"
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Search checkpoints
// ---------------------------------------------------------------------------

/// Mutable state of an SPR hill climb after a completed round — everything
/// the search cannot re-derive from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCheckpoint {
    /// SPR rounds completed so far.
    pub rounds_done: usize,
    /// Total SPR moves applied so far.
    pub moves_applied: usize,
    /// Moves applied in the *last* round (0 ⇒ the climb has converged and
    /// a resume skips straight to the final polish).
    pub last_applied: usize,
    /// Γ shape, bit-exact.
    pub alpha_bits: u64,
    /// The tree in [`crate::tree::Tree::to_exact_string`] form (slot order
    /// and branch-length bits preserved, so the resumed SPR scan visits
    /// candidates in the identical order).
    pub tree_exact: String,
}

/// Writes/reads [`SearchCheckpoint`] snapshots and optionally simulates a
/// mid-run kill for tests via [`SearchCheckpointer::abort_after_saves`].
#[derive(Debug)]
pub struct SearchCheckpointer {
    path: PathBuf,
    fingerprint: u64,
    abort_after_saves: Option<usize>,
    saves: usize,
}

impl SearchCheckpointer {
    /// A checkpointer for the search identified by `fingerprint` (from
    /// [`search_fingerprint`]), persisting to `path`.
    pub fn new(path: impl Into<PathBuf>, fingerprint: u64) -> SearchCheckpointer {
        SearchCheckpointer { path: path.into(), fingerprint, abort_after_saves: None, saves: 0 }
    }

    /// Abort the search with [`PhyloError::Interrupted`] after `n` snapshots
    /// have been written *in this process* — the snapshot is on disk first,
    /// so this models a kill between rounds without needing a real signal.
    pub fn abort_after_saves(mut self, n: usize) -> SearchCheckpointer {
        self.abort_after_saves = Some(n);
        self
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load the snapshot, if any. `Ok(None)` means no checkpoint exists
    /// (fresh start); a present-but-foreign or corrupt file is an error —
    /// silently ignoring it would discard real progress.
    pub fn load(&self) -> Result<Option<SearchCheckpoint>> {
        let path = &self.path;
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(path, e)),
        };
        let mut lines = text.lines();
        match lines.next() {
            Some(HEADER) => {}
            Some(h) if h.starts_with("#RAXML-CELL-CHECKPOINT") => {
                return Err(bad(path, format!("unsupported header {h:?} (expected {HEADER:?})")));
            }
            _ => return Err(bad(path, "not a checkpoint file (bad magic)")),
        }
        let mut field = |name: &str| {
            lines
                .next()
                .and_then(|line| line.strip_prefix(name)?.strip_prefix(' '))
                .ok_or_else(|| bad(path, format!("missing {name} line")))
        };
        let found = parse_hex_u64(path, "fingerprint", field("fingerprint")?)?;
        check_fingerprint(path, found, self.fingerprint)?;
        let rounds_done = parse_usize(path, "rounds", field("rounds")?)?;
        let moves_applied = parse_usize(path, "moves", field("moves")?)?;
        let last_applied = parse_usize(path, "last-applied", field("last-applied")?)?;
        let alpha_bits = parse_hex_u64(path, "alpha", field("alpha")?)?;
        if lines.next() != Some("tree") {
            return Err(bad(path, "missing tree section"));
        }
        let tree_exact: String = lines.flat_map(|line| [line, "\n"]).collect();
        // Validate eagerly so a truncated tree fails at load, not mid-search.
        crate::tree::Tree::from_exact_string(&tree_exact)
            .map_err(|e| bad(path, format!("unreadable tree section: {e}")))?;
        Ok(Some(SearchCheckpoint {
            rounds_done,
            moves_applied,
            last_applied,
            alpha_bits,
            tree_exact,
        }))
    }

    /// Atomically persist `snap`, then enforce the abort policy.
    pub fn save(&mut self, snap: &SearchCheckpoint) -> Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(out, "rounds {}", snap.rounds_done);
        let _ = writeln!(out, "moves {}", snap.moves_applied);
        let _ = writeln!(out, "last-applied {}", snap.last_applied);
        let _ = writeln!(out, "alpha {:016x}", snap.alpha_bits);
        let _ = writeln!(out, "tree");
        out.push_str(&snap.tree_exact);
        let metrics = ckpt_metrics();
        let t0 = metrics.map(|_| Instant::now());
        obs::log::atomic_write(&self.path, out.as_bytes()).map_err(|e| io_err(&self.path, e))?;
        if let (Some(m), Some(t0)) = (metrics, t0) {
            m.write_ns.record(t0.elapsed().as_nanos() as u64);
            m.write_bytes.add(out.len() as u64);
        }
        self.saves += 1;
        if let Some(limit) = self.abort_after_saves {
            if self.saves >= limit {
                return Err(PhyloError::Interrupted { completed: snap.rounds_done });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bootstrap job store
// ---------------------------------------------------------------------------

/// One completed master–worker job: its index in the analysis job list,
/// its final log-likelihood (bit-exact), and its tree in exact form.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    pub index: usize,
    pub log_likelihood: f64,
    pub tree_exact: String,
}

/// The store's log kind; v1 stores began `#RAXML-CELL-CHECKPOINT v1 bootstrap`.
const STORE: Format = Format {
    kind: "RAXML-CELL-BOOTSTRAP",
    v1_header: "#RAXML-CELL-CHECKPOINT v1 bootstrap",
    metrics: "bootstrap_store",
};

/// A store record: the analysis fingerprint, then its job count, then one
/// record per completed job.
enum StoreLine {
    Fingerprint(u64),
    Total(usize),
    Job(JobRecord),
}

/// Append-only log of completed bootstrap-analysis jobs.
///
/// Records must arrive contiguously from index 0 — the analysis driver
/// completes jobs in chunks and appends each chunk in order, so "how far
/// did we get" is simply the record count. On open, a record cut short by a
/// crash mid-append is dropped, and cut off the file by the next append; a
/// damaged record before it is an error.
#[derive(Debug)]
pub struct BootstrapStore {
    log: RecordLog,
    total: usize,
    records: Vec<JobRecord>,
}

impl BootstrapStore {
    /// Open (or create) the store for an analysis of `total` jobs with the
    /// given fingerprint. An existing file for a *different* analysis, or
    /// one damaged before its final line, is an error and is left as it is;
    /// a missing file starts empty.
    pub fn open(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        total: usize,
    ) -> Result<BootstrapStore> {
        let path = path.into();
        let mut n = 0;
        let decode = |line: &str| {
            let parsed = match n {
                0 => StoreLine::Fingerprint(
                    u64::from_str_radix(line.strip_prefix("fingerprint ")?, 16).ok()?,
                ),
                1 => StoreLine::Total(line.strip_prefix("total ")?.parse().ok()?),
                _ => StoreLine::Job(parse_record(line, n - 2)?),
            };
            n += 1;
            Some(parsed)
        };
        let (log, lines, verdict) = RecordLog::open(&path, &STORE, SyncPolicy::EveryAppend, decode)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => bad(&path, e.to_string()),
                _ => io_err(&path, e),
            })?;
        if let Verdict::Corrupt { line, count } = verdict {
            return Err(bad(
                &path,
                format!("line {line} is damaged ({count} damaged in all); not resuming over it"),
            ));
        }
        let n_meta = lines.len().min(2);
        let mut store = BootstrapStore { log, total, records: Vec::new() };
        for line in lines {
            match line {
                StoreLine::Fingerprint(found) => check_fingerprint(&path, found, fingerprint)?,
                StoreLine::Total(found) if found != total => {
                    return Err(bad(
                        &path,
                        format!("job count mismatch ({found} on disk, {total} expected)"),
                    ));
                }
                StoreLine::Total(_) => {}
                StoreLine::Job(rec) => store.records.push(rec),
            }
        }
        if store.records.len() > total {
            return Err(bad(&path, "more records than jobs"));
        }
        // A new store, or one cut short before its job records, gets the
        // analysis lines it lacks.
        if n_meta == 0 {
            store.append_line(&format!("fingerprint {fingerprint:016x}"))?;
        }
        if n_meta <= 1 {
            store.append_line(&format!("total {total}"))?;
        }
        Ok(store)
    }

    /// Number of jobs completed and persisted.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Total jobs in the analysis this store belongs to.
    pub fn total(&self) -> usize {
        self.total
    }

    /// All persisted records, in job order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Append one completed job. Jobs must be appended in index order with
    /// no gaps (enforced), matching the chunked driver.
    pub fn append(&mut self, log_likelihood: f64, tree_exact: &str) -> Result<()> {
        let index = self.records.len();
        assert!(index < self.total, "appending job {index} to a store of {} jobs", self.total);
        let line = format!(
            "job {index} {:016x} {}",
            log_likelihood.to_bits(),
            tree_exact.trim_end_matches('\n').replace('\n', "|")
        );
        let metrics = ckpt_metrics();
        let t0 = metrics.map(|_| Instant::now());
        self.append_line(&line)?;
        if let (Some(m), Some(t0)) = (metrics, t0) {
            m.append_ns.record(t0.elapsed().as_nanos() as u64);
            m.append_bytes.add(line.len() as u64);
        }
        self.records.push(JobRecord { index, log_likelihood, tree_exact: tree_exact.to_owned() });
        Ok(())
    }

    fn append_line(&self, line: &str) -> Result<()> {
        self.log.append(line).map_err(|e| io_err(self.log.path(), e))
    }
}

/// Parse one `job <idx> <lnl_bits hex> <tree with '\n' → '|'>` record;
/// `None` on any damage or if the index is not the expected next one.
fn parse_record(line: &str, expected_index: usize) -> Option<JobRecord> {
    let rest = line.strip_prefix("job ")?;
    let mut parts = rest.splitn(3, ' ');
    let index: usize = parts.next()?.parse().ok()?;
    if index != expected_index {
        return None;
    }
    let bits = u64::from_str_radix(parts.next()?, 16).ok()?;
    let tree_flat = parts.next()?;
    let mut tree_exact = tree_flat.replace('|', "\n");
    tree_exact.push('\n');
    // Damaged tree text ⇒ damaged record.
    crate::tree::Tree::from_exact_string(&tree_exact).ok()?;
    Some(JobRecord { index, log_likelihood: f64::from_bits(bits), tree_exact })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::SimulationConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_tree_exact() -> String {
        let w = SimulationConfig::new(5, 40, 3).generate();
        w.true_tree.to_exact_string()
    }

    #[test]
    fn fingerprint_separates_analyses() {
        let w = SimulationConfig::new(6, 100, 1).generate();
        let cfg = SearchConfig::fast();
        let base = search_fingerprint(&w.alignment, &cfg, 5);
        assert_eq!(base, search_fingerprint(&w.alignment, &cfg, 5), "deterministic");
        assert_eq!(base, 0x22f3_00a7_4bbd_fa69, "a changed value orphans every file on disk");
        assert_ne!(base, search_fingerprint(&w.alignment, &cfg, 6), "seed matters");
        let mut wide = cfg.clone();
        wide.spr_radius += 1;
        assert_ne!(base, search_fingerprint(&w.alignment, &wide, 5), "radius matters");
        let other = SimulationConfig::new(7, 100, 1).generate();
        assert_ne!(base, search_fingerprint(&other.alignment, &cfg, 5), "alignment matters");
    }

    #[test]
    fn search_checkpoint_round_trips() {
        let path = tmp("search-roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut ck = SearchCheckpointer::new(&path, 0xdead_beef);
        assert_eq!(ck.load().unwrap(), None, "no file yet");

        let snap = SearchCheckpoint {
            rounds_done: 2,
            moves_applied: 7,
            last_applied: 3,
            alpha_bits: 0.8317_f64.to_bits(),
            tree_exact: sample_tree_exact(),
        };
        ck.save(&snap).unwrap();
        let loaded = ck.load().unwrap().unwrap();
        assert_eq!(loaded, snap);

        // A later snapshot replaces the earlier one.
        let snap2 = SearchCheckpoint { rounds_done: 3, last_applied: 0, ..snap.clone() };
        ck.save(&snap2).unwrap();
        assert_eq!(ck.load().unwrap().unwrap(), snap2);
    }

    #[test]
    fn search_checkpoint_rejects_foreign_and_corrupt_files() {
        let path = tmp("search-foreign.ckpt");
        let _ = std::fs::remove_file(&path);
        let snap = SearchCheckpoint {
            rounds_done: 1,
            moves_applied: 1,
            last_applied: 1,
            alpha_bits: 1.0_f64.to_bits(),
            tree_exact: sample_tree_exact(),
        };
        SearchCheckpointer::new(&path, 111).save(&snap).unwrap();

        // Wrong fingerprint: refuse, loudly.
        let err = SearchCheckpointer::new(&path, 222).load().unwrap_err();
        assert!(matches!(err, PhyloError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"));

        // Truncated tree section: refuse.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 20;
        std::fs::write(&path, &text[..cut]).unwrap();
        let err = SearchCheckpointer::new(&path, 111).load().unwrap_err();
        assert!(matches!(err, PhyloError::Checkpoint { .. }), "{err}");

        // Not a checkpoint at all.
        std::fs::write(&path, "totally unrelated\n").unwrap();
        let err = SearchCheckpointer::new(&path, 111).load().unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn abort_policy_interrupts_after_the_snapshot_lands() {
        let path = tmp("search-abort.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut ck = SearchCheckpointer::new(&path, 9).abort_after_saves(2);
        let snap = SearchCheckpoint {
            rounds_done: 1,
            moves_applied: 2,
            last_applied: 2,
            alpha_bits: 0.5_f64.to_bits(),
            tree_exact: sample_tree_exact(),
        };
        ck.save(&snap).unwrap();
        let snap2 = SearchCheckpoint { rounds_done: 2, ..snap.clone() };
        let err = ck.save(&snap2).unwrap_err();
        assert_eq!(err, PhyloError::Interrupted { completed: 2 });
        // The snapshot that triggered the abort is on disk.
        let loaded = SearchCheckpointer::new(&path, 9).load().unwrap().unwrap();
        assert_eq!(loaded, snap2);
    }

    #[test]
    fn bootstrap_store_appends_and_reloads() {
        let path = tmp("bootstrap-append.ckpt");
        let _ = std::fs::remove_file(&path);
        let tree = sample_tree_exact();
        {
            let mut store = BootstrapStore::open(&path, 42, 4).unwrap();
            assert_eq!(store.completed(), 0);
            store.append(-123.456, &tree).unwrap();
            store.append(-99.5, &tree).unwrap();
        }
        let store = BootstrapStore::open(&path, 42, 4).unwrap();
        assert_eq!(store.completed(), 2);
        assert_eq!(store.records()[0].log_likelihood, -123.456);
        assert_eq!(store.records()[1].log_likelihood, -99.5);
        assert_eq!(store.records()[0].tree_exact, tree);

        // Foreign fingerprint or job count: refuse.
        assert!(BootstrapStore::open(&path, 43, 4).is_err());
        assert!(BootstrapStore::open(&path, 42, 5).is_err());
    }

    #[test]
    fn bootstrap_store_drops_a_torn_trailing_record() {
        let path = tmp("bootstrap-torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let tree = sample_tree_exact();
        {
            let mut store = BootstrapStore::open(&path, 7, 3).unwrap();
            store.append(-10.0, &tree).unwrap();
            store.append(-20.0, &tree).unwrap();
        }
        // Simulate a crash mid-append: chop the final record in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 30;
        std::fs::write(&path, &text[..cut]).unwrap();

        let store = BootstrapStore::open(&path, 7, 3).unwrap();
        assert_eq!(store.completed(), 1, "torn record dropped, clean prefix kept");
        assert_eq!(store.records()[0].log_likelihood, -10.0);
        // And the file was healed: reopening sees the same clean state.
        let again = BootstrapStore::open(&path, 7, 3).unwrap();
        assert_eq!(again.completed(), 1);
    }

    #[test]
    fn bootstrap_store_drops_a_non_utf8_torn_tail() {
        let path = tmp("bootstrap-torn-utf8.ckpt");
        let _ = std::fs::remove_file(&path);
        let tree = sample_tree_exact();
        {
            let mut store = BootstrapStore::open(&path, 7, 3).unwrap();
            store.append(-10.0, &tree).unwrap();
        }
        // A crash mid-append on some filesystems leaves arbitrary bytes;
        // non-UTF-8 debris in the record section must heal, not error.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"job 1 \xff\xfe\xfd").unwrap();
        drop(f);

        let store = BootstrapStore::open(&path, 7, 3).unwrap();
        assert_eq!(store.completed(), 1, "binary debris dropped, clean prefix kept");
        let again = BootstrapStore::open(&path, 7, 3).unwrap();
        assert_eq!(again.completed(), 1);
    }

    /// A flipped bit in a middle record — in its index or in its lnL hex —
    /// is an error, and the file is left byte for byte as it was.
    #[test]
    fn bootstrap_store_refuses_a_flipped_bit_mid_file() {
        let path = tmp("bootstrap-flipped.ckpt");
        let tree = sample_tree_exact();
        for (field, offset) in [("index", "job ".len()), ("lnL hex", "job 1 ".len() + 3)] {
            let _ = std::fs::remove_file(&path);
            {
                let mut store = BootstrapStore::open(&path, 7, 4).unwrap();
                for lnl in [-10.0, -11.0, -12.0] {
                    store.append(lnl, &tree).unwrap();
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            let text = String::from_utf8(bytes.clone()).unwrap();
            let at = text.find("\njob 1 ").unwrap() + 1 + offset;
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let err = BootstrapStore::open(&path, 7, 4).unwrap_err();
            assert!(matches!(err, PhyloError::Checkpoint { .. }), "{field}: {err}");
            assert!(err.to_string().contains("line 5"), "{field}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{field}: file untouched");
        }
    }

    /// Multi-MB tree for the streaming-replay regression tests: big enough
    /// that the old slurp-the-file path would have materialized several MB
    /// per reload, small enough to stay fast.
    fn big_tree_exact() -> String {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        crate::tree::Tree::random(2000, 0.1, &mut rng).unwrap().to_exact_string()
    }

    #[test]
    fn search_checkpoint_streams_a_multi_mb_snapshot() {
        let path = tmp("search-multi-mb.ckpt");
        let _ = std::fs::remove_file(&path);
        let snap = SearchCheckpoint {
            rounds_done: 4,
            moves_applied: 31,
            last_applied: 5,
            alpha_bits: 0.73_f64.to_bits(),
            tree_exact: big_tree_exact(),
        };
        let mut ck = SearchCheckpointer::new(&path, 0xfeed);
        ck.save(&snap).unwrap();
        assert!(
            std::fs::metadata(&path).unwrap().len() > 100_000,
            "snapshot should be large enough to exercise streaming"
        );
        assert_eq!(ck.load().unwrap().unwrap(), snap);
    }

    #[test]
    fn bootstrap_store_streams_and_heals_a_multi_mb_log() {
        let path = tmp("bootstrap-multi-mb.ckpt");
        let _ = std::fs::remove_file(&path);
        let tree = big_tree_exact();
        let n_records = 20;
        {
            let mut store = BootstrapStore::open(&path, 13, n_records + 1).unwrap();
            for i in 0..n_records {
                store.append(-1000.0 - i as f64, &tree).unwrap();
            }
        }
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size > 2_000_000, "log should be multi-MB, got {size} bytes");

        // Clean reload: every record survives, in order.
        let store = BootstrapStore::open(&path, 13, n_records + 1).unwrap();
        assert_eq!(store.completed(), n_records);
        for (i, rec) in store.records().iter().enumerate() {
            assert_eq!(rec.index, i);
            assert_eq!(rec.log_likelihood, -1000.0 - i as f64);
        }

        // Tear the final record mid-line: the clean prefix heals.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 1234]).unwrap();
        let healed = BootstrapStore::open(&path, 13, n_records + 1).unwrap();
        assert_eq!(healed.completed(), n_records - 1);
        assert_eq!(healed.records().last().unwrap().tree_exact, tree);
    }
}
