//! The durable record log: the append-only line files that the service
//! journal, the bootstrap store and the service event log are written as.
//!
//! A file is a header line `#<kind> v2`, then one record per line:
//! `payload ' ' checksum '\n'`, where the checksum is 16 lowercase hex
//! digits of [`fnv1a`]`(payload)`. Each record is written with one
//! `write_all`, so a crash mid-append can only leave the final line cut
//! short. Every FNV-1a step is a bijection of the hash state, so any single
//! changed byte changes the checksum.
//!
//! **The one recovery rule: only the final line may be damaged, and only by
//! being cut short** (no `'\n'`), as a torn write leaves it. A terminated
//! line whose checksum fails or that the caller's decoder rejects is damage
//! no crash can cause. [`read`] returns the records it could decode and a
//! [`Verdict`]; what [`Verdict::Corrupt`] means is the caller's policy.
//! [`RecordLog::open`] never writes: its first append cuts a torn tail off
//! (`set_len`), and a failed append is rolled back, so the log itself never
//! leaves damage mid-file.
//!
//! v1 files (the same lines without checksums, under each kind's old
//! header) are still read. The first append migrates one to v2 with a
//! single [`atomic_write`].

use crate::trace::fnv1a;
use crate::Counter;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// When appends reach the disk.
///
/// `File::flush()` is a no-op for unbuffered files, so "append + flush" is
/// not durable: a machine crash can lose acknowledged records. The default
/// pays one `sync_data` per append. `OsManaged` leaves write-back to the OS
/// page cache, for throughput studies and diagnostic logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `sync_data` after every append (durable acks).
    #[default]
    EveryAppend,
    /// Leave flushing to the OS page cache (fast, crash-lossy).
    OsManaged,
}

/// One kind of log.
#[derive(Debug, Clone, Copy)]
pub struct Format {
    /// The `<kind>` of the `#<kind> v2` header.
    pub kind: &'static str,
    /// The whole first line of this kind's v1 files.
    pub v1_header: &'static str,
    /// Prefix of the log's counters in the global registry:
    /// `<metrics>_sync_total` and `<metrics>_write_errors_total`, kept by
    /// [`RecordLog`], and `<metrics>_corrupt_lines_total`, kept by [`read`].
    pub metrics: &'static str,
}

impl Format {
    fn header(&self) -> String {
        format!("#{} v2\n", self.kind)
    }

    fn counter(&self, what: &str, help: &str) -> Counter {
        let name = format!("{}_{what}", self.metrics);
        crate::global().describe(&name, &format!("{help} ({} log).", self.kind));
        crate::global().counter(&name)
    }
}

/// What a read found besides the records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every line is intact.
    Clean,
    /// The final line was cut short (a crash mid-append); it is not returned.
    TornTail,
    /// `count` terminated lines are damaged; the first is line `line` of the
    /// file (the header is line 1). They are not returned.
    Corrupt { line: usize, count: usize },
}

/// `v` as 16 lowercase hex digits.
fn hex16(v: u64) -> [u8; 16] {
    std::array::from_fn(|i| b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 15])
}

/// The payload of a v2 line (without its `'\n'`) whose checksum holds.
fn checked(body: &[u8]) -> Option<&[u8]> {
    let (payload, tail) = body.split_at(body.len().checked_sub(17)?);
    (tail[0] == b' ' && tail[1..] == hex16(fnv1a(payload))).then_some(payload)
}

/// Append `payload` framed as one v2 line.
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(payload);
    out.push(b' ');
    out.extend_from_slice(&hex16(fnv1a(payload)));
    out.push(b'\n');
}

/// Read the log at `path`: every record `decode` accepts, in file order, and
/// the [`Verdict`]; damaged lines are counted in
/// `<metrics>_corrupt_lines_total`. A missing file is `NotFound`; a first
/// line that is not this kind's v2 or v1 header is `InvalidData`.
pub fn read<T>(
    path: &Path,
    format: &Format,
    decode: impl FnMut(&str) -> Option<T>,
) -> io::Result<(Vec<T>, Verdict)> {
    let (records, verdict, _) = scan(path, format, decode)?;
    if let Verdict::Corrupt { count, .. } = verdict {
        format.counter("corrupt_lines_total", "Damaged lines skipped by reads").add(count as u64);
    }
    Ok((records, verdict))
}

/// [`read`], plus the writer that appends after the last intact line.
fn scan<T>(
    path: &Path,
    format: &Format,
    mut decode: impl FnMut(&str) -> Option<T>,
) -> io::Result<(Vec<T>, Verdict, Writer)> {
    let mut file = BufReader::new(File::open(path)?);
    let (header, v1_header) = (format.header(), format!("{}\n", format.v1_header));
    let mut line = Vec::new();
    file.read_until(b'\n', &mut line)?;
    let v1 = line == v1_header.as_bytes();
    if !v1 && line != header.as_bytes() {
        let cut_short = !line.ends_with(b"\n")
            && (header.as_bytes().starts_with(&line) || v1_header.as_bytes().starts_with(&line));
        if !cut_short {
            let found = String::from_utf8_lossy(line.strip_suffix(b"\n").unwrap_or(&line));
            let message = format!("not a {} v2 log: first line {found:?}", format.kind);
            return Err(io::Error::new(io::ErrorKind::InvalidData, message));
        }
        // No header, or one cut short: an empty log.
        let verdict = if line.is_empty() { Verdict::Clean } else { Verdict::TornTail };
        return Ok((Vec::new(), verdict, Writer::new(0, Some(header.into_bytes()))));
    }
    let mut len = line.len() as u64;
    // A v1 file is rewritten as v2 by the first append.
    let mut rewrite = v1.then(|| header.into_bytes());
    let (mut records, mut torn, mut first_bad, mut bad) = (Vec::new(), false, 0, 0);
    for n in 2.. {
        line.clear();
        if file.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let Some(body) = line.strip_suffix(b"\n") else {
            torn = true;
            break;
        };
        let payload = if v1 { Some(body) } else { checked(body) };
        match payload.and_then(|p| std::str::from_utf8(p).ok()).and_then(&mut decode) {
            Some(record) => records.push(record),
            None if bad == 0 => (first_bad, bad) = (n, 1),
            None => bad += 1,
        }
        if let Some(out) = &mut rewrite {
            frame(out, body);
        }
        len += line.len() as u64;
    }
    let verdict = match (bad, torn) {
        (0, false) => Verdict::Clean,
        (0, true) => Verdict::TornTail,
        (count, _) => Verdict::Corrupt { line: first_bad, count },
    };
    Ok((records, verdict, Writer::new(len, rewrite)))
}

/// Write `contents` to `path` atomically: write and sync a sibling temp
/// file, rename it over the target, and sync the directory so the rename
/// survives a crash too. A crash mid-write leaves the previous file intact.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// An open log: the one append path. It assumes it is the file's only
/// writer; share it behind an `Arc`.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    policy: SyncPolicy,
    writer: Mutex<Writer>,
    syncs: AtomicU64,
    sync_total: Counter,
    write_errors_total: Counter,
}

#[derive(Debug)]
struct Writer {
    /// Opened by the first append, after `rewrite` and the torn-tail cut.
    file: Option<File>,
    rewrite: Option<Vec<u8>>,
    /// The file's length up to its last intact line.
    len: u64,
    line: Vec<u8>,
}

impl RecordLog {
    /// Read the log at `path` (a missing file is an empty log) and open it
    /// for appending. Nothing is written until the first append, so a
    /// caller that refuses a [`Verdict::Corrupt`] file leaves it untouched.
    pub fn open<T>(
        path: impl Into<PathBuf>,
        format: &Format,
        policy: SyncPolicy,
        decode: impl FnMut(&str) -> Option<T>,
    ) -> io::Result<(RecordLog, Vec<T>, Verdict)> {
        let path = path.into();
        let (records, verdict, writer) = match scan(&path, format, decode) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (Vec::new(), Verdict::Clean, Writer::new(0, Some(format.header().into_bytes())))
            }
            scanned => scanned?,
        };
        let log = RecordLog {
            path,
            policy,
            writer: Mutex::new(writer),
            syncs: AtomicU64::new(0),
            sync_total: format.counter("sync_total", "Successful sync_data calls after appends"),
            write_errors_total: format.counter("write_errors_total", "Appends that failed"),
        };
        Ok((log, records, verdict))
    }

    /// Where the log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (`payload` must not contain `'\n'`) with one
    /// `write_all`, synced under [`SyncPolicy::EveryAppend`]. On failure the
    /// file is cut back to its previous length and the error is counted.
    pub fn append(&self, payload: &str) -> io::Result<()> {
        assert!(!payload.contains('\n'), "a record is one line");
        // The critical section is a write and a sync; a panic elsewhere
        // while holding it cannot leave the writer half-updated.
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let appended = writer.append(&self.path, payload.as_bytes(), self.policy);
        match appended {
            Ok(true) => {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                self.sync_total.inc();
            }
            Ok(false) => {}
            Err(_) => self.write_errors_total.inc(),
        }
        appended.map(drop)
    }

    /// Successful `sync_data` calls after appends.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl Writer {
    fn new(len: u64, rewrite: Option<Vec<u8>>) -> Writer {
        Writer { file: None, rewrite, len, line: Vec::new() }
    }

    /// Whether the append was synced.
    fn append(&mut self, path: &Path, payload: &[u8], policy: SyncPolicy) -> io::Result<bool> {
        if self.file.is_none() {
            if let Some(contents) = &self.rewrite {
                atomic_write(path, contents)?;
                (self.len, self.rewrite) = (contents.len() as u64, None);
            }
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(self.len)?;
            self.file = Some(file);
        }
        let file = self.file.as_mut().expect("opened above");
        self.line.clear();
        frame(&mut self.line, payload);
        let written = write_line(file, &self.line).and_then(|()| match policy {
            SyncPolicy::EveryAppend => file.sync_data().map(|()| true),
            SyncPolicy::OsManaged => Ok(false),
        });
        match written {
            Ok(_) => self.len += self.line.len() as u64,
            // If even the rollback fails, the next append cuts the file back
            // before writing.
            Err(_) if file.set_len(self.len).is_err() => self.file = None,
            Err(_) => {}
        }
        written
    }
}

fn write_line(file: &mut File, line: &[u8]) -> io::Result<()> {
    // A unit test can make the next write stop halfway, as a full disk does.
    #[cfg(test)]
    if tests::FAIL_NEXT_WRITE.with(|f| f.replace(false)) {
        file.write_all(&line[..line.len() / 2])?;
        return Err(io::Error::other("injected write failure"));
    }
    file.write_all(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        pub(super) static FAIL_NEXT_WRITE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    const TEST: Format =
        Format { kind: "TEST-LOG", v1_header: "#TEST-LOG v1", metrics: "test_log" };

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("obs-record-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn any(line: &str) -> Option<String> {
        Some(line.to_string())
    }

    #[test]
    fn records_round_trip_and_reopen_appends() {
        let path = tmp("round-trip.log");
        let (log, records, verdict) =
            RecordLog::open(&path, &TEST, SyncPolicy::EveryAppend, any).unwrap();
        assert_eq!((records.len(), verdict), (0, Verdict::Clean));
        log.append("a b").unwrap();
        log.append("").unwrap();
        assert_eq!(log.syncs(), 2);
        drop(log);
        let (log, records, _) = RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        assert_eq!(records, ["a b", ""]);
        log.append("c").unwrap();
        assert_eq!(log.syncs(), 0, "OsManaged never syncs");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("#TEST-LOG v2\na b "), "{text}");
        assert_eq!(
            read(&path, &TEST, any).unwrap(),
            (vec!["a b".into(), "".into(), "c".into()], Verdict::Clean)
        );
    }

    #[test]
    fn a_torn_tail_is_cut_before_the_next_append() {
        let path = tmp("torn.log");
        let (log, ..) = RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        log.append("one").unwrap();
        drop(log);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"tw").unwrap();
        drop(f);
        let (log, records, verdict) =
            RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        assert_eq!((records, verdict), (vec!["one".to_string()], Verdict::TornTail));
        log.append("two").unwrap();
        assert_eq!(
            read(&path, &TEST, any).unwrap(),
            (vec!["one".into(), "two".into()], Verdict::Clean)
        );
    }

    #[test]
    fn damage_before_the_final_line_is_corrupt_and_left_alone() {
        let path = tmp("corrupt.log");
        let (log, ..) = RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        for r in ["one", "two", "three"] {
            log.append(r).unwrap();
        }
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.iter().position(|&b| b == b'w').unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (log, records, verdict) =
            RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        assert_eq!(records, ["one", "three"]);
        assert_eq!(verdict, Verdict::Corrupt { line: 3, count: 1 });
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "opening never writes");
        // A terminated final line with a bad checksum is no torn write.
        std::fs::write(&path, "#TEST-LOG v2\none 0000000000000000\n").unwrap();
        assert_eq!(read(&path, &TEST, any).unwrap().1, Verdict::Corrupt { line: 2, count: 1 });
        // A foreign header is an error, but a header cut short is an empty log.
        std::fs::write(&path, "#TEST-LOG v9\n").unwrap();
        let err = read(&path, &TEST, any).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        std::fs::write(&path, "hello").unwrap();
        assert!(read(&path, &TEST, any).is_err(), "a foreign file without a newline is not torn");
        std::fs::write(&path, "#TEST-L").unwrap();
        assert_eq!(read(&path, &TEST, any).unwrap(), (vec![], Verdict::TornTail));
    }

    #[test]
    fn v1_files_are_read_and_migrated_by_the_first_append() {
        let path = tmp("v1.log");
        std::fs::write(&path, "#TEST-LOG v1\nold one\nold two\ntor").unwrap();
        let (log, records, verdict) =
            RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        assert_eq!(
            (records, verdict),
            (vec!["old one".into(), "old two".into()], Verdict::TornTail)
        );
        log.append("new").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("#TEST-LOG v2\nold one "), "{text}");
        let all = vec!["old one".to_string(), "old two".into(), "new".into()];
        assert_eq!(read(&path, &TEST, any).unwrap(), (all, Verdict::Clean));
    }

    #[test]
    fn a_failed_append_is_rolled_back_and_counted() {
        crate::global().set_enabled(true);
        let errors = || crate::global().counter("test_log_write_errors_total").get();
        let path = tmp("rollback.log");
        let (log, ..) = RecordLog::open(&path, &TEST, SyncPolicy::EveryAppend, any).unwrap();
        log.append("kept").unwrap();
        let (before, errors_before) = (std::fs::metadata(&path).unwrap().len(), errors());
        FAIL_NEXT_WRITE.with(|f| f.set(true));
        assert!(log.append("lost").is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before, "rolled back");
        assert_eq!(errors(), errors_before + 1, "counted");
        assert_eq!(log.syncs(), 1, "the failed append did not sync");
        log.append("after").unwrap();
        assert_eq!(
            read(&path, &TEST, any).unwrap(),
            (vec!["kept".into(), "after".into()], Verdict::Clean)
        );
    }

    #[test]
    fn a_poisoned_append_lock_is_recovered() {
        let path = tmp("poison.log");
        let (log, ..) = RecordLog::open(&path, &TEST, SyncPolicy::OsManaged, any).unwrap();
        let log = std::sync::Arc::new(log);
        let held = log.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.writer.lock().unwrap();
            panic!("poison the append lock");
        })
        .join();
        assert!(log.writer.is_poisoned());
        log.append("still works").unwrap();
        assert_eq!(read(&path, &TEST, any).unwrap().0, ["still works"]);
    }

    #[test]
    fn one_changed_byte_anywhere_fails_the_checksum() {
        let mut line = Vec::new();
        frame(&mut line, b"{\"ev\":\"done\",\"job\":7}");
        let body = &line[..line.len() - 1];
        assert!(checked(body).is_some());
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.to_vec();
                flipped[i] ^= 1 << bit;
                assert!(checked(&flipped).is_none(), "byte {i} bit {bit}");
            }
        }
    }
}
