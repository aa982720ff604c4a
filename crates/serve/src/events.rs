//! Structured operational event log, shared by the client and server tiers.
//!
//! Where the [`obs`] registry aggregates (counters, histograms) and
//! [`obs::trace`] reconstructs per-job causality, this module records the
//! *discrete operational incidents* in between: client reconnects and
//! backoff pauses, server-side connection deadline evictions, drains. Each
//! event is one JSON line carrying a severity level plus the three
//! correlation keys the rest of the observability stack speaks — tenant,
//! job id, and trace id — so an incident line joins against both the
//! journal and a span tree.
//!
//! The file is an [`obs::log`] record log, like `journal.jsonl`: one JSON
//! object per record, append-only. The log is diagnostic, so
//! [`EventLog::read`] never fails on damage: a torn final line and any
//! damaged line before it are skipped, and the latter are counted in
//! `serve_event_log_corrupt_lines_total`.

use crate::wire::{self, JsonObj};
use obs::json;
use obs::log::{Format, RecordLog, SyncPolicy};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The event log's kind. v1 files (`#RAXML-CELL-SERVE-EVENTS v1`, no
/// checksums) are read, and migrated to v2 by the first emit.
pub const EVENTS: Format = Format {
    kind: "RAXML-CELL-SERVE-EVENTS",
    v1_header: "#RAXML-CELL-SERVE-EVENTS v1",
    metrics: "serve_event_log",
};

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Info,
    Warn,
    Error,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One parsed event line. `tenant` is empty and `job`/`trace` are 0 when
/// the emitter had no binding for them (e.g. a reconnect that precedes any
/// submission).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Nanoseconds since the emitting log was opened.
    pub at_ns: u64,
    pub level: Level,
    /// Machine-readable event name, e.g. `"reconnect"`, `"backoff"`,
    /// `"conn_deadline"`, `"drain"`.
    pub kind: String,
    pub tenant: String,
    pub job: u64,
    pub trace: u64,
    /// Free-form human context.
    pub detail: String,
}

/// An append-only JSONL event sink. Clones share one log and one epoch, so
/// the client and server sides of a test can interleave into a single
/// coherent timeline.
#[derive(Debug, Clone)]
pub struct EventLog {
    log: Arc<RecordLog>,
    epoch: Instant,
}

impl EventLog {
    /// Open (or create) the log at `path` for appending; the first emit
    /// writes the header if the file has none and cuts off a torn tail.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<EventLog> {
        let (log, ..) = RecordLog::open(path, &EVENTS, SyncPolicy::OsManaged, |_| Some(()))?;
        Ok(EventLog { log: Arc::new(log), epoch: Instant::now() })
    }

    /// Where this log writes.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Append one event line. A failed write is rolled back and counted in
    /// `serve_event_log_write_errors_total`; an event log on a full disk
    /// must never take the serving path down with it.
    pub fn emit(&self, level: Level, kind: &str, tenant: &str, job: u64, trace: u64, detail: &str) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let line = JsonObj::new()
            .u64("ts_ns", at_ns)
            .str("level", level.as_str())
            .str("kind", kind)
            .str("tenant", tenant)
            .u64("job", job)
            .u64("trace", trace)
            .str("detail", detail)
            .finish();
        self.log.append(&line).ok();
    }

    /// Every intact event of the file at `path`, skipping a torn final line
    /// and counting the damaged lines before it.
    pub fn read(path: impl AsRef<Path>) -> std::io::Result<Vec<EventRecord>> {
        obs::log::read(path.as_ref(), &EVENTS, decode).map(|(events, _)| events)
    }
}

fn decode(line: &str) -> Option<EventRecord> {
    let v = json::parse(line).ok()?;
    Some(EventRecord {
        at_ns: wire::get_u64(&v, "ts_ns").unwrap_or(0),
        level: wire::get_str(&v, "level").and_then(Level::parse)?,
        kind: wire::get_str(&v, "kind")?.to_string(),
        tenant: wire::get_str(&v, "tenant").unwrap_or("").to_string(),
        job: wire::get_u64(&v, "job").unwrap_or(0),
        trace: wire::get_u64(&v, "trace").unwrap_or(0),
        detail: wire::get_str(&v, "detail").unwrap_or("").to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("raxml-cell-events-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn events_round_trip_with_all_fields() {
        let path = unique_path("round-trip");
        let log = EventLog::open(&path).unwrap();
        log.emit(Level::Info, "reconnect", "", 0, 0, "127.0.0.1:9");
        log.emit(Level::Warn, "backoff", "acme \"lab\"", 7, u64::MAX - 3, "attempt 2");
        drop(log);

        let events = EventLog::read(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "reconnect");
        assert_eq!(events[0].level, Level::Info);
        assert_eq!(events[1].tenant, "acme \"lab\"");
        assert_eq!(events[1].job, 7);
        assert_eq!(events[1].trace, u64::MAX - 3, "big trace ids survive JSON");
        assert!(events[1].at_ns >= events[0].at_ns, "one shared epoch orders events");
    }

    #[test]
    fn reader_tolerates_torn_tail_and_garbage() {
        let path = unique_path("torn-tail");
        let log = EventLog::open(&path).unwrap();
        log.emit(Level::Error, "drain", "", 0, 0, "leaked 1");
        drop(log);
        // Simulate a crash mid-append plus an unknown-level line.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"level\":\"loud\",\"kind\":\"x\"}\n");
        raw.push_str("{\"ts_ns\":12,\"level\":\"info\",\"ki");
        std::fs::write(&path, raw).unwrap();

        let events = EventLog::read(&path).unwrap();
        assert_eq!(events.len(), 1, "torn tail and bad level skipped, not fatal");
        assert_eq!(events[0].kind, "drain");
    }

    /// A crash mid-append leaves a torn final line; the next life's first
    /// event must not be glued onto it.
    #[test]
    fn an_event_emitted_after_a_torn_tail_is_read_back() {
        let path = unique_path("after-torn-tail");
        EventLog::open(&path).unwrap().emit(Level::Info, "before", "", 0, 0, "");
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("{\"ts_ns\":12,\"level\":\"info\",\"ki");
        std::fs::write(&path, raw).unwrap();

        EventLog::open(&path).unwrap().emit(Level::Warn, "after", "", 0, 0, "");
        let kinds: Vec<String> =
            EventLog::read(&path).unwrap().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["before", "after"]);
    }

    #[test]
    fn reopening_appends_instead_of_truncating() {
        let path = unique_path("reopen");
        EventLog::open(&path).unwrap().emit(Level::Info, "a", "", 0, 0, "");
        EventLog::open(&path).unwrap().emit(Level::Info, "b", "", 0, 0, "");
        let kinds: Vec<String> =
            EventLog::read(&path).unwrap().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b"]);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().filter(|l| l.starts_with('#')).count(), 1, "one header");
    }
}
