//! The service journal (`journal.jsonl`): every accepted job and how it
//! settled, one JSON object per [`obs::log`] record.
//! [`InferenceService::start`](crate::service::InferenceService::start)
//! replays it. A journal damaged before its final line refuses to start the
//! service: skipping a damaged `submit` would drop its job, and skipping a
//! damaged `done` would run a finished job again.

use crate::wire::{self, JobSpec, JsonObj, WireResult};
use obs::json;
use obs::log::{Format, RecordLog, SyncPolicy, Verdict};
use std::io;
use std::path::Path;

/// The journal's kind. v1 journals (`#RAXML-CELL-SERVE-JOURNAL v1`, no
/// checksums) are replayed, and migrated to v2 by the first append.
pub const JOURNAL: Format = Format {
    kind: "RAXML-CELL-SERVE-JOURNAL",
    v1_header: "#RAXML-CELL-SERVE-JOURNAL v1",
    metrics: "serve_journal",
};

/// One journal record. A `Submit` carries the job's idempotency key and
/// trace id (0 when untraced), so a replay dedups retries and extends the
/// same trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    Submit { job: u64, tenant: String, idem: Option<String>, trace: u64, spec: JobSpec },
    Done { job: u64, result: WireResult },
    Failed { job: u64, error: String },
    Cancelled { job: u64, reason: String },
}

impl Entry {
    /// The entry as one JSON object (the record's payload).
    pub fn encode(&self) -> String {
        match self {
            Entry::Submit { job, tenant, idem, trace, spec } => {
                let mut obj =
                    JsonObj::new().str("ev", "submit").u64("job", *job).str("tenant", tenant);
                if let Some(key) = idem {
                    obj = obj.str("idem", key);
                }
                if *trace != 0 {
                    obj = obj.u64("trace", *trace);
                }
                spec.write_fields(obj).finish()
            }
            Entry::Done { job, result } => {
                result.write_fields(JsonObj::new().str("ev", "done").u64("job", *job)).finish()
            }
            Entry::Failed { job, error } => {
                JsonObj::new().str("ev", "failed").u64("job", *job).str("error", error).finish()
            }
            Entry::Cancelled { job, reason } => JsonObj::new()
                .str("ev", "cancelled")
                .u64("job", *job)
                .str("reason", reason)
                .finish(),
        }
    }

    fn decode(line: &str) -> Option<Entry> {
        let v = json::parse(line).ok()?;
        let job = wire::get_u64(&v, "job")?;
        let text = |key| wire::get_str(&v, key).map(str::to_string);
        Some(match wire::get_str(&v, "ev")? {
            "submit" => Entry::Submit {
                job,
                tenant: text("tenant")?,
                idem: text("idem"),
                trace: wire::get_u64(&v, "trace").unwrap_or(0),
                spec: JobSpec::from_json(&v).ok()?,
            },
            "done" => Entry::Done { job, result: WireResult::from_json(&v).ok()? },
            "failed" => Entry::Failed { job, error: text("error")? },
            "cancelled" => Entry::Cancelled { job, reason: text("reason")? },
            _ => return None,
        })
    }
}

/// Open the journal at `path` (a missing file is an empty journal) and read
/// its entries. A torn final line is dropped, and cut off by the first
/// append. A foreign header, or a damaged line before the final one, is
/// `InvalidData` naming the file (and the line), and the file is left as it
/// is. Append [`Entry::encode`]d entries to the returned log.
pub fn open(path: &Path, policy: SyncPolicy) -> io::Result<(RecordLog, Vec<Entry>)> {
    let named = |e: io::Error| match e.kind() {
        io::ErrorKind::InvalidData => io::Error::new(e.kind(), format!("{}: {e}", path.display())),
        _ => e,
    };
    let (log, entries, verdict) =
        RecordLog::open(path, &JOURNAL, policy, Entry::decode).map_err(named)?;
    if let Verdict::Corrupt { line, count } = verdict {
        let message = format!("line {line} is damaged ({count} in all); refusing to replay it");
        return Err(named(io::Error::new(io::ErrorKind::InvalidData, message)));
    }
    Ok((log, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal written before the checksums (v1) replays, and its first
    /// append migrates it to v2 without losing an entry.
    #[test]
    fn a_v1_journal_is_replayed_and_migrated() {
        let dir = std::env::temp_dir().join("raxml-cell-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.jsonl");
        let v1 = concat!(
            "#RAXML-CELL-SERVE-JOURNAL v1\n",
            r#"{"ev":"submit","job":1,"tenant":"a","idem":"k","dataset":"d","kind":"search","seed":3,"preset":"fast","checkpoint":false}"#,
            "\n",
            r#"{"ev":"done","job":1,"log_likelihood":-1.5,"lnl_bits":"13832806255468478464","alpha_bits":"4602678819172646912","tree":"t","rounds":1,"moves_applied":0}"#,
            "\n",
        );
        std::fs::write(&path, v1).unwrap();
        let (log, entries) = open(&path, SyncPolicy::OsManaged).unwrap();
        assert!(matches!(&entries[0], Entry::Submit { job: 1, idem: Some(k), .. } if k == "k"));
        let Entry::Done { job: 1, result } = &entries[1] else { panic!("{entries:?}") };
        assert_eq!((result.log_likelihood, result.alpha), (-1.5, 0.5));
        let cancel = Entry::Cancelled { job: 2, reason: "r".into() };
        log.append(&cancel.encode()).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("#RAXML-CELL-SERVE-JOURNAL v2\n"), "{text}");
        let (_, again) = open(&path, SyncPolicy::OsManaged).unwrap();
        assert_eq!(again[..2], entries[..]);
        assert_eq!(again[2], cancel);
    }
}
