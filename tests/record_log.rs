//! One property over the three durable logs built on `obs::log`: the
//! service journal, the bootstrap store and the service event log.
//!
//! * Cut a log at every byte offset: its intact prefix comes back, it takes
//!   one more record, and that record is there on the next open.
//! * Flip every bit of one line before the final one: the journal and the
//!   store refuse the file (and leave it as it is), the event reader skips
//!   the damage and counts it, and no record ever comes back changed.
//!
//! `scripts/ci.sh` runs it again in release with `PROPTEST_CASES=512`.

use phylo::checkpoint::BootstrapStore;
use phylo::prelude::*;
use proptest::prelude::*;
use serve::events::{EventLog, Level};
use serve::journal::{self, Entry};
use serve::service::SyncPolicy;
use serve::wire::{JobKind, JobSpec, Preset, WireResult};
use std::fmt::Debug;
use std::path::{Path, PathBuf};

const TENANTS: [&str; 3] = ["a", "lab \"b\"", "ten\nant"];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raxml-cell-record-log");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Byte ranges of the file's lines, each with its `'\n'`.
fn lines(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut start = 0;
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out
}

/// `got` is `all` with some records left out, none changed.
fn is_subsequence<R: PartialEq>(got: &[R], all: &[R]) -> bool {
    let mut rest = all.iter();
    got.iter().all(|g| rest.any(|a| a == g))
}

/// Run the property on the log at `path`. `read` opens it as its owner
/// would (an `Err` is a refusal), `append` adds one record and returns it,
/// and `preamble` is the number of lines before the first record.
fn check<R: PartialEq + Debug>(
    path: &Path,
    preamble: usize,
    pick: usize,
    read: impl Fn(&Path) -> Result<Vec<R>, String>,
    append: impl Fn(&Path) -> R,
    refuses_damage: bool,
) -> TestCaseResult {
    let intact = std::fs::read(path).unwrap();
    let all = read(path).map_err(TestCaseError::fail)?;
    let spans = lines(&intact);
    prop_assert_eq!(spans.len(), preamble + all.len(), "one line per record");

    for cut in 0..=intact.len() {
        std::fs::write(path, &intact[..cut]).unwrap();
        let whole = spans.iter().filter(|s| s.end <= cut).count();
        let prefix = &all[..whole.saturating_sub(preamble)];
        let got = read(path).map_err(|e| TestCaseError::fail(format!("cut at {cut}: {e}")))?;
        prop_assert_eq!(&got[..], prefix, "cut at {}", cut);
        let fresh = append(path);
        let got = read(path).map_err(|e| TestCaseError::fail(format!("cut at {cut}: {e}")))?;
        prop_assert_eq!(got.len(), prefix.len() + 1, "cut at {}", cut);
        prop_assert_eq!(&got[..prefix.len()], prefix, "cut at {}", cut);
        prop_assert_eq!(&got[prefix.len()], &fresh, "cut at {}", cut);
    }

    let corrupt = || obs::global().counter("serve_event_log_corrupt_lines_total").get();
    let line = spans[pick % (spans.len() - 1)].clone();
    for at in line {
        for bit in 0..8 {
            let mut flipped = intact.clone();
            flipped[at] ^= 1 << bit;
            std::fs::write(path, &flipped).unwrap();
            let before = corrupt();
            let refused = refuses_damage || at < spans[0].end;
            match read(path) {
                Err(_) if refused => {}
                Err(e) => prop_assert!(false, "byte {} bit {}: the reader failed: {}", at, bit, e),
                Ok(got) => {
                    prop_assert!(!refused, "byte {} bit {} was read as {:?}", at, bit, got);
                    prop_assert!(got.len() < all.len(), "byte {} bit {}: nothing skipped", at, bit);
                    prop_assert!(is_subsequence(&got, &all), "byte {} bit {}: {:?}", at, bit, got);
                    prop_assert!(corrupt() > before, "byte {} bit {}: skip not counted", at, bit);
                }
            }
            prop_assert!(
                std::fs::read(path).unwrap() == flipped,
                "byte {} bit {}: file changed",
                at,
                bit
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_cut_recovers_its_prefix_and_every_flip_is_caught(
        n in 1usize..4,
        seed in 0u64..1_000_000,
        pick in 0usize..1000,
    ) {
        obs::global().set_enabled(true);

        // The service journal.
        let path = tmp(&format!("journal-{seed}.jsonl"));
        let journal = |p: &Path| journal::open(p, SyncPolicy::OsManaged);
        let (log, _) = journal(&path).unwrap();
        let spec = JobSpec::new("d", JobKind::Search, seed, Preset::Fast);
        for job in 1..=n as u64 {
            let tenant = TENANTS[(seed + job) as usize % 3].to_string();
            let entry = match (seed + job) % 4 {
                0 => Entry::Submit { job, tenant, idem: Some("k".into()), trace: seed, spec: spec.clone() },
                1 => Entry::Done {
                    job,
                    result: WireResult {
                        log_likelihood: -(seed as f64) / 7.0,
                        alpha: 0.5,
                        tree_exact: tenant,
                        rounds: 1,
                        moves_applied: 2,
                    },
                },
                2 => Entry::Failed { job, error: tenant },
                _ => Entry::Cancelled { job, reason: tenant },
            };
            log.append(&entry.encode()).unwrap();
        }
        drop(log);
        let fresh = Entry::Cancelled { job: 1000, reason: "fresh".into() };
        check(
            &path,
            1,
            pick,
            |p| journal(p).map(|(_, entries)| entries).map_err(|e| e.to_string()),
            |p| {
                journal(p).unwrap().0.append(&fresh.encode()).unwrap();
                fresh.clone()
            },
            true,
        )?;

        // The bootstrap store.
        let path = tmp(&format!("store-{seed}.ckpt"));
        let tree = SimulationConfig::new(4, 8, seed).generate().true_tree.to_exact_string();
        let (fingerprint, total) = (seed ^ 0x5eed, n + 1);
        let mut store = BootstrapStore::open(&path, fingerprint, total).unwrap();
        for i in 0..n {
            store.append(-(seed as f64) - i as f64, &tree).unwrap();
        }
        drop(store);
        let open = |p: &Path| BootstrapStore::open(p, fingerprint, total).map_err(|e| e.to_string());
        check(
            &path,
            3,
            pick,
            |p| open(p).map(|s| s.records().to_vec()),
            |p| {
                let mut store = open(p).unwrap();
                store.append(-0.25, &tree).unwrap();
                store.records().last().unwrap().clone()
            },
            true,
        )?;

        // The event log (read with the clock field left out).
        let path = tmp(&format!("events-{seed}.jsonl"));
        let events = EventLog::open(&path).unwrap();
        for job in 0..n as u64 {
            events.emit(Level::Warn, "backoff", TENANTS[(seed + job) as usize % 3], job, seed, "d");
        }
        drop(events);
        let read = |p: &Path| {
            EventLog::read(p)
                .map(|all| all.into_iter().map(|e| (e.kind, e.tenant, e.job, e.trace)).collect::<Vec<_>>())
                .map_err(|e| e.to_string())
        };
        check(
            &path,
            1,
            pick,
            read,
            |p| {
                EventLog::open(p).unwrap().emit(Level::Info, "fresh", "", 7, 7, "");
                ("fresh".to_string(), String::new(), 7, 7)
            },
            false,
        )?;
    }
}
