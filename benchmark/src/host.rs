//! Host descriptor, process accounting and the two roofline microbenches.
//!
//! Every result file carries the descriptor, so a number is never read
//! without the machine, toolchain and revision it was taken on. The
//! microbenches run in the traced pass, in the same process as the kernel
//! rates they normalise (`phylo.likelihood.bw_frac`).

use crate::result::{obj, Json};
use std::hint::black_box;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(level, type, bytes)` of each cache of cpu0, from sysfs.
fn caches() -> Vec<(u64, String, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{dir}/level")),
            read(&format!("{dir}/type")),
            read(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map(|m| m << 20),
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), bytes) {
            out.push((level, kind.trim().to_string(), bytes));
        }
    }
    out
}

/// Size of the last-level cache; 32 MiB when sysfs does not say.
pub fn last_level_cache_bytes() -> u64 {
    caches().iter().map(|c| c.2).max().unwrap_or(32 << 20)
}

/// The ISA extensions that decide which kernel widths pay off.
const ISA_FLAGS: [&str; 9] =
    ["sse2", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl", "neon"];

pub fn descriptor() -> Json {
    let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let isa: Vec<Json> = ISA_FLAGS
        .iter()
        .filter(|f| flags.split_whitespace().any(|have| have == **f))
        .map(|f| Json::Str(f.to_string()))
        .collect();
    let caches = caches()
        .into_iter()
        .map(|(level, kind, bytes)| {
            obj(vec![
                ("level", Json::Num(level as f64)),
                ("type", Json::Str(kind)),
                ("bytes", Json::Num(bytes as f64)),
            ])
        })
        .collect();
    let or_unknown = |line: Option<String>| Json::Str(line.unwrap_or_else(|| "unknown".into()));
    obj(vec![
        // The driver's checkout is not a git repository; the revision is
        // then recorded as unknown rather than guessed.
        ("git_rev", or_unknown(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", or_unknown(command_line("rustc", &["-V"]))),
        ("rustflags", Json::Str(std::env::var("RUSTFLAGS").unwrap_or_default())),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(field("model name"))),
        ("isa_flags", Json::Arr(isa)),
        ("caches", Json::Arr(caches)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads) so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name; USER_HZ is 100 on every Linux ABI.
    read("/proc/self/stat")
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak double-precision multiply+add rate of one core, in GFLOP/s: eight
/// independent accumulators, so no chain limits throughput. Multiply and
/// add stay two operations, as in the likelihood kernels.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 4_000_000;
    let b = black_box(1.000_000_1_f64);
    let c = black_box(1e-9_f64);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut acc = [black_box(1.0f64); 8];
        let t = Instant::now();
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * b + c;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((ITERS * 8 * 2) as f64 / secs / 1e9);
    }
    best
}

/// Stream-triad bandwidth (`a[i] = b[i] + s * c[i]`) in GB/s over three
/// arrays of `array_bytes` each, best of three passes. Bytes are computed
/// from the array sizes (two reads and one write per element).
pub fn triad_gb_per_s(array_bytes: u64) -> f64 {
    let n = (array_bytes / 8) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let s = black_box(3.0f64);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max((3 * 8 * n) as f64 / secs / 1e9);
    }
    best
}
