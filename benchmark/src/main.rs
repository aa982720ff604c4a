//! The repository's one benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result
//! benchmark run [--seed N] [--seconds S] [--traced] [--smoke]   all seven, each in a process of its own
//! benchmark calibrate --sets N [--seed N] [--seconds S]          noise -> bounds (out/calibration.json)
//! benchmark compare A.json B.json                                verdict per metric x workload
//! ```

mod compare;
mod host;
mod open_loop;
mod result;
mod spans;
mod spec;
mod stats;
mod workloads;

use result::{Record, Value};
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Args, Outcome};

/// Everything the benchmark writes goes here, inside the checkout.
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]\n  \
         benchmark calibrate --sets N [--seed N] [--seconds S]\n  benchmark compare A.json B.json"
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare switches of one invocation.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("{flag}: cannot read '{text}'")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|a| a == switch)
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let flags = Flags(argv.collect());
    let outcome = match command.as_str() {
        "run" if flags.value("--workload").is_some() => run_one(&flags),
        "run" => run_all(&flags),
        "calibrate" => compare::calibrate(&flags),
        "compare" => compare::compare(&flags.0),
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("benchmark/Cargo.toml").exists() {
        return Err("run from the repository root (benchmark/Cargo.toml not found)".into());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    Ok(PathBuf::from(OUT_DIR))
}

/// Where a single-workload run leaves its record.
fn result_path(workload: &str, traced: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("result-{workload}-trace{}.json", traced as u8))
}

fn traced(flags: &Flags) -> Result<bool, String> {
    Ok(flags.has("--traced") || flags.parsed::<u8>("--trace", 0)? != 0)
}

/// One workload in this process: the contract's form.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let spec = Spec::load();
    let workload = flags.value("--workload").expect("checked by the caller").to_string();
    if !spec.workloads.iter().any(|w| w.0 == workload) {
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
        return Err(format!("unknown workload '{workload}'; one of {}", names.join(", ")));
    }
    let args = Args {
        seed: flags.parsed("--seed", 1)?,
        seconds: flags.parsed("--seconds", spec.run_seconds as f64)?,
        traced: traced(flags)?,
        smoke: flags.has("--smoke"),
        out_dir: out_dir()?,
    };
    let outcome = match workload.as_str() {
        "search42" => {
            workloads::search::run(&workloads::search::Shape::search42(args.smoke), &args)
        }
        "search96" => {
            workloads::search::run(&workloads::search::Shape::search96(args.smoke), &args)
        }
        "boot_farm" => workloads::boot_farm::run(&args),
        "score_wide" => workloads::score_wide::run(&args),
        "serve_open" => workloads::serve::run(workloads::serve::Loop::Open, &args),
        "serve_closed" => workloads::serve::run(workloads::serve::Loop::Closed, &args),
        "cell_tables" => workloads::cell_tables::run(&args),
        other => unreachable!("'{other}' is in BENCHMARK.json but has no implementation"),
    };
    let record = fold(&spec, &workload, &args, outcome)?;
    let path = result_path(&workload, args.traced);
    result::write_file(&path, &host::descriptor(), std::slice::from_ref(&record))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", record.result_line());
    Ok(record.correct)
}

/// Fold a workload's outcome into the metrics of the pass asked for, and
/// write the Chrome trace of a traced pass.
fn fold(spec: &Spec, workload: &str, args: &Args, outcome: Outcome) -> Result<Record, String> {
    let Outcome { setups_s, latencies_ms, jobs, window_s, cpu_s, checks, mut layers, spans } =
        outcome;
    let attempted = latencies_ms.len().max(1) as u64;
    let failed = checks.failed.min(attempted);
    let values: BTreeMap<&str, f64> = if args.traced {
        // Both roofline microbenches run in this process, so `bw_frac` has
        // a same-run denominator.
        let triad_bytes = 4 * host::last_level_cache_bytes();
        let triad = host::triad_gb_per_s(triad_bytes);
        eprintln!(
            "host: triad arrays 3 x {:.0} MB against a {:.0} MB last-level cache",
            triad_bytes as f64 / 1e6,
            triad_bytes as f64 / 4e6
        );
        layers.insert("host.nproc", host::nproc() as f64);
        layers.insert("host.fma_gflops", host::fma_gflops());
        layers.insert("host.triad_gb_per_s", triad);
        if let Some(&gb) = layers.get("phylo.likelihood.clv_gb_per_s") {
            layers.insert("phylo.likelihood.bw_frac", gb / triad);
        }
        layers.insert("fail_ratio", failed as f64 / attempted as f64);
        if let Some(name) =
            layers.keys().find(|name| !spec.per_layer.iter().any(|m| m.name == **name))
        {
            return Err(format!("{workload} reported '{name}', which BENCHMARK.json lacks"));
        }
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, spans.to_chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        layers
    } else {
        BTreeMap::from([
            ("setup_s", stats::median(&setups_s)),
            ("p50_ms", stats::median(&latencies_ms)),
            ("tail_ms", stats::tail(&latencies_ms)),
            ("jobs_per_s", jobs as f64 / window_s),
            ("cpu_ms_per_job", cpu_s * 1e3 / jobs.max(1) as f64),
            ("peak_rss_mb", host::peak_rss_mb()),
        ])
    };
    // Every metric of the pass is printed; a layer the workload never
    // entered did no work there and reads 0.
    let metrics = spec
        .pass(args.traced)
        .iter()
        .map(|m| {
            let value = values.get(m.name.as_str()).copied().unwrap_or(0.0);
            (m.name.clone(), Value { value, unit: m.unit.clone() })
        })
        .collect();
    Ok(Record {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds as u64,
        traced: args.traced,
        correct: checks.failed == 0,
        attempted,
        failed,
        errors: checks.errors,
        metrics,
    })
}

/// Run `workload` in a child process (so `peak_rss_mb` is per workload)
/// and read its record back from the result file it wrote.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawning {workload}: {e}"))?;
    // 0: correct, 1: a check failed; both leave a result file. Anything
    // else is a run that did not finish.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!("{workload}: child ended with {}", output.status));
    }
    let path = result_path(workload, traced);
    let (_, mut runs) = result::read_file(&path)?;
    runs.pop().ok_or(format!("{}: empty", path.display()))
}

/// All seven workloads, untraced and (with `--traced`) traced, each in a
/// process of its own; prints every metric by name with unit and sample
/// count and writes `out/results.json`.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let spec = Spec::load();
    let seed: u64 = flags.parsed("--seed", 1)?;
    let smoke = flags.has("--smoke");
    let seconds: f64 = flags.parsed("--seconds", spec.run_seconds as f64)?;
    let passes: &[bool] = if traced(flags)? { &[false, true] } else { &[false] };
    let out = out_dir()?;
    let mut runs = Vec::new();
    for &pass in passes {
        for (workload, _) in &spec.workloads {
            eprintln!("== {workload} ({}) ==", if pass { "traced" } else { "untraced" });
            let record = run_child(workload, seed, seconds, pass, smoke)?;
            print_record(&record);
            runs.push(record);
        }
    }
    let path = out.join("results.json");
    result::write_file(&path, &host::descriptor(), &runs)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: Vec<&str> =
        runs.iter().filter(|r| !r.correct).map(|r| r.workload.as_str()).collect();
    println!(
        "wrote {} ({} runs, seed {seed}); failed checks: {}",
        path.display(),
        runs.len(),
        failed.len()
    );
    Ok(failed.is_empty())
}

fn print_record(record: &Record) {
    println!(
        "{} [{}] n={} failed={} correct={}",
        record.workload,
        if record.traced { "per-layer" } else { "end-to-end" },
        record.attempted,
        record.failed,
        record.correct
    );
    for (name, v) in &record.metrics {
        // A traced pass prints only the layers the workload entered.
        if !record.traced || v.value != 0.0 {
            println!("  {name:<42} {:>16.6} {}", v.value, v.unit);
        }
    }
}
