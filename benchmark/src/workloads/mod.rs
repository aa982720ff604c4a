//! The seven workloads and what they share: seed derivation, repeated
//! set-up, the timed window, and the checks that feed `failed`.

pub mod boot_farm;
pub mod cell_tables;
pub mod score_wide;
pub mod search;
pub mod serve;

use crate::host;
use crate::spans::Spans;
use phylo::alignment::PatternAlignment;
use phylo::simulate::SimulationConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Reduced sizes and one repeat, every check on.
    pub smoke: bool,
    /// Scratch space inside the checkout (service state directories).
    pub out_dir: PathBuf,
}

impl Args {
    /// Set-up is repeated so `setup_s` is a median, not one sample.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Inputs to generate during set-up, at `per_second` of window (one in
    /// a smoke run, which performs one operation). An operation that finds
    /// the pool used up generates its own input on the fly.
    pub fn pool_size(&self, per_second: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds * per_second) as usize).max(1)
        }
    }
}

/// What a workload hands back; `main` folds it into the metrics of the
/// pass that was asked for.
pub struct Outcome {
    pub setups_s: Vec<f64>,
    /// One entry per attempted operation, as its caller saw it; a failed
    /// operation is `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    /// Inference-sized jobs completed inside the window.
    pub jobs: u64,
    pub window_s: f64,
    /// Process CPU seconds spent inside the window.
    pub cpu_s: f64,
    pub checks: Checks,
    /// Per-layer metrics of the layers this workload entered; every other
    /// per-layer metric reads 0 for this workload.
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: Spans,
}

/// Correctness checks. Each failure is counted and kept as one line.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("CHECK FAILED: {line}");
            self.errors.push(line);
        }
    }

    /// `a` and `b` agree within `tol` relative.
    pub fn close(&mut self, a: f64, b: f64, tol: f64, what: &str) {
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        self.require(((a - b).abs() / scale) <= tol, || {
            format!("{what}: {a} vs {b} differ by more than {tol} relative")
        });
    }
}

/// Independent 64-bit streams from the one `--seed`: `(stream, index)`
/// picks the input of operation `index` in stream `stream`, so every
/// alignment, search seed and tenant draw is a pure function of the seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    use obs::trace::splitmix64;
    splitmix64(splitmix64(seed) ^ splitmix64((stream << 40) ^ index).rotate_left(17))
}

/// `count` alignments of the paper's `42_SC` shape: 42 taxa x 1167 sites at
/// the divergence of `SimulationConfig::aln42()`, drawn from `seed`, and —
/// like the paper's file (~250) and the repository's fixed stand-in (240) —
/// compressing to 240 patterns within 5 %. Kernel time is proportional to
/// the pattern count, which at this divergence scatters from 153 to 286
/// (27 % of draws are in band); keeping every operation the same size is
/// what lets a median of a dozen operations repeat across seeds.
///
/// Five candidates per input are simulated whatever the seed (more only if
/// too few were in band), so set-up does the same work for every seed and
/// `setup_s` does not hang on how lucky the draws were.
pub fn aln42_pool(seed: u64, count: usize) -> Vec<PatternAlignment> {
    const CANDIDATES_PER_INPUT: u64 = 5;
    let mut pool = Vec::with_capacity(count);
    let mut attempt = 0;
    while pool.len() < count || attempt < CANDIDATES_PER_INPUT * count as u64 {
        let seed = derive(seed, 7, attempt);
        let aln = SimulationConfig { seed, ..SimulationConfig::aln42() }.generate().alignment;
        if pool.len() < count && (228..=252).contains(&aln.n_patterns()) {
            pool.push(aln);
        }
        attempt += 1;
    }
    pool
}

/// The fixed small alignment every compute workload warms up on. It is not
/// an input (nothing is measured on it), so it does not come from the seed:
/// a warm-up search on a seeded alignment took 4 to 12 ms depending on the
/// seed, which was most of the scatter of `setup_s`.
pub fn warmup_alignment() -> PatternAlignment {
    SimulationConfig::new(10, 200, 7).generate().alignment
}

/// Run `setup` `times` times, timing each; keep the last product (earlier
/// ones are dropped before the next starts, so services shut down).
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(times);
    let mut product = None;
    for _ in 0..times.max(1) {
        drop(product.take());
        let t = Instant::now();
        product = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    (product.expect("set up at least once"), samples)
}

/// One operation that succeeded.
pub struct Done<R> {
    pub index: usize,
    pub plain: R,
    /// The same operation run again under spans (traced pass only).
    pub traced: Option<R>,
}

/// What the timed window of a compute workload produced.
pub struct Timed<R> {
    /// One entry per attempted operation; a failed one is `f64::INFINITY`.
    pub latencies_ms: Vec<f64>,
    pub done: Vec<Done<R>>,
    /// Traced wall / plain wall of every operation the traced pass repeated.
    pub traced_ratio: Vec<f64>,
    pub window_s: f64,
    /// Process CPU seconds spent inside the window.
    pub cpu_s: f64,
}

/// The timed window every compute workload shares. `op(index, under_spans)`
/// runs operation `index`; operations run until `args.seconds` have passed,
/// and at least `floor` of them run however slow the host is, so the
/// metrics that must repeat exactly are taken from operations that always
/// exist. The latency of an operation is its plain run. In the traced pass
/// every operation is run a second time under spans, on the same input,
/// and `same` must hold between the two results.
pub fn timed_ops<R>(
    args: &Args,
    floor: usize,
    checks: &mut Checks,
    mut op: impl FnMut(usize, bool) -> Result<R, String>,
    same: impl Fn(&R, &R) -> bool,
) -> Timed<R> {
    let (limit, floor) = if args.smoke { (0.0, 1) } else { (args.seconds, floor) };
    let mut timed = Timed {
        latencies_ms: Vec::new(),
        done: Vec::new(),
        traced_ratio: Vec::new(),
        window_s: 0.0,
        cpu_s: 0.0,
    };
    let cpu_start = host::cpu_seconds();
    let start = Instant::now();
    while timed.latencies_ms.len() < floor || start.elapsed().as_secs_f64() < limit {
        let index = timed.latencies_ms.len();
        let t = Instant::now();
        let outcome = op(index, false);
        let plain_ms = t.elapsed().as_secs_f64() * 1e3;
        let plain = match outcome {
            Ok(plain) => plain,
            Err(e) => {
                checks.require(false, || format!("op {index} failed: {e}"));
                timed.latencies_ms.push(f64::INFINITY);
                continue;
            }
        };
        timed.latencies_ms.push(plain_ms);
        let mut traced = None;
        if args.traced {
            let t = Instant::now();
            match op(index, true) {
                Ok(again) => {
                    timed.traced_ratio.push(t.elapsed().as_secs_f64() * 1e3 / plain_ms);
                    checks.require(same(&plain, &again), || {
                        format!("op {index}: the run under spans and the plain run disagree")
                    });
                    traced = Some(again);
                }
                Err(e) => checks.require(false, || format!("op {index} failed under spans: {e}")),
            }
        }
        timed.done.push(Done { index, plain, traced });
    }
    timed.window_s = start.elapsed().as_secs_f64();
    timed.cpu_s = host::cpu_seconds() - cpu_start;
    timed
}

impl<R> Timed<R> {
    /// `obs.*` of a compute workload: what running under the benchmark's
    /// spans cost, and how many spans one job left behind.
    pub fn obs_layers(&self, layers: &mut BTreeMap<&'static str, f64>, spans: &Spans, jobs: u64) {
        let overhead = crate::stats::median_or_zero(&self.traced_ratio) - 1.0;
        layers.insert("obs.trace_overhead_pct", overhead * 100.0);
        layers.insert("obs.spans_per_job", spans.all().len() as f64 / jobs.max(1) as f64);
    }

    pub fn into_outcome(
        self,
        setups_s: Vec<f64>,
        jobs: u64,
        checks: Checks,
        layers: BTreeMap<&'static str, f64>,
        spans: Spans,
    ) -> Outcome {
        Outcome {
            setups_s,
            latencies_ms: self.latencies_ms,
            jobs,
            window_s: self.window_s,
            cpu_s: self.cpu_s,
            checks,
            layers,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        let mut seen = std::collections::HashSet::new();
        for seed in 1..4 {
            for stream in 0..4 {
                for index in 0..64 {
                    assert!(seen.insert(derive(seed, stream, index)));
                }
            }
        }
    }

    #[test]
    fn setup_is_repeated_and_the_last_product_kept() {
        let mut n = 0;
        let (product, samples) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!((product, samples.len()), (3, 3));
    }
}
