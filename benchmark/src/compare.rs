//! `calibrate`: measure run-to-run noise and derive regression bounds.
//! `compare`: one verdict per end-to-end metric x workload between two
//! result files.

use crate::result::{self, Json, Record};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, spread};
use crate::{host, run_child, Flags, OUT_DIR};
use std::collections::BTreeMap;
use std::path::Path;

/// Floor and cap of a derived bound. The cap is the contract's: a metric
/// that cannot repeat within it belongs with the per-layer metrics.
const BOUND_FLOOR: f64 = 0.03;
const BOUND_CAP: f64 = 0.25;

/// Three times the spread, so a spread stays below a third of its bound.
pub fn derived_bound(spread: f64) -> f64 {
    (3.0 * spread).clamp(BOUND_FLOOR, BOUND_CAP)
}

/// `(workload, metric) -> values`, over the untraced runs of a file.
fn samples(runs: &[Record]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs.iter().filter(|r| !r.traced) {
        for (name, v) in &run.metrics {
            out.entry((run.workload.clone(), name.clone())).or_default().push(v.value);
        }
    }
    out
}

/// Run `--sets N` full untraced sets, each on its own seed (the acceptance
/// driver varies the seed between its runs, so the spread that matters
/// includes the inputs), and write median, quartiles, spread and derived
/// bound per end-to-end metric x workload to `out/calibration.json`.
pub fn calibrate(flags: &Flags) -> Result<bool, String> {
    let spec = Spec::load();
    let sets: u64 = flags.parsed("--sets", 10)?;
    if sets < 2 {
        return Err("--sets: quartiles need at least two sets".into());
    }
    let seed: u64 = flags.parsed("--seed", 1)?;
    let seconds: f64 = flags.parsed("--seconds", spec.run_seconds as f64)?;
    crate::out_dir()?;
    let mut runs = Vec::new();
    for set in 0..sets {
        for (workload, _) in &spec.workloads {
            eprintln!("== set {}/{sets}: {workload} ==", set + 1);
            runs.push(run_child(workload, seed + set, seconds, false, false)?);
        }
    }
    let mut rows = Vec::new();
    let mut per_metric: BTreeMap<&str, f64> = BTreeMap::new();
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((workload, metric), values) in samples(&runs) {
        let [q1, q2, q3] = quartiles(&values);
        let s = spread(&values);
        let bound = derived_bound(s);
        println!(
            "{workload:<14} {metric:<16} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}% {:>6.1}%",
            s * 100.0,
            bound * 100.0
        );
        let name = spec.end_to_end.iter().find(|m| m.name == metric).map(|m| m.name.as_str());
        if let Some(name) = name {
            let worst = per_metric.entry(name).or_insert(0.0);
            *worst = worst.max(bound);
        }
        rows.push(result::obj(vec![
            ("workload", Json::Str(workload)),
            ("metric", Json::Str(metric)),
            ("q1", Json::Num(q1)),
            ("median", Json::Num(q2)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num(s)),
            ("bound", Json::Num(bound)),
        ]));
    }
    // BENCHMARK.json holds one bound per metric: the widest any workload needs.
    println!("bounds for BENCHMARK.json (widest over the workloads):");
    for (metric, bound) in &per_metric {
        println!("  {metric:<16} {bound:.2}");
    }
    let path = Path::new(OUT_DIR).join("calibration.json");
    let doc = result::obj(vec![
        ("host", host::descriptor()),
        ("sets", Json::Num(sets as f64)),
        ("rows", Json::Arr(rows)),
        ("runs", Json::Arr(runs.iter().map(Record::to_json).collect())),
    ]);
    std::fs::write(&path, result::to_string(&doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(runs.iter().all(|r| r.correct))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs scatter wider than the bound and do not separate: neither a
    /// regression nor its absence can be read off them.
    Unresolved,
}

/// Judge `b` against `a` for one metric: medians compared against the
/// metric's bound, in the metric's direction.
pub fn verdict(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(BOUND_CAP);
    let (ma, mb) = (median(a), median(b));
    // Positive when `b` is worse, as a share of `a`'s median.
    let worse = if metric.higher_is_better { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    let noisy = [a, b].iter().any(|v| v.len() >= 2 && spread(v) > bound);
    if noisy {
        // Unless every run of one side reads better than every run of the other.
        let (best_a, worst_a) = extremes(metric, a);
        let (best_b, worst_b) = extremes(metric, b);
        let better = |x: f64, y: f64| if metric.higher_is_better { x > y } else { x < y };
        return if better(worst_b, best_a) {
            Verdict::Improved
        } else if better(worst_a, best_b) && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(best, worst)` value of `v` in the metric's direction.
fn extremes(metric: &MetricSpec, v: &[f64]) -> (f64, f64) {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if metric.higher_is_better {
        (hi, lo)
    } else {
        (lo, hi)
    }
}

/// `compare A.json B.json`: one row per end-to-end metric x workload, and a
/// non-zero exit on any regression.
pub fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err("compare takes two result files".into()) };
    let spec = Spec::load();
    let (_, runs_a) = result::read_file(Path::new(a))?;
    let (_, runs_b) = result::read_file(Path::new(b))?;
    let (samples_a, samples_b) = (samples(&runs_a), samples(&runs_b));
    let mut regressed = 0;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (key, values_a) in &samples_a {
        let (workload, name) = key;
        let (Some(values_b), Some(metric)) =
            (samples_b.get(key), spec.end_to_end.iter().find(|m| &m.name == name))
        else {
            continue;
        };
        let verdict = verdict(metric, values_a, values_b);
        regressed += (verdict == Verdict::Regressed) as u32;
        let (ma, mb) = (median(values_a), median(values_b));
        println!(
            "{workload:<14} {name:<16} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}%  {}",
            (mb - ma) / ma.abs() * 100.0,
            metric.bound.unwrap_or(BOUND_CAP) * 100.0,
            format!("{verdict:?}").to_lowercase(),
        );
    }
    println!("{regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "ms".into(), higher_is_better, bound: Some(0.10) }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric(false);
        assert_eq!(
            verdict(&lower, &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&lower, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]), Verdict::Improved);
        let higher = metric(true);
        assert_eq!(verdict(&higher, &[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(verdict(&higher, &[100.0], &[120.0]), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let lower = metric(false);
        // B's median is 15% worse, but A alone scatters by far more than
        // the 10% bound and the two sets overlap.
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&lower, &a, &[115.0, 95.0, 135.0, 105.0, 125.0]), Verdict::Unresolved);
        // Every run of B worse than every run of A: a regression all the same.
        assert_eq!(verdict(&lower, &a, &[150.0, 170.0, 130.0, 160.0, 140.0]), Verdict::Regressed);
        // Every run of B better than every run of A.
        assert_eq!(verdict(&lower, &a, &[50.0, 70.0, 60.0, 40.0, 75.0]), Verdict::Improved);
    }

    #[test]
    fn bounds_are_three_spreads_within_floor_and_cap() {
        assert_eq!(derived_bound(0.001), 0.03);
        assert!((derived_bound(0.05) - 0.15).abs() < 1e-12);
        assert_eq!(derived_bound(0.2), 0.25);
    }
}
