//! `BENCHMARK.json`, embedded at build time: the one place that names the
//! workloads and fixes every metric's unit, direction and regression bound.
//! The code emits metrics by name; a unit test holds the two in step.

use crate::result::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    /// `(name, why)` of every workload, in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let Some(Json::Arr(items)) = doc.get(key) else { panic!("BENCHMARK.json: no '{key}'") };
    items
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).unwrap_or_else(|| panic!("{key}: no '{k}'"))
            };
            MetricSpec {
                name: text("name").to_string(),
                unit: text("unit").to_string(),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// Parse the embedded file. It is part of this program, so a malformed
    /// file is a bug and panics.
    pub fn load() -> Spec {
        let doc = obs::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json: no 'workloads'")
        };
        let text = |w: &Json, k: &str| {
            w.get(k).and_then(Json::as_str).expect("workload name and why").to_string()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds") as u64,
            workloads: workloads.iter().map(|w| (text(w, "name"), text(w, "why"))).collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    }

    /// The metrics one pass prints: end-to-end untraced, per-layer traced.
    pub fn pass(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_file_meets_the_contract_limits() {
        let spec = Spec::load();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = spec.workloads.iter().map(|w| w.0.as_str()).collect();
        names.extend(spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(spec.workloads.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }
}
