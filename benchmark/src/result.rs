//! Run records and result files.
//!
//! One run of one workload is a [`Record`]. A result file is
//! `{"host": <descriptor>, "runs": [<record>, ...]}`; `run`, `calibrate`
//! and `compare` all read and write that one shape. Parsing goes through
//! `obs::json` (the repository's reader); writing is the serializer below.

pub use obs::json::Json;
use std::collections::BTreeMap;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

/// One run of one workload: the contract's result line plus what is needed
/// to compare it later (which inputs, how long, which pass).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each (empty when `correct`).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, Value>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize a JSON value. Numbers print with Rust's shortest round-trip
/// form, so every measured digit survives; JSON has no infinity, so a
/// non-finite value (a tail latency made infinite by failures) is written
/// as the largest finite double.
pub fn to_string(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_nan() => "null".to_string(),
        Json::Num(n) => format!("{}", n.clamp(f64::MIN, f64::MAX)),
        Json::Str(s) => format!("\"{}\"", escape(s)),
        Json::Arr(items) => {
            format!("[{}]", items.iter().map(to_string).collect::<Vec<_>>().join(","))
        }
        Json::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", escape(k), to_string(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Record {
    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, v)| {
                    (
                        name.clone(),
                        obj(vec![
                            ("value", Json::Num(v.value)),
                            ("unit", Json::Str(v.unit.clone())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's last stdout line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        to_string(&obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ]))
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            // Seeds are 64-bit; a decimal string survives f64-based readers.
            ("seed", Json::Str(self.seed.to_string())),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("errors", Json::Arr(self.errors.iter().cloned().map(Json::Str).collect())),
            ("metrics", self.metrics_json()),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Record, String> {
        let text = |k: &str| {
            v.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("record: no '{k}'"))
        };
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("record: no '{k}'"));
        let flag = |k: &str| match v.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("record: no '{k}'")),
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in v.get("metrics").and_then(Json::as_obj).ok_or("record: no 'metrics'")? {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric: no 'value'")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("metric: no 'unit'")?;
            metrics.insert(name.clone(), Value { value, unit: unit.to_string() });
        }
        let errors = match v.get("errors") {
            Some(Json::Arr(items)) => {
                items.iter().filter_map(Json::as_str).map(str::to_string).collect()
            }
            _ => Vec::new(),
        };
        Ok(Record {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|e| format!("record: seed: {e}"))?,
            seconds: num("seconds")? as u64,
            traced: flag("traced")?,
            correct: flag("correct")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors,
            metrics,
        })
    }
}

/// Write a result file holding `host` and `runs`.
pub fn write_file(path: &std::path::Path, host: &Json, runs: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = obj(vec![
        ("host", host.clone()),
        ("runs", Json::Arr(runs.iter().map(Record::to_json).collect())),
    ]);
    std::fs::write(path, to_string(&doc) + "\n")
}

/// Read a result file back: the host descriptor and every run.
pub fn read_file(path: &std::path::Path) -> Result<(Json, Vec<Record>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let host = doc.get("host").cloned().unwrap_or(Json::Null);
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{}: no 'runs' array", path.display()));
    };
    let runs = runs.iter().map(Record::from_json).collect::<Result<Vec<_>, _>>()?;
    Ok((host, runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut metrics = BTreeMap::new();
        metrics.insert("p50_ms".into(), Value { value: 741.203_118_9, unit: "ms".into() });
        metrics
            .insert("setup_s".into(), Value { value: 0.071_300_000_000_000_01, unit: "s".into() });
        Record {
            workload: "search42".into(),
            seed: u64::MAX - 1,
            seconds: 10,
            traced: false,
            correct: false,
            attempted: 13,
            failed: 1,
            errors: vec!["op 3: lnL \"re-score\" off by 2e-5\n".into()],
            metrics,
        }
    }

    #[test]
    fn result_file_round_trips() {
        // Inside the package's ignored `out/`, never outside the checkout.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-result-{}", std::process::id()));
        let path = dir.join("r.json");
        let host = obj(vec![("nproc", Json::Num(2.0)), ("cpu_model", Json::Str("x".into()))]);
        write_file(&path, &host, &[sample(), sample()]).unwrap();
        let (host_back, runs) = read_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(host_back, host);
        // Every digit of every value, the 64-bit seed and the escaped error
        // text survive the text round trip.
        assert_eq!(runs, vec![sample(), sample()]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        let doc = obs::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("p50_ms").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(741.203_118_9));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn infinite_values_stay_valid_json() {
        assert_eq!(to_string(&Json::Num(f64::INFINITY)), format!("{}", f64::MAX));
        assert!(obs::json::parse(&to_string(&Json::Num(f64::INFINITY))).is_ok());
    }
}
