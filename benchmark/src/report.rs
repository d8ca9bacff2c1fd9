//! What a run produces and how it is printed: a named value with its
//! unit for every metric, the correctness checks, and the exact-repeat
//! counts two runs of one seed must agree on.

use crate::metrics::{self, Def};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Sample count, reported beside every percentile.
    pub n: Option<u64>,
}

/// The result of one workload run (untraced or traced).
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    /// Operations attempted and failed: a refused, errored, stale or
    /// mismatched operation counts as failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks, by name. A failed check fails the run.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Counts that repeat exactly for a given seed.
    pub exact: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn new(workload: &'static str, traced: bool, seed: u64) -> Self {
        Self {
            workload,
            traced,
            seed,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: Vec::new(),
            exact: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_n(name, value, None);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, n: Option<u64>) {
        assert!(
            metrics::find(name).is_some(),
            "metric {name} is not in the tables"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.n = n;
            }
            None => self.metrics.push(Metric { name, value, n }),
        }
    }

    /// A percentile the sample may be too small to support: `None` is
    /// reported as 0 with the sample count that withheld it.
    pub fn set_percentile(&mut self, name: &'static str, value: Option<f64>, n: u64) {
        self.set_n(name, value.unwrap_or(0.0), Some(n));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn exact(&mut self, name: &'static str, value: impl ToString) {
        self.exact.push((name, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics this run owes the driver: every end-to-end metric when
    /// untraced, every per-layer metric (0 where this workload does not
    /// exercise the layer) when traced.
    pub fn contract_metrics(&self) -> Vec<(&'static Def, f64)> {
        let defs: Vec<&'static Def> = if self.traced {
            metrics::per_layer().collect()
        } else {
            metrics::END_TO_END.iter().collect()
        };
        defs.into_iter()
            .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }

    /// The driver's result line.
    pub fn contract_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (d, v)) in self.contract_metrics().into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable report: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "== {} ({}, seed {}) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed
        );
        for (what, ok) in &self.checks {
            println!("  [{}] {what}", if *ok { "ok" } else { "FAIL" });
        }
        println!(
            "  operations: {} attempted, {} failed (failed_share {})",
            self.attempted,
            self.failed,
            num(self.failed_share())
        );
        for m in &self.metrics {
            let unit = metrics::find(m.name).map_or("", |d| d.unit);
            match m.n {
                Some(n) => println!("  {:<42} {:>16} {unit}  (n={n})", m.name, num(m.value)),
                None => println!("  {:<42} {:>16} {unit}", m.name, num(m.value)),
            }
        }
        for (k, v) in &self.exact {
            println!("  exact {k} = {v}");
        }
    }

    /// One run as a JSON object for the result files.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"traced\":{},\"seed\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.workload,
            self.traced,
            self.seed,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let unit = metrics::find(m.name).map_or("", |d| d.unit);
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{unit}\"",
                m.name,
                num(m.value)
            );
            if let Some(n) = m.n {
                let _ = write!(s, ",\"n\":{n}");
            }
            s.push('}');
        }
        s.push_str("},\"exact\":{");
        for (i, (k, v)) in self.exact.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":\"{v}\"");
        }
        s.push_str("}}");
        s
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
pub fn num(v: f64) -> String {
    format!("{v}")
}

/// A result set: the machine it ran on and every run in it, each as
/// [`RunResult::to_json`] wrote it.
pub fn set_json(env: &[(&'static str, String)], seconds: u64, runs: &[String]) -> String {
    let mut s = String::from("{\n  \"schema\": \"pingmesh-benchmark/1\",\n  \"env\": {");
    for (i, (k, v)) in env.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{k}\": \"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    let _ = write!(s, "}},\n  \"seconds\": {seconds},\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(s, "    {r}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The untraced runs of a result file: per workload, per metric, the
/// values in run order; and per (workload, seed), the exact counts.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub exact: BTreeMap<(String, u64), BTreeMap<String, String>>,
    pub incorrect: Vec<String>,
}

pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let runs = v
        .get("runs")
        .and_then(|r| r.as_array())
        .ok_or("result file has no \"runs\" array")?;
    let mut set = ResultSet::default();
    for run in runs {
        let field = |k: &str| run.get(k).ok_or_else(|| format!("run without \"{k}\""));
        if field("traced")?.as_bool() == Some(true) {
            continue;
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string();
        let seed = field("seed")?
            .as_u64()
            .ok_or("seed is not a whole number")?;
        if field("correct")?.as_bool() != Some(true) {
            set.incorrect.push(format!("{workload} seed {seed}"));
        }
        let metrics = field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?;
        for (name, m) in metrics.iter() {
            let value = m
                .get("value")
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            set.values
                .entry((workload.clone(), name.clone()))
                .or_default()
                .push(value);
        }
        let exact = field("exact")?
            .as_object()
            .ok_or("exact is not an object")?;
        let slot = set.exact.entry((workload, seed)).or_default();
        for (k, x) in exact.iter() {
            slot.insert(k.clone(), x.as_str().unwrap_or_default().to_string());
        }
    }
    Ok(set)
}
