//! Machine-readable run manifests: one JSON document per invocation.
//!
//! A manifest captures everything needed to compare two runs of the same
//! workload PR-over-PR:
//!
//! * **identity** — workload name, tool version, git revision;
//! * **environment** — host core count and the effective worker-thread
//!   count (the reproducibility variables that legitimately differ
//!   between hosts);
//! * **config** — seeds, strategy, and any other knobs, as strings;
//! * **timings** — per-stage wall-clock nanoseconds (vary run to run);
//! * **metrics** — the final values of every registry metric (a pure
//!   function of the work performed: byte-identical across runs and
//!   across `--threads` values).
//!
//! The split between `timings` and `metrics` is mechanical: any gauge
//! whose name ends in `.wall_ns` is routed to `timings` (key without the
//! suffix), everything else to `metrics` — so "is this value diffable?"
//! is decided by the naming scheme, not per call site.

use crate::json::Json;
use crate::metrics::MetricValue;
use crate::Obs;

/// Schema tag every manifest carries; bump on breaking layout changes.
pub const MANIFEST_SCHEMA: &str = "narada-manifest/1";

/// The fields [`RunManifest::from_json`] refuses to proceed without.
pub const REQUIRED_FIELDS: &[&str] = &[
    "schema",
    "name",
    "tool",
    "git_rev",
    "host_cores",
    "threads",
    "timings",
    "metrics",
];

/// One run's manifest. `PartialEq` compares every field, which the
/// serialize → parse → equal round-trip test leans on.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Workload name (`synth`, `detect`, `serve.job`, …).
    pub name: String,
    /// Tool identity, e.g. `narada 0.1.0`.
    pub tool: String,
    /// Abbreviated git revision of the working tree (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// `available_parallelism` of the recording host.
    pub host_cores: u64,
    /// Effective worker-thread count the run used.
    pub threads: u64,
    /// Seeds, strategy, and other knobs, in insertion order.
    pub config: Vec<(String, String)>,
    /// Per-stage wall-clock nanoseconds, name-sorted.
    pub timings: Vec<(String, u64)>,
    /// Final metric values, name-sorted and thread-count-invariant.
    pub metrics: Vec<(String, MetricValue)>,
}

/// The recording host's core count (1 when the query fails).
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The working tree's abbreviated git revision, or `unknown`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl RunManifest {
    /// A manifest stamped with this build's identity and the recording
    /// host's environment.
    pub fn new(name: &str, threads: u64) -> RunManifest {
        RunManifest {
            name: name.to_string(),
            tool: concat!("narada ", env!("CARGO_PKG_VERSION")).to_string(),
            git_rev: git_rev(),
            host_cores: host_cores(),
            threads,
            config: Vec::new(),
            timings: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// [`RunManifest::new`] plus the final state of `obs`'s registry:
    /// `*.wall_ns` gauges become `timings` entries, everything else
    /// `metrics` entries.
    pub fn from_obs(name: &str, threads: u64, obs: &Obs) -> RunManifest {
        let mut m = RunManifest::new(name, threads);
        for (metric_name, value) in obs.metrics.snapshot() {
            match metric_name.strip_suffix(".wall_ns") {
                Some(stage) => {
                    let ns = match value {
                        MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
                        MetricValue::Histogram(..) => continue,
                    };
                    m.timings.push((stage.to_string(), ns));
                }
                None => m.metrics.push((metric_name, value)),
            }
        }
        m
    }

    /// Records a config entry (seeds, strategy, flags), replacing any
    /// previous value for the key.
    pub fn set_config(&mut self, key: &str, value: impl ToString) {
        let value = value.to_string();
        match self.config.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.config.push((key.to_string(), value)),
        }
    }

    /// Looks up a config entry.
    pub fn config_get(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a metric value.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The `metrics` section alone, serialized — the byte string the
    /// thread-count-invariance guarantee is stated over.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }

    /// Serializes the whole manifest.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", Json::Str(MANIFEST_SCHEMA.into()))
            .with("name", Json::Str(self.name.clone()))
            .with("tool", Json::Str(self.tool.clone()))
            .with("git_rev", Json::Str(self.git_rev.clone()))
            .with("host_cores", Json::Int(self.host_cores as i64))
            .with("threads", Json::Int(self.threads as i64))
            .with(
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            )
            .with(
                "timings",
                Json::Obj(
                    self.timings
                        .iter()
                        .map(|(k, ns)| (k.clone(), Json::Int(*ns as i64)))
                        .collect(),
                ),
            )
            .with("metrics", self.metrics_json())
    }

    /// The on-disk representation.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses and validates a manifest document, rejecting missing
    /// [`REQUIRED_FIELDS`] and schema mismatches.
    pub fn from_json(doc: &Json) -> Result<RunManifest, String> {
        for field in REQUIRED_FIELDS {
            if doc.get(field).is_none() {
                return Err(format!("manifest missing required field `{field}`"));
            }
        }
        let s = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest field `{key}` must be a string"))
        };
        let n = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_i64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("manifest field `{key}` must be an integer"))
        };
        let schema = s("schema")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "unsupported manifest schema `{schema}` (expected `{MANIFEST_SCHEMA}`)"
            ));
        }
        let mut config = Vec::new();
        if let Some(entries) = doc.get("config").and_then(Json::as_obj) {
            for (k, v) in entries {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("config `{k}` must be a string"))?;
                config.push((k.clone(), v.to_string()));
            }
        }
        let mut timings = Vec::new();
        for (k, v) in doc.get("timings").and_then(Json::as_obj).unwrap_or(&[]) {
            let ns = v
                .as_i64()
                .ok_or_else(|| format!("timing `{k}` must be an integer"))?;
            timings.push((k.clone(), ns as u64));
        }
        let mut metrics = Vec::new();
        for (k, v) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            metrics.push((
                k.clone(),
                MetricValue::from_json(v).map_err(|e| format!("metric `{k}`: {e}"))?,
            ));
        }
        Ok(RunManifest {
            name: s("name")?,
            tool: s("tool")?,
            git_rev: s("git_rev")?,
            host_cores: n("host_cores")?,
            threads: n("threads")?,
            config,
            timings,
            metrics,
        })
    }

    /// Parses [`RunManifest::to_pretty`] output.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        RunManifest::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    /// Human-readable per-stage breakdown, as printed by `narada report`.
    pub fn render(&self) -> String {
        let mut out = format!(
            "run `{}` — {} @ {} ({} host cores, {} threads)\n",
            self.name, self.tool, self.git_rev, self.host_cores, self.threads
        );
        if !self.config.is_empty() {
            out.push_str("config:\n");
            for (k, v) in &self.config {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        out.push_str("stage timings:\n");
        let total: u64 = self.timings.iter().map(|(_, ns)| ns).sum();
        for (stage, ns) in &self.timings {
            out.push_str(&format!("  {stage:<24} {:>10.3}s\n", secs(*ns)));
        }
        out.push_str(&format!("  {:<24} {:>10.3}s\n", "(total)", secs(total)));
        out.push_str("metrics:\n");
        for (name, value) in &self.metrics {
            out.push_str(&format!("  {name:<40} {}\n", render_value(value)));
        }
        out
    }

    /// Stage-by-stage, metric-by-metric comparison of two manifests —
    /// `narada report --diff a.json b.json`.
    pub fn render_diff(a: &RunManifest, b: &RunManifest) -> String {
        let mut out = format!(
            "manifest diff: `{}` ({} @ {}, {} threads)  →  `{}` ({} @ {}, {} threads)\n",
            a.name, a.tool, a.git_rev, a.threads, b.name, b.tool, b.git_rev, b.threads
        );
        out.push_str("stage timings:\n");
        for (stage, va, vb) in merged(&a.timings, &b.timings) {
            let delta = match (va, vb) {
                (Some(&x), Some(&y)) if x > 0 => {
                    format!("{:+.1}%", 100.0 * (y as f64 - x as f64) / x as f64)
                }
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "  {stage:<24} {:>10} {:>10}  {delta:>8}\n",
                fmt_opt_secs(va),
                fmt_opt_secs(vb),
            ));
        }
        out.push_str("metrics:\n");
        let mut identical = 0usize;
        for (name, va, vb) in merged(&a.metrics, &b.metrics) {
            if va == vb {
                identical += 1;
                continue;
            }
            out.push_str(&format!(
                "  {name:<40} {:>12} -> {:<12}\n",
                va.map_or("(absent)".to_string(), render_value),
                vb.map_or("(absent)".to_string(), render_value),
            ));
        }
        out.push_str(&format!("  ({identical} metrics identical)\n"));
        out
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn fmt_opt_secs(v: Option<&u64>) -> String {
    v.map_or("-".to_string(), |&ns| format!("{:.3}s", secs(ns)))
}

fn render_value(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(n) | MetricValue::Gauge(n) => n.to_string(),
        MetricValue::Histogram(bounds, counts, count, sum) => {
            // Explicit `le`-style bound labels: bucket identity must not
            // depend on position alone, or diffs of histograms with
            // different bounds read as equal. Zero buckets are elided.
            let mut buckets = String::new();
            for (idx, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let label = bounds
                    .get(idx)
                    .map(|b| format!("le{b}"))
                    .unwrap_or_else(|| "le_inf".to_string());
                if !buckets.is_empty() {
                    buckets.push(' ');
                }
                buckets.push_str(&format!("{label}={c}"));
            }
            if buckets.is_empty() {
                buckets.push('-');
            }
            format!("histogram(count={count}, sum={sum}; {buckets})")
        }
    }
}

/// Name-sorted outer join of two name/value lists.
fn merged<'a, V>(
    a: &'a [(String, V)],
    b: &'a [(String, V)],
) -> Vec<(&'a str, Option<&'a V>, Option<&'a V>)> {
    let mut names: Vec<&str> = a
        .iter()
        .map(|(k, _)| k.as_str())
        .chain(b.iter().map(|(k, _)| k.as_str()))
        .collect();
    names.sort_unstable();
    names.dedup();
    let find =
        |list: &'a [(String, V)], name: &str| list.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    names
        .into_iter()
        .map(|name| (name, find(a, name), find(b, name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunManifest {
        let obs = Obs::new();
        obs.metrics.counter("pairs.generated").add(65);
        obs.metrics.counter("pairs.pruned").add(3);
        obs.metrics
            .gauge("stage.trace.wall_ns")
            .set_duration(Duration::from_millis(12));
        obs.metrics
            .histogram("detect.trials_to_first_confirm", &[1, 2, 4])
            .observe(2);
        let mut m = RunManifest::from_obs("synth", 8, &obs);
        m.set_config("seed", 42);
        m.set_config("strategy", "pct:3");
        m
    }

    #[test]
    fn round_trips_exactly() {
        let m = sample();
        let text = m.to_pretty();
        let parsed = RunManifest::parse(&text).unwrap();
        assert_eq!(parsed, m);
        // And byte-stability of re-serialization.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn wall_ns_gauges_route_to_timings() {
        let m = sample();
        assert_eq!(m.timings, vec![("stage.trace".to_string(), 12_000_000)]);
        assert!(m.metric("stage.trace.wall_ns").is_none());
        assert!(m.metric("pairs.generated").is_some());
    }

    #[test]
    fn env_is_stamped() {
        let m = RunManifest::new("x", 4);
        assert_eq!(m.threads, 4);
        assert!(m.host_cores >= 1);
        assert!(!m.git_rev.is_empty());
        assert!(m.tool.starts_with("narada "));
    }

    #[test]
    fn missing_required_fields_are_rejected() {
        let m = sample();
        for field in REQUIRED_FIELDS {
            let Json::Obj(entries) = m.to_json() else {
                unreachable!()
            };
            let doc = Json::Obj(entries.into_iter().filter(|(k, _)| k != field).collect());
            let err = RunManifest::from_json(&doc).unwrap_err();
            assert!(err.contains(field), "dropping {field}: {err}");
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = sample().to_json().with("schema", Json::Str("v9".into()));
        assert!(RunManifest::from_json(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn render_and_diff_mention_stages_and_metrics() {
        let a = sample();
        let mut b = sample();
        let slot = b
            .metrics
            .iter_mut()
            .find(|(k, _)| k == "pairs.generated")
            .unwrap();
        slot.1 = MetricValue::Counter(70);
        let r = a.render();
        assert!(r.contains("stage.trace"), "{r}");
        assert!(r.contains("pairs.generated"), "{r}");
        let d = RunManifest::render_diff(&a, &b);
        assert!(d.contains("65"), "{d}");
        assert!(d.contains("70"), "{d}");
        assert!(d.contains("metrics identical"), "{d}");
    }

    #[test]
    fn histograms_render_explicit_bounds_in_diff() {
        let a = sample();
        let mut b = sample();
        let slot = b
            .metrics
            .iter_mut()
            .find(|(k, _)| k == "detect.trials_to_first_confirm")
            .unwrap();
        // Same positional counts as `a` but under different bounds plus an
        // overflow sample: the diff must expose the bound labels so the
        // two sides are visibly different, with count and sum alongside.
        slot.1 = MetricValue::Histogram(vec![1, 3, 9], vec![0, 1, 0, 1], 2, 14);
        let d = RunManifest::render_diff(&a, &b);
        assert!(d.contains("histogram(count=1, sum=2; le2=1)"), "{d}");
        assert!(
            d.contains("histogram(count=2, sum=14; le3=1 le_inf=1)"),
            "{d}"
        );
    }
}
