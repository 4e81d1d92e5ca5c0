//! The per-layer ledger: turns what a traced run recorded — spans,
//! program counters, and for the serve workloads the stage frames and
//! `health`/`stats` replies — into the per-layer metrics.
//!
//! The benchmark opens one span around every call it makes into a layer
//! (see [`BENCH_SPANS`]), under a `job` root per job. A layer's self time
//! is its spans' duration minus the part covered by other layers' spans
//! nested inside them; its share is that self time over the summed job
//! time. The program's own spans (`stage.*`, `detect.trial`,
//! `detect.confirm`) are read for the finer detect and synthesis numbers
//! but never count as layer boundaries.

use crate::stats::{percentile, tail_share};
use narada_obs::{Json, MetricValue, Obs, SpanRecord};
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric: name, unit, and whether higher is better.
/// `BENCHMARK.json` lists the same names (a test keeps them in step).
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("lang.parse_typeck_ms_p50", "ms", false),
    ("lang.lower_ms_p50", "ms", false),
    ("lang.share", "fraction", false),
    ("core.synth_ms_p50", "ms", false),
    ("core.share", "fraction", false),
    ("core.trace_ms_sum", "ms", false),
    ("core.analyze_ms_sum", "ms", false),
    ("core.pairs_ms_sum", "ms", false),
    ("core.derive_ms_sum", "ms", false),
    ("pairs.generated", "count", false),
    ("tests.synthesized", "count", false),
    ("screen.ms_p50", "ms", false),
    ("screen.share", "fraction", false),
    ("screen.discharged", "count", true),
    ("detect.ms_p50", "ms", false),
    ("detect.share", "fraction", false),
    ("detect.trial_us_p50", "us", false),
    ("detect.trial_ms_p99", "ms", false),
    ("detect.trial_ms_max", "ms", false),
    ("detect.trials", "count", false),
    ("detect.confirm_trials", "count", false),
    ("racefuzzer.gave_up", "count", false),
    ("detect.tail_share", "fraction", false),
    ("detect.confirm_share", "fraction", false),
    ("detect.parallel_efficiency", "fraction", true),
    ("sched.decisions", "count", false),
    ("sched.preemptions", "count", false),
    ("vm.decisions_per_ms", "1/ms", true),
    ("serve.compile_ms_p50", "ms", false),
    ("serve.synth_ms_p50", "ms", false),
    ("serve.detect_ms_p50", "ms", false),
    ("serve.server_job_ms_p50", "ms", false),
    ("serve.overhead_ms_p50", "ms", false),
    ("serve.cache.program_hit_ratio", "fraction", true),
    ("serve.cache.unit_hit_ratio", "fraction", true),
    ("serve.cache.evictions", "count", false),
    ("obs.tracing_overhead_pct", "%", false),
];

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Every metric at 0: what a layer that a workload never calls reports.
pub fn zeroed() -> LayerMetrics {
    PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect()
}

/// The root span the benchmark opens around each job.
pub const JOB_SPAN: &str = "job";

/// The spans the benchmark opens around its calls into each layer; the
/// layer is the name's first segment.
pub const BENCH_SPANS: &[&str] = &[
    "lang.parse_typeck",
    "lang.lower",
    "core.synthesize",
    "screen.screen_pairs",
    "detect.evaluate",
];

/// Program counters the ledger reports per pass, by name.
const COUNTERS: &[&str] = &[
    "pairs.generated",
    "tests.synthesized",
    "detect.trials",
    "detect.confirm_trials",
    "racefuzzer.gave_up",
    "sched.decisions",
    "sched.preemptions",
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn dur_ms(s: &SpanRecord) -> f64 {
    ms(s.end_ns.saturating_sub(s.start_ns))
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Fills the span-derived metrics of a corpus or difftest trace and
/// returns the summed trial and confirmation time, in ms. `passes`
/// normalises sums to one pass; `detect_threads` is the worker count each
/// `detect.evaluate` call ran its trials on.
pub fn from_spans(
    m: &mut LayerMetrics,
    spans: &[SpanRecord],
    passes: f64,
    detect_threads: f64,
) -> f64 {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let is_bench = |s: &SpanRecord| s.name == JOB_SPAN || BENCH_SPANS.contains(&s.name.as_str());
    // Nearest enclosing benchmark span (layer call or job root).
    let bench_parent = |s: &SpanRecord| -> Option<u64> {
        let mut cur = s.parent;
        while let Some(id) = cur {
            let p = by_id.get(&id)?;
            if is_bench(p) {
                return Some(id);
            }
            cur = p.parent;
        }
        None
    };

    let mut nested: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut job_of: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| is_bench(s) && s.name != JOB_SPAN) {
        if let Some(p) = bench_parent(s) {
            nested.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    // Resolve each layer span's job by walking benchmark parents.
    for s in spans
        .iter()
        .filter(|s| BENCH_SPANS.contains(&s.name.as_str()))
    {
        let mut cur = bench_parent(s);
        while let Some(id) = cur {
            if by_id[&id].name == JOB_SPAN {
                job_of.insert(s.id, id);
                break;
            }
            cur = bench_parent(by_id[&id]);
        }
    }

    let job_ms: f64 = spans
        .iter()
        .filter(|s| s.name == JOB_SPAN)
        .map(dur_ms)
        .sum();
    let jobs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == JOB_SPAN)
        .map(|s| s.id)
        .collect();
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut per_job: HashMap<(&str, u64), f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| BENCH_SPANS.contains(&s.name.as_str()))
    {
        let inner = nested.remove(&s.id).unwrap_or_default();
        let own = s.end_ns - s.start_ns - covered_ns(inner, s.start_ns, s.end_ns);
        let layer = s.name.split('.').next().expect("layer prefix");
        *self_ms.entry(layer).or_default() += ms(own);
        if let Some(&job) = job_of.get(&s.id) {
            *per_job.entry((s.name.as_str(), job)).or_default() += dur_ms(s);
        }
    }
    // Per-job totals of one call, over every job (0 where never called).
    let p50 = |name: &str| -> f64 {
        let xs: Vec<f64> = jobs
            .iter()
            .map(|j| per_job.get(&(name, *j)).copied().unwrap_or(0.0))
            .collect();
        percentile(&xs, 0.5)
    };
    let share = |layer: &str| match job_ms > 0.0 {
        true => self_ms.get(layer).copied().unwrap_or(0.0) / job_ms,
        false => 0.0,
    };
    m.insert("lang.parse_typeck_ms_p50", p50("lang.parse_typeck"));
    m.insert("lang.lower_ms_p50", p50("lang.lower"));
    m.insert("lang.share", share("lang"));
    m.insert("core.synth_ms_p50", p50("core.synthesize"));
    m.insert("core.share", share("core"));
    m.insert("screen.ms_p50", p50("screen.screen_pairs"));
    m.insert("screen.share", share("screen"));
    m.insert("detect.ms_p50", p50("detect.evaluate"));
    m.insert("detect.share", share("detect"));

    let sum_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(dur_ms)
            .sum::<f64>()
    };
    m.insert("core.trace_ms_sum", sum_ms("stage.trace") / passes);
    m.insert("core.analyze_ms_sum", sum_ms("stage.analyze") / passes);
    m.insert("core.pairs_ms_sum", sum_ms("stage.pairs") / passes);
    m.insert("core.derive_ms_sum", sum_ms("stage.derive") / passes);

    let trials: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "detect.trial")
        .map(dur_ms)
        .collect();
    let trial_ms: f64 = trials.iter().sum();
    let confirm_ms = sum_ms("detect.confirm");
    let detect_wall_ms = sum_ms("detect.evaluate");
    m.insert("detect.trial_us_p50", percentile(&trials, 0.5) * 1e3);
    m.insert("detect.trial_ms_p99", percentile(&trials, 0.99));
    m.insert("detect.trial_ms_max", percentile(&trials, 1.0));
    m.insert("detect.tail_share", tail_share(&trials, 0.01));
    if trial_ms + confirm_ms > 0.0 {
        m.insert("detect.confirm_share", confirm_ms / (trial_ms + confirm_ms));
    }
    if detect_wall_ms > 0.0 {
        m.insert(
            "detect.parallel_efficiency",
            (trial_ms + confirm_ms) / (detect_threads * detect_wall_ms),
        );
    }
    trial_ms + confirm_ms
}

/// The ledger of a traced corpus or difftest run: its spans and program
/// counters. `passes` and `detect_threads` as for [`from_spans`].
pub fn from_trace(obs: &Obs, passes: f64, detect_threads: f64) -> LayerMetrics {
    let counters: BTreeMap<String, u64> = obs
        .metrics
        .snapshot()
        .into_iter()
        .filter_map(|(k, v)| match v {
            MetricValue::Counter(c) => Some((k, c)),
            _ => None,
        })
        .collect();
    let mut m = zeroed();
    let busy_ms = from_spans(&mut m, &obs.tracer.finished(), passes, detect_threads);
    from_counters(&mut m, &counters, passes, busy_ms);
    m
}

/// Fills the counter metrics, normalised to one pass. `busy_ms` is the
/// trial and confirmation time the scheduler decisions were made in.
pub fn from_counters(
    m: &mut LayerMetrics,
    counters: &BTreeMap<String, u64>,
    passes: f64,
    busy_ms: f64,
) {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / passes;
    for &name in COUNTERS {
        m.insert(name, get(name));
    }
    let discharged: u64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("screen.discharged."))
        .map(|(_, v)| v)
        .sum();
    m.insert("screen.discharged", discharged as f64 / passes);
    let rate = match busy_ms > 0.0 {
        true => get("sched.decisions") * passes / busy_ms,
        false => 0.0,
    };
    m.insert("vm.decisions_per_ms", rate);
}

/// What a traced serve run keeps of one served job.
#[derive(Debug, Clone, Default)]
pub struct ServedJob {
    /// Client-observed latency, submit to `done`.
    pub client_ms: f64,
    /// Stage wall times from the job's final stage-frame manifest, ns.
    pub timings: BTreeMap<String, u64>,
    /// Counters from the same manifest.
    pub counters: BTreeMap<String, u64>,
    /// Whether the job's compile stage missed the program cache.
    pub program_miss: bool,
    /// Index of the job's source in the workload's source list.
    pub source: usize,
}

/// `latency.<path>.p50` of a `health` reply, in ms.
fn health_p50_ms(health: &Json, path: &[&str]) -> f64 {
    let mut node = health.get("latency");
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(|n| n.get("p50"))
        .and_then(Json::as_i64)
        .map_or(0.0, |ns| ms(ns as u64))
}

fn health_count(health: &Json, side: &str) -> i64 {
    health
        .get("latency")
        .and_then(|l| l.get(side))
        .and_then(|s| s.get("count"))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

/// Fills the metrics of a traced serve run. Stage shares and stage
/// p50s come from the stage-frame manifests, the serve-side quantiles
/// and cache ratios from the `health` and `stats` replies. `lang_ms`
/// holds the benchmark's own (parse+typeck, lower) timing of each
/// source: what a program-cache miss costs the server's frontend.
pub fn from_serve(
    m: &mut LayerMetrics,
    jobs: &[ServedJob],
    lang_ms: &[(f64, f64)],
    health: &Json,
    stats: &Json,
    passes: f64,
) {
    let client_ms: f64 = jobs.iter().map(|j| j.client_ms).sum();
    let timing = |j: &ServedJob, name: &str| ms(j.timings.get(name).copied().unwrap_or(0));
    let p50 =
        |f: &dyn Fn(&ServedJob) -> f64| percentile(&jobs.iter().map(f).collect::<Vec<_>>(), 0.5);
    let share = |f: &dyn Fn(&ServedJob) -> f64| match client_ms > 0.0 {
        true => jobs.iter().map(f).sum::<f64>() / client_ms,
        false => 0.0,
    };
    let lang = |j: &ServedJob| match j.program_miss {
        true => lang_ms[j.source].0 + lang_ms[j.source].1,
        false => 0.0,
    };
    let parse: Vec<f64> = lang_ms.iter().map(|l| l.0).collect();
    let lower: Vec<f64> = lang_ms.iter().map(|l| l.1).collect();
    m.insert("lang.parse_typeck_ms_p50", percentile(&parse, 0.5));
    m.insert("lang.lower_ms_p50", percentile(&lower, 0.5));
    m.insert("lang.share", share(&lang));
    m.insert("core.synth_ms_p50", p50(&|j| timing(j, "pipeline.total")));
    m.insert(
        "core.share",
        share(&|j| timing(j, "pipeline.total") - timing(j, "stage.screen")),
    );
    m.insert("screen.ms_p50", p50(&|j| timing(j, "stage.screen")));
    m.insert("screen.share", share(&|j| timing(j, "stage.screen")));
    m.insert("detect.ms_p50", p50(&|j| timing(j, "stage.detect")));
    m.insert("detect.share", share(&|j| timing(j, "stage.detect")));
    for (metric, stage) in [
        ("core.trace_ms_sum", "stage.trace"),
        ("core.analyze_ms_sum", "stage.analyze"),
        ("core.pairs_ms_sum", "stage.pairs"),
        ("core.derive_ms_sum", "stage.derive"),
    ] {
        m.insert(
            metric,
            jobs.iter().map(|j| timing(j, stage)).sum::<f64>() / passes,
        );
    }

    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for j in jobs {
        for (k, v) in &j.counters {
            *counters.entry(k.clone()).or_default() += v;
        }
    }
    // Served jobs run their trials on one thread, so detect-stage wall
    // time is the busy time the decisions were made in.
    let detect_ms: f64 = jobs.iter().map(|j| timing(j, "stage.detect")).sum();
    from_counters(m, &counters, passes, detect_ms);

    m.insert(
        "serve.compile_ms_p50",
        health_p50_ms(health, &["stages", "compile"]),
    );
    m.insert(
        "serve.synth_ms_p50",
        health_p50_ms(health, &["stages", "synth"]),
    );
    m.insert(
        "serve.detect_ms_p50",
        health_p50_ms(health, &["stages", "detect"]),
    );
    // The timed jobs are the bulk of whichever temperature saw more.
    let side = match health_count(health, "warm") >= health_count(health, "cold") {
        true => "warm",
        false => "cold",
    };
    let server_ms = health_p50_ms(health, &[side]);
    m.insert("serve.server_job_ms_p50", server_ms);
    let client: Vec<f64> = jobs.iter().map(|j| j.client_ms).collect();
    m.insert(
        "serve.overhead_ms_p50",
        percentile(&client, 0.5) - server_ms,
    );

    let cache = |key: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0) as f64
    };
    let ratio = |hits: f64, misses: f64| match hits + misses > 0.0 {
        true => hits / (hits + misses),
        false => 0.0,
    };
    m.insert(
        "serve.cache.program_hit_ratio",
        ratio(cache("program_hits"), cache("program_misses")),
    );
    m.insert(
        "serve.cache.unit_hit_ratio",
        ratio(cache("unit_hits"), cache("unit_misses")),
    );
    m.insert("serve.cache.evictions", cache("evictions"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.into(),
            thread: 0,
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)], 0, 100), 20);
        assert_eq!(covered_ns(vec![(0, 10)], 4, 8), 4);
        assert_eq!(covered_ns(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_nested_layers_only() {
        let ms = 1_000_000;
        let spans = vec![
            span(0, None, JOB_SPAN, 0, 10 * ms),
            span(1, Some(0), "lang.parse_typeck", 0, ms),
            span(2, Some(0), "core.synthesize", ms, 6 * ms),
            // A program span between the layer call and the screener:
            // it neither counts as a layer nor hides the nesting.
            span(3, Some(2), "stage.screen", 2 * ms, 4 * ms),
            span(4, Some(3), "screen.screen_pairs", 2 * ms, 4 * ms),
            span(5, Some(0), "detect.evaluate", 6 * ms, 10 * ms),
            span(6, Some(5), "detect.trial", 6 * ms, 9 * ms),
            span(7, Some(5), "detect.confirm", 9 * ms, 10 * ms),
        ];
        let mut m = zeroed();
        let busy_ms = from_spans(&mut m, &spans, 1.0, 1.0);
        assert!((busy_ms - 4.0).abs() < 1e-9);
        assert!((m["lang.share"] - 0.1).abs() < 1e-9);
        assert!((m["core.share"] - 0.3).abs() < 1e-9);
        assert!((m["screen.share"] - 0.2).abs() < 1e-9);
        assert!((m["detect.share"] - 0.4).abs() < 1e-9);
        assert!((m["core.synth_ms_p50"] - 5.0).abs() < 1e-9);
        assert!((m["detect.confirm_share"] - 0.25).abs() < 1e-9);
        assert!((m["detect.parallel_efficiency"] - 1.0).abs() < 1e-9);
        assert!((m["detect.trial_ms_max"] - 3.0).abs() < 1e-9);
        let counters = BTreeMap::from([("sched.decisions".to_string(), 400)]);
        from_counters(&mut m, &counters, 1.0, busy_ms);
        assert!((m["vm.decisions_per_ms"] - 100.0).abs() < 1e-9);
    }
}
