//! Telemetry invariants across the full pipeline: the run manifest's
//! metric section must be byte-identical regardless of worker-thread
//! count, traces must form a well-shaped span tree, and manifests must
//! survive a serialize/parse round trip.

use narada::detect::DetectConfig;
use narada::lang::lower::lower_program;
use narada::obs::Json;
use narada::{
    evaluate_suite_full, screen_pairs, synthesize_observed, Obs, RunManifest, SynthesisOptions,
};

/// Runs synthesis + detection over a small corpus class with the given
/// worker-thread count and returns the populated observability context.
fn run_pipeline(threads: usize) -> Obs {
    let entry = narada::corpus::c9();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let obs = Obs::new();
    let opts = SynthesisOptions {
        threads,
        ..SynthesisOptions::default()
    };
    let out = synthesize_observed(&prog, &mir, &opts, Some(&screen_pairs), &obs);
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let cfg = DetectConfig {
        schedule_trials: 3,
        confirm_trials: 2,
        seed: 0xdead,
        budget: 1_000_000,
        threads,
        ..DetectConfig::default()
    };
    evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);
    obs
}

#[test]
fn manifest_metrics_identical_across_thread_counts() {
    let baseline = RunManifest::from_obs("t", 1, &run_pipeline(1))
        .metrics_json()
        .to_compact();
    assert!(
        baseline.contains("pairs.generated"),
        "pipeline must populate the registry: {baseline}"
    );
    assert!(baseline.contains("detect.trials"), "{baseline}");
    for threads in [2, 8] {
        let got = RunManifest::from_obs("t", threads as u64, &run_pipeline(threads))
            .metrics_json()
            .to_compact();
        assert_eq!(
            baseline, got,
            "metric section must not depend on worker count (threads={threads})"
        );
    }
}

/// Like [`run_pipeline`] but with a directed (PCT) exploration strategy
/// and the static screener ranking pass on, so all three coverage
/// counters — `explore.change_points_probed`, `explore.schedule_novelty`,
/// `screen.pair_coverage` — accumulate non-trivial values.
fn run_coverage_pipeline(threads: usize) -> Obs {
    let entry = narada::corpus::c9();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let obs = Obs::new();
    let opts = SynthesisOptions {
        threads,
        static_rank: true,
        ..SynthesisOptions::default()
    };
    let out = synthesize_observed(&prog, &mir, &opts, Some(&screen_pairs), &obs);
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let cfg = DetectConfig {
        schedule_trials: 3,
        confirm_trials: 2,
        seed: 0xdead,
        budget: 1_000_000,
        threads,
        strategy: narada::vm::ScheduleStrategy::Pct { depth: 3 },
        pct_horizon: 200,
        ..DetectConfig::default()
    };
    evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);
    obs
}

#[test]
fn exploration_coverage_counters_are_thread_invariant() {
    let baseline = RunManifest::from_obs("cov", 1, &run_coverage_pipeline(1));
    let scalar = |m: &RunManifest, key: &str| -> u64 {
        match m.metric(key) {
            Some(narada::obs::MetricValue::Counter(n)) => *n,
            other => panic!("{key} must be a counter, got {other:?}"),
        }
    };
    // PCT with depth 3 over a short horizon consumes change points; every
    // trial manifests a schedule; the ranking pass screened every pair.
    assert!(
        scalar(&baseline, "explore.change_points_probed") > 0,
        "directed trials must consume change points"
    );
    assert!(
        scalar(&baseline, "explore.schedule_novelty") > 0,
        "trials must manifest at least one distinct schedule"
    );
    assert!(
        scalar(&baseline, "screen.pair_coverage") > 0,
        "the ranking screener covers every generated pair"
    );
    let base_metrics = baseline.metrics_json().to_compact();
    for threads in [2, 8] {
        let got = RunManifest::from_obs("cov", 1, &run_coverage_pipeline(threads))
            .metrics_json()
            .to_compact();
        assert_eq!(
            base_metrics, got,
            "coverage counters must not depend on worker count (threads={threads})"
        );
    }
}

#[test]
fn manifest_survives_round_trip() {
    let obs = run_pipeline(1);
    let mut m = RunManifest::from_obs("round-trip", 1, &obs);
    m.set_config("strategy", "pct");
    let text = m.to_pretty();
    let back = RunManifest::parse(&text).expect("parses back");
    assert_eq!(m.to_json().to_compact(), back.to_json().to_compact());
    assert_eq!(back.config_get("strategy"), Some("pct"));
    assert_eq!(back.metric("pairs.generated"), m.metric("pairs.generated"));
}

const FIXTURE: &str = r#"
    class Counter { int count; void inc() { this.count = this.count + 1; } }
    class Lib {
        Counter c;
        sync void update() { this.c.inc(); }
        sync void set(Counter x) { this.c = x; }
    }
    test seed {
        var r = new Counter();
        var p = new Lib();
        p.set(r);
        p.update();
    }
"#;

/// Golden trace shape: at one worker thread the synthesis trace is fully
/// deterministic — fixed span names in a fixed order, with every stage
/// parented under the pipeline root and every derive job under its stage.
/// Detection hangs each test's `detect.prefix` (the builders and setters
/// every trial forks after), `detect.trial` and `detect.confirm` spans
/// off that test's `detect.test` span; the capture runs the class's
/// tests share hang off `stage.detect` as `detect.capture` spans.
#[test]
fn trace_spans_form_the_expected_tree() {
    let prog = narada::compile(FIXTURE).expect("fixture compiles");
    let mir = lower_program(&prog);
    let obs = Obs::with_tracing();
    let opts = SynthesisOptions {
        threads: 1,
        static_filter: true,
        ..SynthesisOptions::default()
    };
    let out = synthesize_observed(&prog, &mir, &opts, Some(&screen_pairs), &obs);
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let cfg = DetectConfig {
        schedule_trials: 2,
        confirm_trials: 1,
        threads: 1,
        ..DetectConfig::default()
    };
    evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);

    let jsonl = obs.tracer.to_jsonl();
    let spans: Vec<Json> = jsonl
        .lines()
        .map(|l| Json::parse(l).expect("every trace line is valid JSON"))
        .collect();
    assert!(!spans.is_empty());

    let name = |s: &Json| s.get("name").and_then(Json::as_str).unwrap().to_string();
    let id = |s: &Json| s.get("id").and_then(Json::as_i64).unwrap();
    let parent = |s: &Json| s.get("parent").and_then(Json::as_i64);

    // Every span carries monotone timing and a thread ordinal.
    for s in &spans {
        let start = s.get("start_ns").and_then(Json::as_i64).unwrap();
        let end = s.get("end_ns").and_then(Json::as_i64).unwrap();
        assert!(end >= start, "span {} ends before it starts", name(s));
        assert!(s.get("thread").is_some());
    }

    let root = spans
        .iter()
        .find(|s| name(s) == "pipeline.synthesize")
        .expect("root span present");
    assert_eq!(parent(root), None, "pipeline root has no parent");
    let root_id = id(root);

    // The five synthesis stages appear exactly once each, under the root.
    for stage in [
        "stage.trace",
        "stage.analyze",
        "stage.pairs",
        "stage.screen",
        "stage.derive",
    ] {
        let hits: Vec<_> = spans.iter().filter(|s| name(s) == stage).collect();
        assert_eq!(hits.len(), 1, "{stage} must appear exactly once");
        assert_eq!(parent(hits[0]), Some(root_id), "{stage} parented to root");
    }

    // Leaf jobs hang off their stage, never off the root.
    let derive_id = spans.iter().find(|s| name(s) == "stage.derive").map(id);
    let trace_id = spans.iter().find(|s| name(s) == "stage.trace").map(id);
    for s in &spans {
        match name(s).as_str() {
            "derive.pair" => assert_eq!(parent(s), derive_id),
            "seed.run" => assert_eq!(parent(s), trace_id),
            _ => {}
        }
    }
    assert!(
        spans.iter().any(|s| name(s) == "derive.pair"),
        "derive jobs traced"
    );
    assert!(
        spans.iter().any(|s| name(s) == "seed.run"),
        "seed runs traced"
    );

    let count = |n: &str| spans.iter().filter(|s| name(s) == n).count();
    let tests: Vec<i64> = spans
        .iter()
        .filter(|s| name(s) == "detect.test")
        .map(id)
        .collect();
    assert_eq!(tests.len(), plans.len(), "one detect.test span per plan");
    assert_eq!(count("detect.prefix"), plans.len());
    for s in &spans {
        if ["detect.prefix", "detect.trial", "detect.confirm"].contains(&name(s).as_str()) {
            let under_test = parent(s).is_some_and(|p| tests.contains(&p));
            assert!(under_test, "{} hangs off a detect.test span", name(s));
        }
    }
    assert_capture_spans_hang_off_the_stage(&spans);
    assert!(count("detect.capture") > 0, "capture runs traced");
}

/// Every `detect.capture` span's parent is the `stage.detect` span.
fn assert_capture_spans_hang_off_the_stage(spans: &[Json]) {
    let name = |s: &Json| s.get("name").and_then(Json::as_str).unwrap().to_string();
    let id = |s: &Json| s.get("id").and_then(Json::as_i64).unwrap();
    let stage = spans.iter().find(|s| name(s) == "stage.detect").map(id);
    for s in spans.iter().filter(|s| name(s) == "detect.capture") {
        let parent = s.get("parent").and_then(Json::as_i64);
        assert_eq!(parent, stage, "detect.capture hangs off stage.detect");
    }
}

/// The capture walk runs the seeds once per node of a class's capture
/// trie, stopping at each child's capture: the trace holds one
/// `detect.capture` span per distinct leading sequence of capture
/// methods among the plans (C3's prefixes draw no RNG and miss no
/// capture), fewer than the plans' captures in all, at any worker count.
#[test]
fn capture_spans_count_each_shared_capture_once() {
    let entry = narada::corpus::by_id("C3").expect("C3 in corpus");
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let opts = SynthesisOptions {
        threads: 1,
        ..SynthesisOptions::default()
    };
    let out = synthesize_observed(&prog, &mir, &opts, None, &Obs::new());
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let nodes: std::collections::BTreeSet<Vec<_>> = plans
        .iter()
        .flat_map(|p| {
            let methods: Vec<_> = p.captures.iter().map(|c| c.method).collect();
            (1..=methods.len()).map(move |n| methods[..n].to_vec())
        })
        .collect();
    let captures: usize = plans.iter().map(|p| p.captures.len()).sum();
    assert!(nodes.len() < captures, "C3's plans share no capture");
    for threads in [1, 2] {
        let obs = Obs::with_tracing();
        let cfg = DetectConfig {
            schedule_trials: 1,
            confirm_trials: 1,
            threads,
            ..DetectConfig::default()
        };
        evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);
        let spans: Vec<Json> = obs
            .tracer
            .to_jsonl()
            .lines()
            .map(|l| Json::parse(l).expect("every trace line is valid JSON"))
            .collect();
        let walked = spans
            .iter()
            .filter(|s| s.get("name").and_then(Json::as_str) == Some("detect.capture"))
            .count();
        assert_eq!(walked, nodes.len(), "threads={threads}");
        assert_capture_spans_hang_off_the_stage(&spans);
    }
}
