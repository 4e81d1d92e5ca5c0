//! End-to-end detection: synthesize racy tests, then run the paper's §5
//! protocol (lockset/HB detection under random schedules, RaceFuzzer-style
//! confirmation, harmful/benign triage).

use narada_core::{synthesize_source, SynthesisOptions};
use narada_detect::{evaluate_suite_full, evaluate_test_observed, DetectConfig};
use narada_obs::Obs;

const FIG1: &str = r#"
    class Counter {
        int count;
        void inc() { this.count = this.count + 1; }
    }
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

fn cfg() -> DetectConfig {
    DetectConfig {
        schedule_trials: 8,
        confirm_trials: 6,
        seed: 42,
        budget: 2_000_000,
        threads: 0,
        ..DetectConfig::default()
    }
}

#[test]
fn fig1_race_detected_and_reproduced_harmful() {
    let (prog, mir, out) = synthesize_source(FIG1, &SynthesisOptions::default()).unwrap();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let test = out
        .tests
        .iter()
        .find(|t| t.plan.expects_race && prog.method(t.plan.racy[0].method).name == "update")
        .expect("update||update test");
    let report = evaluate_test_observed(&prog, &mir, &seeds, &test.plan, &cfg(), 0, &Obs::new());
    assert!(report.setup_errors.is_empty(), "{:?}", report.setup_errors);
    assert!(
        !report.detected.is_empty(),
        "lockset/HB must detect the count race"
    );
    assert!(
        !report.reproduced.is_empty(),
        "racefuzzer must reproduce it (detected: {:?})",
        report.detected
    );
    assert!(
        report.harmful() >= 1,
        "count++ vs count++ writes different values → harmful"
    );
}

#[test]
fn benign_reset_race_classified_benign() {
    // The C6 pattern: two threads reset a field to the same constant.
    let (prog, mir, out) = synthesize_source(
        r#"
        class Scanner {
            int state;
            void scan() { this.state = this.state + 1; }
            void reset() { this.state = 0; }
        }
        test seed {
            var s = new Scanner();
            s.scan();
            s.reset();
        }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    // Find the reset||reset test (both writes store 0 → benign).
    let test = out
        .tests
        .iter()
        .find(|t| {
            prog.method(t.plan.racy[0].method).name == "reset"
                && prog.method(t.plan.racy[1].method).name == "reset"
        })
        .expect("reset||reset test");
    let report = evaluate_test_observed(&prog, &mir, &seeds, &test.plan, &cfg(), 0, &Obs::new());
    assert!(!report.reproduced.is_empty(), "reset race must reproduce");
    assert!(
        report.benign() >= 1,
        "two writes of 0 are benign: {:?}",
        report.reproduced
    );
}

#[test]
fn safe_class_reports_nothing() {
    let (prog, mir, out) = synthesize_source(
        r#"
        class Safe {
            int v;
            sync void add(int x) { this.v = this.v + x; }
            sync int get() { return this.v; }
        }
        test seed { var s = new Safe(); s.add(3); var g = s.get(); }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let agg = evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg(), &Obs::new()).1;
    assert_eq!(
        agg.races_detected, 0,
        "fully synchronized class has no races"
    );
    assert_eq!(agg.harmful + agg.benign, 0);
}

#[test]
fn suite_aggregation_counts_distinct_races() {
    let (prog, mir, out) = synthesize_source(FIG1, &SynthesisOptions::default()).unwrap();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let agg = evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg(), &Obs::new()).1;
    assert!(agg.races_detected >= 1);
    assert!(agg.harmful >= 1);
    assert_eq!(agg.per_test_races.len(), plans.len());
    assert!(
        agg.per_test_races.iter().any(|&n| n > 0),
        "at least one test detects a race: {:?}",
        agg.per_test_races
    );
}
