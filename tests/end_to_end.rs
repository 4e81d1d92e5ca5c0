//! Cross-crate end-to-end tests: the full Narada pipeline (compile → trace
//! → analyze → pair → derive → synthesize → detect → confirm) on the
//! paper's corpus classes.

use narada::detect::{evaluate_test_observed, DetectConfig};
use narada::lang::lower::lower_program;
use narada::Obs;
use narada::{synthesize_observed, SynthesisOptions};

fn cfg() -> DetectConfig {
    DetectConfig {
        schedule_trials: 6,
        confirm_trials: 4,
        seed: 7,
        budget: 2_000_000,
        threads: 0,
        ..DetectConfig::default()
    }
}

#[test]
fn every_corpus_class_yields_pairs_and_tests() {
    for entry in narada::corpus::all() {
        let prog = entry.compile().unwrap();
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        assert!(out.pair_count() > 0, "{}: no racing pairs", entry.id);
        assert!(out.test_count() > 0, "{}: no synthesized tests", entry.id);
        assert!(
            out.test_count() <= out.pair_count(),
            "{}: tests must not exceed pairs",
            entry.id
        );
        assert!(out.seed_failures.is_empty(), "{}: seeds failed", entry.id);
    }
}

#[test]
fn c1_wrapper_race_is_reproduced_harmful() {
    // The motivating hazelcast defect: two SynchronizedWriteBehindQueue
    // wrappers around one queue, racing removeFirst.
    let entry = narada::corpus::c1();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    let sync_class = prog.class_by_name("SynchronizedWriteBehindQueue").unwrap();
    let test = out
        .tests
        .iter()
        .find(|t| {
            let m0 = prog.method(t.plan.racy[0].method);
            let m1 = prog.method(t.plan.racy[1].method);
            m0.owner == sync_class
                && m0.name == "removeFirst"
                && m1.name == "removeFirst"
                && t.plan.expects_race
        })
        .expect("the Fig. 3 test must be synthesized");
    // The plan must construct wrappers through the factory with a shared
    // inner queue (builder route).
    assert!(
        !test.plan.builders.is_empty(),
        "context must be built via the factory:\n{}",
        test.plan.render(&prog)
    );
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let report = evaluate_test_observed(&prog, &mir, &seeds, &test.plan, &cfg(), 0, &Obs::new());
    assert!(report.setup_errors.is_empty(), "{:?}", report.setup_errors);
    assert!(!report.detected.is_empty(), "race must be detected");
    assert!(
        report.harmful() >= 1,
        "lost queue updates are harmful: {:?}",
        report.reproduced
    );
}

#[test]
fn c9_close_vs_read_race_found() {
    let entry = narada::corpus::c9();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    // close() writes buf/pos/count without the monitor: it must appear as
    // the unprotected side of some pair.
    let close = prog
        .methods
        .iter()
        .find(|m| m.name == "close")
        .expect("close exists")
        .id;
    let involves_close = out
        .tests
        .iter()
        .any(|t| t.plan.racy[0].method == close || t.plan.racy[1].method == close);
    assert!(involves_close, "close() must participate in a racy test");

    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut any_harmful = 0;
    for t in out.tests.iter().filter(|t| t.plan.expects_race) {
        let rep = evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &cfg(), 0, &Obs::new());
        any_harmful += rep.harmful();
    }
    assert!(any_harmful >= 1, "C9 has reproducible harmful races");
}

#[test]
fn c6_reset_races_are_benign_heavy() {
    // The paper's C6 signature: many benign races from the reset method
    // writing constants.
    let entry = narada::corpus::c6();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    let reset = prog.methods.iter().find(|m| m.name == "reset").unwrap().id;
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut benign = 0usize;
    for t in out
        .tests
        .iter()
        .filter(|t| t.plan.racy[0].method == reset && t.plan.racy[1].method == reset)
        .take(4)
    {
        let rep = evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &cfg(), 0, &Obs::new());
        benign += rep.benign();
    }
    assert!(
        benign >= 1,
        "reset||reset writes identical constants — benign races expected"
    );
}

#[test]
fn synthesized_suites_are_deterministic() {
    let entry = narada::corpus::c3();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let run = || {
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        (
            out.pair_count(),
            out.test_count(),
            out.tests
                .iter()
                .map(|t| t.plan.dedup_key())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn facade_reexports_cover_the_pipeline() {
    // Compile via the facade, synthesize via the facade, detect via the
    // facade — the public API a downstream user sees.
    let (prog, mir, out) = narada::synthesize_source(
        r#"
        class Cell { int v; void put(int x) { this.v = x; } int get() { return this.v; } }
        test seed { var c = new Cell(); c.put(1); var g = c.get(); }
        "#,
        &narada::SynthesisOptions::default(),
    )
    .unwrap();
    assert!(out.pair_count() > 0);
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let agg = narada::evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg(), &Obs::new()).1;
    assert!(agg.races_detected > 0, "unsynchronized Cell must race");
}

/// A racy cell whose `put` stores `expr`. The method's block and its
/// assignment take two of the parser's `MAX_DEPTH` levels, so `expr` may
/// be `MAX_DEPTH - 2` levels high.
fn deep_cell(expr: &str) -> String {
    format!(
        "class Cell {{ int v; void put(int x) {{ this.v = {expr}; }} \
         int get() {{ return this.v; }} }}\n\
         test seed {{ var c = new Cell(); c.put(1); var g = c.get(); }}"
    )
}

/// Compiles, lowers, synthesizes and detects `src` on a thread with the
/// default stack, the size a `narada serve` worker runs on; a source
/// the parser lets through must not overflow it in any later pass.
fn pipeline_on_default_stack(src: String) -> Result<usize, narada::lang::Diagnostics> {
    std::thread::spawn(move || {
        let (prog, mir, out) = narada::synthesize_source(&src, &SynthesisOptions::default())?;
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
        let agg = narada::evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg(), &Obs::new()).1;
        Ok(agg.races_detected)
    })
    .join()
    .expect("pipeline thread")
}

#[test]
fn sources_at_the_depth_bound_run_and_one_level_past_it_are_refused() {
    use narada::lang::parser::MAX_DEPTH;
    let height = MAX_DEPTH - 2;
    // Each shape builds an expression exactly `h` levels high.
    fn parens(h: usize) -> String {
        format!("{}x{}", "(".repeat(h - 1), ")".repeat(h - 1))
    }
    fn sum(h: usize) -> String {
        vec!["x"; h].join("+")
    }
    fn negations(h: usize) -> String {
        format!("{}x", "-".repeat(h - 1))
    }
    /// A parenthesized first operand sinks one level per `+` after it.
    fn sunk_sum(h: usize) -> String {
        format!("{}+{}", parens(h / 2), sum(h - h / 2))
    }
    type Shape = fn(usize) -> String;
    let shapes: [(&str, Shape); 4] = [
        ("parens", parens),
        ("sum", sum),
        ("negations", negations),
        ("sunk sum", sunk_sum),
    ];
    for (shape, expr) in shapes {
        let races = pipeline_on_default_stack(deep_cell(&expr(height)))
            .unwrap_or_else(|e| panic!("{shape} at the bound: {e}"));
        assert!(races > 0, "{shape} at the bound: the cell must race");
        let err = pipeline_on_default_stack(deep_cell(&expr(height + 1)))
            .expect_err(&format!("{shape} one level past the bound"));
        assert!(err.to_string().contains("nests deeper"), "{shape}: {err}");
    }
    // Far past the bound, the parser refuses without recursing that deep.
    for expr in [parens(10_000), sum(10_000), negations(10_000)] {
        assert!(pipeline_on_default_stack(deep_cell(&expr)).is_err());
    }
}
