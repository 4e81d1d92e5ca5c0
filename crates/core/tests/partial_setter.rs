//! §4 partial invocations: "there can be a strong non-controllable update
//! to a field after the controllable assignment, which can override the
//! earlier update … We handle it by letting a separate thread invoke the
//! method and suspend its execution at the label corresponding to the
//! writeable assignment or the closest point where all held locks are
//! released."

use narada_core::{execute_plan, synthesize_source, SynthesisOptions};
use narada_vm::{Machine, NullSink, RandomScheduler, ThreadStatus, Value};

/// `set` installs the client object, then clobbers the field with a fresh
/// library-internal allocation. Running it to completion would destroy the
/// sharing the race needs.
const CLOBBERING_SETTER: &str = r#"
    class X { int o; }
    class H {
        X x;
        void set(X v) {
            this.x = v;
            this.x = new X();
        }
        void touch() {
            this.x.o = this.x.o + 1;
        }
    }
    test seed {
        var x = new X();
        var h = new H();
        h.set(x);
        h.touch();
    }
"#;

#[test]
fn clobbered_setter_summary_is_flagged() {
    let (prog, _mir, out) =
        synthesize_source(CLOBBERING_SETTER, &SynthesisOptions::default()).unwrap();
    let set = prog.methods.iter().find(|m| m.name == "set").unwrap().id;
    let summary = out
        .analysis
        .setters
        .iter()
        .find(|s| s.method == set)
        .expect("set has a writeable-assignment summary");
    assert!(
        summary.overwritten,
        "the later `this.x = new X()` must flag the summary (§4)"
    );
}

#[test]
fn plan_uses_partial_invocation_for_clobbered_setter() {
    let (prog, _mir, out) =
        synthesize_source(CLOBBERING_SETTER, &SynthesisOptions::default()).unwrap();
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| {
            prog.method(p.racy[0].method).name == "touch"
                && prog.method(p.racy[1].method).name == "touch"
                && p.expects_race
        })
        .expect("touch||touch plan with sharing");
    let setter = plan
        .setters
        .iter()
        .find(|s| prog.method(s.method).name == "set")
        .expect("context routes through set()");
    assert!(
        setter.stop_after.is_some(),
        "set() must be invoked partially:\n{}",
        plan.render(&prog)
    );
}

#[test]
fn partial_execution_preserves_the_shared_context() {
    let (prog, mir, out) =
        synthesize_source(CLOBBERING_SETTER, &SynthesisOptions::default()).unwrap();
    let test = out
        .tests
        .iter()
        .find(|t| prog.method(t.plan.racy[0].method).name == "touch" && t.plan.expects_race)
        .expect("touch||touch test");
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let h_class = prog.class_by_name("H").unwrap();
    let x_field = prog.field_by_name(h_class, "x").unwrap();

    let mut machine = Machine::with_defaults(&prog, &mir);
    let mut sched = RandomScheduler::new(5);
    let report = execute_plan(
        &mut machine,
        &seeds,
        &test.plan,
        &mut sched,
        &mut NullSink,
        2_000_000,
    )
    .expect("plan executes");
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    // Both racy receivers' x fields must point at ONE shared object — the
    // partial invocation stopped before the clobbering write.
    let racy_xs: Vec<Value> = (0..machine.heap.len() as u32)
        .map(narada_vm::ObjId)
        .filter(|&o| machine.heap.class_of(o) == Some(h_class))
        .map(|o| machine.heap.get_field(o, x_field).unwrap())
        .collect();
    let shared: Vec<_> = racy_xs
        .iter()
        .filter(|v| racy_xs.iter().filter(|w| w == v).count() >= 2)
        .collect();
    assert!(
        !shared.is_empty(),
        "two H receivers must share one X: {racy_xs:?}"
    );

    // The parked partial-invocation threads are still parked (not failed).
    let parked = (0..machine.thread_count() as u32)
        .map(narada_vm::ThreadId)
        .filter(|&t| *machine.thread_status(t) == ThreadStatus::Parked)
        .count();
    assert!(parked >= 1, "partial setters leave parked threads");
}

#[test]
fn normal_setters_still_run_to_completion() {
    // A setter without a clobbering write keeps stop_after == None.
    let (prog, _mir, out) = synthesize_source(
        r#"
        class X { int o; }
        class H {
            X x;
            void set(X v) { this.x = v; }
            void touch() { this.x.o = this.x.o + 1; }
        }
        test seed { var x = new X(); var h = new H(); h.set(x); h.touch(); }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| prog.method(p.racy[0].method).name == "touch" && p.expects_race)
        .expect("touch plan");
    assert!(plan.setters.iter().all(|s| s.stop_after.is_none()));
}
