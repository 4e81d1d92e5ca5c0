//! Integration tests for the MJ virtual machine: sequential semantics,
//! trace events, monitors, error paths, breakpoints, and concurrency.

use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_vm::{
    EventKind, EventSink, Label, Machine, MachineOptions, NullSink, ObjId, RandomScheduler,
    RoundRobin, RunOutcome, ThreadStatus, Value, VecSink, VmErrorKind,
};

fn build(src: &str) -> (Program, MirProgram) {
    let prog = narada_lang::compile(src).unwrap_or_else(|e| panic!("compile failed:\n{e}"));
    let mir = lower_program(&prog);
    (prog, mir)
}

/// Runs a test and returns the value of the given field of the last
/// allocated instance of `class`.
fn run_and_get_field(src: &str, test: &str, class: &str, field: &str) -> Value {
    let (prog, mir) = build(src);
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.test_by_name(test).unwrap(), &mut sink)
        .unwrap_or_else(|e| panic!("vm failed: {e}"));
    let cid = prog.class_by_name(class).unwrap();
    let fid = prog.field_by_name(cid, field).unwrap();
    let obj = (0..m.heap.len() as u32)
        .rev()
        .map(narada_vm::ObjId)
        .find(|&o| m.heap.class_of(o) == Some(cid))
        .expect("instance allocated");
    m.heap.get_field(obj, fid).unwrap()
}

#[test]
fn counter_increments() {
    let v = run_and_get_field(
        r#"
        class Counter { int count; void inc() { this.count = this.count + 1; } }
        test t { var c = new Counter(); c.inc(); c.inc(); c.inc(); }
        "#,
        "t",
        "Counter",
        "count",
    );
    assert_eq!(v, Value::Int(3));
}

#[test]
fn while_loop_sums() {
    let v = run_and_get_field(
        r#"
        class Acc {
            int total;
            void sum(int n) {
                var i = 1;
                while (i <= n) { this.total = this.total + i; i = i + 1; }
            }
        }
        test t { var a = new Acc(); a.sum(10); }
        "#,
        "t",
        "Acc",
        "total",
    );
    assert_eq!(v, Value::Int(55));
}

#[test]
fn dynamic_dispatch_picks_override() {
    let v = run_and_get_field(
        r#"
        class Base {
            int result;
            int get() { return 1; }
            void go() { this.result = this.get(); }
        }
        class Derived extends Base {
            int get() { return 42; }
        }
        test t { var d = new Derived(); d.go(); }
        "#,
        "t",
        "Derived",
        "result",
    );
    assert_eq!(v, Value::Int(42));
}

#[test]
fn constructor_and_field_initializers() {
    let v = run_and_get_field(
        r#"
        class Box {
            int pre = 7;
            int v;
            init(int x) { this.v = x + this.pre; }
        }
        test t { var b = new Box(10); }
        "#,
        "t",
        "Box",
        "v",
    );
    assert_eq!(v, Value::Int(17));
}

#[test]
fn arrays_grow_and_copy() {
    let v = run_and_get_field(
        r#"
        class Buf {
            int[] data;
            int size;
            init(int cap) { this.data = new int[cap]; this.size = 0; }
            void push(int v) {
                if (this.size == this.data.length) {
                    var bigger = new int[this.data.length * 2 + 1];
                    var i = 0;
                    while (i < this.size) { bigger[i] = this.data[i]; i = i + 1; }
                    this.data = bigger;
                }
                this.data[this.size] = v;
                this.size = this.size + 1;
            }
            int sum() {
                var s = 0;
                var i = 0;
                while (i < this.size) { s = s + this.data[i]; i = i + 1; }
                return s;
            }
        }
        class Out { int v; void set(Buf b) { this.v = b.sum(); } }
        test t {
            var b = new Buf(1);
            b.push(1); b.push(2); b.push(3); b.push(4);
            var o = new Out();
            o.set(b);
        }
        "#,
        "t",
        "Out",
        "v",
    );
    assert_eq!(v, Value::Int(10));
}

#[test]
fn static_factory_and_wrapping() {
    // The hazelcast motivating pattern: factory creating a wrapper.
    let v = run_and_get_field(
        r#"
        class Inner { int x; void bump() { this.x = this.x + 1; } }
        class Wrapper {
            Inner inner;
            init(Inner i) { this.inner = i; }
            sync void bump() { this.inner.bump(); }
        }
        class Factory {
            static Wrapper wrap(Inner i) { return new Wrapper(i); }
        }
        test t {
            var i = new Inner();
            var w1 = Factory.wrap(i);
            var w2 = Factory.wrap(i);
            w1.bump();
            w2.bump();
        }
        "#,
        "t",
        "Inner",
        "x",
    );
    assert_eq!(v, Value::Int(2));
}

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    // Would null-deref if `&&` evaluated its rhs.
    let (prog, mir) = build(
        r#"
        class P { bool flag; }
        class C {
            int out;
            void m(P p) {
                if (p != null && p.flag) { this.out = 1; } else { this.out = 2; }
            }
        }
        test t { var c = new C(); c.m(null); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    m.run_test(prog.test_by_name("t").unwrap(), &mut NullSink)
        .expect("short-circuit must avoid null deref");
}

// ----------------------------------------------------------------------
// Error paths
// ----------------------------------------------------------------------

fn expect_error(src: &str) -> VmErrorKind {
    let (prog, mir) = build(src);
    let mut m = Machine::with_defaults(&prog, &mir);
    m.run_test(prog.tests[0].id, &mut NullSink)
        .expect_err("expected runtime error")
        .kind
}

#[test]
fn null_deref_fails() {
    let k = expect_error(
        r#"
        class A { int x; }
        test t { var a = new A(); a = null; a.x = 1; }
        "#,
    );
    assert_eq!(k, VmErrorKind::NullDeref);
}

#[test]
fn index_out_of_bounds_fails() {
    let k = expect_error("test t { var a = new int[2]; a[5] = 1; }");
    assert_eq!(k, VmErrorKind::IndexOutOfBounds { idx: 5, len: 2 });
}

#[test]
fn negative_index_fails() {
    let k = expect_error("test t { var a = new int[2]; var x = a[0 - 1]; }");
    assert!(matches!(k, VmErrorKind::IndexOutOfBounds { idx: -1, .. }));
}

#[test]
fn negative_array_length_fails() {
    let k = expect_error("test t { var a = new int[0 - 3]; }");
    assert_eq!(k, VmErrorKind::NegativeArrayLength(-3));
}

#[test]
fn div_by_zero_fails() {
    let k = expect_error("test t { var x = 1 / 0; }");
    assert_eq!(k, VmErrorKind::DivByZero);
    let k = expect_error("test t { var x = 1 % 0; }");
    assert_eq!(k, VmErrorKind::DivByZero);
}

#[test]
fn assert_failure_fails() {
    let k = expect_error("test t { assert 1 == 2; }");
    assert_eq!(k, VmErrorKind::AssertFailed);
}

#[test]
fn missing_return_fails() {
    let k = expect_error(
        r#"
        class C { int m(bool b) { if (b) { return 1; } } }
        test t { var c = new C(); var x = c.m(false); }
        "#,
    );
    assert_eq!(k, VmErrorKind::MissingReturn);
}

#[test]
fn infinite_loop_hits_step_limit() {
    let (prog, mir) = build("test t { while (true) { } }");
    let opts = MachineOptions {
        max_steps: 10_000,
        ..MachineOptions::default()
    };
    let mut m = Machine::new(&prog, &mir, opts);
    let err = m.run_test(prog.tests[0].id, &mut NullSink).unwrap_err();
    assert_eq!(err.kind, VmErrorKind::StepLimit);
}

#[test]
fn infinite_recursion_overflows() {
    let k = expect_error(
        r#"
        class C { void m() { this.m(); } }
        test t { var c = new C(); c.m(); }
        "#,
    );
    assert_eq!(k, VmErrorKind::StackOverflow);
}

// ----------------------------------------------------------------------
// Trace events
// ----------------------------------------------------------------------

#[test]
fn trace_contains_expected_events() {
    let (prog, mir) = build(
        r#"
        class Lib {
            int x;
            sync void set(int v) { this.x = v; }
        }
        test t { var l = new Lib(); l.set(5); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    let evs = &sink.events;

    // Labels strictly increase.
    assert!(evs.windows(2).all(|w| w[0].label < w[1].label));

    let lock_count = evs
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Lock { .. }))
        .count();
    let unlock_count = evs
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Unlock { .. }))
        .count();
    assert_eq!(lock_count, 1, "sync method locks once");
    assert_eq!(lock_count, unlock_count);

    // Client invocation of `set` is flagged from_client.
    assert!(evs.iter().any(|e| matches!(
        &e.kind,
        EventKind::InvokeStart { from_client: true, method: Some(mth), .. }
            if prog.method(*mth).name == "set"
    )));

    // The write to x is recorded with a value.
    assert!(evs.iter().any(|e| matches!(
        &e.kind,
        EventKind::Write {
            value: Value::Int(5),
            ..
        }
    )));

    // Allocation recorded.
    assert!(evs
        .iter()
        .any(|e| matches!(e.kind, EventKind::Alloc { class: Some(_), .. })));
}

#[test]
fn param_copy_events_precede_body() {
    let (prog, mir) = build(
        r#"
        class A { int x; void foo(A other) { this.x = 1; } }
        test t { var a = new A(); var b = new A(); a.foo(b); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();

    // Find the foo invocation, then the first events inside it must be the
    // two ParamCopy copies (I_this := this, I_p0 := other).
    let foo = prog.methods.iter().find(|mm| mm.name == "foo").unwrap();
    let body = mir.method(foo.id);
    let copies = body.param_copies();
    assert_eq!(copies.len(), 2);
    let inv = sink
        .events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::InvokeStart {
                inv,
                method: Some(mid),
                ..
            } if *mid == foo.id => Some(*inv),
            _ => None,
        })
        .unwrap();
    let inner: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Copy { inv: i, dst, .. } if *i == inv => Some(*dst),
            _ => None,
        })
        .collect();
    assert_eq!(inner[0], copies[0].1);
    assert_eq!(inner[1], copies[1].1);
}

#[test]
fn call_result_copy_links_invocations() {
    let (prog, mir) = build(
        r#"
        class F { F self() { return this; } }
        test t { var f = new F(); var g = f.self(); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    assert!(sink.events.iter().any(|e| matches!(
        e.kind,
        EventKind::Copy {
            src: narada_vm::CopySrc::CallResult { .. },
            ..
        }
    )));
    // InvokeEnd for self() carries the returned register.
    assert!(sink.events.iter().any(|e| matches!(
        &e.kind,
        EventKind::InvokeEnd {
            ret_var: Some(_),
            ret: Some(Value::Ref(_)),
            ..
        }
    )));
}

#[test]
fn deterministic_given_seed() {
    let src = r#"
        class R { int v; void roll() { this.v = rand(); } }
        test t { var r = new R(); r.roll(); }
    "#;
    let (prog, mir) = build(src);
    let run = |seed| {
        let mut m = Machine::new(
            &prog,
            &mir,
            MachineOptions {
                seed,
                ..MachineOptions::default()
            },
        );
        let mut sink = VecSink::new();
        m.run_test(prog.tests[0].id, &mut sink).unwrap();
        sink.events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::Write { value, .. } => Some(value),
                _ => None,
            })
            .unwrap()
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2), "different seeds should differ");
}

// ----------------------------------------------------------------------
// Breakpoints (Algorithm 1 object collection)
// ----------------------------------------------------------------------

#[test]
fn run_test_until_call_captures_receiver_and_args() {
    let (prog, mir) = build(
        r#"
        class Q { int n; void add(Q other) { this.n = this.n + 1; } }
        test seed {
            var a = new Q();
            var b = new Q();
            a.add(b);
        }
        "#,
    );
    let add = prog.methods.iter().find(|m| m.name == "add").unwrap().id;
    let mut m = Machine::with_defaults(&prog, &mir);
    let site = m
        .run_test_until_call(prog.tests[0].id, &mut NullSink, &mut |s| s.method == add)
        .unwrap()
        .expect("breakpoint hit");
    assert_eq!(site.method, add);
    let recv = site.recv.unwrap().as_obj().unwrap();
    let arg = site.args[0].as_obj().unwrap();
    assert_ne!(recv, arg);
    // The objects survive in the heap and the method was NOT executed.
    let q = prog.class_by_name("Q").unwrap();
    let n = prog.field_by_name(q, "n").unwrap();
    assert_eq!(m.heap.get_field(recv, n).unwrap(), Value::Int(0));
}

/// Collection suspends before the *chosen* occurrence of a call: the
/// second `set` is captured with its own argument, and only the first
/// one ran.
#[test]
fn run_test_until_call_captures_the_second_set() {
    let (prog, mir) = build(
        r#"
        class Box {
            int v;
            void set(int x) { this.v = x; }
            int get() { return this.v; }
        }
        test seed {
            var b = new Box();
            b.set(41);
            b.set(42);
            var r = b.get();
        }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    let mut seen = 0;
    let site = m
        .run_test_until_call(prog.tests[0].id, &mut sink, &mut |s| {
            let is_set = prog.method(s.method).name == "set";
            seen += usize::from(is_set);
            is_set && seen == 2
        })
        .unwrap()
        .expect("second set() captured");
    assert_eq!(prog.method(site.method).name, "set");
    assert_eq!(site.recv, Some(Value::Ref(ObjId(0))));
    assert_eq!(site.args, vec![Value::Int(42)]);
    let writes: Vec<Value> = sink
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Write { value, .. } => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(writes, vec![Value::Int(41)], "only the first set() ran");
    let cid = prog.class_by_name("Box").unwrap();
    let v = prog.field_by_name(cid, "v").unwrap();
    assert_eq!(m.heap.get_field(ObjId(0), v).unwrap(), Value::Int(41));
}

#[test]
fn repeated_collection_yields_fresh_objects() {
    let (prog, mir) = build(
        r#"
        class Q { int n; void poke() { this.n = 1; } }
        test seed { var q = new Q(); q.poke(); }
        "#,
    );
    let poke = prog.methods.iter().find(|m| m.name == "poke").unwrap().id;
    let mut m = Machine::with_defaults(&prog, &mir);
    let s1 = m
        .run_test_until_call(prog.tests[0].id, &mut NullSink, &mut |s| s.method == poke)
        .unwrap()
        .unwrap();
    let s2 = m
        .run_test_until_call(prog.tests[0].id, &mut NullSink, &mut |s| s.method == poke)
        .unwrap()
        .unwrap();
    assert_ne!(
        s1.recv.unwrap().as_obj().unwrap(),
        s2.recv.unwrap().as_obj().unwrap(),
        "each seed run allocates fresh objects"
    );
}

#[test]
fn until_call_returns_none_when_no_match() {
    let (prog, mir) = build(
        r#"
        class Q { void a() { } }
        test seed { var q = new Q(); q.a(); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let got = m
        .run_test_until_call(prog.tests[0].id, &mut NullSink, &mut |_| false)
        .unwrap();
    assert!(got.is_none());
}

// ----------------------------------------------------------------------
// Concurrency
// ----------------------------------------------------------------------

const RACY_COUNTER: &str = r#"
    class Counter {
        int count;
        void inc() {
            var t = this.count;
            var i = 0;
            while (i < 10) { i = i + 1; }   // widen the race window
            this.count = t + 1;
        }
    }
    test seed { var c = new Counter(); c.inc(); }
"#;

#[test]
fn unsynchronized_increments_can_lose_updates() {
    let (prog, mir) = build(RACY_COUNTER);
    let inc = prog.methods.iter().find(|m| m.name == "inc").unwrap().id;
    let counter = prog.class_by_name("Counter").unwrap();
    let count = prog.field_by_name(counter, "count").unwrap();

    let mut lost = false;
    for seed in 0..20 {
        let (prog2, mir2) = (&prog, &mir);
        let mut m = Machine::with_defaults(prog2, mir2);
        let obj = m.heap.alloc_instance(counter);
        let t1 = m
            .spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        let t2 = m
            .spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        let mut sched = RandomScheduler::new(seed);
        let out = m.run_threads(&mut sched, &mut NullSink, 1_000_000);
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(*m.thread_status(t1), ThreadStatus::Finished);
        assert_eq!(*m.thread_status(t2), ThreadStatus::Finished);
        if m.heap.get_field(obj, count).unwrap() == Value::Int(1) {
            lost = true;
            break;
        }
    }
    assert!(lost, "some schedule must lose an update");
}

#[test]
fn synchronized_increments_never_lose_updates() {
    let (prog, mir) = build(
        r#"
        class Counter {
            int count;
            sync void inc() {
                var t = this.count;
                var i = 0;
                while (i < 10) { i = i + 1; }
                this.count = t + 1;
            }
        }
        test seed { var c = new Counter(); c.inc(); }
        "#,
    );
    let inc = prog.methods.iter().find(|m| m.name == "inc").unwrap().id;
    let counter = prog.class_by_name("Counter").unwrap();
    let count = prog.field_by_name(counter, "count").unwrap();
    for seed in 0..10 {
        let mut m = Machine::with_defaults(&prog, &mir);
        let obj = m.heap.alloc_instance(counter);
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        let mut sched = RandomScheduler::new(seed);
        let out = m.run_threads(&mut sched, &mut NullSink, 1_000_000);
        assert_eq!(out, RunOutcome::Completed);
        assert_eq!(
            m.heap.get_field(obj, count).unwrap(),
            Value::Int(2),
            "seed {seed}"
        );
    }
}

#[test]
fn deadlock_detected() {
    let (prog, mir) = build(
        r#"
        class L { }
        class T {
            L a; L b;
            init(L a, L b) { this.a = a; this.b = b; }
            void go() {
                sync (this.a) {
                    var i = 0;
                    while (i < 50) { i = i + 1; }
                    sync (this.b) { i = 0; }
                }
            }
        }
        test seed { var l = new L(); }
        "#,
    );
    let go = prog.methods.iter().find(|m| m.name == "go").unwrap().id;
    let l = prog.class_by_name("L").unwrap();
    let t = prog.class_by_name("T").unwrap();
    let fa = prog.field_by_name(t, "a").unwrap();
    let fb = prog.field_by_name(t, "b").unwrap();

    let mut found_deadlock = false;
    for _seed in 0..40 {
        let mut m = Machine::with_defaults(&prog, &mir);
        let la = m.heap.alloc_instance(l);
        let lb = m.heap.alloc_instance(l);
        let t1o = m.heap.alloc_instance(t);
        let t2o = m.heap.alloc_instance(t);
        // t1 locks a then b; t2 locks b then a.
        m.heap.set_field(t1o, fa, Value::Ref(la)).unwrap();
        m.heap.set_field(t1o, fb, Value::Ref(lb)).unwrap();
        m.heap.set_field(t2o, fa, Value::Ref(lb)).unwrap();
        m.heap.set_field(t2o, fb, Value::Ref(la)).unwrap();
        m.spawn_invoke(go, Some(Value::Ref(t1o)), vec![], &mut NullSink)
            .unwrap();
        m.spawn_invoke(go, Some(Value::Ref(t2o)), vec![], &mut NullSink)
            .unwrap();
        let mut sched = RoundRobin::new();
        if let RunOutcome::Deadlock { blocked } =
            m.run_threads(&mut sched, &mut NullSink, 1_000_000)
        {
            assert_eq!(blocked.len(), 2);
            found_deadlock = true;
            break;
        }
    }
    assert!(found_deadlock, "round-robin must deadlock this pattern");
}

#[test]
fn blocked_thread_resumes_after_release() {
    let (prog, mir) = build(
        r#"
        class C {
            int hits;
            sync void work() {
                var i = 0;
                while (i < 100) { i = i + 1; }
                this.hits = this.hits + 1;
            }
        }
        test seed { var c = new C(); }
        "#,
    );
    let work = prog.methods.iter().find(|m| m.name == "work").unwrap().id;
    let c = prog.class_by_name("C").unwrap();
    let hits = prog.field_by_name(c, "hits").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(c);
    m.spawn_invoke(work, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    m.spawn_invoke(work, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    let mut sched = RoundRobin::new();
    let out = m.run_threads(&mut sched, &mut NullSink, 1_000_000);
    assert_eq!(out, RunOutcome::Completed);
    assert_eq!(m.heap.get_field(obj, hits).unwrap(), Value::Int(2));
}

#[test]
fn invoke_runs_setters_on_main_thread() {
    let (prog, mir) = build(
        r#"
        class A { int x; void set(int v) { this.x = v; } int get() { return this.x; } }
        test seed { var a = new A(); }
        "#,
    );
    let set = prog.methods.iter().find(|m| m.name == "set").unwrap().id;
    let get = prog.methods.iter().find(|m| m.name == "get").unwrap().id;
    let a = prog.class_by_name("A").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(a);
    m.invoke(
        set,
        Some(Value::Ref(obj)),
        vec![Value::Int(9)],
        &mut NullSink,
    )
    .unwrap();
    let got = m
        .invoke(get, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    assert_eq!(got, Some(Value::Int(9)));
}

#[test]
fn early_return_inside_sync_releases_monitor() {
    let (prog, mir) = build(
        r#"
        class C {
            int x;
            void maybe(bool b) {
                sync (this) {
                    if (b) { return; }
                    this.x = 1;
                }
            }
        }
        test seed { var c = new C(); c.maybe(true); c.maybe(false); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    let locks = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Lock { .. }))
        .count();
    let unlocks = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Unlock { .. }))
        .count();
    assert_eq!(locks, 2);
    assert_eq!(unlocks, 2, "early return must release the monitor");
}

#[test]
fn reentrant_lock_emits_single_pair() {
    let (prog, mir) = build(
        r#"
        class C {
            int x;
            sync void outer() { this.inner(); }
            sync void inner() { this.x = 1; }
        }
        test seed { var c = new C(); c.outer(); }
        "#,
    );
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    let locks = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Lock { .. }))
        .count();
    let unlocks = sink
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Unlock { .. }))
        .count();
    assert_eq!(
        (locks, unlocks),
        (1, 1),
        "re-entrant acquisition is not a lockset transition"
    );
}

#[test]
fn thread_failure_releases_locks_and_reports() {
    let (prog, mir) = build(
        r#"
        class C {
            int[] a;
            sync void boom() { this.a[99] = 1; }
            sync void ok() { }
        }
        test seed { var c = new C(); }
        "#,
    );
    let boom = prog.methods.iter().find(|m| m.name == "boom").unwrap().id;
    let ok = prog.methods.iter().find(|m| m.name == "ok").unwrap().id;
    let c = prog.class_by_name("C").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(c);
    let mut sink = VecSink::new();
    let t1 = m
        .spawn_invoke(boom, Some(Value::Ref(obj)), vec![], &mut sink)
        .unwrap();
    let t2 = m
        .spawn_invoke(ok, Some(Value::Ref(obj)), vec![], &mut sink)
        .unwrap();
    let mut sched = RoundRobin::new();
    let out = m.run_threads(&mut sched, &mut sink, 1_000_000);
    assert_eq!(out, RunOutcome::Completed);
    assert!(matches!(m.thread_status(t1), ThreadStatus::Failed(e)
        if e.kind == VmErrorKind::NullDeref));
    assert_eq!(*m.thread_status(t2), ThreadStatus::Finished);
    assert!(sink
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ThreadFail { .. })));
}

#[test]
fn spawn_invoke_seq_runs_calls_in_order() {
    let (prog, mir) = build(
        r#"
        class L { int[] log; int n; init() { this.log = new int[8]; this.n = 0; }
            void mark(int v) { this.log[this.n] = v; this.n = this.n + 1; } }
        test seed { var l = new L(); }
        "#,
    );
    let mark = prog.methods.iter().find(|m| m.name == "mark").unwrap().id;
    let l = prog.class_by_name("L").unwrap();
    let log = prog.field_by_name(l, "log").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(l);
    let ctor = prog.ctor_for(l).unwrap();
    m.invoke(ctor, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    let calls = (1..=3)
        .map(|i| narada_vm::PendingInvoke {
            method: mark,
            recv: Some(Value::Ref(obj)),
            args: vec![Value::Int(i)],
        })
        .collect();
    m.spawn_invoke_seq(calls, &mut NullSink).unwrap();
    let mut sched = RoundRobin::new();
    assert_eq!(
        m.run_threads(&mut sched, &mut NullSink, 100_000),
        RunOutcome::Completed
    );
    let arr = m.heap.get_field(obj, log).unwrap().as_obj().unwrap();
    for i in 0..3 {
        assert_eq!(m.heap.get_elem(arr, i), Ok(Value::Int(i + 1)));
    }
}

#[test]
fn queued_calls_do_not_run_after_a_crash() {
    let (prog, mir) = build(
        r#"
        class L { int n; void boom() { var x = 1 / 0; } void mark() { this.n = this.n + 1; } }
        test seed { var l = new L(); }
        "#,
    );
    let boom = prog.methods.iter().find(|m| m.name == "boom").unwrap().id;
    let mark = prog.methods.iter().find(|m| m.name == "mark").unwrap().id;
    let l = prog.class_by_name("L").unwrap();
    let n = prog.field_by_name(l, "n").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(l);
    let tid = m
        .spawn_invoke_seq(
            vec![
                narada_vm::PendingInvoke {
                    method: boom,
                    recv: Some(Value::Ref(obj)),
                    args: vec![],
                },
                narada_vm::PendingInvoke {
                    method: mark,
                    recv: Some(Value::Ref(obj)),
                    args: vec![],
                },
            ],
            &mut NullSink,
        )
        .unwrap();
    let mut sched = RoundRobin::new();
    m.run_threads(&mut sched, &mut NullSink, 100_000);
    assert!(matches!(m.thread_status(tid), ThreadStatus::Failed(_)));
    assert_eq!(
        m.heap.get_field(obj, n).unwrap(),
        Value::Int(0),
        "mark never ran"
    );
}

#[test]
fn parked_threads_are_not_scheduled_until_unparked() {
    let (prog, mir) = build(
        r#"
        class W { int n; void bump() { this.n = this.n + 1; } }
        test seed { var w = new W(); }
        "#,
    );
    let bump = prog.methods.iter().find(|m| m.name == "bump").unwrap().id;
    let w = prog.class_by_name("W").unwrap();
    let n = prog.field_by_name(w, "n").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(w);
    let t1 = m
        .spawn_invoke(bump, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    m.park(t1);
    assert_eq!(*m.thread_status(t1), ThreadStatus::Parked);
    assert!(m.runnable_threads().is_empty());
    let mut sched = RoundRobin::new();
    // With only a parked thread, the run loop sees no runnable and no
    // blocked threads: it completes without running it.
    assert_eq!(
        m.run_threads(&mut sched, &mut NullSink, 10_000),
        RunOutcome::Completed
    );
    assert_eq!(m.heap.get_field(obj, n).unwrap(), Value::Int(0));
    m.unpark(t1);
    assert_eq!(
        m.run_threads(&mut sched, &mut NullSink, 10_000),
        RunOutcome::Completed
    );
    assert_eq!(m.heap.get_field(obj, n).unwrap(), Value::Int(1));
}

#[test]
fn invoke_partial_stops_after_target_write() {
    let (prog, mir) = build(
        r#"
        class X { }
        class H {
            X x;
            bool done;
            void set(X v) {
                this.x = v;
                this.x = new X();
                this.done = true;
            }
        }
        test seed { var h = new H(); var x = new X(); h.set(x); }
        "#,
    );
    let set = prog.methods.iter().find(|mm| mm.name == "set").unwrap().id;
    let h = prog.class_by_name("H").unwrap();
    let xf = prog.field_by_name(h, "x").unwrap();
    let done = prog.field_by_name(h, "done").unwrap();

    // Find the span of the FIRST write to x (`this.x = v;`).
    let body = mir.method(set);
    let first_write_span = body
        .instrs
        .iter()
        .find_map(|i| match i.kind {
            narada_lang::mir::InstrKind::WriteField { field, .. } if field == xf => Some(i.span),
            _ => None,
        })
        .unwrap();

    let mut m = Machine::with_defaults(&prog, &mir);
    let hobj = m.heap.alloc_instance(h);
    let xobj = m.heap.alloc_instance(prog.class_by_name("X").unwrap());
    let tid = m
        .invoke_partial(
            set,
            Some(Value::Ref(hobj)),
            vec![Value::Ref(xobj)],
            first_write_span,
            &mut NullSink,
        )
        .unwrap();
    assert_eq!(*m.thread_status(tid), ThreadStatus::Parked);
    // The first write happened; the clobbering write and `done` did not.
    assert_eq!(m.heap.get_field(hobj, xf).unwrap(), Value::Ref(xobj));
    assert_eq!(m.heap.get_field(hobj, done).unwrap(), Value::Bool(false));
}

/// Stopping at a write inside a `sync` method parks the thread only once
/// it is outside every monitor, with the stopped-at write visible.
#[test]
fn invoke_partial_parks_outside_the_monitor() {
    let (prog, mir) = build(
        r#"
        class Pair {
            int a;
            int b;
            sync void setBoth(int x) {
                this.a = x;
                this.b = x + 1;
            }
        }
        test seed { var p = new Pair(); p.setBoth(1); }
        "#,
    );
    let cid = prog.class_by_name("Pair").unwrap();
    let set_both = prog.dispatch(cid, "setBoth").unwrap();
    let a = prog.field_by_name(cid, "a").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    // The span of the `this.a = x` write, from the seed run's trace.
    let stop = sink
        .events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Write { .. } => Some(e.span),
            _ => None,
        })
        .expect("a write in setBoth");
    let obj = Value::Ref(ObjId(0));
    let tid = m
        .invoke_partial(set_both, Some(obj), vec![Value::Int(9)], stop, &mut sink)
        .unwrap();
    assert_eq!(*m.thread_status(tid), ThreadStatus::Parked);
    assert!(m.held_locks(tid).is_empty(), "parked inside a monitor");
    assert_eq!(m.heap.get_field(ObjId(0), a).unwrap(), Value::Int(9));
}

#[test]
fn recorded_schedule_replays_the_same_outcome() {
    // Record a racy execution whose final state depends on the schedule,
    // then replay it: the replay must land on the identical final state.
    let (prog, mir) = build(RACY_COUNTER);
    let inc = prog.methods.iter().find(|m| m.name == "inc").unwrap().id;
    let counter = prog.class_by_name("Counter").unwrap();
    let count = prog.field_by_name(counter, "count").unwrap();

    let run = |sched: &mut dyn narada_vm::Scheduler| -> Value {
        let mut m = Machine::with_defaults(&prog, &mir);
        let obj = m.heap.alloc_instance(counter);
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut NullSink)
            .unwrap();
        m.run_threads(sched, &mut NullSink, 1_000_000);
        m.heap.get_field(obj, count).unwrap()
    };

    for seed in 0..10 {
        let mut rec = narada_vm::RecordingScheduler::new(RandomScheduler::new(seed));
        let original = run(&mut rec);
        let schedule = rec.into_choices();
        let mut replay = narada_vm::ReplayScheduler::new(schedule);
        let replayed = run(&mut replay);
        assert_eq!(original, replayed, "seed {seed}: replay must reproduce");
        assert!(replay.exhausted());
    }
}

/// An untraced prefix still advances the label counter: the trace taken
/// after a `NullSink` prefix carries exactly the events, labels included,
/// of the matching suffix of a fully traced run. The fork explorer's
/// streamed prefix depends on this.
#[test]
fn null_sink_prefix_keeps_labels_aligned() {
    let prog = narada_corpus::all()[0].compile().unwrap();
    let mir = lower_program(&prog);
    let suffix_after = |prefix: &mut dyn EventSink| {
        let mut m = Machine::with_defaults(&prog, &mir);
        m.run_test(prog.tests[0].id, prefix).unwrap();
        let mut sink = VecSink::new();
        for t in &prog.tests[1..] {
            let _ = m.run_test(t.id, &mut sink);
        }
        sink.events
    };
    let mut traced_prefix = VecSink::new();
    let traced = suffix_after(&mut traced_prefix);
    let untraced = suffix_after(&mut NullSink);
    assert!(!untraced.is_empty());
    assert_eq!(untraced[0].label, Label(traced_prefix.events.len() as u64));
    assert_eq!(untraced, traced);
}

/// Decides once one thread is left alone, recording each `lone` it was
/// asked with.
struct DecideWhenLone {
    inner: RoundRobin,
    asked: std::cell::RefCell<Vec<bool>>,
}

impl narada_vm::Scheduler for DecideWhenLone {
    fn choose(
        &mut self,
        machine: &Machine<'_>,
        runnable: &[narada_vm::ThreadId],
    ) -> narada_vm::ThreadId {
        self.inner.choose(machine, runnable)
    }

    fn decided(&self, lone: bool) -> bool {
        self.asked.borrow_mut().push(lone);
        lone
    }
}

#[test]
fn decided_scheduler_ends_the_run_when_one_thread_is_left() {
    // Two `sync` workers: while one holds the monitor the other is
    // blocked, which is not lone (the blocked thread still has work).
    // Once the holder finishes, the woken thread is alone and the run
    // ends before it increments.
    let (prog, mir) = build(
        r#"
        class C {
            int hits;
            sync void work() {
                var i = 0;
                while (i < 100) { i = i + 1; }
                this.hits = this.hits + 1;
            }
        }
        test seed { var c = new C(); }
        "#,
    );
    let work = prog.methods.iter().find(|m| m.name == "work").unwrap().id;
    let c = prog.class_by_name("C").unwrap();
    let hits = prog.field_by_name(c, "hits").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let obj = m.heap.alloc_instance(c);
    let t1 = m
        .spawn_invoke(work, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    let t2 = m
        .spawn_invoke(work, Some(Value::Ref(obj)), vec![], &mut NullSink)
        .unwrap();
    let mut sched = DecideWhenLone {
        inner: RoundRobin::new(),
        asked: Default::default(),
    };
    let out = m.run_threads(&mut sched, &mut NullSink, 1_000_000);
    assert_eq!(out, RunOutcome::Decided);
    assert_eq!(m.heap.get_field(obj, hits).unwrap(), Value::Int(1));
    assert_eq!(*m.thread_status(t1), ThreadStatus::Finished);
    assert_eq!(*m.thread_status(t2), ThreadStatus::Runnable);
    // Asked before every decision, and the one `true` ended the run.
    let asked = sched.asked.into_inner();
    assert!(asked.len() > 100, "the holder ran its loop first");
    assert_eq!(asked.iter().filter(|&&lone| lone).count(), 1);
    assert_eq!(asked.last(), Some(&true));
}

#[test]
fn replay_stops_at_the_end_of_its_log() {
    // A replayed log that stops short of the run's end ends the run
    // `Decided` right there, with no divergence and exactly the recorded
    // run's events up to that point; the complete log runs to completion.
    let (prog, mir) = build(RACY_COUNTER);
    let inc = prog.methods.iter().find(|m| m.name == "inc").unwrap().id;
    let counter = prog.class_by_name("Counter").unwrap();
    let run = |sched: &mut dyn narada_vm::Scheduler| {
        let mut m = Machine::with_defaults(&prog, &mir);
        let obj = m.heap.alloc_instance(counter);
        let mut sink = VecSink::new();
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut sink)
            .unwrap();
        m.spawn_invoke(inc, Some(Value::Ref(obj)), vec![], &mut sink)
            .unwrap();
        let out = m.run_threads(sched, &mut sink, 1_000_000);
        (out, sink.events)
    };
    for seed in 0..10 {
        let mut rec = narada_vm::RecordingScheduler::new(RandomScheduler::new(seed));
        let (out, full) = run(&mut rec);
        assert_eq!(out, RunOutcome::Completed);
        let choices = rec.into_choices();

        let mut whole = narada_vm::ReplayScheduler::new(choices.clone());
        assert_eq!(run(&mut whole), (RunOutcome::Completed, full.clone()));
        assert_eq!(whole.divergences(), 0);

        let half = choices[..choices.len() / 2].to_vec();
        let mut short = narada_vm::ReplayScheduler::new(half);
        let (out, events) = run(&mut short);
        assert_eq!(out, RunOutcome::Decided, "seed {seed}");
        assert!(short.exhausted());
        assert_eq!(short.divergences(), 0, "seed {seed}");
        assert!(events.len() < full.len());
        assert_eq!(events[..], full[..events.len()], "seed {seed}");
    }
}
