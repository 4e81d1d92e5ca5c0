//! End-to-end tests of the synthesis pipeline on the paper's own examples.

use narada_core::{execute_plan, synthesize_source, PathRoot, SynthesisOptions};
use narada_vm::{Machine, NullSink, RandomScheduler, Value};

/// Fig. 1: `update` is synchronized on the receiver, but two `Lib` objects
/// sharing one `Counter` race on `count`.
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

/// Fig. 13: setting the context needs `z.baz(x); a.bar(z); a2.bar(z);`.
const FIG13: &str = r#"
    class X { int o; }
    class Y { }
    class Z {
        X w;
        void baz(X x) { this.w = x; }
    }
    class A {
        X x;
        Y y;
        void foo(Y y) {
            sync (this) {
                var b = this;
                var t = b.x;
                t.o = rand();
                b.y = y;
            }
        }
        void bar(Z z) { this.x = z.w; }
    }
    test seed {
        var x = new X();
        var y = new Y();
        var z = new Z();
        var a = new A();
        z.baz(x);
        a.bar(z);
        a.foo(y);
    }
"#;

/// Fig. 2–5: the hazelcast write-behind-queue pattern — the wrapper locks
/// `this` instead of the wrapped queue, so two wrappers around one queue
/// race. Context must be built through the factory (return summaries).
const HAZELCAST: &str = r#"
    class WriteBehindQueue {
        int size;
        void removeFirst() { this.size = this.size - 1; }
    }
    class SynchronizedWriteBehindQueue extends WriteBehindQueue {
        WriteBehindQueue queue;
        init(WriteBehindQueue q) { this.queue = q; }
        void removeFirst() {
            sync (this) { this.queue.removeFirst(); }
        }
    }
    class WriteBehindQueues {
        static WriteBehindQueue createCoalesced() {
            return new WriteBehindQueue();
        }
        static SynchronizedWriteBehindQueue createSafe(WriteBehindQueue q) {
            return new SynchronizedWriteBehindQueue(q);
        }
    }
    test seed {
        var cwbq = WriteBehindQueues.createCoalesced();
        var swbq = WriteBehindQueues.createSafe(cwbq);
        swbq.removeFirst();
        cwbq.removeFirst();
    }
"#;

#[test]
fn fig1_pairs_and_test_synthesized() {
    let (prog, _mir, out) = synthesize_source(FIG1, &SynthesisOptions::default()).unwrap();
    assert!(out.pair_count() >= 1, "count access must pair");
    assert!(out.test_count() >= 1);
    // The update||update plan must share through `set` with distinct
    // receivers.
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| {
            prog.method(p.racy[0].method).name == "update"
                && prog.method(p.racy[1].method).name == "update"
        })
        .expect("update||update test");
    assert!(plan.expects_race, "{}", plan.render(&prog));
    assert!(
        plan.setters
            .iter()
            .any(|s| prog.method(s.method).name == "set"),
        "context must route through set():\n{}",
        plan.render(&prog)
    );
    assert_ne!(
        plan.racy[0].recv, plan.racy[1].recv,
        "receivers must stay distinct (both lock this)"
    );
    // Both setters install the SAME shared Counter.
    let shared_args: Vec<_> = plan
        .setters
        .iter()
        .filter(|s| prog.method(s.method).name == "set")
        .flat_map(|s| s.args.clone())
        .collect();
    assert!(shared_args.len() >= 2);
    assert!(
        shared_args.windows(2).all(|w| w[0] == w[1]),
        "set() must receive the same Counter for both receivers:\n{}",
        plan.render(&prog)
    );
}

#[test]
fn fig1_unprotected_access_identified() {
    let (prog, _mir, out) = synthesize_source(FIG1, &SynthesisOptions::default()).unwrap();
    // The count access path is I_this.c.count within update().
    let acc = out
        .pairs
        .accesses
        .iter()
        .find(|a| a.unprotected && a.is_write)
        .expect("unprotected write on count");
    assert_eq!(prog.method(acc.method).name, "update");
    let p = acc.path.as_ref().unwrap();
    assert_eq!(p.root, PathRoot::This);
    assert_eq!(p.depth(), 2, "I_this.c.count");
}

#[test]
fn fig1_executed_plan_can_lose_update() {
    let (prog, mir, out) = synthesize_source(FIG1, &SynthesisOptions::default()).unwrap();
    let test = out
        .tests
        .iter()
        .find(|t| prog.method(t.plan.racy[0].method).name == "update" && t.plan.expects_race)
        .expect("update||update test");
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    let counter = prog.class_by_name("Counter").unwrap();
    let count = prog.field_by_name(counter, "count").unwrap();

    let mut outcomes = std::collections::HashSet::new();
    for seed in 0..30 {
        let mut machine = Machine::with_defaults(&prog, &mir);
        let mut sched = RandomScheduler::new(seed);
        let report = execute_plan(
            &mut machine,
            &seeds,
            &test.plan,
            &mut sched,
            &mut NullSink,
            1_000_000,
        )
        .expect("plan must execute");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Find the shared counter: the receiver of thread 1's update, field
        // c — read its count.
        // (All Counter instances: exactly one should have been bumped.)
        let mut counts = vec![];
        for i in 0..machine.heap.len() as u32 {
            let o = narada_vm::ObjId(i);
            if machine.heap.class_of(o) == Some(counter) {
                if let Value::Int(n) = machine.heap.get_field(o, count).unwrap() {
                    if n > 0 {
                        counts.push(n);
                    }
                }
            }
        }
        // The shared counter got either 1 (lost update — the race fired!)
        // or 2 (both increments survived).
        assert_eq!(counts.len(), 1, "exactly one shared counter is bumped");
        outcomes.insert(counts[0]);
    }
    assert!(
        outcomes.contains(&1),
        "some schedule must lose an update (observed: {outcomes:?})"
    );
    assert!(
        outcomes.contains(&2),
        "some schedule must keep both updates (observed: {outcomes:?})"
    );
}

#[test]
fn fig13_derives_baz_then_bar() {
    let (prog, _mir, out) = synthesize_source(FIG13, &SynthesisOptions::default()).unwrap();
    // The unprotected access is t.o (= I_this.x.o) inside foo — protected
    // by lock on this, but the owner this.x is unlocked.
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| {
            prog.method(p.racy[0].method).name == "foo"
                && prog.method(p.racy[1].method).name == "foo"
                && p.expects_race
        })
        .unwrap_or_else(|| {
            panic!(
                "foo||foo plan expected; got:\n{}",
                out.tests
                    .iter()
                    .map(|t| t.plan.render(&prog))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
    // Context: bar must be invoked on both receivers; the shared X routes
    // through baz (bar's source is z.w, a field of its parameter).
    let setter_names: Vec<_> = plan
        .setters
        .iter()
        .map(|s| prog.method(s.method).name.as_str())
        .collect();
    assert!(
        setter_names.contains(&"bar"),
        "setters: {setter_names:?}\n{}",
        plan.render(&prog)
    );
    assert!(
        setter_names.contains(&"baz"),
        "baz must prepare bar's argument: {setter_names:?}\n{}",
        plan.render(&prog)
    );
    // baz runs before the bar that consumes its target.
    let baz_pos = setter_names.iter().position(|n| *n == "baz").unwrap();
    let bar_pos = setter_names.iter().position(|n| *n == "bar").unwrap();
    assert!(baz_pos < bar_pos, "inner context first: {setter_names:?}");
}

#[test]
fn hazelcast_builder_route() {
    let (prog, _mir, out) = synthesize_source(HAZELCAST, &SynthesisOptions::default()).unwrap();
    assert!(out.pair_count() >= 1);
    // A plan racing removeFirst through two wrappers must build the
    // wrappers via the factory/constructor with a shared inner queue.
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| {
            let m0 = prog.method(p.racy[0].method);
            let m1 = prog.method(p.racy[1].method);
            m0.name == "removeFirst"
                && m1.name == "removeFirst"
                && p.expects_race
                && (!p.builders.is_empty() || !p.setters.is_empty())
        })
        .unwrap_or_else(|| {
            panic!(
                "wrapper race plan expected; got:\n{}",
                out.tests
                    .iter()
                    .map(|t| t.plan.render(&prog))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
    assert!(plan.expects_race);
}

#[test]
fn hazelcast_race_reproduces_lost_decrement() {
    let (prog, mir, out) = synthesize_source(HAZELCAST, &SynthesisOptions::default()).unwrap();
    let sync_class = prog.class_by_name("SynchronizedWriteBehindQueue").unwrap();
    let test = out
        .tests
        .iter()
        .find(|t| {
            let p = &t.plan;
            let m0 = prog.method(p.racy[0].method);
            m0.name == "removeFirst" && m0.owner == sync_class && p.expects_race
        })
        .expect("synchronized wrapper race test");
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let base = prog.class_by_name("WriteBehindQueue").unwrap();
    let size = prog.field_by_name(base, "size").unwrap();

    let mut outcomes = std::collections::HashSet::new();
    for seed in 0..40 {
        let mut machine = Machine::with_defaults(&prog, &mir);
        let mut sched = RandomScheduler::new(seed);
        let report = execute_plan(
            &mut machine,
            &seeds,
            &test.plan,
            &mut sched,
            &mut NullSink,
            1_000_000,
        )
        .expect("plan must execute");
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let mut sizes = vec![];
        for i in 0..machine.heap.len() as u32 {
            let o = narada_vm::ObjId(i);
            if machine.heap.class_of(o) == Some(base) {
                if let Value::Int(n) = machine.heap.get_field(o, size).unwrap() {
                    if n < 0 {
                        sizes.push(n);
                    }
                }
            }
        }
        outcomes.extend(sizes);
    }
    assert!(
        outcomes.contains(&-1),
        "some schedule must lose a decrement (observed {outcomes:?})"
    );
    assert!(
        outcomes.contains(&-2),
        "some schedule must apply both decrements (observed {outcomes:?})"
    );
}

#[test]
fn fully_synchronized_class_yields_no_expected_races() {
    let (_prog, _mir, out) = synthesize_source(
        r#"
        class Safe {
            int v;
            sync void set(int x) { this.v = x; }
            sync int get() { return this.v; }
        }
        test seed {
            var s = new Safe();
            s.set(1);
            var x = s.get();
        }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    // Accesses on `this.v` are protected by the receiver lock; sharing the
    // receivers would share the lock, so no race-expecting plan exists.
    assert!(
        out.tests.iter().all(|t| !t.plan.expects_race),
        "a fully synchronized class must not produce race-expecting plans"
    );
}

#[test]
fn unsynchronized_class_direct_receiver_sharing() {
    let (prog, _mir, out) = synthesize_source(
        r#"
        class Naked {
            int v;
            void bump() { this.v = this.v + 1; }
        }
        test seed { var n = new Naked(); n.bump(); }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    // No locks at all: the receivers themselves can be shared.
    let plan = &out
        .tests
        .iter()
        .find(|t| t.plan.expects_race)
        .expect("race-expecting plan")
        .plan;
    assert_eq!(
        plan.racy[0].recv,
        plan.racy[1].recv,
        "receivers should be shared when nothing locks them:\n{}",
        plan.render(&prog)
    );
    assert!(plan.setters.is_empty());
}

#[test]
fn dedup_fewer_tests_than_pairs() {
    // Reads and writes to one field across two methods form several pairs
    // that fold into fewer tests (paper §5: multiple pairs per test).
    let (_prog, _mir, out) = synthesize_source(
        r#"
        class M {
            int a;
            void w1() { this.a = 1; }
            void w2() { this.a = 2; var x = this.a; }
        }
        test seed { var m = new M(); m.w1(); m.w2(); }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    assert!(
        out.pair_count() > out.test_count(),
        "pairs {} vs tests {}",
        out.pair_count(),
        out.test_count()
    );
}

#[test]
fn synthesis_is_deterministic() {
    let run = || {
        let (_p, _m, out) = synthesize_source(FIG13, &SynthesisOptions::default()).unwrap();
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
fn seed_failures_are_reported_not_fatal() {
    let (_prog, _mir, out) = synthesize_source(
        r#"
        class C { int v; void ok() { this.v = 1; } }
        test bad { var c = new C(); assert false; }
        test good { var c = new C(); c.ok(); }
        "#,
        &SynthesisOptions::default(),
    )
    .unwrap();
    assert_eq!(out.seed_failures.len(), 1);
    assert_eq!(out.seed_failures[0].0, "bad");
    assert!(out.pair_count() >= 1, "good seed still analyzed");
}
