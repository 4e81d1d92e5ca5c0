//! Trap coverage for the interpreter: every [`VmErrorKind`] variant is
//! *triggered through full execution* of an MJ program (not
//! unit-constructed), and every trap that unwinds a thread must surface
//! in the trace as a `ThreadFail` event.

use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_vm::{Machine, MachineOptions, Value, VecSink, VmError, VmErrorKind};

fn build(src: &str) -> (Program, MirProgram) {
    let prog = narada_lang::compile(src).unwrap_or_else(|e| panic!("compile failed:\n{e}"));
    let mir = lower_program(&prog);
    (prog, mir)
}

/// Runs the program's only test and returns the error it failed with
/// plus the recorded trace.
fn run_trap(src: &str, opts: MachineOptions) -> (VmError, Vec<narada_vm::Event>) {
    let (prog, mir) = build(src);
    let mut machine = Machine::new(&prog, &mir, opts);
    let mut sink = VecSink::new();
    let err = machine
        .run_test(prog.tests[0].id, &mut sink)
        .expect_err("trap program must fail");
    (err, sink.events)
}

/// Asserts the trap fires with the expected kind and surfaces in the
/// trace.
fn assert_trap(src: &str, opts: MachineOptions, expect: impl Fn(&VmErrorKind) -> bool) {
    let (err, ev) = run_trap(src, opts);
    assert!(expect(&err.kind), "wrong trap: {:?}", err.kind);
    // The unwind must surface in the trace, not just the return value.
    assert!(
        ev.iter()
            .any(|e| matches!(e.kind, narada_vm::EventKind::ThreadFail { .. })),
        "no ThreadFail event emitted"
    );
}

fn opts() -> MachineOptions {
    MachineOptions::default()
}

#[test]
fn trap_null_deref() {
    assert_trap(
        r#"
        class Box { int v; int poke(Box other) { return other.v; } }
        test t { var b = new Box(); b.poke(null); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::NullDeref),
    );
}

#[test]
fn trap_null_receiver_call() {
    assert_trap(
        r#"
        class Box {
            int v;
            int get() { return this.v; }
            int relay(Box other) { return other.get(); }
        }
        test t { var b = new Box(); b.relay(null); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::NullDeref),
    );
}

#[test]
fn trap_index_out_of_bounds() {
    assert_trap(
        r#"
        class Arr {
            int read(int[] a, int i) { return a[i]; }
        }
        test t { var a = new Arr(); var xs = new int[2]; a.read(xs, 5); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::IndexOutOfBounds { idx: 5, len: 2 }),
    );
}

#[test]
fn trap_index_out_of_bounds_write() {
    assert_trap(
        r#"
        class Arr {
            void write(int[] a, int i) { a[i] = 7; }
        }
        test t { var a = new Arr(); var xs = new int[3]; a.write(xs, 0 - 1); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::IndexOutOfBounds { idx: -1, len: 3 }),
    );
}

#[test]
fn trap_negative_array_length() {
    assert_trap(
        r#"
        class Mk { int[] make(int n) { return new int[n]; } }
        test t { var m = new Mk(); m.make(0 - 4); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::NegativeArrayLength(-4)),
    );
}

#[test]
fn trap_div_by_zero() {
    assert_trap(
        r#"
        class Math { int div(int a, int b) { return a / b; } }
        test t { var m = new Math(); m.div(10, 0); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::DivByZero),
    );
}

#[test]
fn trap_rem_by_zero() {
    assert_trap(
        r#"
        class Math { int rem(int a, int b) { return a % b; } }
        test t { var m = new Math(); m.rem(10, 0); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::DivByZero),
    );
}

#[test]
fn trap_assert_failed() {
    assert_trap(
        r#"
        class Check { void must(bool c) { assert c; } }
        test t { var c = new Check(); c.must(1 > 2); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::AssertFailed),
    );
}

#[test]
fn trap_missing_return() {
    assert_trap(
        r#"
        class Part {
            int half(int n) { if (n > 0) { return n; } }
        }
        test t { var p = new Part(); p.half(0 - 1); }
        "#,
        opts(),
        |k| matches!(k, VmErrorKind::MissingReturn),
    );
}

#[test]
fn trap_stack_overflow() {
    assert_trap(
        r#"
        class Rec { int down(int n) { return this.down(n + 1); } }
        test t { var r = new Rec(); r.down(0); }
        "#,
        MachineOptions {
            max_frames: 64,
            ..opts()
        },
        |k| matches!(k, VmErrorKind::StackOverflow),
    );
}

#[test]
fn trap_step_limit() {
    assert_trap(
        r#"
        class Spin {
            int go() {
                var i = 0;
                while (i >= 0) { i = i + 1; }
                return i;
            }
        }
        test t { var s = new Spin(); s.go(); }
        "#,
        MachineOptions {
            max_steps: 10_000,
            ..opts()
        },
        |k| matches!(k, VmErrorKind::StepLimit),
    );
}

/// `Internal` through the harness invocation path: an ill-typed receiver
/// (object of an unrelated class) must fail cleanly.
#[test]
fn trap_internal_receiver_mismatch() {
    let (prog, mir) = build(
        r#"
        class A { int x; int getx() { return this.x; } }
        class B { int y; int gety() { return this.y; } }
        test t { var a = new A(); var b = new B(); a.getx(); b.gety(); }
        "#,
    );
    let getx = prog
        .dispatch(prog.class_by_name("A").unwrap(), "getx")
        .unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    // Objects: 0 = the A instance, 1 = the B instance. Invoking A's
    // method on the B receiver is the ill-typed harness call.
    let err = m
        .invoke(
            getx,
            Some(Value::Ref(narada_vm::ObjId(1))),
            vec![],
            &mut sink,
        )
        .expect_err("mismatched receiver must fail");
    assert!(
        matches!(err.kind, VmErrorKind::Internal(_)),
        "expected Internal, got {:?}",
        err.kind
    );
}

/// A trap inside a `sync` method releases the monitor before the thread
/// fails (unwind path through `thread_fail`).
#[test]
fn trap_unwinds_monitors() {
    let src = r#"
        class Guard {
            int v;
            sync int boom(int d) { return this.v / d; }
        }
        test t { var g = new Guard(); g.boom(0); }
    "#;
    let (err, ev) = run_trap(src, opts());
    assert!(matches!(err.kind, VmErrorKind::DivByZero));
    // The unwind must have emitted the Unlock before ThreadFail.
    let unlock = ev
        .iter()
        .position(|e| matches!(e.kind, narada_vm::EventKind::Unlock { .. }))
        .expect("unwind released the monitor");
    let fail = ev
        .iter()
        .position(|e| matches!(e.kind, narada_vm::EventKind::ThreadFail { .. }))
        .unwrap();
    assert!(unlock < fail, "unlock must precede the failure event");
}

/// The shapes an ill-typed harness invocation can confuse: every heap
/// operation on the wrong kind of object traps with `TypeConfusion`
/// through `Machine::step` instead of panicking or reading a wrong slot.
const SHAPES: &str = r#"
    class Box {
        int v;
        int readv(Box b) { return b.v; }
        void writev(Box b) { b.v = 7; }
        int len(int[] a) { return a.length; }
        int at(int[] a) { return a[0]; }
        void put(int[] a) { a[0] = 7; }
    }
    class Other { int w; }
    test t { var b = new Box(); var o = new Other(); var xs = new int[1]; b.readv(b); }
"#;

/// Invokes `Box.<method>` on the test's `Box` with the object `arg`
/// (0 = the `Box`, 1 = the `Other`, 2 = the `int[1]`) and returns the
/// trap it fails with, after checking that it surfaced as a
/// `ThreadFail` and left the heap untouched.
fn confuse(method: &str, arg: u32) -> VmErrorKind {
    let (prog, mir) = build(SHAPES);
    let boxc = prog.class_by_name("Box").unwrap();
    let m_id = prog.dispatch(boxc, method).unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    let before = m.heap.render();
    let recv = Some(Value::Ref(narada_vm::ObjId(0)));
    let arg = vec![Value::Ref(narada_vm::ObjId(arg))];
    let err = m
        .invoke(m_id, recv, arg, &mut sink)
        .expect_err("an ill-typed argument must trap");
    assert!(
        sink.events
            .iter()
            .any(|e| matches!(e.kind, narada_vm::EventKind::ThreadFail { .. })),
        "no ThreadFail event emitted"
    );
    assert_eq!(m.heap.render(), before, "a trapped access changes nothing");
    err.kind
}

fn confusion(op: &'static str, obj: u32) -> VmErrorKind {
    VmErrorKind::TypeConfusion {
        op,
        obj: narada_vm::ObjId(obj),
    }
}

#[test]
fn trap_field_read_on_array() {
    assert_eq!(confuse("readv", 2), confusion("field read", 2));
}

#[test]
fn trap_field_write_on_array() {
    assert_eq!(confuse("writev", 2), confusion("field write", 2));
}

/// `Other.w` sits in slot 0, where `Box.v` sits too: without the
/// field-membership check the read would return `w` silently.
#[test]
fn trap_field_read_on_class_without_the_field() {
    assert_eq!(confuse("readv", 1), confusion("field read", 1));
}

#[test]
fn trap_field_write_on_class_without_the_field() {
    assert_eq!(confuse("writev", 1), confusion("field write", 1));
}

#[test]
fn trap_array_length_on_instance() {
    assert_eq!(confuse("len", 0), confusion("array length", 0));
}

#[test]
fn trap_index_read_on_instance() {
    assert_eq!(confuse("at", 0), confusion("index read", 0));
}

#[test]
fn trap_index_write_on_instance() {
    assert_eq!(confuse("put", 1), confusion("index write", 1));
}

/// The well-typed calls of the same methods run clean, so the traps
/// above come from the arguments alone.
#[test]
fn shapes_run_clean_when_well_typed() {
    let (prog, mir) = build(SHAPES);
    let boxc = prog.class_by_name("Box").unwrap();
    let mut m = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    m.run_test(prog.tests[0].id, &mut sink).unwrap();
    let recv = Some(Value::Ref(narada_vm::ObjId(0)));
    for (method, arg) in [
        ("writev", 0),
        ("readv", 0),
        ("put", 2),
        ("at", 2),
        ("len", 2),
    ] {
        let m_id = prog.dispatch(boxc, method).unwrap();
        let arg = vec![Value::Ref(narada_vm::ObjId(arg))];
        m.invoke(m_id, recv, arg, &mut sink)
            .unwrap_or_else(|e| panic!("{method}: {e}"));
    }
    let v = prog.field_by_name(boxc, "v").unwrap();
    assert_eq!(m.heap.get_field(narada_vm::ObjId(0), v), Ok(Value::Int(7)));
    assert_eq!(m.heap.get_elem(narada_vm::ObjId(2), 0), Ok(Value::Int(7)));
}
