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
