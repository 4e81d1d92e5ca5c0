//! The detectors' steady state allocates nothing.
//!
//! A counting global allocator tallies the allocations made by the test's
//! own thread while armed. Each detector first sees a warm-up round of a
//! two-thread locked/unlocked access pattern (which creates its thread
//! clocks, lock clocks, location states, histories and race keys), then
//! 10,000 more rounds of the same accesses at the same sites; those
//! rounds must not allocate. The pattern races, so the reporting path is
//! exercised too: a race already reported costs a lookup, not a copy.
//!
//! The scheduling decision loop allocates nothing per decision either: a
//! two-thread, call-free loop run through `Machine::run_threads` under the
//! confirmation stack and under the detection stack makes as many
//! allocations at ten times the loop length as at one, apart from the
//! schedule recorder's `Vec` doublings. The confirmation run targets a
//! site pair that never collides, so it runs the loop until one thread
//! is left alone rather than ending at its first collision.
//!
//! A detection trial from a fork start costs what its suffix costs: after
//! a prefix that fills a ten times longer array (ten times the detector
//! history and heap), a trial rewound through the capture walk makes as
//! many allocations as after the short one. Cloning the prefix-fed
//! detectors per trial would copy every location's history instead.

use narada_core::synth::execute_plan_suffix;
use narada_core::{synthesize_source, SynthesisOptions};
use narada_detect::{
    CaptureWalk, FastTrackDetector, LocksetDetector, RaceFuzzerScheduler, SaturationWatch,
    StaticRaceKey,
};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::{MirProgram, VarId};
use narada_lang::Span;
use narada_obs::{Metrics, Tracer};
use narada_vm::{
    Event, EventKind, EventSink, FieldKey, InvId, Label, Machine, MachineOptions, NullSink, ObjId,
    ObservedScheduler, RandomScheduler, RecordingScheduler, RunOutcome, Scheduler, ThreadId, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}

const ROUNDS: u64 = 10_000;
const LOCK: u32 = 9;
const SHARED: u32 = 5;

/// Builds the events of one round; `label` advances per event so labels
/// differ across rounds while threads, locks, locations and sites repeat.
struct Round {
    label: u64,
}

impl Round {
    fn ev(&mut self, tid: u32, site: u32, kind: EventKind) -> Event {
        self.label += 1;
        Event {
            label: Label(self.label),
            tid: ThreadId(tid),
            span: Span::new(site * 10, site * 10 + 1),
            kind,
        }
    }

    fn access(&mut self, tid: u32, site: u32, field: i64, write: bool) -> Event {
        let obj = ObjId(SHARED);
        let field = FieldKey::Elem(field);
        let kind = if write {
            EventKind::Write {
                inv: InvId(0),
                obj_var: VarId(0),
                obj,
                field,
                src_var: VarId(1),
                value: Value::Int(0),
            }
        } else {
            EventKind::Read {
                inv: InvId(0),
                dst: VarId(0),
                obj_var: VarId(0),
                obj,
                field,
                value: Value::Int(0),
            }
        };
        self.ev(tid, site, kind)
    }

    fn lock(&mut self, tid: u32) -> Event {
        let kind = EventKind::Lock {
            inv: InvId(0),
            var: None,
            obj: ObjId(LOCK),
        };
        self.ev(tid, 0, kind)
    }

    fn unlock(&mut self, tid: u32) -> Event {
        let kind = EventKind::Unlock {
            inv: InvId(0),
            obj: ObjId(LOCK),
        };
        self.ev(tid, 0, kind)
    }

    /// Feeds one round to `sink`: each thread writes one element under
    /// the lock and reads and writes the other without it.
    fn feed(&mut self, sink: &mut dyn EventSink) {
        let events = [
            self.lock(1),
            self.access(1, 1, 0, true),
            self.access(1, 2, 1, false),
            self.unlock(1),
            self.access(2, 3, 0, false),
            self.access(2, 4, 1, true),
            self.lock(2),
            self.access(2, 5, 0, true),
            self.unlock(2),
            self.access(1, 6, 0, false),
            self.access(1, 7, 1, true),
        ];
        for ev in &events {
            sink.event(ev);
        }
    }
}

/// Warms `sink` up, then counts the allocations of `ROUNDS` more rounds.
fn steady_state_allocations(sink: &mut dyn EventSink) -> u64 {
    let mut round = Round { label: 0 };
    for child in [1, 2] {
        let spawn = round.ev(
            0,
            0,
            EventKind::ThreadSpawn {
                child: ThreadId(child),
            },
        );
        sink.event(&spawn);
    }
    round.feed(sink);
    round.feed(sink);
    allocations_during(|| {
        for _ in 0..ROUNDS {
            round.feed(sink);
        }
    })
}

#[test]
fn counting_allocator_sees_allocations() {
    let n = allocations_during(|| drop(std::hint::black_box(vec![1u8; 16])));
    assert_eq!(n, 1, "the counting allocator must observe a Vec allocation");
}

#[test]
fn fasttrack_steady_state_allocates_nothing() {
    let mut d = FastTrackDetector::new();
    let n = steady_state_allocations(&mut d);
    assert!(!d.races().is_empty(), "the pattern must exercise reporting");
    assert_eq!(n, 0, "FastTrack allocated {n} times in {ROUNDS} rounds");
}

#[test]
fn lockset_steady_state_allocates_nothing() {
    let mut d = LocksetDetector::new();
    let n = steady_state_allocations(&mut d);
    assert!(!d.races().is_empty(), "the pattern must exercise reporting");
    assert_eq!(n, 0, "lockset allocated {n} times in {ROUNDS} rounds");
}

const LOOP_SRC: &str = r#"
    class C {
        int x;
        void spin(int n) {
            var i = 0;
            while (i < n) { this.x = this.x + 1; i = i + 1; }
        }
    }
    test seed { var c = new C(); c.spin(1); }
"#;

/// Short loop length; the long run iterates ten times as often. Both stay
/// far below the saturation window, so the detection stack's watch never
/// arms and never starts tracking.
const SHORT: i64 = 200;

/// Schedule-recorder reallocations allowed between a run and one ten
/// times longer: a `Vec` that grows by under 16× doubles at most 4 times.
const RECORDER_DOUBLINGS: u64 = 4;

fn loop_program() -> (Program, MirProgram) {
    let prog = narada_lang::compile(LOOP_SRC).expect("loop program compiles");
    let mir = lower_program(&prog);
    (prog, mir)
}

/// Spawns two threads that each run `spin(n)` on one shared object, then
/// counts the allocations `run_threads` makes under `sched` and `sink`,
/// which must end the run with `outcome`.
fn decision_loop_allocations(
    prog: &Program,
    mir: &MirProgram,
    n: i64,
    sched: &mut dyn Scheduler,
    sink: &mut dyn EventSink,
    expect: RunOutcome,
) -> u64 {
    let mut m = Machine::new(prog, mir, MachineOptions::default());
    let c = m.heap.alloc_instance(prog.class_by_name("C").unwrap());
    let spin = prog.methods.iter().find(|mm| mm.name == "spin").unwrap().id;
    for _ in 0..2 {
        m.spawn_invoke(spin, Some(Value::Ref(c)), vec![Value::Int(n)], sink)
            .unwrap();
    }
    let mut outcome = None;
    let count = allocations_during(|| outcome = Some(m.run_threads(sched, sink, u64::MAX)));
    assert_eq!(outcome, Some(expect));
    count
}

/// A directed target that never collides: the loop's write site paired
/// with a site past the end of the source. Threads poised at the write
/// are postponed and collide with each other, confirming the write-write
/// race, which is not the target, so the run goes on.
fn loop_target(prog: &Program, mir: &MirProgram) -> StaticRaceKey {
    let (mut lockset, mut hb) = (LocksetDetector::new(), FastTrackDetector::new());
    let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
    let mut random = RandomScheduler::new(1);
    decision_loop_allocations(prog, mir, 4, &mut random, &mut sink, RunOutcome::Completed);
    let race = hb.races().first().expect("the loop races");
    let write = [&race.first, &race.second]
        .into_iter()
        .find(|a| a.is_write)
        .expect("a race has a write");
    StaticRaceKey {
        span_a: write.span,
        span_b: Span::new(LOOP_SRC.len() as u32 + 1, LOOP_SRC.len() as u32 + 2),
        elem: false,
    }
}

#[test]
fn confirmation_decisions_allocate_nothing() {
    let (prog, mir) = loop_program();
    let target = loop_target(&prog, &mir);
    let metrics = Metrics::new();
    let run = |n: i64| {
        let mut fuzzer = RaceFuzzerScheduler::new(target, 7);
        let mut sched = RecordingScheduler::new(ObservedScheduler::new(&mut fuzzer, &metrics));
        // One thread finishing leaves the other alone: decided.
        let count = decision_loop_allocations(
            &prog,
            &mir,
            n,
            &mut sched,
            &mut NullSink,
            RunOutcome::Decided,
        );
        drop(sched);
        assert!(!fuzzer.confirmed.is_empty(), "the directed run confirms");
        assert!(fuzzer.confirmed.iter().all(|c| c.key != target));
        count
    };
    let (short, long) = (run(SHORT), run(10 * SHORT));
    assert!(
        long <= short + RECORDER_DOUBLINGS,
        "confirmation stack: {short} allocations at {SHORT} iterations, {long} at ten times that"
    );
}

#[test]
fn detection_decisions_allocate_nothing() {
    let (prog, mir) = loop_program();
    let metrics = Metrics::new();
    let run = |n: i64| {
        let (mut lockset, mut hb) = (LocksetDetector::new(), FastTrackDetector::new());
        let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
        let mut random = RandomScheduler::new(11);
        let mut sched = RecordingScheduler::new(ObservedScheduler::new(&mut random, &metrics));
        let count =
            decision_loop_allocations(&prog, &mir, n, &mut sched, &mut sink, RunOutcome::Completed);
        drop(sink);
        assert!(!hb.races().is_empty(), "the detectors see the race");
        count
    };
    let (short, long) = (run(SHORT), run(10 * SHORT));
    assert!(
        long <= short + RECORDER_DOUBLINGS,
        "detection stack: {short} allocations at {SHORT} iterations, {long} at ten times that"
    );
}

/// `fill(n)` writes `n` array elements in the prefix; the racy `inc`s
/// touch only `x`.
fn fill_source(n: usize) -> String {
    format!(
        r#"
        class Box {{
            int x;
            int[] a;
            void fill(int n) {{
                this.a = new int[n];
                var i = 0;
                while (i < n) {{ this.a[i] = i; i = i + 1; }}
            }}
            void inc() {{ this.x = this.x + 1; }}
        }}
        test seed {{ var b = new Box(); b.fill({n}); b.inc(); }}
    "#
    )
}

/// Allocations of one detection trial from the fork point of the
/// `inc`/`inc` plan after a prefix that fills `n` elements, once a first
/// trial has warmed the walk up.
fn fork_trial_allocations(n: usize) -> u64 {
    let (prog, mir, out) = synthesize_source(&fill_source(n), &SynthesisOptions::default())
        .expect("the fill class synthesizes");
    let inc = prog.methods.iter().find(|m| m.name == "inc").unwrap().id;
    let plan = &out
        .tests
        .iter()
        .find(|t| t.plan.racy.iter().all(|c| c.method == inc))
        .expect("an inc/inc plan")
        .plan;
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut walk = CaptureWalk::new(&prog, &mir);
    walk.advance(&seeds, plan, 1, &Tracer::disabled(), None)
        .expect("the prefix forks");
    let metrics = Metrics::new();
    let trial = |walk: &mut CaptureWalk| {
        let (machine, pair, prefix) = walk.probe(7).expect("a fork point");
        let mut sink = SaturationWatch::new(&mut pair.lockset, &mut pair.hb);
        let mut random = RandomScheduler::new(11);
        let mut sched = RecordingScheduler::new(ObservedScheduler::new(&mut random, &metrics));
        let run = execute_plan_suffix(machine, plan, prefix, &mut sched, &mut sink, 10_000);
        assert_eq!(run.expect("the suffix runs").outcome, RunOutcome::Completed);
        drop(sink);
        assert!(!pair.hb.races().is_empty(), "the incs race");
    };
    trial(&mut walk);
    allocations_during(|| trial(&mut walk))
}

#[test]
fn fork_trial_allocations_do_not_grow_with_the_prefix() {
    let (short, long) = (fork_trial_allocations(40), fork_trial_allocations(400));
    assert_eq!(
        long, short,
        "a fork trial made {short} allocations after a 40-element prefix, {long} after 400"
    );
}
