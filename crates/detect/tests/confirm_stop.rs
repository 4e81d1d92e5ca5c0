//! The confirmation stop rule: a RaceFuzzer run ends as soon as its
//! verdict is decided, and not before.
//!
//! * A collision on the target runs both accesses back to back and ends
//!   the run `Decided` right after the second one.
//! * A collision on another site pair is recorded but keeps the ordinary
//!   schedule: the partner is postponed again and the first thread runs on.
//! * A run whose threads never collide ends `Decided` once one thread is
//!   left alone, with nothing confirmed (`racefuzzer_giveup.rs`).
//! * The truncated schedule of a confirming run replays with no
//!   divergence, and the passive detectors still see the target race.

use narada_detect::{FastTrackDetector, RaceFuzzerScheduler, StaticRaceKey};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_lang::Span;
use narada_vm::{
    Machine, NullSink, ObjId, RecordingScheduler, ReplayScheduler, RoundRobin, RunOutcome,
    Scheduler, ThreadId, ThreadStatus, Value,
};

/// `put` writes `x` and then `y`: two threads running it race on `x` at
/// one site, and each still has its `y` write left after the `x` race.
const SRC: &str = r#"
    class C {
        int x;
        int y;
        void put(int v) { this.x = v; this.y = v; }
    }
    test seed { var c = new C(); c.put(1); }
"#;

fn compile() -> (Program, MirProgram) {
    let prog = narada_lang::compile(SRC).expect("test program compiles");
    let mir = lower_program(&prog);
    (prog, mir)
}

/// A machine with `put(1)` and `put(2)` spawned on one shared object.
fn two_puts<'p>(prog: &'p Program, mir: &'p MirProgram) -> (Machine<'p>, ObjId, [ThreadId; 2]) {
    let mut m = Machine::with_defaults(prog, mir);
    let class = prog.class_by_name("C").unwrap();
    let obj = m.heap.alloc_instance(class);
    let put = prog.methods.iter().find(|mm| mm.name == "put").unwrap().id;
    let t1 = m
        .spawn_invoke(
            put,
            Some(Value::Ref(obj)),
            vec![Value::Int(1)],
            &mut NullSink,
        )
        .unwrap();
    let t2 = m
        .spawn_invoke(
            put,
            Some(Value::Ref(obj)),
            vec![Value::Int(2)],
            &mut NullSink,
        )
        .unwrap();
    (m, obj, [t1, t2])
}

/// The static key of the write-write race on `x` (the textually first
/// site), recovered from a passive run.
fn x_race(prog: &Program, mir: &MirProgram) -> StaticRaceKey {
    let (mut m, _, _) = two_puts(prog, mir);
    let mut hb = FastTrackDetector::new();
    assert_eq!(
        m.run_threads(&mut RoundRobin::new(), &mut hb, 10_000),
        RunOutcome::Completed
    );
    hb.races()
        .iter()
        .map(|r| r.static_key())
        .min_by_key(|k| k.span_a.start)
        .expect("the x writes race")
}

/// Wraps the fuzzer, recording its choices and the decision at which its
/// first collision (of any site pair) was recorded.
struct Watch<'a> {
    fuzzer: &'a mut RaceFuzzerScheduler,
    choices: Vec<ThreadId>,
    collision: Option<usize>,
}

impl Scheduler for Watch<'_> {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let pick = self.fuzzer.choose(machine, runnable);
        if self.collision.is_none() && !self.fuzzer.confirmed.is_empty() {
            self.collision = Some(self.choices.len());
        }
        self.choices.push(pick);
        pick
    }

    fn decided(&self, lone: bool) -> bool {
        self.fuzzer.decided(lone)
    }
}

fn field(m: &Machine<'_>, prog: &Program, obj: ObjId, name: &str) -> Value {
    let class = prog.class_by_name("C").unwrap();
    m.heap
        .get_field(obj, prog.field_by_name(class, name).unwrap())
        .unwrap()
}

#[test]
fn target_collision_runs_back_to_back_then_decides() {
    let (prog, mir) = compile();
    let target = x_race(&prog, &mir);
    for seed in 0..8 {
        let (mut m, obj, threads) = two_puts(&prog, &mir);
        let mut fuzzer = RaceFuzzerScheduler::new(target, seed);
        let mut watch = Watch {
            fuzzer: &mut fuzzer,
            choices: Vec::new(),
            collision: None,
        };
        let outcome = m.run_threads(&mut watch, &mut NullSink, 10_000);
        assert_eq!(outcome, RunOutcome::Decided, "seed {seed}");
        let k = watch.collision.expect("the target collides");
        let (first, second) = (watch.choices[k], watch.choices[k + 1]);
        assert_ne!(first, second, "seed {seed}: the partner runs next");
        assert_eq!(watch.choices.len(), k + 2, "seed {seed}: ends right after");
        // The partner's write landed last, and neither thread got further.
        let value = if second == threads[0] { 1 } else { 2 };
        assert_eq!(field(&m, &prog, obj, "x"), Value::Int(value));
        assert_eq!(field(&m, &prog, obj, "y"), Value::Int(0));
        for t in threads {
            assert_eq!(*m.thread_status(t), ThreadStatus::Runnable);
        }
        let [c] = &fuzzer.confirmed[..] else {
            panic!("seed {seed}: one confirmation expected");
        };
        assert_eq!(c.key, target);
        assert!(!c.benign, "writes of 1 and 2 are distinguishable");
    }
}

#[test]
fn non_target_collision_keeps_the_schedule() {
    let (prog, mir) = compile();
    let x = x_race(&prog, &mir);
    // The x site paired with a site past the end of the source: the two
    // x writes collide, but on a pair that is not the target.
    let end = SRC.len() as u32;
    let target = StaticRaceKey {
        span_b: Span::new(end + 1, end + 2),
        ..x
    };
    for seed in 0..8 {
        let (mut m, obj, threads) = two_puts(&prog, &mir);
        let mut fuzzer = RaceFuzzerScheduler::new(target, seed);
        let mut watch = Watch {
            fuzzer: &mut fuzzer,
            choices: Vec::new(),
            collision: None,
        };
        let outcome = m.run_threads(&mut watch, &mut NullSink, 10_000);
        let k = watch.collision.expect("the x writes collide");
        let first = watch.choices[k];
        // The partner is postponed again, so the first thread runs on
        // until it finishes and leaves the partner alone.
        assert!(
            watch.choices[k..].iter().all(|&t| t == first),
            "seed {seed}: {:?}",
            &watch.choices[k..]
        );
        assert_eq!(outcome, RunOutcome::Decided, "seed {seed}");
        let partner = threads.into_iter().find(|&t| t != first).unwrap();
        assert_eq!(*m.thread_status(first), ThreadStatus::Finished);
        assert_eq!(*m.thread_status(partner), ThreadStatus::Runnable);
        let value = if first == threads[0] { 1 } else { 2 };
        assert_eq!(field(&m, &prog, obj, "x"), Value::Int(value));
        assert_eq!(fuzzer.confirmed.len(), 1);
        assert_eq!(fuzzer.confirmed[0].key, x);
    }
}

#[test]
fn truncated_confirming_schedule_replays_cleanly() {
    let (prog, mir) = compile();
    let target = x_race(&prog, &mir);
    for seed in 0..8 {
        let (mut m, _, _) = two_puts(&prog, &mir);
        let mut fuzzer = RaceFuzzerScheduler::new(target, seed);
        let mut rec = RecordingScheduler::new(&mut fuzzer);
        assert_eq!(
            m.run_threads(&mut rec, &mut NullSink, 10_000),
            RunOutcome::Decided
        );
        let choices = rec.into_choices();
        let (mut m, _, _) = two_puts(&prog, &mir);
        let mut replay = ReplayScheduler::new(choices);
        let mut hb = FastTrackDetector::new();
        assert_eq!(
            m.run_threads(&mut replay, &mut hb, 10_000),
            RunOutcome::Decided,
            "seed {seed}: the replay ends where the log does"
        );
        assert!(replay.exhausted());
        assert_eq!(replay.divergences(), 0, "seed {seed}");
        assert!(
            hb.races().iter().any(|r| r.static_key() == target),
            "seed {seed}: the passive detector sees both accesses"
        );
    }
}
