//! Liveness of the RaceFuzzer confirmation scheduler: a postponed thread
//! whose partner access never arrives must not hang the run. Two ways out
//! exist and both are exercised here:
//!
//! * **budget give-up** — the partner side simply never executes while
//!   other threads keep running; after `postpone_budget` scheduling
//!   decisions the suspension is abandoned (`gave_up` counts it);
//! * **lone stop** — every other thread finishes first, leaving only the
//!   postponed thread runnable; no collision can happen any more, so the
//!   run ends decided at once, without burning the budget (not a
//!   give-up).
//!
//! A thread blocked on a monitor is not finished: while it waits for the
//! monitor a postponed thread holds, the run is not decided, and the
//! postponed thread is released (or, reaching its access with no one else
//! runnable, never postponed) so that the blocked thread can go on.

use narada_detect::{LocksetDetector, RaceFuzzerScheduler, StaticRaceKey};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_vm::{
    Machine, MachineOptions, NullSink, RoundRobin, RunOutcome, Scheduler, ThreadId, ThreadStatus,
    Value,
};

/// `poke`/`other` race on `x`; `spin(n)` only touches `y`, so a thread
/// inside `spin` can never be the partner of a postponed `x` access.
/// `guarded` writes `x` holding the monitor `locker` waits for.
const SRC: &str = r#"
    class C {
        int x;
        int y;
        int z;
        void poke() { this.x = 1; }
        void other() { this.x = 2; }
        void guarded() { sync (this) { this.z = 0; this.x = 3; } }
        void locker() { sync (this) { this.z = 1; } }
        void spin(int n) {
            var i = 0;
            while (i < n) { this.y = this.y + 1; i = i + 1; }
        }
    }
    test seed { var c = new C(); c.poke(); c.other(); var d = new C(); d.spin(1); }
"#;

fn compile() -> (Program, MirProgram) {
    let prog = narada_lang::compile(SRC).expect("test program compiles");
    let mir = lower_program(&prog);
    (prog, mir)
}

fn method(prog: &Program, name: &str) -> narada_lang::hir::MethodId {
    prog.methods.iter().find(|m| m.name == name).unwrap().id
}

/// The real static key of the race on `x` between methods `a` and `b`,
/// recovered from a lockset run (the fuzzer targets source spans, which
/// only the front end knows).
fn x_race_key(prog: &Program, mir: &MirProgram, a: &str, b: &str) -> StaticRaceKey {
    let mut m = Machine::new(prog, mir, MachineOptions::default());
    let c = m.heap.alloc_instance(prog.class_by_name("C").unwrap());
    let mut lockset = LocksetDetector::new();
    for name in [a, b] {
        m.spawn_invoke(
            method(prog, name),
            Some(Value::Ref(c)),
            vec![],
            &mut lockset,
        )
        .unwrap();
    }
    assert_eq!(
        m.run_threads(&mut RoundRobin::new(), &mut lockset, 100_000),
        RunOutcome::Completed
    );
    lockset
        .races()
        .first()
        .expect("unsynchronized x writes race")
        .static_key()
}

/// Runs `poke` (one side of the target race) against `spin(n)` (never the
/// partner) under the given fuzzer; returns the scheduler for inspection.
/// Whichever thread finishes first, the other is left alone and the run
/// ends decided.
fn run_partnerless(n: i64, mut fuzzer: RaceFuzzerScheduler) -> RaceFuzzerScheduler {
    let (prog, mir) = compile();
    let mut m = Machine::new(&prog, &mir, MachineOptions::default());
    let c = m.heap.alloc_instance(prog.class_by_name("C").unwrap());
    let mut sink = NullSink;
    m.spawn_invoke(
        method(&prog, "poke"),
        Some(Value::Ref(c)),
        vec![],
        &mut sink,
    )
    .unwrap();
    m.spawn_invoke(
        method(&prog, "spin"),
        Some(Value::Ref(c)),
        vec![Value::Int(n)],
        &mut sink,
    )
    .unwrap();
    assert_eq!(
        m.run_threads(&mut fuzzer, &mut sink, 1_000_000),
        RunOutcome::Decided,
        "a partnerless postponement must not livelock the run"
    );
    fuzzer
}

#[test]
fn gives_up_within_budget_when_partner_never_arrives() {
    let (prog, mir) = compile();
    let key = x_race_key(&prog, &mir, "poke", "other");
    // Long spin, tiny budget: the suspension must be abandoned while the
    // spinner is still running.
    let fuzzer = run_partnerless(
        500,
        RaceFuzzerScheduler::new(key, 7).with_postpone_budget(10),
    );
    assert!(
        fuzzer.gave_up >= 1,
        "budget expiry must be counted as a give-up"
    );
    assert!(
        fuzzer.confirmed.is_empty(),
        "nothing may confirm without the partner access"
    );
}

#[test]
fn ends_run_once_postponed_thread_is_alone() {
    let (prog, mir) = compile();
    let key = x_race_key(&prog, &mir, "poke", "other");
    // Short spin, default (huge) budget: the spinner finishes long before
    // the budget, leaving only the postponed thread — the run ends there,
    // not counted as a give-up.
    let fuzzer = run_partnerless(2, RaceFuzzerScheduler::new(key, 7));
    assert_eq!(
        fuzzer.gave_up, 0,
        "last-thread release is not a budget give-up"
    );
    assert!(fuzzer.confirmed.is_empty());
}

#[test]
fn postpone_budget_is_configurable() {
    let (prog, mir) = compile();
    let key = x_race_key(&prog, &mir, "poke", "other");
    let f = RaceFuzzerScheduler::new(key, 1);
    assert_eq!(f.postpone_budget(), narada_detect::DEFAULT_POSTPONE_BUDGET);
    assert_eq!(f.with_postpone_budget(3).postpone_budget(), 3);
}

/// Watches a `guarded` thread against a `locker` thread, counting the
/// decisions where `guarded` is the only runnable thread, poised at a
/// target access, while `locker` is blocked on the monitor it holds.
struct BlockedWatch {
    inner: RaceFuzzerScheduler,
    target: StaticRaceKey,
    guarded: ThreadId,
    locker: ThreadId,
    /// `guarded` was poised at its access while `locker` could still run,
    /// so the fuzzer postponed it.
    postponed: bool,
    /// Lone-with-blocked decisions after such a postponement: the
    /// postponed thread is released.
    released: u32,
    /// Lone-with-blocked decisions with no postponement: `guarded` reached
    /// its access with no one else runnable and runs it at once.
    unpostponed: u32,
}

impl Scheduler for BlockedWatch {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let at_target = runnable.contains(&self.guarded)
            && machine
                .preview_detail(self.guarded)
                .is_some_and(|(_, s)| s == self.target.span_a || s == self.target.span_b);
        let blocked = matches!(machine.thread_status(self.locker), ThreadStatus::Blocked(_));
        if at_target && runnable.len() > 1 {
            self.postponed = true;
        }
        if at_target && runnable == [self.guarded] && blocked {
            if self.postponed {
                self.released += 1;
            } else {
                self.unpostponed += 1;
            }
        }
        self.inner.choose(machine, runnable)
    }

    fn name(&self) -> &str {
        "blocked-watch"
    }

    fn decided(&self, lone: bool) -> bool {
        self.inner.decided(lone)
    }
}

#[test]
fn blocked_partner_keeps_the_run_going() {
    let (prog, mir) = compile();
    let key = x_race_key(&prog, &mir, "guarded", "other");
    let x = prog
        .field_by_name(prog.class_by_name("C").unwrap(), "x")
        .unwrap();
    let (mut released, mut unpostponed) = (0, 0);
    for seed in 0..32 {
        let mut m = Machine::new(&prog, &mir, MachineOptions::default());
        let c = m.heap.alloc_instance(prog.class_by_name("C").unwrap());
        let mut sink = NullSink;
        let mut spawn = |name| {
            m.spawn_invoke(method(&prog, name), Some(Value::Ref(c)), vec![], &mut sink)
                .unwrap()
        };
        let (guarded, locker) = (spawn("guarded"), spawn("locker"));
        let mut watch = BlockedWatch {
            inner: RaceFuzzerScheduler::new(key, seed),
            target: key,
            guarded,
            locker,
            postponed: false,
            released: 0,
            unpostponed: 0,
        };
        // Whoever finishes first leaves the other alone: decided then, and
        // not before.
        assert_eq!(
            m.run_threads(&mut watch, &mut sink, 1_000_000),
            RunOutcome::Decided,
            "seed {seed}"
        );
        assert_eq!(watch.inner.gave_up, 0, "seed {seed}: not a budget give-up");
        assert!(watch.inner.confirmed.is_empty(), "seed {seed}");
        if watch.released + watch.unpostponed > 0 {
            // `guarded` ran its write and let `locker` go on.
            assert_eq!(
                m.heap.get_field(c, x).unwrap(),
                Value::Int(3),
                "seed {seed}"
            );
            assert!(
                !matches!(m.thread_status(locker), ThreadStatus::Blocked(_)),
                "seed {seed}"
            );
        }
        released += watch.released;
        unpostponed += watch.unpostponed;
    }
    assert!(released > 0, "some seed releases a postponed thread");
    assert!(unpostponed > 0, "some seed reaches the access unpostponed");
}
