//! The saturation cut on small programs: a lone thread that stops feeding
//! the detectors anything new is cut, and the cut loses no race; a late
//! access inside the window, interleaved spinning, a spinner that blocks
//! another thread, and sinks that do not opt in (confirmation's
//! `NullSink`) are never cut.

use narada_detect::{
    FastTrackDetector, LocksetDetector, RaceFuzzerScheduler, RaceReport, SaturationWatch,
};
use narada_lang::lower::lower_program;
use narada_vm::{
    EventSink, FieldKey, Machine, MachineOptions, NullSink, RoundRobin, RunOutcome, Scheduler,
    TeeSink, ThreadId, Value, SATURATION_WINDOW,
};

/// `touch` writes `x` and `y` once; `spin` loops on `y` forever, and
/// `hold` does so holding the monitor `enter` needs; `late(n)` loops `n`
/// times on `y`, then writes `x`.
const SRC: &str = r#"
    class C {
        int x;
        int y;
        void touch() { this.x = 1; this.y = 1; }
        void spin() {
            while (true) { this.y = this.y + 1; }
        }
        sync void hold() {
            while (true) { this.y = this.y + 1; }
        }
        sync void enter() { this.x = 3; }
        void late(int n) {
            var i = 0;
            while (i < n) { this.y = this.y + 1; i = i + 1; }
            this.x = 2;
        }
    }
    test seed { var c = new C(); c.touch(); c.late(1); }
"#;

/// Passes decisions through to the inner scheduler, counting them.
struct Counted<'a>(&'a mut dyn Scheduler, u64);

impl Scheduler for Counted<'_> {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        self.1 += 1;
        self.0.choose(machine, runnable)
    }
}

/// Spawns each of `calls` (method name, one `int` argument or none) on
/// one shared `C` and runs them under `sched` with `sink` attached;
/// returns the outcome and the decisions taken.
fn run(
    calls: &[(&str, Option<i64>)],
    sink: &mut dyn EventSink,
    sched: &mut dyn Scheduler,
    budget: u64,
) -> (RunOutcome, u64) {
    let prog = narada_lang::compile(SRC).expect("test program compiles");
    let mir = lower_program(&prog);
    let mut m = Machine::new(&prog, &mir, MachineOptions::default());
    let c = m.heap.alloc_instance(prog.class_by_name("C").unwrap());
    for &(name, arg) in calls {
        let method = prog.methods.iter().find(|m| m.name == name).unwrap().id;
        let args = arg.map(Value::Int).into_iter().collect();
        m.spawn_invoke(method, Some(Value::Ref(c)), args, sink)
            .unwrap();
    }
    let mut counted = Counted(sched, 0);
    let outcome = m.run_threads(&mut counted, sink, budget);
    (outcome, counted.1)
}

/// Runs `calls` round-robin with both detectors attached, through the
/// watch or through a plain tee; returns the outcome, the decisions and
/// both detectors' races.
fn detect(
    calls: &[(&str, Option<i64>)],
    watch: bool,
    budget: u64,
) -> (RunOutcome, u64, Vec<RaceReport>) {
    let mut lockset = LocksetDetector::new();
    let mut hb = FastTrackDetector::new();
    let mut rr = RoundRobin::new();
    let (outcome, decisions) = if watch {
        let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
        run(calls, &mut sink, &mut rr, budget)
    } else {
        let mut sink = TeeSink {
            a: &mut lockset,
            b: &mut hb,
        };
        run(calls, &mut sink, &mut rr, budget)
    };
    let races = lockset.races().iter().chain(hb.races()).cloned().collect();
    (outcome, decisions, races)
}

/// Field `name` of `C`.
fn field(name: &str) -> FieldKey {
    let prog = narada_lang::compile(SRC).unwrap();
    let class = prog.class_by_name("C").unwrap();
    FieldKey::Field(prog.field_by_name(class, name).unwrap())
}

/// Whether any race is on field `name` of `C`.
fn races_on(races: &[RaceReport], name: &str) -> bool {
    races.iter().any(|r| r.field == field(name))
}

#[test]
fn lone_spinner_over_seen_sites_is_cut_without_losing_races() {
    let calls = [("touch", None), ("spin", None)];
    let budget = 20 * SATURATION_WINDOW;
    let (cut, cut_decisions, cut_races) = detect(&calls, true, budget);
    let (full, full_decisions, full_races) = detect(&calls, false, budget);
    assert_eq!(cut, RunOutcome::Saturated);
    assert_eq!(full, RunOutcome::StepLimit);
    assert_eq!(full_decisions, budget);
    // Armed after one window alone, cut after one more window of quiet
    // events (at most one event per decision inside the loop).
    assert!(
        (2 * SATURATION_WINDOW..3 * SATURATION_WINDOW).contains(&cut_decisions),
        "{cut_decisions}"
    );
    assert!(races_on(&full_races, "y"), "{full_races:?}");
    assert_eq!(cut_races, full_races);
}

#[test]
fn late_access_within_the_window_still_races() {
    // Measure the decisions one `late` iteration takes, and pick `n` so
    // the lone stretch arms the watch but ends half a window later.
    let alone = |n| {
        run(
            &[("late", Some(n))],
            &mut NullSink,
            &mut RoundRobin::new(),
            u64::MAX,
        )
        .1
    };
    let per_iter = (alone(2_000) - alone(1_000)) / 1_000;
    let n = (3 * SATURATION_WINDOW / 2 / per_iter) as i64;
    let calls = [("touch", None), ("late", Some(n))];
    let (outcome, decisions, races) = detect(&calls, true, u64::MAX);
    assert!(
        decisions > SATURATION_WINDOW,
        "the watch must arm: {decisions}"
    );
    assert_eq!(outcome, RunOutcome::Completed);
    // `touch` finished long before `late` wrote `x`; nothing orders them.
    assert!(races_on(&races, "x"), "{races:?}");
    assert_eq!(races, detect(&calls, false, u64::MAX).2);
}

#[test]
fn interleaved_spinners_are_never_cut() {
    let budget = 5 * SATURATION_WINDOW;
    let (outcome, decisions, _) = detect(&[("spin", None), ("spin", None)], true, budget);
    assert_eq!(outcome, RunOutcome::StepLimit);
    assert_eq!(decisions, budget);
}

#[test]
fn a_spinner_that_blocks_another_thread_is_never_cut() {
    let budget = 5 * SATURATION_WINDOW;
    let (outcome, decisions, _) = detect(&[("hold", None), ("enter", None)], true, budget);
    assert_eq!(outcome, RunOutcome::StepLimit);
    assert_eq!(decisions, budget);
}

#[test]
fn confirmation_sinks_are_never_cut() {
    // Target the `touch`/`spin` race on `y` as a confirmation would.
    let calls = [("touch", None), ("spin", None)];
    let (_, _, races) = detect(&calls, true, u64::MAX);
    let key = races
        .iter()
        .find(|r| r.field == field("y"))
        .expect("touch/spin race on y")
        .static_key();
    let budget = 5 * SATURATION_WINDOW;
    let mut fuzzer = RaceFuzzerScheduler::new(key, 7);
    let (outcome, decisions) = run(&calls, &mut NullSink, &mut fuzzer, budget);
    assert_eq!(outcome, RunOutcome::StepLimit);
    assert_eq!(decisions, budget);
}
