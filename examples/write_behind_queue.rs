//! The paper's motivating example (§2): the hazelcast
//! `SynchronizedWriteBehindQueue` whose constructor picks `this` as the
//! mutex instead of the wrapped queue.
//!
//! This example runs the full pipeline on the C1 corpus port, prints the
//! synthesized racy client (compare paper Fig. 3), and demonstrates the
//! race concretely by showing a lost update under an adversarial schedule.
//!
//! ```sh
//! cargo run --example write_behind_queue
//! ```

use narada::core::execute_plan;
use narada::detect::{LocksetDetector, RaceFuzzerScheduler, StaticRaceKey};
use narada::lang::lower::lower_program;
use narada::vm::{Machine, RandomScheduler, VecSink};
use narada::{synthesize_observed, Obs, SynthesisOptions};

fn main() {
    let entry = narada::corpus::c1();
    let prog = entry.compile().expect("corpus compiles");
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    println!(
        "C1 ({} {}): {} racing pairs, {} synthesized tests",
        entry.benchmark,
        entry.class_name,
        out.pair_count(),
        out.test_count()
    );

    // Pick a test racing removeFirst against removeFirst through two
    // wrappers — the exact scenario of paper Fig. 3.
    let sync_class = prog
        .class_by_name("SynchronizedWriteBehindQueue")
        .expect("class exists");
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
        .expect("removeFirst||removeFirst test synthesized");
    println!("\nsynthesized racy client (cf. paper Fig. 3):");
    println!("{}", test.plan.render(&prog));

    // Execute under random schedules with the lockset detector attached.
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut first_race: Option<StaticRaceKey> = None;
    for seed in 0..20 {
        let mut machine = Machine::with_defaults(&prog, &mir);
        let mut detector = LocksetDetector::new();
        let mut sched = RandomScheduler::new(seed);
        execute_plan(
            &mut machine,
            &seeds,
            &test.plan,
            &mut sched,
            &mut detector,
            2_000_000,
        )
        .expect("test executes");
        if let Some(r) = detector.races().first() {
            println!("\nlockset detector: {}", r.render(&prog));
            first_race = Some(r.static_key());
            break;
        }
    }

    // Confirm it with the RaceFuzzer-style directed scheduler.
    let key = first_race.expect("the wrapper race is always detectable");
    for trial in 0..10 {
        let mut machine = Machine::with_defaults(&prog, &mir);
        let mut sched = RaceFuzzerScheduler::new(key, trial);
        let mut sink = VecSink::new();
        execute_plan(
            &mut machine,
            &seeds,
            &test.plan,
            &mut sched,
            &mut sink,
            2_000_000,
        )
        .expect("test executes");
        if let Some(c) = sched.confirmed.first() {
            println!(
                "racefuzzer: race REPRODUCED on {}.{} — {}",
                c.obj,
                c.field,
                if c.benign { "benign" } else { "harmful" }
            );
            return;
        }
    }
    println!("racefuzzer: not reproduced in 10 directed trials");
}
