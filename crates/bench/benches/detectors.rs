//! Micro-benchmark for the dynamic race detectors: events/second of the
//! Eraser lockset and FastTrack happens-before sinks on a recorded
//! concurrent trace, RaceFuzzer confirmation latency, and the detectors'
//! share of detection time.
//!
//! The share comes from isolation: every detection trial of a class at
//! the `narada detect` defaults (6 random schedules per test, seed 42,
//! 2M-step budget, tree-walk engine) runs on one thread under a
//! `NullSink`, under each detector alone and under both, with the same
//! seeds, so the differences are the detectors' cost. C1 carries the
//! runaway-trial tail; C4 spreads its accesses over many array elements.

use narada_bench::harness::{bench_function, bench_throughput};
use narada_bench::render_table;
use narada_core::{execute_plan, synthesize_observed, SynthesisOptions};
use narada_detect::{DjitDetector, FastTrackDetector, LocksetDetector, RaceFuzzerScheduler};
use narada_lang::lower::lower_program;
use narada_obs::Obs;
use narada_vm::rng::derive_seed;
use narada_vm::{
    EventSink, Machine, MachineOptions, NullSink, RandomScheduler, ScheduleStrategy, TeeSink,
    VecSink,
};
use std::time::{Duration, Instant};

/// Records one concurrent execution of C1's first race-expecting test.
fn record_trace() -> (
    narada_lang::hir::Program,
    narada_lang::mir::MirProgram,
    Vec<narada_vm::Event>,
    narada_core::TestPlan,
) {
    let entry = narada_corpus::c1();
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    let plan = out
        .tests
        .iter()
        .find(|t| t.plan.expects_race)
        .expect("race-expecting plan")
        .plan
        .clone();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut machine = Machine::with_defaults(&prog, &mir);
    let mut sink = VecSink::new();
    let mut sched = RandomScheduler::new(3);
    execute_plan(
        &mut machine,
        &seeds,
        &plan,
        &mut sched,
        &mut sink,
        2_000_000,
    )
    .unwrap();
    (prog, mir, sink.events, plan)
}

fn bench_detectors() {
    let (_prog, _mir, events, _plan) = record_trace();
    let n = events.len() as u64;

    bench_throughput("detectors/lockset", n, || {
        let mut d = LocksetDetector::new();
        for ev in &events {
            d.event(ev);
        }
        d.races().len()
    });

    bench_throughput("detectors/fasttrack", n, || {
        let mut d = FastTrackDetector::new();
        for ev in &events {
            d.event(ev);
        }
        d.races().len()
    });

    // The FastTrack-paper comparison: epochs vs full vector clocks.
    bench_throughput("detectors/djit_plus", n, || {
        let mut d = DjitDetector::new();
        for ev in &events {
            d.event(ev);
        }
        d.races().len()
    });
}

fn bench_confirmation() {
    let (prog, mir, events, plan) = record_trace();
    // Find a race target from a lockset pass.
    let mut d = LocksetDetector::new();
    for ev in &events {
        d.event(ev);
    }
    let Some(first) = d.races().first() else {
        return;
    };
    let key = first.static_key();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    bench_function("racefuzzer/confirm_c1", || {
        let mut machine = Machine::with_defaults(&prog, &mir);
        let mut sched = RaceFuzzerScheduler::new(key, 1);
        let mut sink = narada_vm::NullSink;
        execute_plan(
            &mut machine,
            &seeds,
            &plan,
            &mut sched,
            &mut sink,
            2_000_000,
        )
        .unwrap();
        sched.confirmed.len()
    });
}

/// The sink a detection trial runs under in the isolation table.
#[derive(Clone, Copy)]
enum Sinks {
    Null,
    Lockset,
    FastTrack,
    Both,
}

/// Wall time of every detection trial of `run` at the `narada detect`
/// defaults, run sequentially under `sinks`.
fn detection_trials(run: &narada_bench::ClassRun, sinks: Sinks) -> Duration {
    // `narada detect` defaults and the detection pass's seed stages.
    const SEED: u64 = 42;
    const SCHEDULES: u64 = 6;
    const BUDGET: u64 = 2_000_000;
    let seeds: Vec<_> = run.prog.tests.iter().map(|t| t.id).collect();
    let start = Instant::now();
    for (i, test) in run.out.tests.iter().enumerate() {
        for trial in 0..SCHEDULES {
            let opts = MachineOptions {
                seed: derive_seed(SEED, &[1, i as u64, trial]),
                ..MachineOptions::default()
            };
            let mut machine = Machine::new(&run.prog, &run.mir, opts);
            let mut sched =
                ScheduleStrategy::Random.build(derive_seed(SEED, &[2, i as u64, trial]), 1_000);
            let mut exec = |sink: &mut dyn EventSink| {
                let _ = execute_plan(&mut machine, &seeds, &test.plan, &mut *sched, sink, BUDGET);
            };
            match sinks {
                Sinks::Null => exec(&mut NullSink),
                Sinks::Lockset => exec(&mut LocksetDetector::new()),
                Sinks::FastTrack => exec(&mut FastTrackDetector::new()),
                Sinks::Both => exec(&mut TeeSink {
                    a: &mut LocksetDetector::new(),
                    b: &mut FastTrackDetector::new(),
                }),
            }
        }
    }
    start.elapsed()
}

fn bench_isolation() {
    const REPS: usize = 5;
    let columns = [
        ("NullSink", Sinks::Null),
        ("+ lockset", Sinks::Lockset),
        ("+ FastTrack", Sinks::FastTrack),
        ("both", Sinks::Both),
    ];
    let mut rows = Vec::new();
    for id in ["C1", "C4"] {
        let entry = narada_corpus::by_id(id).expect("corpus class");
        let run = narada_bench::ClassRun::synthesize(entry, &SynthesisOptions::default());
        // Repetitions interleave the sinks so host drift hits all alike.
        let mut walls: Vec<Vec<Duration>> = vec![Vec::new(); columns.len()];
        for _ in 0..REPS {
            for (col, (_, sinks)) in columns.iter().enumerate() {
                walls[col].push(detection_trials(&run, *sinks));
            }
        }
        let mut row = vec![id.to_string()];
        let mut medians = Vec::new();
        for mut w in walls {
            w.sort();
            let median = w[w.len() / 2];
            medians.push(median);
            row.push(format!("{:.2} s", median.as_secs_f64()));
        }
        let share = 1.0 - medians[0].as_secs_f64() / medians[3].as_secs_f64();
        row.push(format!("{:.0}%", share * 100.0));
        rows.push(row);
    }
    let mut headers = vec!["class"];
    headers.extend(columns.iter().map(|(name, _)| *name));
    headers.push("detector share");
    println!("detection trials by sink (median of {REPS}):");
    print!("{}", render_table(&headers, &rows));
}

fn main() {
    bench_detectors();
    bench_confirmation();
    bench_isolation();
}
