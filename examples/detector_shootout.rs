//! Detector comparison on one synthesized test: Eraser lockset vs
//! FastTrack happens-before vs RaceFuzzer-style confirmation — and why the
//! paper pairs synthesis with an *active* detector.
//!
//! Happens-before misses races whose accesses happen to be ordered by a
//! release→acquire edge in the observed schedule; the lockset discipline
//! catches them in any schedule; the directed scheduler proves them real.
//!
//! ```sh
//! cargo run --example detector_shootout
//! ```

use narada::core::execute_plan;
use narada::detect::{FastTrackDetector, LocksetDetector, RaceFuzzerScheduler};
use narada::lang::lower::lower_program;
use narada::vm::{Machine, RandomScheduler, TeeSink};
use narada::{compile, synthesize_observed, Obs, SynthesisOptions};

fn main() {
    let src = r#"
        class Buffer {
            int[] data;
            int size;
            init(int cap) { this.data = new int[cap]; this.size = 0; }
            void push(int v) {
                if (this.size < this.data.length) {
                    this.data[this.size] = v;
                    this.size = this.size + 1;
                }
            }
            sync int pop() {
                if (this.size == 0) { return 0 - 1; }
                this.size = this.size - 1;
                return this.data[this.size];
            }
            int len() { return this.size; }
        }
        test seed {
            var b = new Buffer(8);
            b.push(1);
            var n = b.len();
            var x = b.pop();
        }
    "#;
    let prog = compile(src).expect("compiles");
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    println!(
        "{} racing pairs, {} synthesized tests",
        out.pair_count(),
        out.test_count()
    );
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    for test in out.tests.iter().filter(|t| t.plan.expects_race).take(3) {
        let m0 = prog.qualified_name(test.plan.racy[0].method);
        let m1 = prog.qualified_name(test.plan.racy[1].method);
        println!("\n=== test #{}: {m0} || {m1} ===", test.index);

        let mut lockset_hits = 0usize;
        let mut hb_hits = 0usize;
        let mut fine_keys = Vec::new();
        for seed in 0..10 {
            let mut machine = Machine::with_defaults(&prog, &mir);
            let mut lockset = LocksetDetector::new();
            let mut hb = FastTrackDetector::new();
            let mut sink = TeeSink {
                a: &mut lockset,
                b: &mut hb,
            };
            let mut sched = RandomScheduler::new(seed);
            if execute_plan(
                &mut machine,
                &seeds,
                &test.plan,
                &mut sched,
                &mut sink,
                1_000_000,
            )
            .is_err()
            {
                continue;
            }
            lockset_hits += usize::from(!lockset.races().is_empty());
            hb_hits += usize::from(!hb.races().is_empty());
            fine_keys.extend(lockset.races().iter().map(|r| r.static_key()));
        }
        println!("lockset  : race visible in {lockset_hits}/10 random schedules");
        println!("fasttrack: race visible in {hb_hits}/10 random schedules");

        fine_keys.sort();
        fine_keys.dedup();
        let mut confirmed = 0usize;
        for key in fine_keys.iter().take(5) {
            for trial in 0..5 {
                let mut machine = Machine::with_defaults(&prog, &mir);
                let mut sched = RaceFuzzerScheduler::new(*key, trial);
                let mut sink = narada::vm::NullSink;
                if execute_plan(
                    &mut machine,
                    &seeds,
                    &test.plan,
                    &mut sched,
                    &mut sink,
                    1_000_000,
                )
                .is_ok()
                    && !sched.confirmed.is_empty()
                {
                    confirmed += 1;
                    break;
                }
            }
        }
        println!(
            "racefuzzer: {confirmed}/{} candidate site-pairs reproduced",
            fine_keys.len().min(5)
        );
    }
}
