//! Quickstart: synthesize racy tests for the paper's Fig. 1 library and
//! confirm the race end-to-end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use narada::detect::{evaluate_test_observed, DetectConfig};
use narada::Obs;
use narada::{synthesize_source, SynthesisOptions};

fn main() {
    // The paper's Fig. 1: `update` is synchronized, so the library *looks*
    // thread-safe — but two Lib objects sharing one Counter race on
    // `count` because each thread holds only its own receiver's monitor.
    let src = r#"
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

    // Stage 1-3: trace the sequential seed, analyze, derive contexts,
    // synthesize multithreaded tests.
    let (prog, mir, out) =
        synthesize_source(src, &SynthesisOptions::default()).expect("library compiles");
    println!(
        "analysis: {} racing pairs → {} synthesized tests\n",
        out.pair_count(),
        out.test_count()
    );
    for test in &out.tests {
        println!("--- synthesized test #{} ---", test.index);
        println!("{}", test.plan.render(&prog));
    }

    // Stage 4: run each synthesized test under the detectors.
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let cfg = DetectConfig::default();
    for test in &out.tests {
        let report = evaluate_test_observed(&prog, &mir, &seeds, &test.plan, &cfg, 0, &Obs::new());
        println!(
            "test #{}: {} race(s) detected, {} reproduced ({} harmful, {} benign)",
            test.index,
            report.detected.len(),
            report.reproduced.len(),
            report.harmful(),
            report.benign(),
        );
    }
}
