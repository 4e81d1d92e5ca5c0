//! Directed synthesis vs random search (the paper's §5 ConTeGe
//! comparison), on the C9 `CharArrayReader` — the class whose race
//! (`close` vs `read`) can actually crash, which is the only kind of
//! defect the random baseline's oracle can see.
//!
//! ```sh
//! cargo run --release --example narada_vs_random
//! ```

use narada::contege::{run_contege, ContegeOptions};
use narada::detect::{evaluate_suite_full, DetectConfig};
use narada::lang::lower::lower_program;
use narada::Obs;
use narada::{synthesize_observed, SynthesisOptions};
use std::time::Instant;

fn main() {
    let entry = narada::corpus::c9();
    let prog = entry.compile().expect("corpus compiles");
    let mir = lower_program(&prog);

    // Narada: directed synthesis.
    let t0 = Instant::now();
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let agg = evaluate_suite_full(
        &prog,
        &mir,
        &seeds,
        &plans,
        &DetectConfig {
            schedule_trials: 6,
            confirm_trials: 4,
            ..Default::default()
        },
        &Obs::new(),
    )
    .1;
    println!(
        "narada : {:>5} tests → {} races detected, {} reproduced harmful ({:.2?})",
        out.test_count(),
        agg.races_detected,
        agg.harmful,
        t0.elapsed()
    );

    // ConTeGe: random search with a crash/deadlock oracle.
    let t1 = Instant::now();
    let result = run_contege(
        &prog,
        &mir,
        &ContegeOptions {
            max_tests: 5_000,
            seed: 99,
            stop_at_first: true,
            ..Default::default()
        },
    );
    match result.first_violation_at() {
        Some(n) => println!(
            "contege: {n:>5} tests until the first violation ({:?}, {:.2?})",
            result.violations[0].kind,
            t1.elapsed()
        ),
        None => println!(
            "contege: {:>5} tests, no violation found ({:.2?})",
            result.tests_generated,
            t1.elapsed()
        ),
    }
    println!(
        "\nthe directed pipeline needs ~{}x fewer executions than random search",
        (result.tests_generated.max(1)) / out.test_count().max(1)
    );
}
