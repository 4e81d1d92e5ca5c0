//! Regenerates **Table 5 — Analysis of synthesized tests by RaceFuzzer**:
//! per class, the distinct races detected, the reproduced races triaged
//! harmful/benign, and the detected-but-unreproduced remainder (the
//! paper's manually-triaged column).
//!
//! Environment knobs: `NARADA_SCHEDULES` (random schedules per test,
//! default 4), `NARADA_CONFIRMS` (directed attempts per race, default 3),
//! `NARADA_MAX_TESTS` (cap on tests evaluated per class, default
//! unlimited).

use narada_bench::{env_threads, render_table, synthesize_corpus};
use narada_core::SynthesisOptions;
use narada_detect::{evaluate_suite_full, DetectConfig};
use narada_obs::Obs;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let threads = env_threads();
    let wall = std::time::Instant::now();
    let cfg = DetectConfig {
        schedule_trials: env_usize("NARADA_SCHEDULES", 4),
        confirm_trials: env_usize("NARADA_CONFIRMS", 3),
        seed: 0x7ab1e5,
        budget: 2_000_000,
        threads,
        ..DetectConfig::default()
    };
    let max_tests = env_usize("NARADA_MAX_TESTS", usize::MAX);
    let runs = synthesize_corpus(
        &SynthesisOptions {
            threads,
            ..SynthesisOptions::default()
        },
        threads,
    );
    let mut rows = Vec::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for r in &runs {
        let seeds: Vec<_> = r.prog.tests.iter().map(|t| t.id).collect();
        let plans: Vec<_> = r
            .out
            .tests
            .iter()
            .take(max_tests)
            .map(|t| &t.plan)
            .collect();
        let agg = evaluate_suite_full(&r.prog, &r.mir, &seeds, &plans, &cfg, &Obs::new()).1;
        totals.0 += agg.races_detected;
        totals.1 += agg.harmful;
        totals.2 += agg.benign;
        totals.3 += agg.unreproduced;
        let p = &r.entry.paper;
        rows.push(vec![
            r.entry.id.to_string(),
            format!("{} ({})", agg.races_detected, p.races_detected),
            format!("{} ({})", agg.harmful, p.harmful),
            format!("{} ({})", agg.benign, p.benign),
            format!("{} ({})", agg.unreproduced, p.manual_tp + p.manual_fp),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        format!("{} (307)", totals.0),
        format!("{} (187)", totals.1),
        format!("{} (72)", totals.2),
        format!("{} (48)", totals.3),
    ]);
    println!("Table 5: Analysis of synthesized tests by the RaceFuzzer-style detector");
    println!("measured (paper) per cell; 'Unreproduced' = detected - reproduced");
    println!(
        "threads = {} (NARADA_THREADS), wall-clock {:.3}s",
        narada_core::effective_threads(threads),
        wall.elapsed().as_secs_f64()
    );
    print!(
        "{}",
        render_table(
            &[
                "Class",
                "Races Detected",
                "Harmful",
                "Benign",
                "Unreproduced"
            ],
            &rows
        )
    );
}
