//! Regenerates **Figure 14 — Distribution of tests w.r.t. the number of
//! detected races**: for every class, the percentage of synthesized tests
//! that detect 0, 1, 2, 3–5, 5–10, or >10 races, printed as an ASCII bar
//! chart plus the raw series.
//!
//! Environment knobs as in `table5` (`NARADA_SCHEDULES`,
//! `NARADA_CONFIRMS`, `NARADA_MAX_TESTS`).

use narada_bench::{
    env_threads, fig14_distribution, render_table, synthesize_corpus, FIG14_BUCKETS,
};
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
    let cfg = DetectConfig {
        schedule_trials: env_usize("NARADA_SCHEDULES", 4),
        confirm_trials: env_usize("NARADA_CONFIRMS", 1),
        seed: 0xf1614,
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
    let mut all_dists = Vec::new();
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
        let dist = fig14_distribution(&agg.per_test_races);
        let mut row = vec![r.entry.id.to_string()];
        for pct in dist {
            row.push(format!("{pct:.0}%"));
        }
        rows.push(row);
        all_dists.push((r.entry.id, dist));
    }
    println!("Figure 14: distribution of tests w.r.t. the number of detected races");
    let headers: Vec<&str> = std::iter::once("Class")
        .chain(FIG14_BUCKETS.iter().copied())
        .collect();
    print!("{}", render_table(&headers, &rows));

    // ASCII stacked bars, one per class (each █ ≈ 5%).
    println!("\nraces per test:   0 '.'  1 '1'  2 '2'  3-5 '3'  5-10 '5'  >10 '+'");
    for (id, dist) in all_dists {
        let symbols = ['.', '1', '2', '3', '5', '+'];
        let mut bar = String::new();
        for (i, pct) in dist.iter().enumerate() {
            let blocks = (pct / 5.0).round() as usize;
            bar.extend(std::iter::repeat_n(symbols[i], blocks));
        }
        println!("{id:>3} |{bar}");
    }
}
