//! Regenerates **Table 4 — Synthesized test count and synthesis time**:
//! per class, the number of methods, LoC, racing pairs, synthesized tests,
//! and wall-clock synthesis time, with the paper's values alongside.
//!
//! Absolute counts differ from the paper (different substrate); the shape
//! to check: pairs ≫ tests, C2/C5/C6 dominating the pair counts, and total
//! synthesis time far under the paper's four minutes.

use narada_bench::{env_threads, render_table, secs, synthesize_corpus};
use narada_core::SynthesisOptions;

fn main() {
    let threads = env_threads();
    let wall = std::time::Instant::now();
    let runs = synthesize_corpus(
        &SynthesisOptions {
            threads,
            ..SynthesisOptions::default()
        },
        threads,
    );
    let wall = wall.elapsed();
    let mut rows = Vec::new();
    let mut total_pairs = 0usize;
    let mut total_tests = 0usize;
    let mut total_time = std::time::Duration::ZERO;
    for r in &runs {
        total_pairs += r.out.pair_count();
        total_tests += r.out.test_count();
        total_time += r.out.elapsed;
        rows.push(vec![
            r.entry.id.to_string(),
            r.entry.method_count(&r.prog).to_string(),
            r.entry.loc().to_string(),
            format!("{} ({})", r.out.pair_count(), r.entry.paper.race_pairs),
            format!("{} ({})", r.out.test_count(), r.entry.paper.tests),
            format!("{} ({})", secs(r.out.elapsed), r.entry.paper.time_secs),
        ]);
    }
    rows.push(vec![
        "Total".into(),
        String::new(),
        String::new(),
        format!("{total_pairs} (466)"),
        format!("{total_tests} (101)"),
        format!("{} (201.3)", secs(total_time)),
    ]);
    println!("Table 4: Synthesized test count and synthesis time");
    println!("measured (paper) per cell");
    println!(
        "threads = {} (NARADA_THREADS), wall-clock {}s",
        narada_core::effective_threads(threads),
        secs(wall)
    );
    print!(
        "{}",
        render_table(
            &["Class", "Methods", "LoC", "Race Pairs", "Tests", "Time (s)"],
            &rows
        )
    );
}
