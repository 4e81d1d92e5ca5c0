//! Regenerates the **§5 ConTeGe comparison**: for every corpus class, how
//! many randomly generated concurrent tests the ConTeGe-style baseline
//! needs before its crash/deadlock oracle fires — versus Narada's directed
//! synthesis, which needs only its (small) synthesized suite.
//!
//! The paper: ConTeGe found violations only in C5 (2, after 2.9K tests)
//! and C6 (1, after 105 tests); elsewhere it generated 1K–70K tests and
//! found nothing. Expected shape here: the baseline needs orders of
//! magnitude more tests than Narada synthesizes, and finds violations only
//! where crashes (not just races) are reachable.
//!
//! `NARADA_CONTEGE_BUDGET` caps generated tests per class (default 1500).

use narada_bench::{render_table, synthesize_corpus};
use narada_contege::{run_contege, ContegeOptions};
use narada_core::SynthesisOptions;

fn main() {
    let budget: usize = std::env::var("NARADA_CONTEGE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    let runs = synthesize_corpus(&SynthesisOptions::default(), 1);
    let mut rows = Vec::new();
    for r in &runs {
        let opts = ContegeOptions {
            max_tests: budget,
            seed: 0xc0de ^ r.entry.id.len() as u64 ^ (r.entry.id.as_bytes()[1] as u64),
            stop_at_first: true,
            ..Default::default()
        };
        let result = run_contege(&r.prog, &r.mir, &opts);
        rows.push(vec![
            r.entry.id.to_string(),
            r.out.test_count().to_string(),
            result.tests_generated.to_string(),
            result
                .first_violation_at()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            result.violations.len().to_string(),
            result
                .violations
                .first()
                .map(|v| format!("{:?}", v.kind))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("ConTeGe comparison (paper §5): random search vs directed synthesis");
    println!("(paper: ConTeGe found 2 violations in C5 after 2.9K tests, 1 in C6 after 105;");
    println!(" elsewhere 1K-70K tests, none found)");
    print!(
        "{}",
        render_table(
            &[
                "Class",
                "Narada tests",
                "ConTeGe tests",
                "First violation",
                "Violations",
                "Kind",
            ],
            &rows
        )
    );
}
