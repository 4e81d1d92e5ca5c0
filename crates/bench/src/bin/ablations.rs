//! Ablation sweep over the design choices DESIGN.md calls out:
//!
//! * **A1 — strict unprotectedness** (§4): treating lock-correlated
//!   accesses as protected drops racing pairs (and with them, real races);
//! * **A2 — prefix-sharing fallback** (§4): disabling removes the
//!   zero-race fallback tests of Fig. 14;
//! * **A3 — lockset-aware sharing** (§3.3): disabling lets the deriver
//!   share receivers that hold a common lock, producing plans that cannot
//!   manifest their race.
//!
//! Printed per configuration: racing pairs, synthesized tests, and how
//! many plans expect to manifest a race.

use narada_bench::{env_threads, render_table, synthesize_corpus};
use narada_core::SynthesisOptions;

fn main() {
    let threads = env_threads();
    let base = SynthesisOptions {
        threads,
        ..SynthesisOptions::default()
    };
    let configs: Vec<(&str, SynthesisOptions)> = vec![
        ("baseline (paper)", base.clone()),
        (
            "A1 strict unprotected",
            SynthesisOptions {
                strict_unprotected: true,
                ..base.clone()
            },
        ),
        (
            "A2 no prefix fallback",
            SynthesisOptions {
                prefix_fallback: false,
                ..base.clone()
            },
        ),
        (
            "A3 lockset-blind sharing",
            SynthesisOptions {
                lockset_aware: false,
                ..base
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, opts) in &configs {
        let runs = synthesize_corpus(opts, threads);
        let pairs: usize = runs.iter().map(|r| r.out.pair_count()).sum();
        let tests: usize = runs.iter().map(|r| r.out.test_count()).sum();
        let expecting: usize = runs
            .iter()
            .flat_map(|r| &r.out.tests)
            .filter(|t| t.plan.expects_race)
            .count();
        rows.push(vec![
            name.to_string(),
            pairs.to_string(),
            tests.to_string(),
            expecting.to_string(),
        ]);
    }
    println!("Ablations over the full corpus (A1-A3, DESIGN.md §14)");
    print!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Race pairs",
                "Tests",
                "Race-expecting tests"
            ],
            &rows
        )
    );
}
