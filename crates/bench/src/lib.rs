//! # narada-bench — regenerating every table and figure of the paper
//!
//! One module per experiment; each binary prints the same rows/series the
//! paper reports (paper values alongside measured values):
//!
//! | Target | Paper artifact |
//! |--------|----------------|
//! | `table3` | Table 3 — benchmark inventory |
//! | `table4` | Table 4 — racing pairs, synthesized tests, synthesis time |
//! | `table5` | Table 5 — races detected / reproduced (harmful, benign) |
//! | `fig14`  | Figure 14 — distribution of tests w.r.t. detected races |
//! | `contege_compare` | §5 — ConTeGe random-search comparison |
//! | `ablations` | DESIGN.md A1–A3 design-choice ablations |

#![warn(missing_docs)]

pub mod harness;

use narada_core::{synthesize_observed, SynthesisOptions, SynthesisOutput};
use narada_corpus::CorpusEntry;
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::Obs;
use std::time::Duration;

/// A compiled corpus entry plus its synthesis output.
pub struct ClassRun {
    /// The corpus entry.
    pub entry: CorpusEntry,
    /// The compiled program.
    pub prog: Program,
    /// Its MIR.
    pub mir: MirProgram,
    /// Pipeline output.
    pub out: SynthesisOutput,
}

impl ClassRun {
    /// Runs synthesis for one corpus entry.
    pub fn synthesize(entry: CorpusEntry, opts: &SynthesisOptions) -> ClassRun {
        let prog = entry
            .compile()
            .unwrap_or_else(|e| panic!("{} failed to compile:\n{e}", entry.id));
        let mir = lower_program(&prog);
        let out = synthesize_observed(
            &prog,
            &mir,
            opts,
            Some(&narada_screen::screen_pairs),
            &Obs::new(),
        );
        ClassRun {
            entry,
            prog,
            mir,
            out,
        }
    }
}

/// Synthesizes all nine corpus classes, fanning the classes out across
/// the worker pool (`threads` = 0 means one worker per core).
///
/// Each class is one job on the outer pool; the per-class pipeline then
/// runs its own sharded stages sequentially (inner `threads = 1` whenever
/// the outer pool is parallel) so the machine is never oversubscribed.
/// Output is identical at any thread count: per-class synthesis is a pure
/// function of `(entry, opts)` and the result vector preserves corpus
/// order.
pub fn synthesize_corpus(opts: &SynthesisOptions, threads: usize) -> Vec<ClassRun> {
    let outer = narada_core::effective_threads(threads);
    let inner_opts = SynthesisOptions {
        threads: if outer > 1 { 1 } else { opts.threads },
        ..opts.clone()
    };
    let entries = narada_corpus::all();
    narada_core::parallel_map(threads, &entries, |_, entry| {
        ClassRun::synthesize(*entry, &inner_opts)
    })
}

/// Reads the shared `NARADA_THREADS` knob for the bench bins (`0` /
/// unset = one worker per core).
pub fn env_threads() -> usize {
    std::env::var("NARADA_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("| {:w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Figure 14's bucket labels.
pub const FIG14_BUCKETS: [&str; 6] = ["0", "1", "2", "3-5", "5-10", ">10"];

/// Buckets a per-test race count the way Figure 14 does.
pub fn fig14_bucket(races: usize) -> usize {
    match races {
        0 => 0,
        1 => 1,
        2 => 2,
        3..=5 => 3,
        6..=10 => 4,
        _ => 5,
    }
}

/// Computes the Figure 14 percentage distribution for one class.
pub fn fig14_distribution(per_test_races: &[usize]) -> [f64; 6] {
    let mut counts = [0usize; 6];
    for &r in per_test_races {
        counts[fig14_bucket(r)] += 1;
    }
    let total = per_test_races.len().max(1) as f64;
    let mut pct = [0.0; 6];
    for (i, &c) in counts.iter().enumerate() {
        pct[i] = 100.0 * c as f64 / total;
    }
    pct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_bucketing() {
        assert_eq!(fig14_bucket(0), 0);
        assert_eq!(fig14_bucket(1), 1);
        assert_eq!(fig14_bucket(2), 2);
        assert_eq!(fig14_bucket(3), 3);
        assert_eq!(fig14_bucket(5), 3);
        assert_eq!(fig14_bucket(6), 4);
        assert_eq!(fig14_bucket(10), 4);
        assert_eq!(fig14_bucket(11), 5);
    }

    #[test]
    fn fig14_distribution_sums_to_100() {
        let d = fig14_distribution(&[0, 1, 1, 4, 12]);
        let sum: f64 = d.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(d[1], 40.0);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["Class", "Pairs"],
            &[
                vec!["C1".into(), "65".into()],
                vec!["C2".into(), "131".into()],
            ],
        );
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{t}"
        );
    }
}
