//! Differential corpus sweep: generate a fixed-seed lattice of MJ
//! library classes and cross-check the static screener against the full
//! dynamic pipeline on every one (see `narada-difftest`).
//!
//! The sweep size defaults to 64 classes (just under two passes over
//! the 36-point lattice, so every point is hit at least once and most
//! twice with different member noise); override with
//! `NARADA_DIFFTEST_COUNT`. Worker count comes from `NARADA_THREADS`
//! (the digest is thread-count independent by construction — CI
//! verifies this separately through the `narada difftest` CLI).
//!
//! An output path argument (e.g. `results/differential_testing.md`)
//! additionally writes the report there. Exits nonzero on any screener
//! soundness disagreement.

use narada_bench::{env_threads, render_table};
use narada_difftest::{run_sweep, DiffConfig, Discipline, Outcome, GENERATOR_VERSION};
use std::time::Instant;

fn main() {
    let out_path = std::env::args().nth(1);
    let threads = env_threads();
    let count: usize = std::env::var("NARADA_DIFFTEST_COUNT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let cfg = DiffConfig {
        count,
        threads,
        ..DiffConfig::default()
    };

    let start = Instant::now();
    let sweep = run_sweep(&cfg, &narada_obs::Obs::new());
    let wall = start.elapsed();

    // Per-discipline tally: the interesting split, since the discipline
    // axis decides whether races are expected to manifest at all.
    let mut rows = Vec::new();
    for d in Discipline::ALL {
        let in_bucket: Vec<_> = sweep
            .reports
            .iter()
            .filter(|r| r.spec.discipline == d)
            .collect();
        let sum = |f: fn(&narada_difftest::ClassReport) -> usize| -> usize {
            in_bucket.iter().map(|r| f(r)).sum()
        };
        let misses = in_bucket
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::PrecisionMiss))
            .count();
        rows.push(vec![
            d.tag().to_string(),
            in_bucket.len().to_string(),
            sum(|r| r.pairs).to_string(),
            sum(|r| r.discharged).to_string(),
            sum(|r| r.survivors).to_string(),
            sum(|r| r.confirmed).to_string(),
            misses.to_string(),
        ]);
    }
    let table = render_table(
        &[
            "discipline",
            "classes",
            "pairs",
            "discharged",
            "survivors",
            "confirmed",
            "miss",
        ],
        &rows,
    );

    println!(
        "Differential corpus sweep (seed {:#x}, v{GENERATOR_VERSION})",
        cfg.seed
    );
    print!("{table}");
    println!("{}", sweep.summary());
    println!("wall: {:.1}s", wall.as_secs_f64());

    let report = format!(
        "# Differential corpus testing\n\n\
         `narada difftest` synthesizes complete MJ library classes across\n\
         the field-kind × locking-discipline × sharing-shape lattice and\n\
         runs each through both the static screener and the dynamic\n\
         pipeline as each other's oracle (DESIGN.md §8). Fixed sweep:\n\
         seed `{seed:#x}`, generator v{GENERATOR_VERSION}, {count}\n\
         classes, digest `{digest:016x}`.\n\n\
         Per locking discipline:\n\n```text\n{table}```\n\n\
         {summary}\n\n\
         A *soundness* disagreement (screener `MustNotRace` on a\n\
         dynamically confirmed race) fails the run; a *precision miss*\n\
         (no race confirmed on a class whose discipline should manifest\n\
         one) is logged as a datapoint. The `guarded` bucket is the\n\
         negative control: its leaf accesses are fully monitor-protected,\n\
         so its confirmations come only from the deliberately unguarded\n\
         sharing-installation fields.\n",
        seed = cfg.seed,
        count = cfg.count,
        digest = sweep.digest,
        summary = sweep.summary(),
    );
    if let Some(path) = out_path {
        std::fs::write(&path, &report).expect("write results file");
        eprintln!("wrote {path}");
    }

    let sound = sweep.soundness();
    if !sound.is_empty() {
        for r in sound {
            eprintln!("SOUNDNESS {}", r.summary());
        }
        std::process::exit(1);
    }
}
