//! Differential fork-vs-rerun harness (the explorer half of the engine
//! differential suite).
//!
//! The snapshot-forking explorer is the default trial path, and it is
//! only allowed to be because it is provably the same exploration as the
//! re-execution oracle: every test here runs identical detection
//! workloads under `ExploreMode::Rerun` and `ExploreMode::Fork` and
//! demands byte-identical observable output — per-test verdicts
//! (detected keys, confirmed races with their full replayable schedules
//! and provenance digests), setup-error strings, and run-manifest metric
//! sections, the latter compared after removing the one fork-only
//! counter (`FORK_ONLY_METRICS`: `explore.prefix_rng_fallbacks`, present
//! only when a test's prefix drew from the RNG). Fork-mode output must
//! additionally be byte-identical at `--threads 1/2/8` (the fork tree is
//! sharded across workers with per-worker machine state — worker count
//! must not leak). Two small classes pin the fallback to fresh starts:
//! one whose prefix calls `rand()`, one whose capture misses.
//!
//! Quick mode covers C1–C5 and an 8-class difftest slice; set
//! `NARADA_FORK_FULL=1` for the C1–C9 × threads 1/2/8 matrix and the
//! 32-class slice (the CI sweep in `scripts/ci.sh` runs the same shapes
//! through the binaries).

use narada_core::{synthesize_source, SynthesisOptions, SynthesisOutput};
use narada_detect::{
    evaluate_suite_full, ClassDetection, DetectConfig, ExploreMode, TestReport, FORK_ONLY_METRICS,
};
use narada_difftest::{run_sweep, DiffConfig};
use narada_explore::prepare_fork_point;
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{MetricValue, Obs, RunManifest};
use narada_vm::{Engine, Machine, MachineOptions, NullSink, ScheduleStrategy};

fn full() -> bool {
    std::env::var("NARADA_FORK_FULL").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn cfg(explore: ExploreMode, threads: usize) -> DetectConfig {
    DetectConfig {
        schedule_trials: 5,
        confirm_trials: 4,
        seed: 0xf04c,
        budget: 1_000_000,
        threads,
        strategy: ScheduleStrategy::Pct { depth: 3 },
        explore,
        ..DetectConfig::default()
    }
}

/// Everything a mode/thread-count run observably produced, as one byte
/// string: per-test reports (schedules, provenance, error strings — all
/// Debug-visible) plus the deterministic aggregate fields (wall clock
/// excluded; it is the one legitimately nondeterministic field).
fn render_verdicts(reports: &[TestReport], agg: &ClassDetection) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            out,
            "test {i}: detected={:?} reproduced={:?} errors={:?}",
            r.detected, r.reproduced, r.setup_errors
        );
    }
    let _ = writeln!(
        out,
        "agg: detected={} harmful={} benign={} unreproduced={} per_test={:?} jobs={}",
        agg.races_detected, agg.harmful, agg.benign, agg.unreproduced, agg.per_test_races, agg.jobs
    );
    out
}

/// The manifest's deterministic metric section (wall gauges are split
/// out by `from_obs`), optionally with fork-only counters removed for
/// cross-mode comparison.
fn render_metrics(obs: &Obs, scrub_fork_only: bool) -> String {
    let mut m = RunManifest::from_obs("fork-diff", 1, obs);
    if scrub_fork_only {
        m.metrics
            .retain(|(k, _)| !FORK_ONLY_METRICS.contains(&k.as_str()));
    }
    m.metrics_json().to_compact()
}

fn synth(source: &str) -> (Program, MirProgram, SynthesisOutput) {
    synthesize_source(
        source,
        &SynthesisOptions {
            threads: 1,
            ..SynthesisOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("synthesis failed: {e:?}"))
}

/// One full detection run over a synthesized suite, collecting objects
/// from `seeds`.
fn run_suite(
    (prog, mir, out): &(Program, MirProgram, SynthesisOutput),
    seeds: &[TestId],
    explore: ExploreMode,
    threads: usize,
    engine: Engine,
) -> (String, String, String, Obs) {
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let obs = Obs::new();
    let c = DetectConfig {
        engine,
        ..cfg(explore, threads)
    };
    let (reports, agg) = evaluate_suite_full(prog, mir, seeds, &plans, &c, &obs);
    (
        render_verdicts(&reports, &agg),
        render_metrics(&obs, false),
        render_metrics(&obs, true),
        obs,
    )
}

/// One full detection run over a class's synthesized suite.
fn run_class(
    entry: &narada_corpus::CorpusEntry,
    explore: ExploreMode,
    threads: usize,
    engine: Engine,
) -> (String, String, String, Obs) {
    let suite = synth(entry.source);
    let seeds: Vec<_> = suite.0.tests.iter().map(|t| t.id).collect();
    run_suite(&suite, &seeds, explore, threads, engine)
}

/// How many of the class's synthesized plans reach a fork point: proof
/// that a fork-mode run actually probed from forks.
fn plans_that_fork(source: &str) -> usize {
    let (prog, mir, out) = synth(source);
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    out.tests
        .iter()
        .filter(|t| {
            let mut m = Machine::new(&prog, &mir, MachineOptions::default());
            prepare_fork_point(&mut m, &seeds, &t.plan, &mut NullSink).is_ok()
        })
        .count()
}

/// The acceptance matrix: fork verdicts/manifests byte-identical to
/// rerun on the manual corpus, at every thread count, under both
/// engines' default (tree-walk here; the bytecode leg runs in
/// `fork_matches_rerun_bytecode`).
#[test]
fn fork_matches_rerun_on_corpus() {
    let entries = narada_corpus::all();
    let take = if full() { entries.len() } else { 5 };
    let thread_counts: &[usize] = &[1, 2, 8];
    let mut forked_somewhere = false;
    for entry in entries.iter().take(take) {
        forked_somewhere |= plans_that_fork(entry.source) > 0;
        let (rerun_verdicts, rerun_metrics, rerun_scrubbed, rerun_obs) =
            run_class(entry, ExploreMode::Rerun, 1, Engine::TreeWalk);
        // Rerun mode must emit no fork-only counter at all.
        assert_eq!(
            rerun_metrics, rerun_scrubbed,
            "{}: rerun manifests must not contain explore fork counters",
            entry.id
        );
        drop(rerun_obs);
        let mut fork_baseline: Option<(String, String)> = None;
        for &threads in thread_counts {
            let (verdicts, _, scrubbed, obs) =
                run_class(entry, ExploreMode::Fork, threads, Engine::TreeWalk);
            assert_eq!(
                verdicts, rerun_verdicts,
                "{}: fork verdicts diverge from rerun at threads={threads}",
                entry.id
            );
            assert_eq!(
                scrubbed, rerun_metrics,
                "{}: fork manifest (scrubbed) diverges from rerun at threads={threads}",
                entry.id
            );
            let unscrubbed = render_metrics(&obs, false);
            match &fork_baseline {
                None => fork_baseline = Some((verdicts, unscrubbed)),
                Some((base_v, base_m)) => {
                    assert_eq!(&verdicts, base_v, "{}: threads={threads}", entry.id);
                    assert_eq!(
                        &unscrubbed, base_m,
                        "{}: fork-only counters depend on worker count (threads={threads})",
                        entry.id
                    );
                }
            }
        }
    }
    assert!(
        forked_somewhere,
        "no class ever took the fork path — the differential proved nothing"
    );
}

/// The same contract under the bytecode engine (one class quick, three
/// full): the fork explorer must compose with compiled dispatch.
#[test]
fn fork_matches_rerun_bytecode() {
    let entries = narada_corpus::all();
    let take = if full() { 3 } else { 1 };
    for entry in entries.iter().take(take) {
        let (rerun_verdicts, rerun_metrics, _, _) =
            run_class(entry, ExploreMode::Rerun, 1, Engine::Bytecode);
        for threads in [1, 2] {
            let (verdicts, _, scrubbed, _) =
                run_class(entry, ExploreMode::Fork, threads, Engine::Bytecode);
            assert_eq!(
                verdicts, rerun_verdicts,
                "{}: bytecode fork verdicts",
                entry.id
            );
            assert_eq!(
                scrubbed, rerun_metrics,
                "{}: bytecode fork manifest",
                entry.id
            );
        }
    }
}

/// Table-3 comparability: `detect.trials_to_first_confirm` must be
/// identical across modes. And a fork run adds no always-on key to the
/// manifest: on C1, whose every prefix forks, the whole metric section
/// equals rerun's, unscrubbed.
#[test]
fn trials_to_first_confirm_comparable_across_modes() {
    let entry = narada_corpus::c1();
    let (_, rerun_metrics, _, _) = run_class(&entry, ExploreMode::Rerun, 1, Engine::TreeWalk);
    let (_, fork_metrics, _, _) = run_class(&entry, ExploreMode::Fork, 1, Engine::TreeWalk);
    let histo = "\"detect.trials_to_first_confirm\"";
    assert!(rerun_metrics.contains(histo), "{rerun_metrics}");
    let extract = |s: &str| {
        let i = s.find(histo).unwrap();
        s[i..s[i..].find('}').map_or(s.len(), |j| i + j + 1)].to_string()
    };
    assert_eq!(extract(&rerun_metrics), extract(&fork_metrics));
    let (_, _, out) = synth(entry.source);
    assert_eq!(plans_that_fork(entry.source), out.tests.len());
    assert_eq!(fork_metrics, rerun_metrics);
}

/// A seed test that calls `rand()` before reaching the racy calls: its
/// prefix is seed-dependent, so no plan can fork.
const RNG_PREFIX: &str = r#"
    class Cell {
        int v;
        void put(int x) { this.v = x; }
        int get() { return this.v; }
    }
    test seed { var c = new Cell(); var r = rand(); c.put(r); var g = c.get(); }
"#;

/// `use_cell` is the only seed test that calls `Cell`'s methods; object
/// collection from `bystander` alone misses every capture.
const CAPTURE_MISS: &str = r#"
    class Cell {
        int v;
        void put(int x) { this.v = x; }
        int get() { return this.v; }
    }
    test use_cell { var c = new Cell(); c.put(1); var g = c.get(); }
    test bystander { var c = new Cell(); }
"#;

/// Runs `suite` under the default explorer at threads 1/2/8 and demands
/// the rerun oracle's verdicts, setup errors and scrubbed manifest, plus
/// a thread-invariant unscrubbed manifest. Returns the default run's
/// verdicts and unscrubbed manifest.
fn assert_fallback_matches_rerun(
    name: &str,
    suite: &(Program, MirProgram, SynthesisOutput),
    seeds: &[TestId],
) -> (String, String, Obs) {
    assert!(!suite.2.tests.is_empty(), "{name}: nothing synthesized");
    let (rerun_verdicts, rerun_metrics, _, _) =
        run_suite(suite, seeds, ExploreMode::Rerun, 1, Engine::TreeWalk);
    let mut baseline: Option<(String, String, Obs)> = None;
    for threads in [1, 2, 8] {
        let (verdicts, unscrubbed, scrubbed, obs) = run_suite(
            suite,
            seeds,
            ExploreMode::default(),
            threads,
            Engine::TreeWalk,
        );
        assert_eq!(verdicts, rerun_verdicts, "{name}: threads={threads}");
        assert_eq!(scrubbed, rerun_metrics, "{name}: threads={threads}");
        match &baseline {
            None => baseline = Some((verdicts, unscrubbed, obs)),
            Some((v, m, _)) => {
                assert_eq!(&verdicts, v, "{name}: threads={threads}");
                assert_eq!(&unscrubbed, m, "{name}: threads={threads}");
            }
        }
    }
    baseline.expect("three runs")
}

#[test]
fn rng_drawing_prefix_falls_back_to_rerun() {
    assert_eq!(ExploreMode::default(), ExploreMode::Fork);
    let suite = synth(RNG_PREFIX);
    let seeds: Vec<_> = suite.0.tests.iter().map(|t| t.id).collect();
    assert_eq!(plans_that_fork(RNG_PREFIX), 0, "every prefix draws");
    let (_, _, obs) = assert_fallback_matches_rerun("rng", &suite, &seeds);
    assert_eq!(
        obs.metrics.value("explore.prefix_rng_fallbacks"),
        Some(MetricValue::Counter(suite.2.tests.len() as u64)),
        "one RNG fallback per synthesized test"
    );
}

#[test]
fn capture_miss_falls_back_to_rerun() {
    let suite = synth(CAPTURE_MISS);
    let bystander: Vec<_> = suite
        .0
        .tests
        .iter()
        .filter(|t| t.name == "bystander")
        .map(|t| t.id)
        .collect();
    assert_eq!(bystander.len(), 1);
    let (verdicts, unscrubbed, _) = assert_fallback_matches_rerun("capture", &suite, &bystander);
    assert!(
        verdicts.contains("no seed invocation of Cell."),
        "every test must report its capture miss: {verdicts}"
    );
    assert!(
        !unscrubbed.contains("explore.prefix_rng_fallbacks"),
        "a failed prefix is not an RNG fallback: {unscrubbed}"
    );
}

/// Generated-lattice slice: whole difftest sweeps (screener vs dynamic
/// pipeline) must produce identical digests and summaries in both
/// explorer modes, at several thread counts.
#[test]
fn difftest_slice_mode_invariant() {
    let count = if full() { 32 } else { 8 };
    let sweep = |explore: ExploreMode, threads: usize| {
        let cfg = DiffConfig {
            count,
            threads,
            schedule_trials: 4,
            confirm_trials: 3,
            explore,
            ..DiffConfig::default()
        };
        let report = run_sweep(&cfg, &Obs::new());
        (report.digest, report.summary())
    };
    let baseline = sweep(ExploreMode::Rerun, 1);
    for &threads in if full() {
        &[1usize, 2, 8][..]
    } else {
        &[1usize, 2][..]
    } {
        assert_eq!(
            sweep(ExploreMode::Fork, threads),
            baseline,
            "difftest sweep diverges under fork explorer (threads={threads})"
        );
    }
}
