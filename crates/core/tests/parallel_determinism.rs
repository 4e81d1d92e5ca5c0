//! Determinism regression suite for the work-sharded parallel pipeline:
//! the full pipeline (synthesis AND detection) must produce **serialized,
//! byte-identical** output at `threads = 1, 2, 8`.
//!
//! This is the contract that makes `--threads N` a pure throughput knob
//! (see `narada_core::parallel` for why it holds by construction). The
//! comparison is on serialized structures — pair lists, rendered plans,
//! detector verdicts — not on counts, so a scheduling-dependent reorder
//! or reseed cannot slip through as a coincidentally-equal total.

use narada_core::{synthesize_observed, SynthesisOptions, SynthesisOutput};
use narada_detect::{evaluate_suite_full, evaluate_test_observed, DetectConfig};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::Obs;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Serializes everything observable about a synthesis run except wall
/// clocks: the dedup'd access list, the racing pairs, and every
/// synthesized plan (rendered source + covered pairs).
fn serialize_synthesis(prog: &Program, out: &SynthesisOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!("accesses: {:#?}\n", out.pairs.accesses));
    s.push_str(&format!("pairs: {:#?}\n", out.pairs.pairs));
    for t in &out.tests {
        s.push_str(&format!(
            "== test #{} covers {:?} expects_race={}\n{}\n",
            t.index,
            t.covered_pairs,
            t.plan.expects_race,
            t.plan.render(prog)
        ));
    }
    s
}

/// Serializes the detection verdicts for a whole suite: per-test detected
/// races and confirmations, plus the aggregate counters.
fn serialize_detection(
    prog: &Program,
    mir: &MirProgram,
    out: &SynthesisOutput,
    threads: usize,
) -> String {
    let cfg = DetectConfig {
        schedule_trials: 3,
        confirm_trials: 2,
        seed: 0xd15c,
        budget: 2_000_000,
        threads,
        ..DetectConfig::default()
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut s = String::new();
    // Per-test reports through the sharded trial runner...
    for (i, t) in out.tests.iter().enumerate().take(6) {
        let rep = evaluate_test_observed(prog, mir, &seeds, &t.plan, &cfg, i as u64, &Obs::new());
        s.push_str(&format!(
            "test {i}: detected={:?} reproduced={:?} errors={:?}\n",
            rep.detected, rep.reproduced, rep.setup_errors
        ));
    }
    // ...and the suite-level aggregation (plan-sharded fan-out).
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let agg = evaluate_suite_full(prog, mir, &seeds, &plans, &cfg, &Obs::new()).1;
    s.push_str(&format!(
        "suite: detected={} harmful={} benign={} unreproduced={} per_test={:?}\n",
        agg.races_detected, agg.harmful, agg.benign, agg.unreproduced, agg.per_test_races
    ));
    s
}

fn assert_thread_count_invariant(entry: narada_corpus::CorpusEntry) {
    let prog = entry.compile().unwrap();
    let mir = lower_program(&prog);

    let reference_synth;
    let reference_detect;
    {
        let out = synthesize_observed(
            &prog,
            &mir,
            &SynthesisOptions {
                threads: 1,
                ..SynthesisOptions::default()
            },
            None,
            &Obs::new(),
        );
        reference_synth = serialize_synthesis(&prog, &out);
        reference_detect = serialize_detection(&prog, &mir, &out, 1);
    }

    for threads in THREAD_COUNTS {
        let out = synthesize_observed(
            &prog,
            &mir,
            &SynthesisOptions {
                threads,
                ..SynthesisOptions::default()
            },
            None,
            &Obs::new(),
        );
        let synth = serialize_synthesis(&prog, &out);
        assert!(
            synth == reference_synth,
            "{}: synthesis output diverged at threads={threads}\n--- threads=1 ---\n{}\n--- threads={threads} ---\n{}",
            entry.id,
            &reference_synth[..reference_synth.len().min(2000)],
            &synth[..synth.len().min(2000)],
        );
        let detect = serialize_detection(&prog, &mir, &out, threads);
        assert!(
            detect == reference_detect,
            "{}: detection verdicts diverged at threads={threads}\n--- threads=1 ---\n{}\n--- threads={threads} ---\n{}",
            entry.id,
            reference_detect,
            detect,
        );
    }
}

#[test]
fn c1_pipeline_is_thread_count_invariant() {
    assert_thread_count_invariant(narada_corpus::c1());
}

#[test]
fn c5_pipeline_is_thread_count_invariant() {
    assert_thread_count_invariant(narada_corpus::c5());
}
