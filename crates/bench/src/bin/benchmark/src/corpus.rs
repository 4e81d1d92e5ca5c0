//! `corpus-detect`: the ROADMAP's headline job. Each pass runs
//! `narada detect` at its defaults (schedules 6, confirms 4, seed 42,
//! budget 2M, tree engine, rerun) on every corpus class C1–C9, one job
//! per class: compile → lower → synthesize → detect and confirm.
//!
//! The corpus and the detect seed are fixed, so every pass does the same
//! work; `--seed` only orders the classes within each pass. The goldens
//! therefore hold at every seed: one FNV-1a digest per class of its
//! canonical `narada-report/1` document, rendered untimed after the job.

use crate::layers::{self, JOB_SPAN};
use crate::{sys, Measured, Params, Sample, LOAD_THREADS};
use narada_core::pairs::PairSet;
use narada_core::pipeline::{synthesize_observed, SynthesisOutput};
use narada_core::{Fnv1a, SynthesisOptions};
use narada_corpus::CorpusEntry;
use narada_detect::{evaluate_suite_full, ClassDetection, DetectConfig, TestReport};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::Obs;
use narada_serve::{render_report, JobOptions};
use narada_vm::rng::{derive_seed, SplitMix64};
use std::collections::HashMap;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 42;
pub const GOLDEN_FILE: &str = "corpus-detect.txt";
pub const GOLDEN: &str = include_str!("../goldens/corpus-detect.txt");

/// Passes per run: 108 jobs, so `job_ms_p90` has ten samples beyond it.
/// About 2.7 s each on the reference host.
const PASSES: usize = 12;

/// The report options `narada detect --threads 2` renders.
fn job_options() -> JobOptions {
    JobOptions {
        threads: LOAD_THREADS,
        ..JobOptions::default()
    }
}

/// `narada detect`'s detection knobs, from the same defaults.
fn detect_config() -> DetectConfig {
    let o = job_options();
    DetectConfig {
        schedule_trials: o.schedules,
        confirm_trials: o.confirms,
        seed: o.seed,
        budget: o.budget,
        threads: o.threads,
        strategy: o.strategy,
        engine: o.engine,
        explore: o.explore,
        ..DetectConfig::default()
    }
}

struct JobOutput {
    prog: Program,
    synthesis: SynthesisOutput,
    reports: Vec<TestReport>,
    detection: ClassDetection,
}

/// One job, through each layer's public entry point, each call inside a
/// benchmark span (inert when `obs` does not trace).
fn job(entry: &CorpusEntry, obs: &Obs) -> JobOutput {
    let _job = obs.tracer.span(JOB_SPAN);
    let prog = {
        let _s = obs.tracer.span("lang.parse_typeck");
        entry.compile().expect("corpus classes compile")
    };
    let mir = {
        let _s = obs.tracer.span("lang.lower");
        lower_program(&prog)
    };
    // `narada detect` hands the pipeline the screener, which runs only
    // when screening is asked for; timing it costs nothing otherwise.
    let screener = |m: &MirProgram, p: &PairSet| {
        let _s = obs.tracer.span("screen.screen_pairs");
        narada_screen::screen_pairs(m, p)
    };
    let opts = SynthesisOptions {
        threads: LOAD_THREADS,
        ..SynthesisOptions::default()
    };
    let synthesis = {
        let _s = obs.tracer.span("core.synthesize");
        synthesize_observed(&prog, &mir, &opts, Some(&screener), obs)
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = synthesis.tests.iter().map(|t| &t.plan).collect();
    let (reports, detection) = {
        let _s = obs.tracer.span("detect.evaluate");
        evaluate_suite_full(&prog, &mir, &seeds, &plans, &detect_config(), obs)
    };
    JobOutput {
        prog,
        synthesis,
        reports,
        detection,
    }
}

/// The FNV-1a digest of a job's canonical report.
fn report_digest(entry: &CorpusEntry, out: &JobOutput) -> u64 {
    let report = render_report(
        &out.prog,
        entry.source,
        &job_options(),
        &out.synthesis,
        &out.reports,
        &out.detection,
    );
    Fnv1a::digest(report.as_bytes())
}

/// `C<n> <digest>` lines → digest by class id.
fn parse_golden(text: &str) -> HashMap<&str, &str> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

pub fn run(p: &Params, traced: bool) -> Measured {
    let entries = narada_corpus::all();
    let golden = parse_golden(p.golden(GOLDEN));
    let passes = p.units(PASSES);
    let setup_s = p.time_setups(|| {
        for e in &entries {
            let prog = e.compile().expect("corpus classes compile");
            std::hint::black_box(lower_program(&prog));
        }
    });

    let traced_obs = traced.then(Obs::with_tracing);
    let mut m = Measured {
        setup_s,
        sizes: vec![
            ("passes", passes as u64),
            ("jobs_per_pass", entries.len() as u64),
        ],
        ..Measured::default()
    };
    let mut races = 0usize;
    for pass in 0..passes {
        for i in permutation(entries.len(), derive_seed(p.seed, &[pass as u64])) {
            m.probe.round();
            let entry = &entries[i];
            let fresh;
            let obs = match &traced_obs {
                Some(o) => o,
                None => {
                    fresh = Obs::new();
                    &fresh
                }
            };
            let cpu = sys::cpu_ms();
            let t = Instant::now();
            let out = job(entry, obs);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            // Jobs run one at a time, and the timed region is their sum.
            m.cpu_ms += sys::cpu_ms() - cpu;
            m.wall_s += ms / 1e3;
            m.samples.push(Sample {
                unit: i,
                start: t,
                ms,
            });

            m.attempted += 1;
            races += out.detection.harmful + out.detection.benign;
            let digest = format!("{:016x}", report_digest(entry, &out));
            match golden.get(entry.id) {
                Some(&want) if want == digest => {}
                want => m.failures.push(format!(
                    "corpus-detect {} pass {pass}: report digest {digest}, golden {}",
                    entry.id,
                    want.copied().unwrap_or("missing")
                )),
            }
        }
    }
    m.probe.round();
    m.races_per_pass = races as f64 / passes as f64;

    if let Some(obs) = traced_obs {
        m.layers = Some(layers::from_trace(&obs, passes as f64, LOAD_THREADS as f64));
        m.trace_jsonl = obs.tracer.to_jsonl();
    }
    m
}

/// The golden file: one report digest per class.
pub fn golden_text() -> String {
    let mut text = String::from(
        "# corpus-detect: FNV-1a digest of each class's narada-report/1 document\n\
         # at the narada detect defaults. Regenerate with `benchmark --bless`.\n",
    );
    for entry in narada_corpus::all() {
        let out = job(&entry, &Obs::new());
        text.push_str(&format!(
            "{} {:016x}\n",
            entry.id,
            report_digest(&entry, &out)
        ));
    }
    text
}
