//! `difftest-sweep`: many small distinct programs with no runaway tail.
//! Each sweep runs `run_class` on the same generated classes under
//! `parallel_map(2, …)` at the `DiffConfig` defaults (PCT depth 3,
//! schedules 6, confirms 4, `static_rank`). Emission is input generation
//! and stays outside both set-up and timing.
//!
//! Correctness: every sweep's per-class tallies and outcome must equal
//! the first sweep's, and at the default seed the committed golden's.
//! The traced half makes `check_agreement`'s calls itself, so the
//! screener hook can be timed, and must reproduce `run_class`'s tallies
//! for every class.

use crate::layers::{self, JOB_SPAN};
use crate::{sys, Measured, Params, Sample, LOAD_THREADS};
use narada_core::pairs::PairSet;
use narada_core::parallel::parallel_map;
use narada_core::pipeline::synthesize_observed;
use narada_core::screen::StaticVerdict;
use narada_core::SynthesisOptions;
use narada_detect::{evaluate_test_observed, DetectConfig};
use narada_difftest::{emit, run_class, ClassReport, ClassSpec, DiffConfig, GenClass, Outcome};
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::Obs;
use narada_vm::rng::derive_seed;
use narada_vm::ScheduleStrategy;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 53759;
pub const GOLDEN_FILE: &str = "difftest-sweep.txt";
pub const GOLDEN: &str = include_str!("../goldens/difftest-sweep.txt");

/// Classes per sweep (a smoke run takes the first few).
const CLASSES: usize = 4096;
const SMOKE_CLASSES: usize = 48;

/// Sweeps per run, about 1.5 s each on the reference host.
const SWEEPS: usize = 12;

/// Classes per chunk of a sweep.
const CHUNK: usize = 512;

/// The tallies a class is checked by: `index pairs discharged survivors
/// tests confirmed outcome`.
fn tally(index: usize, counts: [usize; 5], outcome: &str) -> String {
    let [pairs, discharged, survivors, tests, confirmed] = counts;
    format!("{index} {pairs} {discharged} {survivors} {tests} {confirmed} {outcome}")
}

const SOUNDNESS: &str = "soundness";

fn report_tally(r: &ClassReport) -> String {
    let outcome = match &r.outcome {
        Outcome::Agree => "agree".to_string(),
        Outcome::PrecisionMiss => "precision-miss".to_string(),
        Outcome::Soundness(d) => format!("{SOUNDNESS}:{}", d.len()),
    };
    tally(
        r.spec.index,
        [r.pairs, r.discharged, r.survivors, r.tests, r.confirmed],
        &outcome,
    )
}

/// `check_agreement`'s calls, made here so each layer call gets its own
/// span. Mirrors its configuration; the tally comparison against
/// `run_class` catches any drift.
fn traced_class(gen: &GenClass, cfg: &DiffConfig, obs: &Obs) -> (String, usize) {
    let _job = obs.tracer.span(JOB_SPAN);
    let spec = gen.spec;
    let prog = {
        let _s = obs.tracer.span("lang.parse_typeck");
        gen.program.compile().expect("generated classes compile")
    };
    let mir = {
        let _s = obs.tracer.span("lang.lower");
        lower_program(&prog)
    };
    let screener = |m: &MirProgram, p: &PairSet| {
        let _s = obs.tracer.span("screen.screen_pairs");
        narada_screen::screen_pairs(m, p)
    };
    let opts = SynthesisOptions {
        static_rank: true,
        threads: 1,
        engine: cfg.engine,
        ..SynthesisOptions::default()
    };
    let out = {
        let _s = obs.tracer.span("core.synthesize");
        synthesize_observed(&prog, &mir, &opts, Some(&screener), obs)
    };
    let verdicts = out.verdicts.as_deref().unwrap_or(&[]);
    let discharged = verdicts.iter().filter(|v| !v.may_race()).count();
    let survivors = verdicts.len() - discharged;

    let dcfg = DetectConfig {
        schedule_trials: cfg.schedule_trials,
        confirm_trials: cfg.confirm_trials,
        seed: derive_seed(spec.seed, &[0xde7ec7]),
        budget: cfg.budget,
        threads: 1,
        strategy: ScheduleStrategy::Pct { depth: 3 },
        pct_horizon: 1_000,
        minimize: false,
        engine: cfg.engine,
        code: None,
        explore: cfg.explore,
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut confirmed = 0;
    let mut unsound = 0;
    for (ti, t) in out.tests.iter().enumerate() {
        let report = {
            let _s = obs.tracer.span("detect.evaluate");
            evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &dcfg, ti as u64, obs)
        };
        for (_, race) in &report.reproduced {
            confirmed += 1;
            let v = out.static_verdict_for(ti, race.key.span_a, race.key.span_b);
            unsound += usize::from(matches!(v, Some(StaticVerdict::MustNotRace { .. })));
        }
    }
    let outcome = if unsound > 0 {
        format!("{SOUNDNESS}:{unsound}")
    } else if confirmed == 0 && survivors > 0 && spec.expects_manifest() {
        "precision-miss".to_string()
    } else {
        "agree".to_string()
    };
    let counts = [
        out.pairs.pairs.len(),
        discharged,
        survivors,
        out.tests.len(),
        confirmed,
    ];
    (tally(spec.index, counts, &outcome), confirmed)
}

pub fn run(p: &Params, untraced: Option<&Measured>) -> Measured {
    let count = if p.smoke() { SMOKE_CLASSES } else { CLASSES };
    let classes: Vec<GenClass> = ClassSpec::enumerate(p.seed, count)
        .into_iter()
        .map(emit)
        .collect();
    let cfg = DiffConfig {
        seed: p.seed,
        count,
        threads: LOAD_THREADS,
        ..DiffConfig::default()
    };
    let sweeps = p.units(SWEEPS);
    let setup_s = p.time_setups(|| {
        for g in &classes {
            std::hint::black_box(g.program.compile().expect("generated classes compile"));
        }
    });
    let golden: Vec<&str> = match p.seed == DEFAULT_SEED {
        true => p
            .golden(GOLDEN)
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect(),
        false => Vec::new(),
    };

    let traced_obs = untraced.is_some().then(Obs::with_tracing);
    let mut m = Measured {
        setup_s,
        sizes: vec![("sweeps", sweeps as u64), ("classes", count as u64)],
        ..Measured::default()
    };
    let mut confirmed = 0usize;
    for sweep in 0..sweeps {
        let obs = Obs::new();
        let mut results: Vec<(Sample, String, usize)> = Vec::with_capacity(count);
        // A sweep runs in chunks, with a host probe round before each.
        for (c, chunk) in classes.chunks(CHUNK).enumerate() {
            m.probe.round();
            let cpu = sys::cpu_ms();
            let start = Instant::now();
            results.extend(parallel_map(LOAD_THREADS, chunk, |i, g| {
                let t = Instant::now();
                let (line, confirmed) = match &traced_obs {
                    Some(tobs) => traced_class(g, &cfg, tobs),
                    None => {
                        let r = run_class(g, &cfg, &obs);
                        (report_tally(&r), r.confirmed)
                    }
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let unit = c * CHUNK + i;
                (Sample { unit, start: t, ms }, line, confirmed)
            }));
            m.wall_s += start.elapsed().as_secs_f64();
            m.cpu_ms += sys::cpu_ms() - cpu;
        }

        if sweep == 0 && untraced.is_none() {
            m.results = results.iter().map(|(_, line, _)| line.clone()).collect();
        }
        // Every sweep must repeat the first untraced sweep exactly.
        let first = untraced.map_or(&m.results, |u| &u.results);
        for (i, (sample, line, c)) in results.iter().enumerate() {
            m.samples.push(*sample);
            m.attempted += 1;
            confirmed += c;
            let fault = if first[i] != *line {
                format!("differs from the first sweep's `{}`", first[i])
            } else if golden.get(i).is_some_and(|g| g != line) {
                format!("golden is `{}`", golden[i])
            } else if line.contains(&format!(" {SOUNDNESS}:")) {
                "screener soundness disagreement".to_string()
            } else {
                continue;
            };
            m.failures
                .push(format!("difftest-sweep sweep {sweep}: `{line}`: {fault}"));
        }
    }
    m.probe.round();
    m.races_per_pass = confirmed as f64 / sweeps as f64;

    if let Some(obs) = traced_obs {
        // Each class runs its trials on one thread; the two load
        // threads shard classes, not trials.
        m.layers = Some(layers::from_trace(&obs, sweeps as f64, 1.0));
        m.trace_jsonl = obs.tracer.to_jsonl();
    }
    m
}

/// The golden file: every class's tallies at the default seed.
pub fn golden_text() -> String {
    let cfg = DiffConfig {
        seed: DEFAULT_SEED,
        count: CLASSES,
        ..DiffConfig::default()
    };
    let specs = ClassSpec::enumerate(DEFAULT_SEED, CLASSES);
    let lines = parallel_map(LOAD_THREADS, &specs, |_, &spec| {
        report_tally(&run_class(&emit(spec), &cfg, &Obs::new()))
    });
    let mut text = format!(
        "# difftest-sweep: `index pairs discharged survivors tests confirmed outcome`\n\
         # per class, seed {DEFAULT_SEED}. Regenerate with `benchmark --bless`.\n"
    );
    for line in lines {
        text.push_str(&line);
        text.push('\n');
    }
    text
}
