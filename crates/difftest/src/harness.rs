//! The differential harness: runs each generated program through the
//! static screener and the full dynamic pipeline and treats the two as
//! each other's oracle.
//!
//! * **Soundness** (fatal): a `MustNotRace` verdict on a pair that the
//!   scheduler then dynamically confirms is a screener soundness bug —
//!   the discharge promised no synthesized context could manifest the
//!   race.
//! * **Precision** (datapoint): a program whose discipline leaves the
//!   leaf exposed ([`ClassSpec::expects_manifest`]) but where no
//!   screener survivor is dynamically confirmed. Logged, never fatal —
//!   small trial budgets legitimately miss races.
//!
//! The sweep is a pure function of `(GENERATOR_VERSION, base seed,
//! count)`: per-class work derives every RNG seed from the spec, classes
//! are sharded with the order-preserving [`parallel_map`], and the
//! [`SweepReport::digest`] folds the per-class results in index order,
//! so a sweep is byte-identical at any `--threads` value.

use crate::emit::{emit, GenClass};
use crate::spec::ClassSpec;
use narada_core::parallel::parallel_map;
use narada_core::pipeline::{synthesize_observed, SynthesisOutput};
use narada_core::screen::{ScreenReason, ScreenerFn, StaticVerdict};
use narada_core::SynthesisOptions;
use narada_detect::{evaluate_test_observed, DetectConfig};
use narada_lang::lower::lower_program;
use narada_obs::Obs;
use narada_vm::rng::derive_seed;
use narada_vm::ScheduleStrategy;

/// Sweep configuration (the CLI's `narada difftest` knobs).
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Base seed; every per-class seed derives from it.
    pub seed: u64,
    /// Number of classes to generate (36 covers the lattice once).
    pub count: usize,
    /// Worker threads for the per-class shard (`0` = one per core).
    /// Purely a throughput knob: results are identical at any value.
    pub threads: usize,
    /// Random-schedule trials per synthesized test (detection pass).
    pub schedule_trials: usize,
    /// Directed attempts per potential race (confirmation pass).
    pub confirm_trials: usize,
    /// Step budget per concurrent run.
    pub budget: u64,
    /// Self-test hook: deliberately flip the top-scoring `MayRace`
    /// verdict of every class to a bogus discharge, so the disagreement
    /// path (exit code, shrinker, fixtures) can be exercised on demand.
    pub inject_unsound: bool,
    /// Kept only so that struct literals naming `engine` (the
    /// repository benchmark's) still compile; nothing reads it. Tree-walk
    /// is the only interpreter.
    pub engine: (),
    /// Kept only so that struct literals naming `explore` (the
    /// repository benchmark's) still compile; nothing reads it. Every
    /// detection stage forks.
    pub explore: (),
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            seed: 0xd1ff,
            count: 36,
            threads: 0,
            schedule_trials: 6,
            confirm_trials: 4,
            budget: 2_000_000,
            inject_unsound: false,
            engine: (),
            explore: (),
        }
    }
}

/// One screener-vs-scheduler contradiction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// Index of the synthesized test that confirmed the race.
    pub test_index: usize,
    /// Display form of the static race key.
    pub race: String,
    /// Display form of the discharge reason that was contradicted.
    pub reason: String,
}

/// How a class's two verdict sources relate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// No contradiction: every confirmed race was ranked `MayRace`.
    Agree,
    /// Survivors were expected to manifest but nothing was confirmed.
    PrecisionMiss,
    /// At least one dynamically-confirmed race carried a `MustNotRace`
    /// verdict — a screener soundness bug.
    Soundness(Vec<Disagreement>),
}

/// Differential result for one generated class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// The generating spec.
    pub spec: ClassSpec,
    /// The emitted source (what a fixture would contain).
    pub source: String,
    /// Racing pairs generated.
    pub pairs: usize,
    /// Pairs the screener discharged (`MustNotRace`).
    pub discharged: usize,
    /// Pairs the screener kept (`MayRace`).
    pub survivors: usize,
    /// Synthesized tests executed.
    pub tests: usize,
    /// Races the scheduler confirmed across all tests.
    pub confirmed: usize,
    /// The differential verdict.
    pub outcome: Outcome,
}

impl ClassReport {
    /// One-line render for logs and the CLI.
    pub fn summary(&self) -> String {
        let outcome = match &self.outcome {
            Outcome::Agree => "agree".to_string(),
            Outcome::PrecisionMiss => "precision-miss".to_string(),
            Outcome::Soundness(d) => format!("SOUNDNESS ({} disagreement(s))", d.len()),
        };
        format!(
            "{}: pairs={} discharged={} survivors={} tests={} confirmed={} -> {}",
            self.spec.label(),
            self.pairs,
            self.discharged,
            self.survivors,
            self.tests,
            self.confirmed,
            outcome
        )
    }
}

/// Aggregated sweep result.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-class reports, in spec-index order.
    pub reports: Vec<ClassReport>,
    /// FNV-1a fold of every per-class result (label, source, counts,
    /// outcome) in index order — equal digests mean byte-identical
    /// sweeps.
    pub digest: u64,
}

impl SweepReport {
    /// Classes whose outcome is a soundness disagreement.
    pub fn soundness(&self) -> Vec<&ClassReport> {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Soundness(_)))
            .collect()
    }

    /// Number of precision misses.
    pub fn precision_misses(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome == Outcome::PrecisionMiss)
            .count()
    }

    /// Total confirmed races.
    pub fn confirmed(&self) -> usize {
        self.reports.iter().map(|r| r.confirmed).sum()
    }

    /// Total discharged pairs.
    pub fn discharged(&self) -> usize {
        self.reports.iter().map(|r| r.discharged).sum()
    }

    /// One-line sweep summary.
    pub fn summary(&self) -> String {
        format!(
            "difftest: {} classes, {} pairs, {} discharged, {} confirmed, \
             {} precision miss(es), {} soundness disagreement(s), digest={:016x}",
            self.reports.len(),
            self.reports.iter().map(|r| r.pairs).sum::<usize>(),
            self.discharged(),
            self.confirmed(),
            self.precision_misses(),
            self.soundness().len(),
            self.digest
        )
    }
}

/// A screener that deliberately mis-discharges the top-scoring surviving
/// pair — the harness's fault-injection self test. Plain `fn` so it fits
/// the pipeline's [`ScreenerFn`] hook.
pub fn screen_pairs_inject_unsound(
    mir: &narada_lang::mir::MirProgram,
    pairs: &narada_core::pairs::PairSet,
) -> Vec<StaticVerdict> {
    let mut verdicts = narada_screen::screen_pairs(mir, pairs);
    let top = verdicts
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            StaticVerdict::MayRace { score } => Some((*score, i)),
            StaticVerdict::MustNotRace { .. } => None,
        })
        .max_by_key(|&(score, i)| (score, usize::MAX - i));
    if let Some((_, i)) = top {
        verdicts[i] = StaticVerdict::MustNotRace {
            reason: ScreenReason::NoRacyContext,
        };
    }
    verdicts
}

/// Synthesis options for the differential run: rank, don't filter, so a
/// wrongly-discharged pair still gets a derived plan and can be caught
/// in the act.
fn synth_opts() -> SynthesisOptions {
    SynthesisOptions {
        static_rank: true,
        threads: 1,
        ..SynthesisOptions::default()
    }
}

/// Detection knobs shared by every differential run; the per-program
/// seed is derived on top by [`check_agreement`].
fn detect_cfg_base(cfg: &DiffConfig) -> DetectConfig {
    DetectConfig {
        schedule_trials: cfg.schedule_trials,
        confirm_trials: cfg.confirm_trials,
        seed: 0,
        budget: cfg.budget,
        // Inner stages run single-threaded: the sweep already shards per
        // class, and both layers are thread-count independent anyway.
        threads: 1,
        strategy: ScheduleStrategy::Pct { depth: 3 },
        pct_horizon: 1_000,
        minimize: false,
        ..DetectConfig::default()
    }
}

/// Both sides' tallies for one program: what the screener said, what the
/// scheduler confirmed, and every contradiction between them.
#[derive(Debug, Clone, Default)]
pub struct AgreementCheck {
    /// Racing pairs generated.
    pub pairs: usize,
    /// Pairs discharged (`MustNotRace`).
    pub discharged: usize,
    /// Pairs kept (`MayRace`).
    pub survivors: usize,
    /// Synthesized tests executed.
    pub tests: usize,
    /// Races confirmed across all tests.
    pub confirmed: usize,
    /// Confirmed races whose verdict was `MustNotRace`.
    pub disagreements: Vec<Disagreement>,
}

/// Runs any compiled program through both oracles — synthesis with the
/// screener ranking every pair, then detection + confirmation per
/// synthesized test — and tallies the relation. This is the shared core
/// of [`run_class`] and the committed-fixture regression suite: a
/// fixture promoted from a shrunk disagreement must come back with an
/// empty `disagreements` list once the screener bug is fixed.
pub fn check_agreement(
    prog: &narada_lang::hir::Program,
    base_seed: u64,
    cfg: &DiffConfig,
) -> AgreementCheck {
    let mir = lower_program(prog);
    let screener: ScreenerFn = if cfg.inject_unsound {
        &screen_pairs_inject_unsound
    } else {
        &narada_screen::screen_pairs
    };
    let out: SynthesisOutput =
        synthesize_observed(prog, &mir, &synth_opts(), Some(screener), &Obs::new());
    let verdicts = out.verdicts.as_deref().unwrap_or(&[]);
    let discharged = verdicts.iter().filter(|v| !v.may_race()).count();
    let survivors = verdicts.len() - discharged;

    let dcfg = DetectConfig {
        seed: derive_seed(base_seed, &[0xde7ec7]),
        ..detect_cfg_base(cfg)
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut confirmed = 0usize;
    let mut disagreements = Vec::new();
    for (ti, t) in out.tests.iter().enumerate() {
        let report =
            evaluate_test_observed(prog, &mir, &seeds, &t.plan, &dcfg, ti as u64, &Obs::new());
        for (_, race) in &report.reproduced {
            confirmed += 1;
            let v = out.static_verdict_for(ti, race.key.span_a, race.key.span_b);
            if let Some(StaticVerdict::MustNotRace { reason }) = v {
                disagreements.push(Disagreement {
                    test_index: ti,
                    race: race.key.to_string(),
                    reason: reason.to_string(),
                });
            }
        }
    }
    AgreementCheck {
        pairs: out.pairs.pairs.len(),
        discharged,
        survivors,
        tests: out.tests.len(),
        confirmed,
        disagreements,
    }
}

/// Runs one generated program through both sides and classifies the
/// relation. Panics if the emitted program fails to compile — that is an
/// emitter bug, not a differential finding.
pub fn run_class(gen: &GenClass, cfg: &DiffConfig, obs: &Obs) -> ClassReport {
    let spec = gen.spec;
    let source = gen.source();
    let prog = match gen.program.compile() {
        Ok(p) => p,
        Err(e) => panic!(
            "{}: emitted program does not compile: {e}\n{source}",
            spec.label()
        ),
    };
    let check = check_agreement(&prog, spec.seed, cfg);
    let AgreementCheck {
        pairs,
        discharged,
        survivors,
        tests,
        confirmed,
        disagreements,
    } = check;

    let outcome = if !disagreements.is_empty() {
        Outcome::Soundness(disagreements)
    } else if confirmed == 0 && survivors > 0 && spec.expects_manifest() {
        Outcome::PrecisionMiss
    } else {
        Outcome::Agree
    };

    let m = &obs.metrics;
    m.counter("difftest.classes").inc();
    m.counter("difftest.pairs").add(pairs as u64);
    m.counter("difftest.discharged").add(discharged as u64);
    m.counter("difftest.survivors").add(survivors as u64);
    m.counter("difftest.tests").add(tests as u64);
    m.counter("difftest.confirmed").add(confirmed as u64);
    match &outcome {
        Outcome::Soundness(d) => m.counter("difftest.soundness").add(d.len() as u64),
        Outcome::PrecisionMiss => m.counter("difftest.precision_miss").inc(),
        Outcome::Agree => {}
    }

    ClassReport {
        spec,
        source,
        pairs,
        discharged,
        survivors,
        tests,
        confirmed,
        outcome,
    }
}

/// Runs the full sweep: `count` generated classes, sharded across
/// `threads` workers, results in spec-index order.
pub fn run_sweep(cfg: &DiffConfig, obs: &Obs) -> SweepReport {
    let specs = ClassSpec::enumerate(cfg.seed, cfg.count);
    let reports = parallel_map(cfg.threads, &specs, |_, &spec| {
        run_class(&emit(spec), cfg, obs)
    });
    let digest = digest_reports(&reports);
    SweepReport { reports, digest }
}

/// FNV-1a fold over per-class results in index order (the workspace's
/// shared hasher, `narada_core::digest::Fnv1a`).
fn digest_reports(reports: &[ClassReport]) -> u64 {
    let mut h = narada_core::digest::Fnv1a::new();
    let mut eat = |bytes: &[u8]| h.write(bytes);
    for r in reports {
        eat(r.spec.label().as_bytes());
        eat(r.source.as_bytes());
        for n in [r.pairs, r.discharged, r.survivors, r.tests, r.confirmed] {
            eat(&(n as u64).to_le_bytes());
        }
        match &r.outcome {
            Outcome::Agree => eat(b"agree"),
            Outcome::PrecisionMiss => eat(b"precision"),
            Outcome::Soundness(ds) => {
                eat(b"soundness");
                for d in ds {
                    eat(&(d.test_index as u64).to_le_bytes());
                    eat(d.race.as_bytes());
                    eat(d.reason.as_bytes());
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DiffConfig {
        DiffConfig {
            count: 6,
            threads: 1,
            schedule_trials: 4,
            confirm_trials: 3,
            ..DiffConfig::default()
        }
    }

    #[test]
    fn small_sweep_has_no_soundness_disagreements() {
        let report = run_sweep(&small_cfg(), &Obs::new());
        assert_eq!(report.reports.len(), 6);
        let sound = report.soundness();
        assert!(
            sound.is_empty(),
            "soundness disagreements:\n{}",
            sound
                .iter()
                .map(|r| r.summary())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Non-vacuity: the sweep must exercise both oracles.
        assert!(report.confirmed() > 0, "scheduler confirmed nothing");
        assert!(report.discharged() > 0, "screener discharged nothing");
    }

    #[test]
    fn sweep_digest_is_thread_count_independent() {
        let cfg1 = small_cfg();
        let cfg4 = DiffConfig {
            threads: 4,
            ..small_cfg()
        };
        let a = run_sweep(&cfg1, &Obs::new());
        let b = run_sweep(&cfg4, &Obs::new());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn injected_unsound_verdict_is_caught() {
        let cfg = DiffConfig {
            inject_unsound: true,
            ..small_cfg()
        };
        let report = run_sweep(&cfg, &Obs::new());
        assert!(
            !report.soundness().is_empty(),
            "fault injection produced no disagreement — the oracle is asleep"
        );
    }
}
