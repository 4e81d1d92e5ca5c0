//! Top-level evaluation harness: run a synthesized test under the
//! detectors exactly like the paper's §5 evaluation.
//!
//! For each synthesized test:
//!
//! 1. run it under several random schedules with the Eraser lockset and
//!    FastTrack detectors attached → the *detected* races, counted at the
//!    paper's granularity (unordered method pair × field, see
//!    [`CoarseRaceKey`]);
//! 2. for each detected race, re-execute under the RaceFuzzer-style
//!    directed scheduler targeting its concrete source sites → the
//!    *reproduced* races, triaged into harmful/benign.
//!
//! ## Parallel trial runner
//!
//! Every schedule trial (and every confirmation target) is an independent
//! job: it builds its own [`Machine`], detectors, and scheduler, and its
//! randomness comes from a seed derived from *job identity* —
//! `derive_seed(cfg.seed, &[stage, test, trial])` — never from a shared
//! generator. Jobs are sharded over the worker pool with
//! [`narada_core::parallel::parallel_map`] and merged in job order, so
//! detection output is byte-identical at any `threads` value.

use crate::fasttrack::FastTrackDetector;
use crate::lockset::LocksetDetector;
use crate::minimize::minimize_schedule;
use crate::race::{CoarseRaceKey, MethodIndex, RaceReport, SchedProvenance, StaticRaceKey};
use crate::racefuzzer::{ConfirmedRace, RaceFuzzerScheduler};
use crate::saturation::SaturationWatch;
use narada_core::parallel::{parallel_map, parallel_map_with};
use narada_core::synth::{execute_plan, execute_plan_suffix, ExecReport};
use narada_core::TestPlan;
use narada_explore::{prepare_fork_point, ExploreMode, ForkPoint};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{span, Obs, TRIAL_BUCKETS};
use narada_vm::rng::derive_seed;
use narada_vm::{
    Engine, EventSink, Machine, MachineMark, MachineOptions, ObservedScheduler, RecordingScheduler,
    RunOutcome, ScheduleStrategy,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed-derivation stage tags (arbitrary distinct constants; changing one
/// re-rolls every schedule of that stage).
const STAGE_DETECT_MACHINE: u64 = 1;
const STAGE_DETECT_SCHED: u64 = 2;
const STAGE_CONFIRM_MACHINE: u64 = 3;
const STAGE_CONFIRM_SCHED: u64 = 4;

/// Detection configuration.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Number of random schedules per test in the detection pass.
    pub schedule_trials: usize,
    /// Number of directed attempts per potential race in the confirmation
    /// pass.
    pub confirm_trials: usize,
    /// Base RNG seed (each trial derives its own from `(seed, stage,
    /// test, trial)` — see the module docs).
    pub seed: u64,
    /// Step budget for each concurrent run.
    pub budget: u64,
    /// Worker threads for the trial runner (`0` = one per core). Purely a
    /// throughput knob: results are identical at any value.
    pub threads: usize,
    /// Scheduler family for the detection pass (the CLI's `--strategy`).
    /// The default, [`ScheduleStrategy::Random`], reproduces the seed
    /// behavior decision-for-decision.
    pub strategy: ScheduleStrategy,
    /// Change-point sampling horizon for PCT (expected scheduling
    /// decisions per run; irrelevant for other strategies).
    pub pct_horizon: u64,
    /// Run ddmin on each confirming schedule before attaching it to the
    /// [`ConfirmedRace`] — used when committing `.sched` fixtures; costs
    /// one full re-execution per probe.
    pub minimize: bool,
    /// Execution engine for every trial, confirmation, and minimization
    /// machine. Trace-equivalent to tree-walk (see the engine
    /// differential suite), so detection output is byte-identical across
    /// engines; this is purely a throughput knob (the CLI's `--engine`).
    pub engine: Engine,
    /// Pre-compiled bytecode for the program under test — an
    /// artifact-cache hand-off (`narada serve`): when set and `engine`
    /// is [`Engine::Bytecode`], every trial and confirmation machine
    /// shares this compilation instead of recompiling per trial. Must
    /// have been compiled from exactly the `(Program, MirProgram)`
    /// passed to the evaluation entry points. Ignored under
    /// [`Engine::TreeWalk`]; purely a throughput knob (compilation is
    /// deterministic, so output is byte-identical either way).
    pub code: Option<std::sync::Arc<narada_vm::BcProgram>>,
    /// How trials explore schedule suffixes (the CLI's `--explore`):
    /// re-execute each trial from `main()`, or run the shared prefix once
    /// and probe suffixes from copy-on-write forks. Verdicts, trace
    /// digests, and schedules are byte-identical across modes (the
    /// fork-vs-rerun differential suite); manifests differ only in the
    /// fork-only `explore.*` counters
    /// ([`narada_explore::FORK_ONLY_METRICS`]).
    pub explore: ExploreMode,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            schedule_trials: 10,
            confirm_trials: 5,
            seed: 0xdecaf,
            budget: 2_000_000,
            threads: 0,
            strategy: ScheduleStrategy::Random,
            pct_horizon: 1_000,
            minimize: false,
            engine: Engine::TreeWalk,
            code: None,
            explore: ExploreMode::Rerun,
        }
    }
}

/// Builds one trial machine, sharing the pre-compiled bytecode when the
/// config carries it (see [`DetectConfig::code`]).
fn trial_machine<'p>(
    prog: &'p Program,
    mir: &'p MirProgram,
    cfg: &DetectConfig,
    seed: u64,
) -> Machine<'p> {
    let opts = MachineOptions {
        seed,
        engine: cfg.engine,
        ..MachineOptions::default()
    };
    match &cfg.code {
        Some(code) if cfg.engine == Engine::Bytecode => {
            Machine::with_code(prog, mir, opts, std::sync::Arc::clone(code))
        }
        _ => Machine::new(prog, mir, opts),
    }
}

/// Counts one trial's outcome: every thread finished
/// (`trial.completed`), the step budget ran out (`trial.step_limit`), the
/// saturation cut ended it (`trial.saturated`, detection trials only; see
/// [`SaturationWatch`]), or the trial failed (`trial.failed`: a setup
/// error or a deadlock). Every detection trial and confirmation attempt
/// counts exactly one, so the four sum to `detect.trials +
/// detect.confirm_trials`. A counter
/// appears in the manifest once it is non-zero: each key a job manifest
/// carries is paid for in every served job's progress frames.
fn count_outcome<E>(obs: &Obs, run: &Result<ExecReport, E>) {
    let key = match run {
        Ok(r) if r.outcome == RunOutcome::Completed => "trial.completed",
        Ok(r) if r.outcome == RunOutcome::StepLimit => "trial.step_limit",
        Ok(r) if r.outcome == RunOutcome::Saturated => "trial.saturated",
        _ => "trial.failed",
    };
    obs.metrics.counter(key).inc();
}

/// Detection results for one synthesized test (one row's worth of Table 5
/// contributions).
#[derive(Debug, Default)]
pub struct TestReport {
    /// Distinct races detected by the lockset/HB pass (coarse keys).
    pub detected: Vec<CoarseRaceKey>,
    /// Races reproduced (confirmed) by the directed scheduler.
    pub reproduced: Vec<(CoarseRaceKey, ConfirmedRace)>,
    /// Setup problems (capture misses etc.); the test counts as executed
    /// but found nothing.
    pub setup_errors: Vec<String>,
}

impl TestReport {
    /// Number of reproduced harmful races.
    pub fn harmful(&self) -> usize {
        self.reproduced.iter().filter(|(_, r)| !r.benign).count()
    }

    /// Number of reproduced benign races.
    pub fn benign(&self) -> usize {
        self.reproduced.iter().filter(|(_, r)| r.benign).count()
    }
}

/// One detection-pass trial: a fresh machine + detectors under a random
/// schedule derived from `(base_seed, test, trial)`. Pure function of its
/// arguments — the unit of work the parallel runner shards. Returns the
/// trial's race reports plus the manifested schedule's digest (the
/// novelty-telemetry input).
#[allow(clippy::too_many_arguments)]
fn detection_trial(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
    trial: u64,
    obs: &Obs,
) -> Result<(Vec<RaceReport>, u64), String> {
    let machine_seed = derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, test_idx, trial]);
    let sched_seed = derive_seed(cfg.seed, &[STAGE_DETECT_SCHED, test_idx, trial]);
    let mut machine = trial_machine(prog, mir, cfg, machine_seed);
    let mut lockset = LocksetDetector::new();
    let mut hb = FastTrackDetector::new();
    let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
    let mut inner = cfg.strategy.build(sched_seed, cfg.pct_horizon);
    let mut observed = ObservedScheduler::new(&mut *inner, &obs.metrics);
    let mut sched = RecordingScheduler::new(&mut observed);
    let run = execute_plan(&mut machine, seeds, plan, &mut sched, &mut sink, cfg.budget);
    count_outcome(obs, &run);
    run.map_err(|e| e.to_string())?;
    // Stamp every report with the manifesting run's identity so rendered
    // races name their replayable schedule.
    let schedule = sched.to_schedule(machine_seed);
    // The recording/observing wrappers released the inner scheduler above
    // (last use was `to_schedule`); directed strategies report how many
    // priority-change points this run actually consumed. `add(0)` still
    // registers the counter, so undirected runs surface an explicit 0.
    obs.metrics
        .counter("explore.change_points_probed")
        .add(inner.change_points_probed());
    let schedule_id = schedule.id();
    let provenance = SchedProvenance {
        scheduler: schedule.scheduler.clone(),
        machine_seed,
        sched_seed,
        schedule_id,
    };
    let races = lockset
        .races()
        .iter()
        .chain(hb.races())
        .cloned()
        .map(|mut r| {
            r.provenance = Some(provenance.clone());
            r
        })
        .collect();
    Ok((races, schedule_id))
}

/// [`detection_trial`]'s fork-explorer twin. The worker's machine is
/// rewound to the shared fork point and reseeded with this trial's
/// machine seed (prefix is seed-independent — zero RNG draws, checked at
/// fork-point prep — so this reproduces exactly the state a rerun trial
/// reaches there); detectors are clones of prototypes that already
/// observed the prefix trace. Only the concurrent suffix executes. Every
/// step below the rewind mirrors [`detection_trial`] line for line —
/// schedules record suffix-only decisions in both modes — which the
/// fork-vs-rerun differential suite locks in.
#[allow(clippy::too_many_arguments)]
fn detection_trial_fork(
    machine: &mut Machine<'_>,
    mark: &MachineMark,
    plan: &TestPlan,
    fp: &ForkPoint,
    protos: &(LocksetDetector, FastTrackDetector),
    cfg: &DetectConfig,
    test_idx: u64,
    trial: u64,
    obs: &Obs,
) -> Result<(Vec<RaceReport>, u64), String> {
    let machine_seed = derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, test_idx, trial]);
    let sched_seed = derive_seed(cfg.seed, &[STAGE_DETECT_SCHED, test_idx, trial]);
    machine.rewind(mark);
    machine.reseed(machine_seed);
    let (mut lockset, mut hb) = protos.clone();
    let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
    let mut inner = cfg.strategy.build(sched_seed, cfg.pct_horizon);
    let mut observed = ObservedScheduler::new(&mut *inner, &obs.metrics);
    let mut sched = RecordingScheduler::new(&mut observed);
    let run = execute_plan_suffix(machine, plan, &fp.prefix, &mut sched, &mut sink, cfg.budget);
    count_outcome(obs, &run);
    run.map_err(|e| e.to_string())?;
    let schedule = sched.to_schedule(machine_seed);
    obs.metrics
        .counter("explore.change_points_probed")
        .add(inner.change_points_probed());
    let schedule_id = schedule.id();
    let provenance = SchedProvenance {
        scheduler: schedule.scheduler.clone(),
        machine_seed,
        sched_seed,
        schedule_id,
    };
    let races = lockset
        .races()
        .iter()
        .chain(hb.races())
        .cloned()
        .map(|mut r| {
            r.provenance = Some(provenance.clone());
            r
        })
        .collect();
    Ok((races, schedule_id))
}

/// One confirmation job: directed re-execution attempts targeting each
/// witnessing site pair of a single coarse race, first confirmation wins.
#[allow(clippy::too_many_arguments)]
fn confirm_race(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
    fine_keys: &[StaticRaceKey],
    obs: &Obs,
) -> Option<ConfirmedRace> {
    let mut attempts = 0u64;
    for fine in fine_keys {
        for trial in 0..cfg.confirm_trials as u64 {
            attempts += 1;
            let machine_seed = derive_seed(cfg.seed, &[STAGE_CONFIRM_MACHINE, test_idx, trial]);
            let mut machine = trial_machine(prog, mir, cfg, machine_seed);
            let mut sched = RaceFuzzerScheduler::new(
                *fine,
                derive_seed(cfg.seed, &[STAGE_CONFIRM_SCHED, test_idx, trial]),
            );
            let mut observed = ObservedScheduler::new(&mut sched, &obs.metrics);
            let mut rec = RecordingScheduler::new(&mut observed);
            let mut sink = narada_vm::NullSink;
            let run = execute_plan(&mut machine, seeds, plan, &mut rec, &mut sink, cfg.budget);
            let schedule = rec.to_schedule(machine_seed);
            obs.metrics.counter("detect.confirm_trials").inc();
            count_outcome(obs, &run);
            obs.metrics
                .counter("racefuzzer.gave_up")
                .add(sched.gave_up as u64);
            if run.is_err() {
                continue;
            }
            if let Some(mut c) = sched.confirmed.into_iter().find(|c| c.key == *fine) {
                obs.metrics
                    .histogram("detect.trials_to_first_confirm", TRIAL_BUCKETS)
                    .observe(attempts);
                // Attach the replayable interleaving; shrink it first when
                // fixtures are being committed.
                c.schedule = Some(match cfg.minimize {
                    true => {
                        match minimize_schedule(
                            prog, mir, seeds, plan, cfg.budget, fine, &schedule, cfg.engine,
                        ) {
                            Some(m) => {
                                obs.metrics.counter("minimize.probes").add(m.probes as u64);
                                m.schedule
                            }
                            None => schedule,
                        }
                    }
                    false => schedule,
                });
                return Some(c);
            }
        }
    }
    None
}

/// [`confirm_race`]'s fork-explorer twin: each directed attempt rewinds
/// the job's machine to the fork point and reseeds it with the attempt's
/// machine seed instead of re-executing the prefix. Also returns how many
/// probes actually ran (attempts until first confirmation — a
/// deterministic count, so `explore.probes` stays thread-invariant).
/// Every step mirrors [`confirm_race`] line for line; minimization, when
/// enabled, reuses the shared full-re-execution `minimize_schedule`
/// (schedules are suffix-only in both modes, so it replays them
/// unchanged).
#[allow(clippy::too_many_arguments)]
fn confirm_race_fork(
    machine: &mut Machine<'_>,
    mark: &MachineMark,
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    fp: &ForkPoint,
    cfg: &DetectConfig,
    test_idx: u64,
    fine_keys: &[StaticRaceKey],
    obs: &Obs,
) -> (Option<ConfirmedRace>, u64) {
    let mut attempts = 0u64;
    for fine in fine_keys {
        for trial in 0..cfg.confirm_trials as u64 {
            attempts += 1;
            let machine_seed = derive_seed(cfg.seed, &[STAGE_CONFIRM_MACHINE, test_idx, trial]);
            machine.rewind(mark);
            machine.reseed(machine_seed);
            let mut sched = RaceFuzzerScheduler::new(
                *fine,
                derive_seed(cfg.seed, &[STAGE_CONFIRM_SCHED, test_idx, trial]),
            );
            let mut observed = ObservedScheduler::new(&mut sched, &obs.metrics);
            let mut rec = RecordingScheduler::new(&mut observed);
            let mut sink = narada_vm::NullSink;
            let run =
                execute_plan_suffix(machine, plan, &fp.prefix, &mut rec, &mut sink, cfg.budget);
            let schedule = rec.to_schedule(machine_seed);
            obs.metrics.counter("detect.confirm_trials").inc();
            count_outcome(obs, &run);
            obs.metrics
                .counter("racefuzzer.gave_up")
                .add(sched.gave_up as u64);
            if run.is_err() {
                continue;
            }
            if let Some(mut c) = sched.confirmed.into_iter().find(|c| c.key == *fine) {
                obs.metrics
                    .histogram("detect.trials_to_first_confirm", TRIAL_BUCKETS)
                    .observe(attempts);
                c.schedule = Some(match cfg.minimize {
                    true => {
                        match minimize_schedule(
                            prog, mir, seeds, plan, cfg.budget, fine, &schedule, cfg.engine,
                        ) {
                            Some(m) => {
                                obs.metrics.counter("minimize.probes").add(m.probes as u64);
                                m.schedule
                            }
                            None => schedule,
                        }
                    }
                    false => schedule,
                });
                return (Some(c), attempts);
            }
        }
    }
    (None, attempts)
}

/// Runs the full detection protocol on one synthesized test plan.
///
/// `test_idx` salts the trial seeds so distinct tests explore distinct
/// schedules; [`evaluate_suite`] passes each plan's index, direct callers
/// can pass `0`.
pub fn evaluate_test_indexed(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
) -> TestReport {
    evaluate_test_observed(prog, mir, seeds, plan, cfg, test_idx, &Obs::new())
}

/// [`evaluate_test_indexed`] recording trial and confirmation activity
/// into `obs`: `detect.trials`, `detect.races_detected`,
/// `detect.confirmed`, `detect.setup_errors`, the
/// `detect.trials_to_first_confirm` histogram, scheduler decision
/// counters, `racefuzzer.gave_up`, and each trial's and confirmation
/// attempt's outcome (`trial.completed`, `trial.step_limit`,
/// `trial.saturated`, `trial.failed`). Exploration coverage lands here
/// too: `explore.change_points_probed` (PCT change points actually
/// consumed across trials) and `explore.schedule_novelty` (distinct
/// manifested schedule digests, summed per test). Every count is a
/// commutative sum over work whose extent is independent of the worker
/// count, so snapshots are byte-identical at any `cfg.threads`.
pub fn evaluate_test_observed(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
    obs: &Obs,
) -> TestReport {
    let index = MethodIndex::new(prog);
    let mut report = TestReport::default();
    // Coarse race → the fine site pairs witnessing it (confirmation
    // targets).
    let mut detected: BTreeMap<CoarseRaceKey, Vec<StaticRaceKey>> = BTreeMap::new();
    let mut seen_fine: BTreeSet<StaticRaceKey> = BTreeSet::new();
    // Distinct schedule digests this test's trials manifested — the
    // exploration-diversity signal (`explore.schedule_novelty`).
    let mut sched_ids: BTreeSet<u64> = BTreeSet::new();

    // Fork-mode prefix sharing: materialize the fork point once per test.
    // `None` — prefix failed or consumed RNG draws — falls back to the
    // rerun path wholesale, whose trial/error semantics are the
    // byte-compat reference. The attempt itself touches no shared
    // telemetry (fork-only fallback counter aside), so fallback manifests
    // match plain rerun manifests exactly.
    let fork: Option<Arc<ForkPoint>> = match cfg.explore {
        ExploreMode::Rerun => None,
        ExploreMode::Fork => {
            let seed0 = derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, test_idx, 0]);
            let mut m = trial_machine(prog, mir, cfg, seed0);
            match prepare_fork_point(&mut m, seeds, plan) {
                Some(fp) => Some(Arc::new(fp)),
                None => {
                    obs.metrics.counter("explore.prefix_rng_fallbacks").inc();
                    None
                }
            }
        }
    };
    if let Some(fp) = &fork {
        obs.metrics.counter("explore.forks").inc();
        obs.metrics
            .counter("explore.snapshot_bytes")
            .add(fp.snapshot.approx_bytes());
    }

    // Pass 1: random schedules with passive detectors, sharded per trial;
    // the merge below consumes results in trial order.
    let detect_span = span!(obs.tracer, "detect.test", test = test_idx);
    let detect_span_id = detect_span.id();
    let trials: Vec<u64> = (0..cfg.schedule_trials as u64).collect();
    let trial_results = match &fork {
        None => parallel_map(cfg.threads, &trials, |_, &trial| {
            let mut s = obs.tracer.span_under("detect.trial", detect_span_id);
            s.attr("trial", &trial);
            detection_trial(prog, mir, seeds, plan, cfg, test_idx, trial, obs)
        }),
        Some(fp) => {
            // Prototype detectors observe the prefix trace once; each
            // probe clones them instead of re-feeding (the detectors are
            // deterministic event-stream state machines, so a clone is
            // observationally a re-feed).
            let mut protos = (LocksetDetector::new(), FastTrackDetector::new());
            for ev in &fp.prefix_events {
                protos.0.event(ev);
                protos.1.event(ev);
            }
            let results = parallel_map_with(
                cfg.threads,
                &trials,
                || {
                    // One materialization per worker that claims work;
                    // probes rewind it in place.
                    let mut m = trial_machine(prog, mir, cfg, cfg.seed);
                    m.restore(&fp.snapshot);
                    let mark = m.mark();
                    (m, mark)
                },
                |(m, mark), _, &trial| {
                    let mut s = obs.tracer.span_under("detect.trial", detect_span_id);
                    s.attr("trial", &trial);
                    detection_trial_fork(m, mark, plan, fp, &protos, cfg, test_idx, trial, obs)
                },
            );
            obs.metrics
                .counter("explore.probes")
                .add(trials.len() as u64);
            // Rerun would have executed the prefix once per trial; fork
            // executed it once per test.
            obs.metrics
                .counter("explore.prefix_steps_saved")
                .add(fp.prefix_steps() * (trials.len() as u64).saturating_sub(1));
            results
        }
    };
    obs.metrics
        .counter("detect.trials")
        .add(trials.len() as u64);
    for result in trial_results {
        match result {
            Ok((reports, schedule_id)) => {
                sched_ids.insert(schedule_id);
                for r in reports {
                    let fine = r.static_key();
                    if seen_fine.insert(fine) {
                        detected.entry(index.coarsen(&r)).or_default().push(fine);
                    }
                }
            }
            Err(e) => {
                obs.metrics.counter("detect.setup_errors").inc();
                report.setup_errors.push(e);
                // Trials merged before the failure still count toward
                // novelty (the merge order is trial order, so this is
                // thread-invariant).
                obs.metrics
                    .counter("explore.schedule_novelty")
                    .add(sched_ids.len() as u64);
                return report;
            }
        }
    }
    obs.metrics
        .counter("explore.schedule_novelty")
        .add(sched_ids.len() as u64);

    // Pass 2: directed confirmation, one job per coarse race, merged in
    // key order.
    let targets: Vec<(CoarseRaceKey, Vec<StaticRaceKey>)> = detected.into_iter().collect();
    let confirmations = match &fork {
        None => parallel_map(cfg.threads, &targets, |_, (_, fine_keys)| {
            let _s = obs.tracer.span_under("detect.confirm", detect_span_id);
            confirm_race(prog, mir, seeds, plan, cfg, test_idx, fine_keys, obs)
        }),
        Some(fp) => {
            // Each confirmation job is its own fork-tree leaf: one
            // materialization, then rewind-per-attempt.
            let results = parallel_map(cfg.threads, &targets, |_, (_, fine_keys)| {
                let _s = obs.tracer.span_under("detect.confirm", detect_span_id);
                let mut m = trial_machine(prog, mir, cfg, cfg.seed);
                m.restore(&fp.snapshot);
                let mark = m.mark();
                confirm_race_fork(
                    &mut m, &mark, prog, mir, seeds, plan, fp, cfg, test_idx, fine_keys, obs,
                )
            });
            let mut confirmed = Vec::with_capacity(results.len());
            let mut attempts_total = 0u64;
            for (c, attempts) in results {
                attempts_total += attempts;
                confirmed.push(c);
            }
            obs.metrics.counter("explore.probes").add(attempts_total);
            obs.metrics
                .counter("explore.prefix_steps_saved")
                .add(fp.prefix_steps() * attempts_total);
            confirmed
        }
    };
    for ((coarse, _), confirmed) in targets.iter().zip(confirmations) {
        if let Some(c) = confirmed {
            report.reproduced.push((*coarse, c));
        }
    }

    obs.metrics
        .counter("detect.races_detected")
        .add(targets.len() as u64);
    obs.metrics
        .counter("detect.confirmed")
        .add(report.reproduced.len() as u64);
    report.detected = targets.into_iter().map(|(k, _)| k).collect();
    report
}

/// Runs the full detection protocol on one synthesized test plan (trial
/// seeds salted with test index 0; see [`evaluate_test_indexed`]).
pub fn evaluate_test(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
) -> TestReport {
    evaluate_test_indexed(prog, mir, seeds, plan, cfg, 0)
}

/// Aggregated per-class detection numbers (one Table 5 row).
#[derive(Debug, Default, Clone)]
pub struct ClassDetection {
    /// Distinct races detected across all tests.
    pub races_detected: usize,
    /// Races reproduced and judged harmful.
    pub harmful: usize,
    /// Races reproduced and judged benign.
    pub benign: usize,
    /// Detected but not reproduced (the paper's manually-triaged column).
    pub unreproduced: usize,
    /// Per-test detected-race counts (Fig. 14's distribution input).
    pub per_test_races: Vec<usize>,
    /// Wall-clock of the whole evaluation.
    pub elapsed: Duration,
    /// Trial jobs executed (schedule trials + confirmation targets),
    /// the denominator of the detect-stage jobs/sec figure.
    pub jobs: usize,
}

/// Evaluates a whole synthesized suite and aggregates per-class numbers.
///
/// Plans are fanned out across the worker pool (each plan's trials then
/// run inline, so the pool is never oversubscribed); the aggregation
/// walks the reports in plan order, keeping the totals identical at any
/// thread count.
pub fn evaluate_suite(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plans: &[&TestPlan],
    cfg: &DetectConfig,
) -> ClassDetection {
    evaluate_suite_observed(prog, mir, seeds, plans, cfg, &Obs::new())
}

/// [`evaluate_suite`] recording per-trial telemetry (see
/// [`evaluate_test_observed`]) plus the stage-level `stage.detect.wall_ns`
/// gauge and `detect.jobs` counter into `obs`.
pub fn evaluate_suite_observed(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plans: &[&TestPlan],
    cfg: &DetectConfig,
    obs: &Obs,
) -> ClassDetection {
    evaluate_suite_full(prog, mir, seeds, plans, cfg, obs).1
}

/// [`evaluate_suite_observed`] that also hands back the per-test
/// [`TestReport`]s the aggregation consumed — the raw material for
/// canonical report rendering (`narada detect --report-out`, `narada
/// serve`). The aggregate is computed from exactly these reports, so the
/// two views can never disagree.
pub fn evaluate_suite_full(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plans: &[&TestPlan],
    cfg: &DetectConfig,
    obs: &Obs,
) -> (Vec<TestReport>, ClassDetection) {
    let start = Instant::now();
    let stage_span = span!(obs.tracer, "stage.detect", plans = plans.len());
    // Outer fan-out over plans; inner trial runner forced sequential so
    // worker count stays bounded by `threads`.
    let inner_cfg = DetectConfig {
        threads: 1,
        ..cfg.clone()
    };
    let reports = parallel_map(cfg.threads, plans, |i, plan| {
        evaluate_test_observed(prog, mir, seeds, plan, &inner_cfg, i as u64, obs)
    });
    drop(stage_span);

    let mut all_detected: BTreeSet<CoarseRaceKey> = BTreeSet::new();
    let mut all_reproduced: BTreeSet<CoarseRaceKey> = BTreeSet::new();
    let mut harmful = 0usize;
    let mut benign = 0usize;
    let mut per_test = Vec::with_capacity(plans.len());
    let mut jobs = 0usize;
    for rep in &reports {
        per_test.push(rep.detected.len());
        jobs += cfg.schedule_trials + rep.detected.len();
        for k in &rep.detected {
            all_detected.insert(*k);
        }
        for (k, c) in &rep.reproduced {
            if all_reproduced.insert(*k) {
                if c.benign {
                    benign += 1;
                } else {
                    harmful += 1;
                }
            }
        }
    }
    obs.metrics.counter("detect.jobs").add(jobs as u64);
    obs.metrics
        .gauge("stage.detect.wall_ns")
        .set_duration(start.elapsed());
    let agg = ClassDetection {
        races_detected: all_detected.len(),
        harmful,
        benign,
        unreproduced: all_detected.len().saturating_sub(all_reproduced.len()),
        per_test_races: per_test,
        elapsed: start.elapsed(),
        jobs,
    };
    (reports, agg)
}
