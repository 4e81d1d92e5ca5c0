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
//! job: it gets its own detectors and scheduler, and a machine that is
//! either the worker's one machine rewound to the test's fork point or,
//! when the test cannot fork, a fresh one (see `ForkStart`). Its
//! randomness comes from a seed derived from *job identity* —
//! `derive_seed(cfg.seed, &[stage, test, trial])` — never from a shared
//! generator. Jobs are sharded over the worker pool with
//! [`narada_core::parallel::parallel_map_with`] and merged in job order,
//! so detection output is byte-identical at any `threads` value.

use crate::fasttrack::FastTrackDetector;
use crate::lockset::LocksetDetector;
use crate::minimize::minimize_schedule;
use crate::race::{CoarseRaceKey, MethodIndex, RaceReport, SchedProvenance, StaticRaceKey};
use crate::racefuzzer::{ConfirmedRace, RaceFuzzerScheduler};
use crate::saturation::SaturationWatch;
use narada_core::parallel::{parallel_map, parallel_map_with};
use narada_core::synth::{execute_plan, execute_plan_suffix, ExecError, ExecReport};
use narada_core::TestPlan;
use narada_explore::{prepare_fork_point, ForkPoint, NoFork};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{span, Obs, TRIAL_BUCKETS};
use narada_vm::rng::derive_seed;
use narada_vm::{
    EventSink, Machine, MachineMark, MachineOptions, NullSink, ObservedScheduler,
    RecordingScheduler, RunOutcome, ScheduleStrategy, Scheduler, TeeSink,
};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Kept only so that struct literals naming `engine` (the
    /// repository benchmark's) still compile; nothing reads it. Tree-walk
    /// is the only interpreter.
    pub engine: (),
    /// Kept only so that struct literals naming `code` (the repository
    /// benchmark's `code: None`) still compile; it can hold no value and
    /// nothing reads it.
    pub code: Option<std::convert::Infallible>,
    /// Kept only so that struct literals naming `explore` (the
    /// repository benchmark's) still compile; nothing reads it. Every
    /// test forks, falling back to fresh starts on its own (see
    /// [`evaluate_test_observed`]).
    pub explore: (),
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
            engine: (),
            code: None,
            explore: (),
        }
    }
}

/// A fresh trial machine under `seed`.
fn trial_machine<'p>(prog: &'p Program, mir: &'p MirProgram, seed: u64) -> Machine<'p> {
    let opts = MachineOptions {
        seed,
        ..MachineOptions::default()
    };
    Machine::new(prog, mir, opts)
}

/// Counts one trial's outcome: every thread finished
/// (`trial.completed`), the step budget ran out (`trial.step_limit`), the
/// saturation cut ended it (`trial.saturated`, detection trials only; see
/// [`SaturationWatch`]), the confirmation scheduler found its verdict
/// fixed (`trial.decided`, confirmation attempts only; see
/// [`RaceFuzzerScheduler`]), or the trial failed (`trial.failed`: a setup
/// error or a deadlock). Every detection trial and confirmation attempt
/// counts exactly one, so the five sum to `detect.trials +
/// detect.confirm_trials`. A counter appears in the manifest once it is
/// non-zero: each key a job manifest carries is paid for in every served
/// job's progress frames.
fn count_outcome<E>(obs: &Obs, run: &Result<ExecReport, E>) {
    let key = match run.as_ref().map(|r| &r.outcome) {
        Ok(RunOutcome::Completed) => "trial.completed",
        Ok(RunOutcome::StepLimit) => "trial.step_limit",
        Ok(RunOutcome::Saturated) => "trial.saturated",
        Ok(RunOutcome::Decided) => "trial.decided",
        Ok(RunOutcome::Deadlock { .. }) | Err(_) => "trial.failed",
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

/// A test's fork point plus the detector prototypes its prefix was
/// streamed into. Each detection probe clones the prototypes instead of
/// re-feeding the prefix (the detectors are deterministic event-stream
/// state machines, so a clone is observationally a re-feed).
struct Forked {
    fp: ForkPoint,
    protos: (LocksetDetector, FastTrackDetector),
}

/// A *fork start*: one worker's machine, restored from the test's fork
/// point once and rewound to `mark` and reseeded before every probe, so
/// only the concurrent suffix executes. A worker whose start is `None`
/// has a *fresh start* instead: a new machine per trial, running the
/// whole plan from `main()`. That is the automatic fallback for a test
/// that cannot fork (its prefix failed or drew from the RNG).
struct ForkStart<'a, 'p> {
    machine: Machine<'p>,
    mark: MachineMark,
    forked: &'a Forked,
}

/// One test's detection protocol: everything its trials and
/// confirmation attempts share.
struct TestRun<'a, 'p> {
    prog: &'p Program,
    mir: &'p MirProgram,
    seeds: &'a [TestId],
    plan: &'a TestPlan,
    cfg: &'a DetectConfig,
    test_idx: u64,
    obs: &'a Obs,
    /// `None` when the test runs from fresh starts.
    forked: Option<Forked>,
}

impl<'a, 'p> TestRun<'a, 'p> {
    /// Materializes one worker's start point (the per-worker state of
    /// `parallel_map_with`).
    fn start(&self) -> Option<ForkStart<'_, 'p>> {
        self.forked.as_ref().map(|forked| {
            let mut machine = trial_machine(self.prog, self.mir, self.cfg.seed);
            machine.restore(&forked.fp.snapshot);
            let mark = machine.mark();
            ForkStart {
                machine,
                mark,
                forked,
            }
        })
    }

    /// Detectors for one detection trial: clones of the prototypes that
    /// already observed the prefix, or fresh ones that will.
    fn detectors(&self) -> (LocksetDetector, FastTrackDetector) {
        match &self.forked {
            Some(f) => f.protos.clone(),
            None => (LocksetDetector::new(), FastTrackDetector::new()),
        }
    }

    /// Runs the plan once from `start` under machine seed `machine_seed`.
    /// A fork start reproduces exactly the state a fresh start reaches at
    /// the fork point (the prefix drew no RNG, checked when the fork
    /// point was prepared), and schedulers are consulted only in the
    /// suffix, so both record the same suffix-only schedules.
    fn execute(
        &self,
        start: &mut Option<ForkStart<'_, 'p>>,
        machine_seed: u64,
        sched: &mut dyn Scheduler,
        sink: &mut dyn EventSink,
    ) -> Result<ExecReport, ExecError> {
        let budget = self.cfg.budget;
        match start {
            Some(s) => {
                s.machine.rewind(&s.mark);
                s.machine.reseed(machine_seed);
                let prefix = &s.forked.fp.prefix;
                execute_plan_suffix(&mut s.machine, self.plan, prefix, sched, sink, budget)
            }
            None => {
                let mut machine = trial_machine(self.prog, self.mir, machine_seed);
                execute_plan(&mut machine, self.seeds, self.plan, sched, sink, budget)
            }
        }
    }

    /// One detection-pass trial: detectors under a random schedule
    /// derived from `(base_seed, test, trial)`. A pure function of its
    /// arguments, the unit of work the parallel runner shards. Returns
    /// the trial's race reports plus the manifested schedule's digest
    /// (the novelty-telemetry input).
    fn detection_trial(
        &self,
        start: &mut Option<ForkStart<'_, 'p>>,
        trial: u64,
    ) -> Result<(Vec<RaceReport>, u64), String> {
        let (cfg, obs) = (self.cfg, self.obs);
        let machine_seed = derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, self.test_idx, trial]);
        let sched_seed = derive_seed(cfg.seed, &[STAGE_DETECT_SCHED, self.test_idx, trial]);
        let (mut lockset, mut hb) = self.detectors();
        let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
        let mut inner = cfg.strategy.build(sched_seed, cfg.pct_horizon);
        let mut observed = ObservedScheduler::new(&mut *inner, &obs.metrics);
        let mut sched = RecordingScheduler::new(&mut observed);
        let run = self.execute(start, machine_seed, &mut sched, &mut sink);
        count_outcome(obs, &run);
        run.map_err(|e| e.to_string())?;
        // Stamp every report with the manifesting run's identity so
        // rendered races name their replayable schedule.
        let schedule = sched.to_schedule(machine_seed);
        // Dropping the observer publishes the run's decision counters and
        // releases the inner scheduler; directed strategies report how
        // many priority-change points this run actually consumed.
        // `add(0)` still registers the counter, so undirected runs
        // surface an explicit 0.
        drop(observed);
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

    /// One confirmation job: directed attempts targeting each witnessing
    /// site pair of a single coarse race, first confirmation wins.
    /// Minimization, when enabled, replays the confirming schedule from
    /// `main()` (schedules are suffix-only from either start).
    fn confirm_race(
        &self,
        start: &mut Option<ForkStart<'_, 'p>>,
        fine_keys: &[StaticRaceKey],
    ) -> Option<ConfirmedRace> {
        let (cfg, obs) = (self.cfg, self.obs);
        let mut attempts = 0u64;
        for fine in fine_keys {
            for trial in 0..cfg.confirm_trials as u64 {
                attempts += 1;
                let machine_seed =
                    derive_seed(cfg.seed, &[STAGE_CONFIRM_MACHINE, self.test_idx, trial]);
                let mut sched = RaceFuzzerScheduler::new(
                    *fine,
                    derive_seed(cfg.seed, &[STAGE_CONFIRM_SCHED, self.test_idx, trial]),
                );
                let mut observed = ObservedScheduler::new(&mut sched, &obs.metrics);
                let mut rec = RecordingScheduler::new(&mut observed);
                let run = self.execute(start, machine_seed, &mut rec, &mut NullSink);
                let schedule = rec.to_schedule(machine_seed);
                // Confirmation's share of `sched.decisions`; dropping the
                // observer publishes the totals and releases `sched`.
                obs.metrics
                    .counter("sched.confirm_decisions")
                    .add(observed.decisions());
                drop(observed);
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
                    // Attach the replayable interleaving; shrink it first
                    // when fixtures are being committed.
                    c.schedule = Some(match cfg.minimize {
                        true => {
                            match minimize_schedule(
                                self.prog, self.mir, self.seeds, self.plan, cfg.budget, fine,
                                &schedule,
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
}

/// Runs the full detection protocol on one synthesized test plan.
///
/// `test_idx` salts the trial seeds so distinct tests explore distinct
/// schedules; [`evaluate_suite_full`] passes each plan's index, direct
/// callers can pass `0`. Trial and confirmation activity is recorded
/// into `obs`: `detect.trials`, `detect.races_detected`,
/// `detect.confirmed`, `detect.setup_errors`, the
/// `detect.trials_to_first_confirm` histogram, scheduler decision
/// counters, `racefuzzer.gave_up`, and each trial's and confirmation
/// attempt's outcome (`trial.completed`, `trial.step_limit`,
/// `trial.saturated`, `trial.decided`, `trial.failed`). Exploration
/// coverage lands here too: `explore.change_points_probed` (PCT change
/// points actually consumed across trials) and `explore.schedule_novelty`
/// (distinct manifested schedule digests, summed per test). Every count
/// is a commutative sum over work whose extent is independent of the worker
/// count, so snapshots are byte-identical at any `cfg.threads`. When
/// `obs` traces, the test's `detect.test` span holds a `detect.prefix`
/// span (the shared prefix run) beside its `detect.trial` and
/// `detect.confirm` spans.
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

    let detect_span = span!(obs.tracer, "detect.test", test = test_idx);
    let detect_span_id = detect_span.id();

    // Prefix sharing: run the prefix once per test, streaming its events
    // into the detector prototypes. A test that cannot fork (the prefix
    // failed or drew from the RNG) runs from fresh starts, whose
    // trial/error semantics are those of re-executing from `main()`; the
    // attempt touches no shared telemetry beyond the RNG fallback
    // counter.
    let forked = {
        let _s = obs.tracer.span_under("detect.prefix", detect_span_id);
        let seed0 = derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, test_idx, 0]);
        let mut machine = trial_machine(prog, mir, seed0);
        let (mut lockset, mut hb) = (LocksetDetector::new(), FastTrackDetector::new());
        let mut tee = TeeSink {
            a: &mut lockset,
            b: &mut hb,
        };
        match prepare_fork_point(&mut machine, seeds, plan, &mut tee) {
            Ok(fp) => Some(Forked {
                fp,
                protos: (lockset, hb),
            }),
            Err(NoFork::PrefixDrewRng) => {
                obs.metrics.counter("explore.prefix_rng_fallbacks").inc();
                None
            }
            Err(NoFork::PrefixFailed) => None,
        }
    };
    let run = TestRun {
        prog,
        mir,
        seeds,
        plan,
        cfg,
        test_idx,
        obs,
        forked,
    };

    // Pass 1: random schedules with passive detectors, sharded per trial;
    // the merge below consumes results in trial order.
    let trials: Vec<u64> = (0..cfg.schedule_trials as u64).collect();
    let trial_results = parallel_map_with(
        cfg.threads,
        &trials,
        || run.start(),
        |start, _, &trial| {
            let mut s = obs.tracer.span_under("detect.trial", detect_span_id);
            s.attr("trial", &trial);
            run.detection_trial(start, trial)
        },
    );
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
    let confirmations = parallel_map_with(
        cfg.threads,
        &targets,
        || run.start(),
        |start, _, (_, fine_keys)| {
            let _s = obs.tracer.span_under("detect.confirm", detect_span_id);
            run.confirm_race(start, fine_keys)
        },
    );
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

/// Evaluates a whole synthesized suite and aggregates per-class numbers,
/// recording per-trial telemetry (see [`evaluate_test_observed`]) plus
/// the stage-level `stage.detect.wall_ns` gauge and `detect.jobs`
/// counter into `obs`. Also hands back the per-test [`TestReport`]s the
/// aggregation consumed — the raw material for canonical report
/// rendering (`narada detect --report-out`, `narada serve`). The
/// aggregate is computed from exactly these reports, so the two views
/// can never disagree.
///
/// Plans are fanned out across the worker pool (each plan's trials then
/// run inline, so the pool is never oversubscribed); the aggregation
/// walks the reports in plan order, keeping the totals identical at any
/// thread count.
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
