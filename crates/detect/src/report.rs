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
//! job: it gets its own scheduler, and a machine and detectors that are
//! either the worker's capture walk rewound to the test's fork point or,
//! when the test cannot fork, fresh ones (see `ForkStart`). Its
//! randomness comes from a seed derived from *job identity* —
//! `derive_seed(cfg.seed, &[stage, test, trial])` — never from a shared
//! generator. Jobs are sharded over the worker pool with
//! [`narada_core::parallel::parallel_map_with`] and merged in job order,
//! so detection output is byte-identical at any `threads` value. A
//! suite's plans are sharded the same way, in units that share capture
//! runs (see [`evaluate_suite_full`]).

use crate::minimize::minimize_schedule;
use crate::race::{CoarseRaceKey, MethodIndex, RaceReport, SchedProvenance, StaticRaceKey};
use crate::racefuzzer::{ConfirmedRace, RaceFuzzerScheduler};
use crate::saturation::SaturationWatch;
use crate::walk::{CaptureWalk, DetectorPair, NoFork, WalkPlan};
use narada_core::parallel::{effective_threads, parallel_map, parallel_map_with};
use narada_core::synth::{execute_plan, execute_plan_suffix, ExecError, ExecReport, PlanPrefix};
use narada_core::TestPlan;
use narada_lang::hir::{MethodId, Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{span, Obs, TRIAL_BUCKETS};
use narada_vm::rng::derive_seed;
use narada_vm::{
    EventSink, Machine, MachineOptions, NullSink, ObservedScheduler, RecordingScheduler,
    RunOutcome, Schedule, ScheduleStrategy, Scheduler,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
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

/// A worker's fork start: the walk positioned at the test's fork point,
/// rewound and reseeded before every probe so only the concurrent suffix
/// executes. The first worker borrows the walk that classified the test;
/// any other runs the prefix on a walk of its own, which reaches the
/// same state because the prefix is seed-independent. A worker without
/// one has a *fresh start* instead: a new machine and new detectors per
/// trial, running the whole plan from `main()`, the fallback for a test
/// that cannot fork (its prefix failed or drew from the RNG).
enum ForkStart<'w, 'p> {
    Lent(&'w mut CaptureWalk<'p>),
    Own(Box<CaptureWalk<'p>>),
}

impl<'p> ForkStart<'_, 'p> {
    fn walk(&mut self) -> &mut CaptureWalk<'p> {
        match self {
            ForkStart::Lent(w) => w,
            ForkStart::Own(w) => w,
        }
    }
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
    /// The test's `detect.test` span.
    span: Option<u64>,
    /// Whether the test forks (else it runs from fresh starts).
    forks: bool,
}

/// The machine seed test `test_idx`'s prefix runs under (that of its
/// first detection trial, which a fresh start would run it under).
fn prefix_seed(cfg: &DetectConfig, test_idx: u64) -> u64 {
    derive_seed(cfg.seed, &[STAGE_DETECT_MACHINE, test_idx, 0])
}

impl<'a, 'p> TestRun<'a, 'p> {
    /// Materializes one worker's start point (the per-worker state of
    /// `parallel_map_with`): the lent walk for the first worker, a walk
    /// of its own for any other.
    fn start<'w>(
        &self,
        lent: &Mutex<Option<&'w mut CaptureWalk<'p>>>,
    ) -> Option<ForkStart<'w, 'p>> {
        if !self.forks {
            return None;
        }
        if let Some(walk) = lent.lock().expect("lent walk").take() {
            return Some(ForkStart::Lent(walk));
        }
        let mut walk = Box::new(CaptureWalk::new(self.prog, self.mir));
        let (seed, tracer) = (prefix_seed(self.cfg, self.test_idx), &self.obs.tracer);
        walk.advance(self.seeds, self.plan, seed, tracer, self.span)
            .expect("a seed-independent prefix forks on every walk");
        Some(ForkStart::Own(walk))
    }

    /// Where one trial under machine seed `machine_seed` starts: the fork
    /// start's machine and detectors, rewound to the fork point and
    /// reseeded, with the resolved prefix; or, without one, a fresh
    /// machine and fresh detectors (stored in `fresh`) that run the whole
    /// plan from `main()`.
    fn trial<'s>(
        &self,
        start: &'s mut Option<ForkStart<'_, 'p>>,
        fresh: &'s mut Option<(Machine<'p>, DetectorPair)>,
        machine_seed: u64,
    ) -> (
        &'s mut Machine<'p>,
        &'s mut DetectorPair,
        Option<&'s PlanPrefix>,
    ) {
        match start {
            Some(s) => {
                let (machine, detectors, prefix) = s
                    .walk()
                    .probe(machine_seed)
                    .expect("a fork start holds a fork point");
                (machine, detectors, Some(prefix))
            }
            None => {
                let machine = trial_machine(self.prog, self.mir, machine_seed);
                let (machine, detectors) = fresh.insert((machine, DetectorPair::default()));
                (machine, detectors, None)
            }
        }
    }

    /// Runs the plan once on `machine`: only the suffix when it stands at
    /// the fork point (`prefix` is `Some`), else the whole plan. A fork
    /// start reproduces exactly the state a fresh start reaches at the
    /// fork point (the prefix drew no RNG), and schedulers are consulted
    /// only in the suffix, so both record the same suffix-only schedules.
    fn run<S: Scheduler + ?Sized, K: EventSink>(
        &self,
        machine: &mut Machine<'p>,
        prefix: Option<&PlanPrefix>,
        sched: &mut S,
        sink: &mut K,
    ) -> Result<ExecReport, ExecError> {
        let budget = self.cfg.budget;
        match prefix {
            Some(p) => execute_plan_suffix(machine, self.plan, p, sched, sink, budget),
            None => execute_plan(machine, self.seeds, self.plan, sched, sink, budget),
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
        let mut fresh = None;
        let (machine, detectors, prefix) = self.trial(start, &mut fresh, machine_seed);
        let DetectorPair { lockset, hb } = detectors;
        let mut sink = SaturationWatch::new(lockset, hb);
        let mut inner = cfg.strategy.build(sched_seed, cfg.pct_horizon);
        let mut observed = ObservedScheduler::new(&mut *inner, &obs.metrics);
        let mut sched = RecordingScheduler::new(&mut observed);
        let run = self.run(machine, prefix, &mut sched, &mut sink);
        drop(sink);
        count_outcome(obs, &run);
        run.map_err(|e| e.to_string())?;
        // Stamp every report with the manifesting run's identity so
        // rendered races name their replayable schedule.
        let schedule = sched.into_schedule(machine_seed);
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
            scheduler: schedule.scheduler,
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
                let mut fresh = None;
                let (machine, _, prefix) = self.trial(start, &mut fresh, machine_seed);
                let run = self.run(machine, prefix, &mut rec, &mut NullSink);
                // Moved out, not cloned: only a confirming attempt turns
                // them into a schedule.
                let mut choices = rec.into_choices();
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
                let Some(pos) = sched.confirmed.iter().position(|c| c.key == *fine) else {
                    continue;
                };
                obs.metrics
                    .histogram("detect.trials_to_first_confirm", TRIAL_BUCKETS)
                    .observe(attempts);
                // The schedule outlives the attempt in the report: keep
                // no spare capacity.
                choices.shrink_to_fit();
                let schedule = Schedule::new(sched.name(), machine_seed, choices);
                let mut c = sched.confirmed.swap_remove(pos);
                // Attach the replayable interleaving; shrink it first
                // when fixtures are being committed.
                c.schedule = Some(match cfg.minimize {
                    true => {
                        match minimize_schedule(
                            self.prog, self.mir, self.seeds, self.plan, cfg.budget, fine, &schedule,
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
/// span (the builders and setters after the captures) beside its
/// `detect.trial` and `detect.confirm` spans.
///
/// This is [`evaluate_suite_full`]'s capture walk over one plan: the
/// prefix runs once on one machine and detector pair, and every trial
/// rewinds both to the fork point. The capture runs are `detect.capture`
/// spans under `detect.test`.
pub fn evaluate_test_observed(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
    obs: &Obs,
) -> TestReport {
    let test_span = span!(obs.tracer, "detect.test", test = test_idx);
    let plans = [WalkPlan {
        plan,
        seed: prefix_seed(cfg, test_idx),
    }];
    let mut report = None;
    CaptureWalk::new(prog, mir).walk(
        seeds,
        &plans,
        &obs.tracer,
        test_span.id(),
        &mut |walk, _| {
            report = Some(evaluate_plan(
                walk,
                seeds,
                plan,
                cfg,
                test_idx,
                obs,
                test_span.id(),
            ));
        },
    );
    report.expect("the walk visits its one plan")
}

/// [`evaluate_test_observed`]'s protocol on `walk`, which stands right
/// after the plan's captures (see [`CaptureWalk::walk`]), under the
/// plan's `detect.test` span `span`.
fn evaluate_plan<'p>(
    walk: &mut CaptureWalk<'p>,
    seeds: &[TestId],
    plan: &TestPlan,
    cfg: &DetectConfig,
    test_idx: u64,
    obs: &Obs,
    span: Option<u64>,
) -> TestReport {
    let (prog, mir) = walk.program();
    let index = MethodIndex::new(prog);
    let mut report = TestReport::default();
    // Coarse race → the fine site pairs witnessing it (confirmation
    // targets).
    let mut detected: BTreeMap<CoarseRaceKey, Vec<StaticRaceKey>> = BTreeMap::new();
    let mut seen_fine: BTreeSet<StaticRaceKey> = BTreeSet::new();
    // Distinct schedule digests this test's trials manifested — the
    // exploration-diversity signal (`explore.schedule_novelty`).
    let mut sched_ids: BTreeSet<u64> = BTreeSet::new();

    let mut run = TestRun {
        prog,
        mir,
        seeds,
        plan,
        cfg,
        test_idx,
        obs,
        span,
        forks: false,
    };

    // The rest of the prefix (builders and setters) runs once, streaming
    // its events into the walk's detectors. A test that cannot fork (the
    // prefix failed or drew from the RNG) runs from fresh starts, whose
    // trial/error semantics are those of re-executing from `main()`; the
    // attempt touches no shared telemetry beyond the RNG fallback
    // counter.
    {
        let _s = obs.tracer.span_under("detect.prefix", span);
        match walk.fork(plan) {
            Ok(()) => run.forks = true,
            Err(NoFork::PrefixDrewRng) => {
                obs.metrics.counter("explore.prefix_rng_fallbacks").inc();
            }
            Err(NoFork::PrefixFailed) => {}
        }
    }

    // Pass 1: random schedules with passive detectors, sharded per trial;
    // the merge below consumes results in trial order.
    let trials: Vec<u64> = (0..cfg.schedule_trials as u64).collect();
    let trial_results = {
        let lent = Mutex::new(Some(&mut *walk));
        parallel_map_with(
            cfg.threads,
            &trials,
            || run.start(&lent),
            |start, _, &trial| {
                let mut s = obs.tracer.span_under("detect.trial", run.span);
                s.attr("trial", &trial);
                run.detection_trial(start, trial)
            },
        )
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
    let confirmations = {
        let lent = Mutex::new(Some(&mut *walk));
        parallel_map_with(
            cfg.threads,
            &targets,
            || run.start(&lent),
            |start, _, (_, fine_keys)| {
                let _s = obs.tracer.span_under("detect.confirm", run.span);
                run.confirm_race(start, fine_keys)
            },
        )
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
/// The plans are walked in [`walk_units`]: subtrees of the plans'
/// capture trie, the whole class at one worker, each on its own machine
/// and detector pair, whose capture walk (see [`crate::walk`]) runs the
/// seed tests once per capture-trie node for all the plans below it; its
/// capture runs are `detect.capture` spans under `stage.detect`. Units
/// are claimed dynamically by the worker pool; a plan's trials run on
/// the workers the units leave spare (inline when there are at least as
/// many units as workers, so the pool is never oversubscribed). Every
/// report equals the one [`evaluate_test_observed`] gives its plan
/// alone. The aggregation walks the reports in plan order, keeping the
/// totals identical at any thread count.
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
    // Outer fan-out over walk units. A unit's trials get the workers the
    // units leave spare, so the worker count stays bounded by `threads`.
    let threads = effective_threads(cfg.threads);
    let units = walk_units(plans, threads);
    let inner_cfg = DetectConfig {
        threads: (threads / units.len().max(1)).max(1),
        ..cfg.clone()
    };
    let stage_id = stage_span.id();
    let walked = parallel_map(threads, &units, |_, unit| {
        let unit_plans: Vec<WalkPlan> = unit
            .iter()
            .map(|&i| WalkPlan {
                plan: plans[i],
                seed: prefix_seed(cfg, i as u64),
            })
            .collect();
        let mut reports = Vec::with_capacity(unit.len());
        let mut walk = CaptureWalk::new(prog, mir);
        walk.walk(seeds, &unit_plans, &obs.tracer, stage_id, &mut |walk, k| {
            let i = unit[k];
            let s = span!(obs.tracer, "detect.test", test = i);
            let report = evaluate_plan(walk, seeds, plans[i], &inner_cfg, i as u64, obs, s.id());
            reports.push((i, report));
        });
        reports
    });
    let mut by_plan: Vec<Option<TestReport>> = plans.iter().map(|_| None).collect();
    for (i, r) in walked.into_iter().flatten() {
        by_plan[i] = Some(r);
    }
    let reports: Vec<TestReport> = by_plan
        .into_iter()
        .map(|r| r.expect("every plan is walked once"))
        .collect();
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

/// The capture walk's units of parallel work for `threads` workers: sets
/// of plans, each walked on its own machine. A unit that holds more than
/// its share of the plans (`1/threads` of them) is split by the next
/// capture method its plans differ in, since the sub-units each walk on
/// their own machine and re-run the captures they share; a unit whose
/// plans share every capture stays whole. At one worker the class is one
/// unit, whose walk runs the seed tests once for the whole class. Units
/// with more plans come first, so that the pool, which claims units in
/// order, does not take a heavy one last (on C6 at two workers this cuts
/// the wall time by about a fifth against first-capture order).
fn walk_units(plans: &[&TestPlan], threads: usize) -> Vec<Vec<usize>> {
    let mut units = Vec::new();
    split_unit(plans, threads, 0, (0..plans.len()).collect(), &mut units);
    units.sort_by_key(|u| Reverse(u.len()));
    units
}

/// [`walk_units`] for `unit`, plans that share their first `depth`
/// capture methods, appending the units it splits into to `units`.
fn split_unit(
    plans: &[&TestPlan],
    threads: usize,
    depth: usize,
    unit: Vec<usize>,
    units: &mut Vec<Vec<usize>>,
) {
    let mut next: BTreeMap<Option<MethodId>, Vec<usize>> = BTreeMap::new();
    for &i in &unit {
        let method = plans[i].captures.get(depth).map(|c| c.method);
        next.entry(method).or_default().push(i);
    }
    if unit.len() * threads <= plans.len() || next.keys().eq([&None]) {
        units.push(unit);
        return;
    }
    for sub in next.into_values() {
        split_unit(plans, threads, depth + 1, sub, units);
    }
}
