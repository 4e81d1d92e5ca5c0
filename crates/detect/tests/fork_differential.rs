//! Fork-vs-fresh differential: the per-trial and per-suite oracle for
//! the capture walk.
//!
//! Every trial forks: the test's prefix runs once on a capture walk's
//! machine and detector pair, and each probe rewinds both to the fork
//! point, reseeds the machine and runs only the suffix. Here each
//! detection trial (Random and PCT) and each RaceFuzzer attempt runs
//! through that production rewind path and also from `main()` on a new
//! machine with new detectors; outcome, schedule, race lists and
//! confirmation must match, and `evaluate_test_observed`'s report must
//! equal the one the fresh runs assemble. `evaluate_suite_full` walks a
//! class's plans sharing capture runs between them; each of its reports
//! must equal `evaluate_test_observed` on that plan alone, and verdicts
//! and manifests must not depend on the worker count (1, 2 or 8). Small
//! classes pin a suffix that draws from `rand()` (reseeding), a setter
//! parked in the prefix (detectors that saw it), both fallbacks to fresh
//! starts, and both again under a first capture that several plans
//! share. Quick mode covers C1–C5 and an 8-class difftest slice;
//! `NARADA_FORK_FULL=1` covers C1–C9 and 32.

use narada_core::synth::{
    execute_plan, execute_plan_prefix, execute_plan_suffix, ExecReport, PlanPrefix,
};
use narada_core::{synthesize_source, SynthesisOptions, SynthesisOutput, TestPlan};
use narada_detect::{
    evaluate_suite_full, evaluate_test_observed, CaptureWalk, ClassDetection, ConfirmedRace,
    DetectConfig, DetectorPair, MethodIndex, NoFork, RaceFuzzerScheduler, RaceReport,
    SaturationWatch, StaticRaceKey, TestReport,
};
use narada_difftest::{run_sweep, DiffConfig};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{MetricValue, Obs, RunManifest, Tracer};
use narada_vm::rng::derive_seed;
use narada_vm::{EventSink, Machine, MachineOptions, NullSink};
use narada_vm::{RecordingScheduler, ScheduleStrategy, Scheduler};
use std::collections::{BTreeMap, BTreeSet};

/// `evaluate_test_observed`'s seed stages: trial `t` of test `i` draws
/// `derive_seed(seed, &[stage, i, t])`, so the fresh runs here are the
/// very trials the pipeline forks.
const DETECT_MACHINE: u64 = 1;
const DETECT_SCHED: u64 = 2;
const CONFIRM_MACHINE: u64 = 3;
const CONFIRM_SCHED: u64 = 4;

const PCT: ScheduleStrategy = ScheduleStrategy::Pct { depth: 3 };

fn full() -> bool {
    std::env::var("NARADA_FORK_FULL").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn cfg(strategy: ScheduleStrategy, threads: usize) -> DetectConfig {
    DetectConfig {
        schedule_trials: 5,
        confirm_trials: 4,
        seed: 0xf04c,
        budget: 1_000_000,
        threads,
        strategy,
        ..DetectConfig::default()
    }
}

type Suite = (Program, MirProgram, SynthesisOutput);

fn synth(source: &str) -> Suite {
    let opts = SynthesisOptions {
        threads: 1,
        ..SynthesisOptions::default()
    };
    synthesize_source(source, &opts).unwrap_or_else(|e| panic!("synthesis failed: {e:?}"))
}

fn seeds_of(prog: &Program) -> Vec<TestId> {
    prog.tests.iter().map(|t| t.id).collect()
}

fn machine<'p>(prog: &'p Program, mir: &'p MirProgram, seed: u64) -> Machine<'p> {
    let opts = MachineOptions {
        seed,
        ..MachineOptions::default()
    };
    Machine::new(prog, mir, opts)
}

/// A fork worker as `evaluate_test_observed` builds one: the capture
/// walk advanced to the plan's fork point, its machine and detectors
/// rewound there before every probe.
struct Fork<'p> {
    walk: CaptureWalk<'p>,
}

/// Where one probe starts: the fork's machine and detectors, rewound and
/// reseeded, with the resolved prefix; or a new machine and new
/// detectors that run the whole plan from `main()`.
type Start<'s, 'p> = (
    &'s mut Machine<'p>,
    &'s mut DetectorPair,
    Option<&'s PlanPrefix>,
);

/// One synthesized test and the seeds its objects are collected from.
struct Plan<'a> {
    prog: &'a Program,
    mir: &'a MirProgram,
    seeds: &'a [TestId],
    plan: &'a TestPlan,
}

impl<'a> Plan<'a> {
    /// Test `i` of `suite`.
    fn of((prog, mir, out): &'a Suite, seeds: &'a [TestId], i: usize) -> Self {
        let plan = &out.tests[i].plan;
        Plan {
            prog,
            mir,
            seeds,
            plan,
        }
    }

    fn fork(&self, seed0: u64) -> Result<Fork<'a>, NoFork> {
        let mut walk = CaptureWalk::new(self.prog, self.mir);
        let quiet = Tracer::disabled();
        walk.advance(self.seeds, self.plan, seed0, &quiet, None)?;
        Ok(Fork { walk })
    }

    fn start<'s>(
        &self,
        fork: Option<&'s mut Fork<'a>>,
        fresh: &'s mut Option<(Machine<'a>, DetectorPair)>,
        seed: u64,
    ) -> Start<'s, 'a> {
        match fork {
            Some(f) => {
                let (m, d, prefix) = f.walk.probe(seed).expect("the fork holds a fork point");
                (m, d, Some(prefix))
            }
            None => {
                let m = machine(self.prog, self.mir, seed);
                let (m, d) = fresh.insert((m, DetectorPair::default()));
                (m, d, None)
            }
        }
    }

    /// Runs the plan once on `m`: the suffix when it stands at the fork
    /// point (`prefix` is `Some`), else the whole plan.
    fn run(
        &self,
        m: &mut Machine<'a>,
        prefix: Option<&PlanPrefix>,
        sched: &mut dyn Scheduler,
        sink: &mut dyn EventSink,
    ) -> Result<ExecReport, String> {
        let budget = 1_000_000;
        match prefix {
            Some(p) => execute_plan_suffix(m, self.plan, p, sched, sink, budget),
            None => execute_plan(m, self.seeds, self.plan, sched, sink, budget),
        }
        .map_err(|e| e.to_string())
    }

    /// One detection probe (new detectors on a fresh run, the fork's
    /// detectors rewound to its fork point on a fork): its races, and
    /// everything it shows in Debug form.
    fn detect(
        &self,
        fork: Option<&mut Fork<'a>>,
        strategy: &ScheduleStrategy,
        (ms, ss): (u64, u64),
    ) -> (Result<Vec<RaceReport>, String>, String) {
        let mut fresh = None;
        let (m, pair, prefix) = self.start(fork, &mut fresh, ms);
        let DetectorPair { lockset, hb } = pair;
        let mut inner = strategy.build(ss, 1_000);
        let mut rec = RecordingScheduler::new(&mut *inner);
        let mut sink = SaturationWatch::new(lockset, hb);
        let run = self.run(m, prefix, &mut rec, &mut sink);
        drop(sink);
        let races: Vec<RaceReport> = lockset.races().iter().chain(hb.races()).cloned().collect();
        let shown = format!("{run:?}\n{:?}\n{races:?}", rec.into_schedule(ms));
        (run.map(|_| races), shown)
    }

    /// One RaceFuzzer probe aimed at `key`: the confirmed race with its
    /// schedule attached, and everything the probe shows.
    fn confirm(
        &self,
        fork: Option<&mut Fork<'a>>,
        key: StaticRaceKey,
        (ms, ss): (u64, u64),
    ) -> (Option<ConfirmedRace>, String) {
        let mut sched = RaceFuzzerScheduler::new(key, ss);
        let mut rec = RecordingScheduler::new(&mut sched);
        let mut fresh = None;
        let (m, _, prefix) = self.start(fork, &mut fresh, ms);
        let run = self.run(m, prefix, &mut rec, &mut NullSink);
        let schedule = rec.into_schedule(ms);
        let shown = format!(
            "{run:?}\n{schedule:?}\n{:?} {}",
            sched.confirmed, sched.gave_up
        );
        let hit = sched
            .confirmed
            .into_iter()
            .find(|c| run.is_ok() && c.key == key);
        let hit = hit.map(|c| ConfirmedRace {
            schedule: Some(schedule),
            ..c
        });
        (hit, shown)
    }

    /// Runs `probe` fresh and, when the test forks, from the fork too,
    /// demanding that both show the same; returns the fresh result.
    fn both<T>(
        &self,
        fork: &mut Option<Fork<'a>>,
        what: &str,
        probe: impl Fn(Option<&mut Fork<'a>>) -> (T, String),
    ) -> T {
        let (fresh, shown) = probe(None);
        if let Some(f) = fork {
            assert_eq!(probe(Some(f)).1, shown, "{what}");
        }
        fresh
    }

    /// Test `ti`'s detection protocol with every trial and attempt run
    /// both ways; returns the report the fresh runs assemble.
    fn oracle(&self, fork: &mut Option<Fork<'a>>, cfg: &DetectConfig, ti: u64) -> TestReport {
        let seed = |stage, t| derive_seed(cfg.seed, &[stage, ti, t]);
        let index = MethodIndex::new(self.prog);
        let mut detected: BTreeMap<_, Vec<StaticRaceKey>> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        for t in 0..cfg.schedule_trials as u64 {
            let what = format!("test {ti}, {:?} trial {t}", cfg.strategy);
            let probe = |f: Option<&mut Fork<'a>>| {
                let seeds = (seed(DETECT_MACHINE, t), seed(DETECT_SCHED, t));
                self.detect(f, &cfg.strategy, seeds)
            };
            let races = match self.both(fork, &what, probe) {
                Ok(races) => races,
                Err(e) => {
                    return TestReport {
                        setup_errors: vec![e],
                        ..TestReport::default()
                    }
                }
            };
            for r in &races {
                let fine = r.static_key();
                if seen.insert(fine) {
                    detected.entry(index.coarsen(r)).or_default().push(fine);
                }
            }
        }
        let mut reproduced = Vec::new();
        for (coarse, fine_keys) in &detected {
            let mut first = None;
            for &fine in fine_keys {
                for t in 0..cfg.confirm_trials as u64 {
                    let what = format!("test {ti}, confirm {fine:?} attempt {t}");
                    let probe = |f: Option<&mut Fork<'a>>| {
                        let seeds = (seed(CONFIRM_MACHINE, t), seed(CONFIRM_SCHED, t));
                        self.confirm(f, fine, seeds)
                    };
                    first = first.or(self.both(fork, &what, probe));
                }
            }
            reproduced.extend(first.map(|c| (*coarse, c)));
        }
        let detected = detected.into_keys().collect();
        TestReport {
            detected,
            reproduced,
            setup_errors: Vec::new(),
        }
    }
}

/// Checks every plan of `suite`, under the Random and PCT schedulers,
/// against the fresh-start oracle. Returns how many plans forked.
fn check_class(label: &str, suite: &Suite) -> usize {
    let (prog, mir, out) = suite;
    let seeds = seeds_of(prog);
    let mut forked = 0;
    for (i, t) in out.tests.iter().enumerate() {
        let ti = i as u64;
        let plan = Plan::of(suite, &seeds, i);
        for strategy in [ScheduleStrategy::Random, PCT] {
            let c = cfg(strategy, 1);
            let mut fork = plan
                .fork(derive_seed(c.seed, &[DETECT_MACHINE, ti, 0]))
                .ok();
            forked += usize::from(fork.is_some());
            let expected = plan.oracle(&mut fork, &c, ti);
            let got = evaluate_test_observed(prog, mir, &seeds, &t.plan, &c, ti, &Obs::new());
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "{label} test {i}"
            );
        }
    }
    forked
}

/// Runs `suite` at threads 1/2/8 and demands the same reports,
/// aggregate and manifest metric section from each, and that each
/// report equal `evaluate_test_observed` on its plan alone at the same
/// worker count, the plans alone recording the same metrics in all
/// (but the suite's own `detect.jobs`). Returns that rendering and the
/// registry of the last run.
fn assert_thread_invariant(
    label: &str,
    (prog, mir, out): &Suite,
    seeds: &[TestId],
) -> (String, Obs) {
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let run = |threads| {
        let obs = Obs::new();
        let c = cfg(PCT, threads);
        let (reports, a) = evaluate_suite_full(prog, mir, seeds, &plans, &c, &obs);
        let alone_obs = Obs::new();
        for (i, (plan, report)) in plans.iter().zip(&reports).enumerate() {
            let alone = evaluate_test_observed(prog, mir, seeds, plan, &c, i as u64, &alone_obs);
            assert_eq!(
                format!("{report:?}"),
                format!("{alone:?}"),
                "{label} test {i}: suite walk vs the plan alone, threads={threads}"
            );
        }
        let section = |o: &Obs| {
            let mut m = RunManifest::from_obs("fork-diff", 1, o);
            m.metrics.retain(|(k, _)| k != "detect.jobs");
            m.metrics_json().to_compact()
        };
        let metrics = section(&obs);
        assert_eq!(
            metrics,
            section(&alone_obs),
            "{label}: suite walk vs the plans alone, threads={threads}"
        );
        // Wall clock is the one field that may differ between runs.
        let a = ClassDetection {
            elapsed: Default::default(),
            ..a
        };
        let shown = format!("{reports:?}\n{a:?}\n{metrics}");
        (shown, obs)
    };
    let (base, _) = run(1);
    assert_eq!(run(2).0, base, "{label}: threads=2");
    let (eight, obs) = run(8);
    assert_eq!(eight, base, "{label}: threads=8");
    (base, obs)
}

#[test]
fn corpus_forks_match_fresh_runs_at_every_thread_count() {
    let entries = narada_corpus::all();
    let take = if full() { entries.len() } else { 5 };
    let mut forked = 0;
    for entry in entries.iter().take(take) {
        let suite = synth(entry.source);
        forked += check_class(entry.id, &suite);
        assert_thread_invariant(entry.id, &suite, &seeds_of(&suite.0));
    }
    assert!(
        forked > 0,
        "no plan forked: the differential proved nothing"
    );
}

/// `put` draws from `rand()` after the fork point, so each probe's
/// accesses depend on its reseed; `get` runs first in the seed test, so
/// collecting either capture draws nothing.
const RNG_SUFFIX: &str = r#"
    class Cell {
        int v;
        int w;
        void put(int x) { var r = rand(); if (r % 2 == 0) { this.v = x; } else { this.w = x; } }
        int get() { return this.v; }
    }
    test seed { var c = new Cell(); var g = c.get(); c.put(1); }
"#;

#[test]
fn rng_drawing_suffix_forks_and_matches_fresh_runs() {
    let suite = synth(RNG_SUFFIX);
    assert!(check_class("rng-suffix", &suite) > 0, "must fork");
    let seeds = seeds_of(&suite.0);
    let plan = Plan::of(&suite, &seeds, 0);
    let mut fork = plan.fork(0).expect("forks");
    let (run, _) = plan.detect(Some(&mut fork), &ScheduleStrategy::Random, (1, 1));
    run.expect("the suffix runs");
    assert!(
        fork.walk.machine().rng_draws() > 0,
        "the suffix must draw from the RNG"
    );
}

/// `set` installs the client object, then clobbers it, so plans invoke
/// it partially: a helper thread writes `this.x` in the prefix and
/// stays parked. That write races with `touch`'s read in the suffix,
/// which only detectors that saw the prefix can report.
const PARKED_SETTER: &str = r#"
    class X { int o; }
    class H {
        X x;
        void set(X v) { this.x = v; this.x = new X(); }
        void touch() { this.x.o = this.x.o + 1; }
    }
    test seed { var x = new X(); var h = new H(); h.set(x); h.touch(); }
"#;

#[test]
fn parked_setter_prefix_races_with_the_suffix() {
    let suite = synth(PARKED_SETTER);
    assert!(check_class("parked-setter", &suite) > 0, "must fork");
    let (prog, mir, out) = &suite;
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let c = cfg(ScheduleStrategy::Random, 1);
    let (reports, _) = evaluate_suite_full(prog, mir, &seeds_of(prog), &plans, &c, &Obs::new());
    let set = prog.methods.iter().find(|m| m.name == "set").map(|m| m.id);
    let keys = || reports.iter().flat_map(|r| &r.detected);
    assert!(
        keys().any(|k| k.method_a == set || k.method_b == set),
        "{reports:?}"
    );
}

/// `seed` calls `rand()` before reaching the racy calls, so collecting
/// captures from it makes every prefix seed-dependent. `bystander` calls
/// no `Cell` method, so collecting from it alone misses every capture.
const FALLBACKS: &str = r#"
    class Cell { int v; void put(int x) { this.v = x; } int get() { return this.v; } }
    test seed { var c = new Cell(); var r = rand(); c.put(r); var g = c.get(); }
    test bystander { var c = new Cell(); }
"#;

#[test]
fn rng_drawing_prefix_falls_back_to_fresh_starts() {
    let suite = synth(FALLBACKS);
    let (seeds, tests) = (seeds_of(&suite.0), suite.2.tests.len());
    assert!(tests > 0, "nothing synthesized");
    for i in 0..tests {
        let plan = Plan::of(&suite, &seeds, i);
        assert_eq!(plan.fork(0).err(), Some(NoFork::PrefixDrewRng));
    }
    assert_eq!(check_class("rng-prefix", &suite), 0);
    let (_, obs) = assert_thread_invariant("rng-prefix", &suite, &seeds);
    let fallbacks = obs.metrics.value("explore.prefix_rng_fallbacks");
    assert_eq!(fallbacks, Some(MetricValue::Counter(tests as u64)));
}

#[test]
fn capture_miss_falls_back_to_fresh_starts() {
    let suite = synth(FALLBACKS);
    let bystander = &seeds_of(&suite.0)[1..];
    let (shown, obs) = assert_thread_invariant("capture", &suite, bystander);
    let misses = shown
        .matches("setup_errors: [\"no seed invocation of Cell.")
        .count();
    assert_eq!(
        misses,
        suite.2.tests.len(),
        "every test reports its capture miss: {shown}"
    );
    assert_eq!(obs.metrics.value("explore.prefix_rng_fallbacks"), None);
}

/// Three racy methods on one cell, so several plans share their first
/// capture. `seed` draws from `rand()` before any call, so that shared
/// capture is seed-dependent; `bystander` calls no `Acc` method, so
/// collecting from it alone misses every capture, shared ones included.
const SHARED_CAPTURE: &str = r#"
    class Acc {
        int v;
        void put(int x) { this.v = x; }
        int get() { return this.v; }
        void bump() { this.v = this.v + 1; }
    }
    test seed { var a = new Acc(); var r = rand(); a.put(r); var g = a.get(); a.bump(); }
    test bystander { var a = new Acc(); }
"#;

/// Synthesizes [`SHARED_CAPTURE`] and checks that some first capture is
/// shared by several plans.
fn shared_capture_suite() -> Suite {
    let suite = synth(SHARED_CAPTURE);
    let firsts: Vec<_> = suite.2.tests.iter().map(|t| t.plan.captures[0]).collect();
    let shared = firsts
        .iter()
        .any(|f| firsts.iter().filter(|g| *g == f).count() > 1);
    assert!(shared, "no two plans share a first capture: {firsts:?}");
    suite
}

#[test]
fn shared_rng_drawing_capture_sends_every_plan_to_fresh_starts() {
    let suite = shared_capture_suite();
    let (seeds, tests) = (seeds_of(&suite.0), suite.2.tests.len());
    for i in 0..tests {
        let plan = Plan::of(&suite, &seeds, i);
        assert_eq!(plan.fork(0).err(), Some(NoFork::PrefixDrewRng));
    }
    let (_, obs) = assert_thread_invariant("shared-rng", &suite, &seeds);
    let fallbacks = obs.metrics.value("explore.prefix_rng_fallbacks");
    assert_eq!(fallbacks, Some(MetricValue::Counter(tests as u64)));
}

#[test]
fn shared_missing_capture_fails_every_plan() {
    let suite = shared_capture_suite();
    let bystander = &seeds_of(&suite.0)[1..];
    let (shown, obs) = assert_thread_invariant("shared-miss", &suite, bystander);
    let misses = shown
        .matches("setup_errors: [\"no seed invocation of Acc.")
        .count();
    assert_eq!(misses, suite.2.tests.len(), "{shown}");
    assert_eq!(obs.metrics.value("explore.prefix_rng_fallbacks"), None);
}

/// `get` comes first in `seed`, so collecting it draws nothing and is a
/// node every plan under it can share. Past the `rand()` after it, the
/// seed run traps on a zero divisor for half the draws, so collecting
/// `put`, `bump` or `drop` from that node either draws and forks
/// nowhere or fails, depending on the plan's own seed. A walk that resumed at the
/// shared node under another plan's seed would count a different number
/// of RNG fallbacks.
const RNG_AFTER_SHARED: &str = r#"
    class Acc {
        int v;
        void put(int x) { this.v = x; }
        int get() { return this.v; }
        void bump() { this.v = this.v + 1; }
        void drop() { this.v = this.v - 1; }
    }
    test seed {
        var a = new Acc();
        var g = a.get();
        var r = rand();
        var z = 1 / (r % 2);
        a.put(z);
        a.bump();
        a.drop();
    }
"#;

#[test]
fn rng_after_a_shared_capture_classifies_each_plan_under_its_own_seed() {
    let suite = synth(RNG_AFTER_SHARED);
    let seeds = seeds_of(&suite.0);
    let (_, obs) = assert_thread_invariant("rng-after-shared", &suite, &seeds);
    let fallbacks = match obs.metrics.value("explore.prefix_rng_fallbacks") {
        Some(MetricValue::Counter(n)) => n,
        _ => 0,
    };
    // Each plan's prefix on a new machine under its own prefix seed,
    // the way a fresh start runs it: both outcomes occur.
    let (prog, mir, out) = &suite;
    let alone: Vec<_> = out
        .tests
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let seed0 = derive_seed(cfg(PCT, 1).seed, &[DETECT_MACHINE, i as u64, 0]);
            let m = &mut machine(prog, mir, seed0);
            match execute_plan_prefix(m, &seeds, &t.plan, &mut NullSink) {
                Err(_) => Some(NoFork::PrefixFailed),
                Ok(_) if m.rng_draws() > 0 => Some(NoFork::PrefixDrewRng),
                Ok(_) => None,
            }
        })
        .collect();
    let drew = alone.iter().filter(|e| **e == Some(NoFork::PrefixDrewRng));
    assert_eq!(drew.count() as u64, fallbacks, "{alone:?}");
    assert!(fallbacks > 0, "no plan drew from the RNG: {alone:?}");
    assert!(
        alone.contains(&Some(NoFork::PrefixFailed)),
        "no plan missed `put`: {alone:?}"
    );
}

/// Whole difftest sweeps (screener vs dynamic pipeline) produce the
/// same digest and summary at several thread counts.
#[test]
fn difftest_slice_thread_invariant() {
    let count = if full() { 32 } else { 8 };
    let sweep = |threads| {
        let c = DiffConfig {
            count,
            threads,
            schedule_trials: 4,
            confirm_trials: 3,
            ..DiffConfig::default()
        };
        let report = run_sweep(&c, &Obs::new());
        (report.digest, report.summary())
    };
    let baseline = sweep(1);
    for t in if full() { vec![2, 8] } else { vec![2] } {
        assert_eq!(sweep(t), baseline, "difftest sweep at threads={t}");
    }
}
