//! Fork-vs-fresh differential: the per-trial oracle for the fork
//! explorer.
//!
//! Every trial forks: the test's prefix runs once into prototype
//! detectors, and each probe rewinds a worker machine to the fork point,
//! reseeds it, clones the prototypes and runs only the suffix. Here
//! each detection trial (Random and PCT) and each RaceFuzzer attempt
//! also runs the whole plan from `main()` on a new machine with new
//! detectors; outcome, schedule, race lists and confirmation must
//! match, and `evaluate_test_observed`'s report must equal the one the
//! fresh runs assemble. Verdicts and manifests must not depend on the
//! worker count. Small classes pin a suffix that draws from `rand()`
//! (reseeding), a setter parked in the prefix (prototype detectors),
//! and both fallbacks to fresh starts. Quick mode covers C1–C5 and an
//! 8-class difftest slice; `NARADA_FORK_FULL=1` covers C1–C9 and 32.

use narada_core::synth::{execute_plan, execute_plan_suffix, ExecReport};
use narada_core::{synthesize_source, SynthesisOptions, SynthesisOutput, TestPlan};
use narada_detect::{
    evaluate_suite_full, evaluate_test_observed, ClassDetection, ConfirmedRace, DetectConfig,
    MethodIndex, RaceFuzzerScheduler, RaceReport, SaturationWatch, StaticRaceKey, TestReport,
};
use narada_detect::{FastTrackDetector, LocksetDetector};
use narada_difftest::{run_sweep, DiffConfig};
use narada_explore::{prepare_fork_point, ForkPoint, NoFork};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_obs::{MetricValue, Obs, RunManifest};
use narada_vm::rng::derive_seed;
use narada_vm::{EventSink, Machine, MachineMark, MachineOptions, NullSink};
use narada_vm::{RecordingScheduler, ScheduleStrategy, Scheduler, TeeSink};
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

/// A fork worker as `evaluate_test_observed` builds one: the prefix
/// streamed into prototype detectors, and a machine restored from the
/// snapshot and marked, to be rewound before every probe.
struct Fork<'p> {
    fp: ForkPoint,
    protos: (LocksetDetector, FastTrackDetector),
    machine: Machine<'p>,
    mark: MachineMark,
}

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
        let mut m = machine(self.prog, self.mir, seed0);
        let (mut a, mut b) = (LocksetDetector::new(), FastTrackDetector::new());
        let tee = &mut TeeSink {
            a: &mut a,
            b: &mut b,
        };
        let fp = prepare_fork_point(&mut m, self.seeds, self.plan, tee)?;
        let mut machine = machine(self.prog, self.mir, seed0);
        machine.restore(&fp.snapshot);
        let mark = machine.mark();
        let protos = (a, b);
        Ok(Fork {
            fp,
            protos,
            machine,
            mark,
        })
    }

    /// Runs the plan once: from `fork`, or from `main()` on a new machine.
    fn run(
        &self,
        fork: Option<&mut Fork<'a>>,
        seed: u64,
        sched: &mut dyn Scheduler,
        sink: &mut dyn EventSink,
    ) -> Result<ExecReport, String> {
        let budget = 1_000_000;
        match fork {
            Some(f) => {
                f.machine.rewind(&f.mark);
                f.machine.reseed(seed);
                execute_plan_suffix(&mut f.machine, self.plan, &f.fp.prefix, sched, sink, budget)
            }
            None => {
                let m = &mut machine(self.prog, self.mir, seed);
                execute_plan(m, self.seeds, self.plan, sched, sink, budget)
            }
        }
        .map_err(|e| e.to_string())
    }

    /// One detection probe (new detectors on a fresh run, the
    /// prototypes' clones on a fork): its races, and everything it
    /// shows in Debug form.
    fn detect(
        &self,
        fork: Option<&mut Fork<'a>>,
        strategy: &ScheduleStrategy,
        (ms, ss): (u64, u64),
    ) -> (Result<Vec<RaceReport>, String>, String) {
        let (mut lockset, mut hb) = fork
            .as_ref()
            .map_or_else(Default::default, |f| f.protos.clone());
        let mut inner = strategy.build(ss, 1_000);
        let mut rec = RecordingScheduler::new(&mut *inner);
        let run = self.run(
            fork,
            ms,
            &mut rec,
            &mut SaturationWatch::new(&mut lockset, &mut hb),
        );
        let races: Vec<RaceReport> = lockset.races().iter().chain(hb.races()).cloned().collect();
        let shown = format!("{run:?}\n{:?}\n{races:?}", rec.to_schedule(ms));
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
        let run = self.run(fork, ms, &mut rec, &mut NullSink);
        let schedule = rec.to_schedule(ms);
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
/// aggregate and manifest metric section from each. Returns that
/// rendering and the registry of the last run.
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
        let metrics = RunManifest::from_obs("fork-diff", 1, &obs)
            .metrics_json()
            .to_compact();
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
        fork.machine.rng_draws() > 0,
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
