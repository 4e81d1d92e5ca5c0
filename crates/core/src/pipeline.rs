//! End-to-end driver: seed execution → trace analysis → pair generation →
//! context derivation → deduplicated synthesized test suite.
//!
//! This is the full Narada pipeline of Fig. 6, producing the numbers of
//! Table 4 (racing pairs, synthesized tests, synthesis time) for any MJ
//! program with a seed suite.

use crate::access::Analysis;
use crate::analyze::analyze;
use crate::context::derive_plan;
use crate::options::{ExploreOptions, SynthesisOptions};
use crate::pairs::{generate_pairs, PairSet};
use crate::parallel::{effective_threads, parallel_map, StageTimings};
use crate::screen::{ScreenerFn, StaticVerdict};
use crate::synth::SynthesizedTest;
use narada_lang::hir::Program;
use narada_lang::mir::MirProgram;
use narada_obs::{span, Obs};
use narada_vm::rng::derive_seed;
use narada_vm::{Machine, MachineOptions, ObservedScheduler, Schedule, VecSink, VmError};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Seed-derivation stage tags for demonstration runs (distinct from the
/// detect crate's 1–4 so the two layers never share a schedule).
const STAGE_DEMO_MACHINE: u64 = 11;
const STAGE_DEMO_SCHED: u64 = 12;

/// Everything the pipeline produced for one program.
#[derive(Debug)]
pub struct SynthesisOutput {
    /// The trace analysis result (access map, summaries).
    pub analysis: Analysis,
    /// Deduplicated accesses and racing pairs.
    pub pairs: PairSet,
    /// The deduplicated synthesized test suite.
    pub tests: Vec<SynthesizedTest>,
    /// Wall-clock time of the whole synthesis (trace + analysis + pairing
    /// + derivation), the paper's Table 4 "Time" column.
    pub elapsed: Duration,
    /// Per-stage wall-clock breakdown and sharded-stage throughput.
    pub timings: StageTimings,
    /// Seed tests that failed during tracing (reported, not fatal).
    pub seed_failures: Vec<(String, VmError)>,
    /// Static screener verdicts, indexed like `pairs.pairs` (including
    /// pruned pairs). `None` when no screener ran.
    pub verdicts: Option<Vec<StaticVerdict>>,
}

impl SynthesisOutput {
    /// Number of racing pairs (Table 4 "Race Pairs").
    pub fn pair_count(&self) -> usize {
        self.pairs.pairs.len()
    }

    /// Number of synthesized tests (Table 4 "Tests").
    pub fn test_count(&self) -> usize {
        self.tests.len()
    }

    /// The screener verdict covering the pair of `test_index` whose
    /// span-sorted access spans are `(span_a, span_b)` — the lookup used
    /// to stamp static provenance onto confirmed races. `None` when no
    /// screener ran or no covered pair matches.
    pub fn static_verdict_for(
        &self,
        test_index: usize,
        span_a: narada_lang::Span,
        span_b: narada_lang::Span,
    ) -> Option<StaticVerdict> {
        let verdicts = self.verdicts.as_deref()?;
        let test = self.tests.get(test_index)?;
        for &pi in &test.covered_pairs {
            let (x, y) = self.pairs.accesses_of(&self.pairs.pairs[pi]);
            let (sa, sb) = if x.span.start <= y.span.start {
                (x.span, y.span)
            } else {
                (y.span, x.span)
            };
            if sa == span_a && sb == span_b {
                return verdicts.get(pi).copied();
            }
        }
        None
    }
}

/// Tallies a screener verdict vector into per-discharge-reason counters.
fn record_verdict_metrics(obs: &Obs, verdicts: &[StaticVerdict]) {
    use crate::screen::ScreenReason;
    let reason_counter = |r: &ScreenReason| {
        obs.metrics.counter(match r {
            ScreenReason::OwnerMonitorHeld => "screen.discharged.owner_monitor",
            ScreenReason::ThreadLocalOwner => "screen.discharged.thread_local",
            ScreenReason::NoRacyContext => "screen.discharged.no_racy_context",
        })
    };
    let survivors = obs.metrics.counter("screen.survivors");
    for v in verdicts {
        match v {
            StaticVerdict::MustNotRace { reason } => reason_counter(reason).inc(),
            StaticVerdict::MayRace { .. } => survivors.inc(),
        }
    }
}

/// Runs the full synthesis pipeline on `prog` using all its `test`
/// declarations as the sequential seed suite, recording every stage into
/// `obs` (pass `&Obs::new()` to record nothing): wall-clock gauges
/// (`stage.*.wall_ns`), work counters (`pairs.*`, `derive.jobs`,
/// `tests.*`, `screen.*`), and hierarchical spans when tracing is on.
/// [`SynthesisOutput::timings`] is derived from the registry afterwards —
/// the registry is the single bookkeeping path.
///
/// `screener` is an optional static pre-screener. It runs only when
/// `opts.static_filter` or `opts.static_rank` asks for it — with both
/// off the output is identical to a run without one. `MustNotRace`
/// pairs are dropped before derivation under `static_filter`; under
/// `static_rank` the surviving pairs are derived in descending
/// suspicion order (ties keep generation order), so the dedup'd suite
/// lists the most race-prone tests first. `covered_pairs` always holds
/// *original* `pairs.pairs` indices.
pub fn synthesize_observed(
    prog: &Program,
    mir: &MirProgram,
    opts: &SynthesisOptions,
    screener: Option<ScreenerFn<'_>>,
    obs: &Obs,
) -> SynthesisOutput {
    let start = Instant::now();
    let root = span!(obs.tracer, "pipeline.synthesize");
    let m = &obs.metrics;

    // Stage 1: execute the seed suite, recording traces. Sequential by
    // design: the analysis consumes one totally-ordered trace (object
    // identity and event labels run across the whole suite).
    let stage = Instant::now();
    let mut sink = VecSink::new();
    let mut seed_failures = Vec::new();
    {
        let _s = span!(obs.tracer, "stage.trace");
        let mut machine = Machine::with_defaults(prog, mir);
        for t in &prog.tests {
            let _run = span!(obs.tracer, "seed.run", test = t.name);
            if let Err(e) = machine.run_test(t.id, &mut sink) {
                seed_failures.push((t.name.clone(), e));
            }
        }
    }
    m.gauge("stage.trace.wall_ns").set_duration(stage.elapsed());
    m.counter("trace.events").add(sink.events.len() as u64);
    m.counter("seed.failures").add(seed_failures.len() as u64);

    // Stage 1b: the Access Analyzer.
    let stage = Instant::now();
    let analysis = {
        let _s = span!(obs.tracer, "stage.analyze");
        analyze(prog, &sink.events)
    };
    m.gauge("stage.analyze.wall_ns")
        .set_duration(stage.elapsed());
    m.counter("accesses.recorded")
        .add(analysis.accesses.len() as u64);

    // Stage 2a: the Pair Generator.
    let stage = Instant::now();
    let pairs = {
        let _s = span!(obs.tracer, "stage.pairs");
        generate_pairs(prog, &analysis, opts)
    };
    m.gauge("stage.pairs.wall_ns").set_duration(stage.elapsed());
    m.counter("pairs.generated").add(pairs.pairs.len() as u64);

    // Stage 2a': static pre-screening. `order` holds the original pair
    // indices to derive, in derivation order — the identity permutation
    // unless filtering drops or ranking reorders entries.
    let mut order: Vec<usize> = (0..pairs.pairs.len()).collect();
    let mut verdicts: Option<Vec<StaticVerdict>> = None;
    if opts.static_filter || opts.static_rank {
        let stage = Instant::now();
        let _s = span!(obs.tracer, "stage.screen");
        let screener = screener.expect("static screening requested but no screener supplied");
        let vs = screener(mir, &pairs);
        debug_assert_eq!(vs.len(), pairs.pairs.len(), "one verdict per pair");
        record_verdict_metrics(obs, &vs);
        // Coverage telemetry: every generated pair received a verdict.
        m.counter("screen.pair_coverage").add(vs.len() as u64);
        if opts.static_filter {
            order.retain(|&i| vs[i].may_race());
            m.counter("pairs.pruned")
                .add((pairs.pairs.len() - order.len()) as u64);
        }
        if opts.static_rank {
            order.sort_by_key(|&i| (std::cmp::Reverse(vs[i].score()), i));
        }
        verdicts = Some(vs);
        m.gauge("stage.screen.wall_ns")
            .set_duration(stage.elapsed());
    }

    // Stage 2b + 3: Context Deriver + plan construction. Each pair's
    // derivation is independent, so the pairs are sharded across the
    // worker pool; the dedup merge below runs in derivation order, making
    // the suite identical at any thread count (see `parallel`).
    let stage = Instant::now();
    let derive_span = span!(obs.tracer, "stage.derive", jobs = order.len());
    let derive_span_id = derive_span.id();
    let plans = parallel_map(opts.threads, &order, |_, &i| {
        let mut s = obs.tracer.span_under("derive.pair", derive_span_id);
        s.attr("pair", &i);
        derive_plan(prog, &analysis, &pairs, &pairs.pairs[i], opts)
    });
    let mut by_key: HashMap<String, usize> = HashMap::new();
    let mut tests: Vec<SynthesizedTest> = Vec::new();
    for (&i, plan) in order.iter().zip(plans) {
        let key = plan.dedup_key();
        match by_key.get(&key) {
            Some(&t) => tests[t].covered_pairs.push(i),
            None => {
                let index = tests.len();
                by_key.insert(key, index);
                tests.push(SynthesizedTest {
                    index,
                    plan,
                    covered_pairs: vec![i],
                });
            }
        }
    }
    drop(derive_span);
    m.gauge("stage.derive.wall_ns")
        .set_duration(stage.elapsed());
    m.counter("derive.jobs").add(order.len() as u64);
    m.counter("tests.synthesized").add(tests.len() as u64);
    m.counter("tests.race_expecting")
        .add(tests.iter().filter(|t| t.plan.expects_race).count() as u64);

    drop(root);
    let elapsed = start.elapsed();
    m.gauge("pipeline.total.wall_ns").set_duration(elapsed);
    SynthesisOutput {
        analysis,
        pairs,
        tests,
        elapsed,
        timings: StageTimings::from_metrics(m, effective_threads(opts.threads)),
        seed_failures,
        verdicts,
    }
}

/// One recorded concurrent execution of a synthesized test: the replayable
/// schedule plus what happened under it. Produced by [`demonstrate_observed`];
/// serialized as a `.sched` file by the CLI's `--record`.
#[derive(Debug)]
pub struct Demonstration {
    /// Index of the test in [`SynthesisOutput::tests`].
    pub test_index: usize,
    /// The recorded schedule, with `plan-index`, `plan`, and `strategy`
    /// metadata stamped for later replay against a re-synthesized suite.
    pub schedule: Schedule,
    /// Racy-thread crashes observed during the run (themselves evidence of
    /// a thread-safety violation).
    pub failures: Vec<String>,
}

/// Runs every race-expecting synthesized test once under the configured
/// exploration strategy, recording each interleaving. Runs are sharded
/// over the worker pool; each derives its seeds from the test index, so
/// output is identical at any thread count. Tests whose setup fails
/// (capture misses) are skipped. Scheduler activity (`sched.decisions`,
/// `sched.preemptions`), per-run counters (`demo.runs`, `demo.failures`)
/// and a `stage.demo.wall_ns` gauge are recorded into `obs`.
pub fn demonstrate_observed(
    prog: &Program,
    mir: &MirProgram,
    output: &SynthesisOutput,
    explore: &ExploreOptions,
    obs: &Obs,
) -> Vec<Demonstration> {
    let start = Instant::now();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let targets: Vec<&SynthesizedTest> = output
        .tests
        .iter()
        .filter(|t| t.plan.expects_race)
        .collect();
    let demo_span = span!(obs.tracer, "stage.demo", jobs = targets.len());
    let demo_span_id = demo_span.id();
    let runs = parallel_map(explore.threads, &targets, |_, test| {
        let idx = test.index as u64;
        let mut s = obs.tracer.span_under("demo.run", demo_span_id);
        s.attr("test", &test.index);
        let mut machine = Machine::new(
            prog,
            mir,
            MachineOptions {
                seed: derive_seed(explore.seed, &[STAGE_DEMO_MACHINE, idx]),
                ..MachineOptions::default()
            },
        );
        let mut inner = explore.strategy.build(
            derive_seed(explore.seed, &[STAGE_DEMO_SCHED, idx]),
            explore.pct_horizon,
        );
        let mut sched = ObservedScheduler::new(&mut *inner, &obs.metrics);
        let mut sink = narada_vm::NullSink;
        crate::synth::execute_plan_recorded(
            &mut machine,
            &seeds,
            &test.plan,
            &mut sched,
            &mut sink,
            explore.budget,
        )
        .ok()
        .map(|(report, schedule)| (test.index, schedule, report.failures))
    });
    drop(demo_span);
    obs.metrics.counter("demo.runs").add(targets.len() as u64);
    obs.metrics
        .counter("demo.failures")
        .add(runs.iter().flatten().map(|(_, _, f)| f.len() as u64).sum());
    obs.metrics
        .gauge("stage.demo.wall_ns")
        .set_duration(start.elapsed());
    runs.into_iter()
        .flatten()
        .map(|(test_index, mut schedule, failures)| {
            schedule.set_meta("plan-index", test_index.to_string());
            schedule.set_meta("plan", output.tests[test_index].plan.dedup_key());
            schedule.set_meta("strategy", explore.strategy.label());
            Demonstration {
                test_index,
                schedule,
                failures,
            }
        })
        .collect()
}

/// Compiles MJ source and runs the pipeline — the one-call entry point used
/// by examples and benchmarks.
///
/// # Errors
///
/// Returns front-end diagnostics when `src` does not compile.
pub fn synthesize_source(
    src: &str,
    opts: &SynthesisOptions,
) -> Result<(Program, MirProgram, SynthesisOutput), narada_lang::Diagnostics> {
    let prog = narada_lang::compile(src)?;
    let mir = narada_lang::lower::lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, opts, None, &Obs::new());
    Ok((prog, mir, out))
}

/// A seed-suite generator: given the library (and its MIR), produce a
/// sequential test suite to synthesize from. Implemented by `narada-gen`'s
/// feedback-directed engine; kept as a callback here so `narada-core`
/// stays independent of the generator crate (which depends on it).
pub type SeedGenFn<'a> = &'a (dyn Fn(&Program, &MirProgram) -> Vec<narada_lang::hir::Test> + Sync);

/// Runs the pipeline with a *generated* seed suite replacing the program's
/// own `test` declarations (`SynthesisOptions::generate_seeds`): the
/// generator's tests are renumbered and lowered against the library, and
/// the rewritten program feeds [`synthesize_observed`] unchanged. Returns
/// the rewritten program and MIR alongside the output so downstream
/// consumers (rendering, demonstration, detection) operate on the suite
/// that was actually synthesized from.
pub fn synthesize_generated(
    prog: &Program,
    mir: &MirProgram,
    opts: &SynthesisOptions,
    generator: SeedGenFn<'_>,
    screener: Option<ScreenerFn<'_>>,
    obs: &Obs,
) -> (Program, MirProgram, SynthesisOutput) {
    let generated = generator(prog, mir);
    let mut gen_prog = prog.clone();
    gen_prog.tests = generated
        .into_iter()
        .enumerate()
        .map(|(i, mut t)| {
            t.id = narada_lang::hir::TestId(i as u32);
            t
        })
        .collect();
    let mut gen_mir = mir.clone();
    gen_mir.tests = gen_prog
        .tests
        .iter()
        .map(|t| narada_lang::lower::lower_test(&gen_prog, t))
        .collect();
    obs.metrics
        .counter("gen.seed_tests")
        .add(gen_prog.tests.len() as u64);
    let out = synthesize_observed(&gen_prog, &gen_mir, opts, screener, obs);
    (gen_prog, gen_mir, out)
}
