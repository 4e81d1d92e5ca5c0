//! Executing one job: the batch pipeline (synthesis → exploration →
//! confirmation) fed from the artifact cache, plus the canonical report
//! renderer both the service and `narada detect --report-out` share.
//!
//! Byte-identity between the served and batch paths is a test-enforced
//! invariant, and it falls out of three facts:
//!
//! 1. a cache miss compiles through exactly the batch path
//!    (`narada_lang::compile`, then `lower_program`), so cached MIR is
//!    the batch MIR by construction,
//! 2. the pipeline itself is deterministic at any thread count (see
//!    `narada_core::parallel`),
//! 3. both paths render through [`render_report`], which includes no
//!    wall-clock, host, or worker-count facts.

use crate::cache::{ArtifactCache, CacheEvent, CacheStats};
use crate::proto::JobOptions;
use crate::telemetry::ServerTelemetry;
use narada_core::digest::Fnv1a;
use narada_core::pipeline::SynthesisOutput;
use narada_core::SynthesisOptions;
use narada_detect::race::CoarseRaceKey;
use narada_detect::{evaluate_suite_full, ClassDetection, DetectConfig, TestReport};
use narada_lang::hir::Program;
use narada_obs::{Json, Obs, RunManifest};
use narada_screen::screen_pairs_with;
use std::sync::{Mutex, PoisonError};

/// Everything a finished job leaves behind.
#[derive(Debug)]
pub struct JobResult {
    /// The canonical `narada-report/1` document.
    pub report: String,
    /// The one-line summary (`cmd_detect`'s console line).
    pub summary: String,
    /// Cache activity attributable to this job.
    pub cache: CacheStats,
    /// The run manifest (telemetry; *not* part of the byte-identical
    /// surface — it carries wall-clock and host facts).
    pub manifest: RunManifest,
    /// Per-artifact cache traffic attributed to this job — the service
    /// writes these into its event log.
    pub cache_events: Vec<CacheEvent>,
}

/// Runs one job through the cache-fed pipeline. `progress` receives one
/// frame per stage (compile / synth / detect), each carrying a
/// `narada-manifest/1` snapshot of the job's telemetry so far.
/// `telemetry`, when present, receives per-stage and whole-job wall-clock
/// observations into the *server-level* registry — never into the job's
/// own manifest, which must stay run-invariant.
pub fn run_job(
    cache: &Mutex<ArtifactCache>,
    source: &str,
    opts: &JobOptions,
    progress: &mut dyn FnMut(Json),
    telemetry: Option<&ServerTelemetry>,
) -> Result<JobResult, String> {
    let obs = Obs::new();
    let job_start = std::time::Instant::now();
    let mut stage_start = job_start;
    let mut stage_done = |stage: &str, now: std::time::Instant| {
        if let Some(t) = telemetry {
            t.stage_histogram(stage)
                .observe_duration(now.duration_since(stage_start));
        }
        stage_start = now;
    };

    // Stage 0: compile through the artifact store. The lock covers only
    // the program lookup (and compilation on a miss); the per-job event
    // drain under the same hold is what makes attribution exact. Derived
    // artifacts are filled from the program entry outside the lock.
    let (lib, compile_delta, cache_events) = {
        // A job that panicked under this lock left the cache consistent
        // (compilation runs before insertion), so recover it.
        let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.drain_events();
        let base = cache.stats;
        let lib = cache
            .compile_source(source)
            .map_err(|d| format!("compile failed: {d}"))?;
        (lib, cache.stats.delta(&base), cache.drain_events())
    };
    compile_delta.record(&obs);
    let statics =
        ((opts.static_filter || opts.static_rank) && !opts.generate_seeds).then(|| lib.statics());
    let surface = opts.generate_seeds.then(|| lib.surface());
    stage_done("compile", std::time::Instant::now());
    progress(stage_frame("compile", opts, &obs).with("cache", cache_json(&compile_delta)));

    // Stage 1: synthesis, exactly `run_synthesis`'s shape. The generated
    // path re-derives program and MIR, so it screens without the cached
    // fixpoint (derived from the original program).
    let synth_opts = SynthesisOptions {
        threads: opts.threads,
        static_filter: opts.static_filter,
        static_rank: opts.static_rank,
        generate_seeds: opts.generate_seeds,
        ..SynthesisOptions::default()
    };
    let (prog, mir, out) = if opts.generate_seeds {
        let gopts = narada_gen::GenOptions {
            budget: opts.gen_budget,
            seed: opts.gen_seed,
            threads: opts.threads,
            ..narada_gen::GenOptions::default()
        };
        let surface = surface.expect("generated path derives a surface");
        let generator = |p: &Program, m: &narada_lang::mir::MirProgram| {
            let basis = (!p.tests.is_empty()).then(|| narada_gen::FactBasis::from_tests(p, m));
            narada_gen::generate(p, m, &surface, basis.as_ref(), &gopts, &obs).tests
        };
        narada_core::pipeline::synthesize_generated(
            &lib.prog,
            &lib.mir,
            &synth_opts,
            &generator,
            Some(&narada_screen::screen_pairs),
            &obs,
        )
    } else {
        let screener =
            |m: &narada_lang::mir::MirProgram, p: &narada_core::pairs::PairSet| match &statics {
                Some(statics) => screen_pairs_with(statics, m, p),
                None => narada_screen::screen_pairs(m, p),
            };
        let out = narada_core::pipeline::synthesize_observed(
            &lib.prog,
            &lib.mir,
            &synth_opts,
            Some(&screener),
            &obs,
        );
        // Detection runs over a per-job copy, not the cached program. On
        // the serve benchmarks (two workers) detection over the shared
        // cached copy ran about 20% slower at the median; the gap closes
        // under MALLOC_ARENA_MAX=1, so it comes from how the allocator's
        // per-thread arenas place the two workers' memory, and the copy
        // costs far less than it saves.
        ((*lib.prog).clone(), (*lib.mir).clone(), out)
    };
    stage_done("synth", std::time::Instant::now());
    progress(
        stage_frame("synth", opts, &obs)
            .with("pairs", Json::Int(out.pair_count() as i64))
            .with("tests", Json::Int(out.test_count() as i64)),
    );

    // Stage 2: exploration + confirmation, exactly `cmd_detect`'s shape.
    let cfg = DetectConfig {
        schedule_trials: opts.schedules,
        confirm_trials: opts.confirms,
        seed: opts.seed,
        budget: opts.budget,
        threads: opts.threads,
        strategy: opts.strategy.clone(),
        pct_horizon: opts.pct_horizon,
        ..DetectConfig::default()
    };
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let (reports, agg) = evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);
    let now = std::time::Instant::now();
    stage_done("detect", now);
    if let Some(t) = telemetry {
        // Warm iff the program compilation itself was reused: that is the
        // cache temperature that dominates job latency.
        t.job_histogram(compile_delta.program_hits > 0)
            .observe_duration(now.duration_since(job_start));
    }
    progress(
        stage_frame("detect", opts, &obs)
            .with("races", Json::Int(agg.races_detected as i64))
            .with("reproduced", Json::Int((agg.harmful + agg.benign) as i64)),
    );

    let report = render_report(&prog, source, opts, &out, &reports, &agg);
    let summary = summary_line(plans.len(), &agg);
    let mut manifest = RunManifest::from_obs("serve.job", effective_threads(opts.threads), &obs);
    manifest.set_config("strategy", opts.strategy.label());
    manifest.set_config("seed", opts.seed);
    Ok(JobResult {
        report,
        summary,
        cache: compile_delta,
        manifest,
        cache_events,
    })
}

fn effective_threads(threads: usize) -> u64 {
    narada_core::effective_threads(threads) as u64
}

fn stage_frame(stage: &str, opts: &JobOptions, obs: &Obs) -> Json {
    let manifest = RunManifest::from_obs("serve.job", effective_threads(opts.threads), obs);
    Json::obj()
        .with("event", Json::Str("stage".into()))
        .with("stage", Json::Str(stage.into()))
        .with("manifest", manifest.to_json())
}

/// [`CacheStats`] as a wire object.
pub fn cache_json(s: &CacheStats) -> Json {
    Json::obj()
        .with("program_hits", Json::Int(s.program_hits as i64))
        .with("program_misses", Json::Int(s.program_misses as i64))
        .with("evictions", Json::Int(s.evictions as i64))
}

/// `cmd_detect`'s console summary line, shared so the served and batch
/// paths print the same sentence.
pub fn summary_line(tests: usize, agg: &ClassDetection) -> String {
    format!(
        "{} tests: {} races detected, {} reproduced ({} harmful, {} benign), {} unreproduced",
        tests,
        agg.races_detected,
        agg.harmful + agg.benign,
        agg.harmful,
        agg.benign,
        agg.unreproduced
    )
}

fn render_key(prog: &Program, key: &CoarseRaceKey) -> String {
    let method = |m: &Option<narada_lang::hir::MethodId>| match m {
        Some(m) => prog.qualified_name(*m),
        None => "?".to_string(),
    };
    let field = match key.field {
        Some(f) => prog.field(f).name.to_string(),
        None => "<elem>".to_string(),
    };
    format!(
        "{}/{} field={}",
        method(&key.method_a),
        method(&key.method_b),
        field
    )
}

/// Renders the canonical `narada-report/1` document: the service's fetch
/// payload and `narada detect --report-out`'s file, byte-identical by
/// construction. Deliberately excludes every run-environment fact
/// (wall-clock, host, thread counts, cache temperature): only the
/// detection *results* and the options that determine them. The options
/// line keeps its fixed `engine=tree` field so that report digests stay
/// comparable with reports rendered by earlier versions.
pub fn render_report(
    prog: &Program,
    source: &str,
    opts: &JobOptions,
    out: &SynthesisOutput,
    reports: &[TestReport],
    agg: &ClassDetection,
) -> String {
    let mut doc = String::new();
    doc.push_str("narada-report/1\n");
    doc.push_str(&format!(
        "program fnv={:016x}\n",
        Fnv1a::digest(source.as_bytes())
    ));
    doc.push_str(&format!(
        "options engine=tree strategy={} seed={} schedules={} confirms={} budget={} \
         static_filter={} static_rank={} generate_seeds={}\n",
        opts.strategy.label(),
        opts.seed,
        opts.schedules,
        opts.confirms,
        opts.budget,
        opts.static_filter,
        opts.static_rank,
        opts.generate_seeds,
    ));
    doc.push_str(&format!(
        "suite seeds={} pairs={} tests={}\n",
        prog.tests.len(),
        out.pair_count(),
        out.test_count(),
    ));
    for (i, rep) in reports.iter().enumerate() {
        doc.push_str(&format!(
            "test {i}: detected={} reproduced={}\n",
            rep.detected.len(),
            rep.reproduced.len()
        ));
        for key in &rep.detected {
            let line = match rep.reproduced.iter().find(|(k, _)| k == key) {
                Some((_, race)) => format!(
                    "  race {}: reproduced {}\n",
                    render_key(prog, key),
                    if race.benign { "benign" } else { "harmful" }
                ),
                None => format!("  race {}: unreproduced\n", render_key(prog, key)),
            };
            doc.push_str(&line);
        }
        for err in &rep.setup_errors {
            doc.push_str(&format!("  setup-error {err}\n"));
        }
    }
    doc.push_str(&format!(
        "summary tests={} races={} reproduced={} harmful={} benign={} unreproduced={}\n",
        reports.len(),
        agg.races_detected,
        agg.harmful + agg.benign,
        agg.harmful,
        agg.benign,
        agg.unreproduced
    ));
    doc
}

/// The batch twin of [`run_job`]: same pipeline, same renderer, but a
/// fresh single-use cache — what `narada detect --report-out` runs.
/// Exists so the byte-identity tests (and CI's `cmp`) have a
/// cache-independent reference to compare the service against.
pub fn batch_report(source: &str, opts: &JobOptions) -> Result<JobResult, String> {
    let cache = Mutex::new(ArtifactCache::with_capacity(1));
    run_job(&cache, source, opts, &mut |_| {}, None)
}
