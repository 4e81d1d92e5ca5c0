//! `narada` — command-line driver for the racy-test synthesis pipeline.
//!
//! ```text
//! narada run <file.mj> [--test NAME] [--trace]       run a sequential test
//! narada mir <file.mj> [--method Class.m]            dump lowered MIR
//! narada synth <file.mj> [--render] [flags]          synthesize racy tests
//! narada detect <file.mj> [--schedules N] [--confirms N] [--seed N]
//!                                                    synthesize + detect + confirm
//! narada gen <file.mj|C1..C9> [--budget N] [--seed N] [--threads N]
//!                                                    generate a sequential seed suite
//! narada pairs <file.mj|C1..C9> [--json]             dump candidate pairs + static verdicts
//! narada corpus [C1..C9]                             run the pipeline on a corpus class
//! narada difftest [--seed N] [--count N] [--shrink]  differential generator sweep
//! narada report <m.json..> [--diff a.json b.json]    render or diff run manifests
//! narada report <m.json..> --trend [--tolerance P]   perf-regression gate (exit 4)
//! narada top [--addr A] [--once]                     live daemon dashboard
//! ```

use narada::core::{demonstrate_observed, ExploreOptions, SynthesisOutput};
use narada::detect::{
    evaluate_suite_full, evaluate_test_observed, replay_schedule, DetectConfig, StaticRaceKey,
};
use narada::lang::hir::Program;
use narada::lang::lower::lower_program;
use narada::lang::mir::MirProgram;
use narada::lang::SourceMap;
use narada::obs::Json;
use narada::vm::{
    render_schedule_summary, Machine, Schedule, ScheduleStrategy, TraceRenderer, VecSink,
};
use narada::{synthesize_observed, Obs, RunManifest, SynthesisOptions};
use std::path::Path;
use std::process::ExitCode;

// Every `print!`/`println!` below goes through `write_stdout`, which
// ends the process cleanly when stdout is a closed pipe (`narada synth
// C1 --render | head -1`); the std macros panic there.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

/// Writes to stdout; a reader that hung up ends the process with exit 0,
/// any other write error panics as `print!` would.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if let Err(msg) = check_flags(cmd, rest) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "mir" => cmd_mir(rest),
        "synth" => cmd_synth(rest),
        "detect" => cmd_detect(rest),
        "gen" => cmd_gen(rest),
        "pairs" => cmd_pairs(rest),
        "corpus" => cmd_corpus(rest),
        // difftest owns its exit code (3 = disagreement found), so it
        // bypasses the Ok/Err mapping below; report likewise owns exit 4
        // (trend tolerance breach — the CI regression gate).
        "difftest" => return cmd_difftest(rest),
        "report" => return cmd_report(rest),
        "serve" => cmd_serve(rest),
        "top" => cmd_top(rest),
        "submit" => cmd_submit(rest),
        "jobs" => cmd_jobs(rest),
        "fetch" => cmd_fetch(rest),
        "shutdown" => cmd_shutdown(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
narada — synthesizing racy tests (PLDI 2015 reproduction)

USAGE:
    narada run <file.mj|C1..C9> [--test NAME] [--trace]
    narada mir <file.mj|C1..C9> [--method Class.m]
    narada synth <file.mj|C1..C9> [--render] [--strict-unprotected]
                           [--no-prefix-fallback] [--no-lockset-aware]
                           [--static-filter] [--static-rank]
                           [--threads N] [--timings] [--seed N]
                           [--generate-seeds] [--budget N] [--max-len N]
                           [--gen-seed N] [--strategy S] [--depth N]
                           [--record DIR] [--replay FILE.sched]
                           [--trace-out FILE.jsonl] [--manifest FILE.json]
    narada detect <file.mj|C1..C9> [--schedules N] [--confirms N] [--seed N]
                            [--strict-unprotected] [--no-prefix-fallback]
                            [--no-lockset-aware]
                            [--static-filter] [--static-rank]
                            [--generate-seeds] [--budget N] [--max-len N]
                            [--gen-seed N] [--report-out FILE]
                            [--threads N] [--timings]
                            [--strategy S] [--depth N]
                            [--record DIR] [--replay FILE.sched]
                            [--trace-out FILE.jsonl] [--manifest FILE.json]
    narada gen <file.mj|C1..C9> [--budget N] [--seed N] [--threads N]
                                [--max-len N] [--full-api]
                                [--trace-out FILE.jsonl] [--manifest FILE.json]
    narada pairs <file.mj|C1..C9> [--may-race-only] [--threads N] [--json]
                                  [--strict-unprotected] [--no-prefix-fallback]
                                  [--no-lockset-aware]
    narada corpus [C1..C9] [--threads N] [--timings] [--detect]
                           [--schedules N] [--confirms N] [--seed N]
                           [--strict-unprotected] [--no-prefix-fallback]
                           [--no-lockset-aware]
                           [--static-filter] [--static-rank]
                           [--generate-seeds] [--budget N] [--max-len N]
                           [--gen-seed N]
                           [--strategy S] [--depth N]
                           [--record DIR]
                           [--trace-out FILE.jsonl] [--manifest FILE.json]
    narada difftest [--seed N] [--count N] [--threads N] [--shrink]
                    [--fixtures DIR] [--schedules N] [--confirms N]
                    [--inject-unsound] [--verbose]
                    [--trace-out FILE.jsonl] [--manifest FILE.json]
    narada report <manifest.json>... [--diff OLD.json NEW.json]
                  [--trend [--tolerance PCT] [--wall-tolerance PCT]]
    narada serve [--addr HOST:PORT] [--threads N] [--state-dir DIR]
                 [--port-file FILE] [--cache-capacity N]
                 [--slow-job-ms N] [--event-log-max-bytes N]
    narada top [--addr HOST:PORT] [--once] [--interval MS] [--count N]
    narada submit <file.mj|C1..C9> [--addr HOST:PORT] [detect flags]
    narada jobs [--addr HOST:PORT] [--stats]
    narada fetch <JOB> [--addr HOST:PORT] [--wait] [--out FILE] [--quiet]
    narada shutdown [--addr HOST:PORT]

Every command checks its flags against its usage entry above
(`submit`'s `[detect flags]` are `detect`'s): an unknown flag exits
with code 2 and names the flag.
`--strategy S` picks the exploration scheduler: pct[:DEPTH], random,
sticky[:PERCENT], or rr; `--depth N` overrides the PCT depth.
Detection runs each test's sequential prefix once, snapshots the
machine at the fork point with copy-on-write heap marks, and probes
every schedule suffix from restored forks. A test whose prefix fails
or draws from rand() cannot fork and runs each trial from main()
instead (an RNG fallback is counted by `explore.prefix_rng_fallbacks`);
verdicts and schedules are the same either way.
`--record DIR` writes replayable .sched logs: synth records one
demonstration run per race-expecting test, detect/corpus record the
ddmin-minimized schedule of every confirmed race as a fixture.
`--replay FILE.sched` re-executes a recorded schedule against the
re-synthesized suite and verifies it (target race, trace digest).
`--threads N` shards the pipeline and detector trials over N workers
(0 or omitted = one per core); results are identical at any value.
`--timings` prints the per-stage wall-clock breakdown.
`--static-filter` drops pairs the static pre-screener proves cannot
race; `--static-rank` orders the survivors most-suspicious-first.
`narada pairs` prints every candidate pair with both access sites,
their lock state, and the screener's verdict; `--json` emits the same
data machine-readably.
`narada gen` emits a feedback-directed generated seed suite (library +
`gen_*` tests) to stdout as printable MJ; output is byte-identical at
any `--threads` value. `--full-api` generates over the liberal
HIR-derived surface instead of the bindings observed from the
program's own tests. `synth`/`detect`/`corpus` accept
`--generate-seeds` (plus the same `--budget`/`--max-len`/`--gen-seed`
knobs) to replace the hand-written seed suite with a generated one
before synthesis.
`narada difftest` sweeps `--count` generated library classes through
both the static screener and the dynamic pipeline, treating them as
each other's oracle. A `MustNotRace` verdict on a dynamically
confirmed race is a soundness disagreement: the sweep prints it,
optionally ddmin-shrinks the class (`--shrink`, fixtures under
`--fixtures DIR`), and exits with code 3. The sweep digest is
byte-identical at any `--threads` value. `--inject-unsound`
deliberately mis-discharges one pair per class — a self test for the
disagreement path.
`--trace-out FILE` records hierarchical timing spans for every
pipeline stage as JSON Lines; `--manifest FILE` writes a run manifest
(environment, config, stage timings, and every metric — the metric
section is byte-identical at any --threads value). `narada report`
renders manifests; with `--diff` it compares two stage by stage and
metric by metric. `--trend` is the CI regression gate: manifests are
grouped by name (first = baseline, last = current), deterministic
counters gate at `--tolerance` percent (default 0), wall-derived
metrics (`*_ns`, `*_ms`, `*_per_sec`, `*_pct`, timings) stay
informational unless `--wall-tolerance` is given; any breach exits
with code 4.
`narada serve` keeps a detection daemon resident: clients `submit`
jobs (library source + the usual detect knobs), a worker pool runs the
full pipeline, and a program-keyed artifact cache lets resubmission of
an unchanged library skip parsing, lowering and screening. `fetch --wait`
streams manifest-backed progress events, then the canonical
narada-report/1 document — byte-identical to what
`narada detect --report-out` writes for the same source and options.
`shutdown` drains the queue before stopping; every finished job's
report was already flushed to `--state-dir` at completion time.
`detect --report-out FILE` writes the batch twin of the served report.
`narada top` is the live daemon view: a refreshing dashboard fed by
the server's `watch` stream (queue depth, cold/warm and per-stage
latency quantiles, cache occupancy, worker heartbeats, slow-job
flags); `--once` prints a single `health` frame as JSON instead. The
serve-side knobs: `--slow-job-ms` sets the watchdog's wall budget
before a running job is flagged slow, `--event-log-max-bytes` bounds
each structured JSONL event-log segment under `--state-dir` (the log
rotates, never splitting a line).";

fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

fn opt<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

/// The flags `narada <cmd>`'s usage entry lists; `[detect flags]`
/// stands for every flag of `detect`. `None` for a command USAGE does
/// not list.
fn usage_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let block = USAGE.split("\n\n").nth(1)?;
    let entry = block
        .split("narada ")
        .find(|e| e.split_whitespace().next() == Some(cmd))?;
    let mut flags: Vec<&str> = entry
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| w.starts_with("--"))
        .collect();
    if entry.contains("[detect flags]") {
        flags.extend(usage_flags("detect")?);
    }
    Some(flags)
}

/// Rejects any `--flag` that `cmd`'s usage entry does not list, so a
/// typo (`--schedule` for `--schedules`) fails loudly instead of
/// silently running at the default.
fn check_flags(cmd: &str, rest: &[String]) -> Result<(), String> {
    let Some(flags) = usage_flags(cmd) else {
        return Ok(());
    };
    match rest
        .iter()
        .find(|a| a.starts_with("--") && !flags.contains(&a.as_str()))
    {
        Some(a) => Err(format!(
            "narada {cmd}: unknown flag `{a}` (see `narada help`)"
        )),
        None => Ok(()),
    }
}

fn opt_usize(rest: &[String], name: &str, default: usize) -> Result<usize, String> {
    match opt(rest, name) {
        None if flag(rest, name) => Err(format!("{name} expects a number")),
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{v}`")),
    }
}

fn load(rest: &[String]) -> Result<(String, narada::lang::hir::Program), String> {
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("expected an .mj file or corpus id\n{USAGE}"))?;
    let src = match narada::corpus::by_id(path) {
        Some(entry) => entry.source.to_string(),
        None => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?,
    };
    let prog = narada::compile(&src).map_err(|d| {
        let map = SourceMap::new(&src);
        format!("{path}: compilation failed\n{}", d.render(&map))
    })?;
    Ok((src, prog))
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let (_src, prog) = load(rest)?;
    let mir = lower_program(&prog);
    let trace = flag(rest, "--trace");
    let tests: Vec<_> = match opt(rest, "--test") {
        Some(name) => vec![prog
            .test_by_name(name)
            .ok_or_else(|| format!("no test named `{name}`"))?],
        None => prog.tests.iter().map(|t| t.id).collect(),
    };
    if tests.is_empty() {
        return Err("the program declares no tests".into());
    }
    let mut machine = Machine::with_defaults(&prog, &mir);
    for t in tests {
        let mut sink = VecSink::new();
        let name = prog.test(t).name.clone();
        match machine.run_test(t, &mut sink) {
            Ok(()) => println!("test {name}: ok ({} events)", sink.events.len()),
            Err(e) => println!("test {name}: FAILED — {e}"),
        }
        if trace {
            let mut renderer = TraceRenderer::new(&prog, &mir);
            println!("{}", renderer.render_all(&sink.events));
        }
    }
    Ok(())
}

fn cmd_mir(rest: &[String]) -> Result<(), String> {
    let (_src, prog) = load(rest)?;
    let mir = lower_program(&prog);
    match opt(rest, "--method") {
        Some(qname) => {
            let m = prog
                .methods
                .iter()
                .find(|m| prog.qualified_name(m.id) == qname)
                .ok_or_else(|| format!("no method `{qname}`"))?;
            print!("{}", mir.method(m.id).dump());
        }
        None => {
            for m in &prog.methods {
                println!("// {}", prog.qualified_name(m.id));
                print!("{}", mir.method(m.id).dump());
                println!();
            }
            for t in &prog.tests {
                println!("// test {}", t.name);
                print!("{}", mir.test(t.id).dump());
                println!();
            }
        }
    }
    Ok(())
}

fn synth_opts(rest: &[String]) -> Result<SynthesisOptions, String> {
    Ok(SynthesisOptions {
        strict_unprotected: flag(rest, "--strict-unprotected"),
        prefix_fallback: !flag(rest, "--no-prefix-fallback"),
        lockset_aware: !flag(rest, "--no-lockset-aware"),
        static_filter: flag(rest, "--static-filter"),
        static_rank: flag(rest, "--static-rank"),
        threads: opt_usize(rest, "--threads", 0)?,
        ..Default::default()
    })
}

/// Builds the run's telemetry bundle; spans are recorded only when
/// `--trace-out` asks for them (inert guards otherwise).
fn obs_for(rest: &[String]) -> Obs {
    if opt(rest, "--trace-out").is_some() {
        Obs::with_tracing()
    } else {
        Obs::new()
    }
}

/// Writes the `--trace-out` / `--manifest` artifacts of one invocation.
fn write_telemetry(
    rest: &[String],
    obs: &Obs,
    name: &str,
    threads: usize,
    config: &[(&str, String)],
) -> Result<(), String> {
    if let Some(path) = opt(rest, "--trace-out") {
        std::fs::write(path, obs.tracer.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} span(s) to {path}", obs.tracer.finished().len());
    }
    if let Some(path) = opt(rest, "--manifest") {
        let mut m = RunManifest::from_obs(name, threads as u64, obs);
        for (k, v) in config {
            m.set_config(k, v);
        }
        std::fs::write(path, m.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote manifest to {path}");
    }
    Ok(())
}

/// Parses the generation knobs shared by `narada gen` and
/// `--generate-seeds`. The generation seed flag differs per command:
/// `gen` owns `--seed`, but `detect`/`corpus` already use `--seed` for
/// the detector, so there the generator reads `--gen-seed`.
fn gen_opts(rest: &[String], seed_flag: &str) -> Result<narada::gen::GenOptions, String> {
    Ok(narada::gen::GenOptions {
        budget: opt_usize(rest, "--budget", 512)?,
        seed: opt_usize(rest, seed_flag, 0x67656e)? as u64,
        threads: opt_usize(rest, "--threads", 0)?,
        max_len: opt_usize(rest, "--max-len", 10)?,
        ..narada::gen::GenOptions::default()
    })
}

/// Synthesizes with the static pre-screener plugged in; the pipeline only
/// invokes it when `--static-filter` / `--static-rank` are set. Under
/// `--generate-seeds` the program's hand-written suite is replaced by a
/// generated one first; the returned program/MIR are the ones synthesis
/// actually ran on, so replay, recording, and detection downstream all
/// operate on the generated suite.
fn run_synthesis(
    prog: &Program,
    mir: &MirProgram,
    rest: &[String],
    obs: &Obs,
) -> Result<(Program, MirProgram, SynthesisOutput), String> {
    let mut opts = synth_opts(rest)?;
    opts.generate_seeds = flag(rest, "--generate-seeds");
    let (prog, mir, out) = if opts.generate_seeds {
        let gopts = gen_opts(rest, "--gen-seed")?;
        let generator = |p: &Program, m: &MirProgram| {
            let out = narada::gen::generate_suite(p, m, &gopts, obs);
            println!(
                "generated {} seed test(s) from {} candidate(s)",
                out.tests.len(),
                out.stats.candidates
            );
            out.tests
        };
        narada::synthesize_generated(
            prog,
            mir,
            &opts,
            &generator,
            Some(&narada::screen_pairs),
            obs,
        )
    } else {
        let out = narada::synthesize_observed(prog, mir, &opts, Some(&narada::screen_pairs), obs);
        (prog.clone(), mir.clone(), out)
    };
    if opts.static_filter || opts.static_rank {
        println!(
            "static screener: {} of {} pairs pruned{}",
            out.timings.pairs_pruned,
            out.pairs.pairs.len(),
            if opts.static_rank {
                ", survivors ranked by score"
            } else {
                ""
            }
        );
    }
    Ok((prog, mir, out))
}

/// Parses the shared exploration flags: `--strategy` and `--depth`.
fn strategy_opts(rest: &[String]) -> Result<ScheduleStrategy, String> {
    let mut strategy = match opt(rest, "--strategy") {
        Some(s) => ScheduleStrategy::parse(s)?,
        None => ScheduleStrategy::default(),
    };
    if let Some(d) = opt(rest, "--depth") {
        let depth: usize = d
            .parse()
            .map_err(|_| format!("--depth expects a number, got `{d}`"))?;
        strategy = strategy.with_depth(depth);
    }
    Ok(strategy)
}

/// Replays a recorded `.sched` log against a (re-)synthesized suite and
/// verifies everything its metadata claims: the plan identity, the target
/// race, and the trace digest.
fn replay_file(
    prog: &Program,
    mir: &MirProgram,
    out: &SynthesisOutput,
    path: &str,
    budget: u64,
) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let schedule = Schedule::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{}", render_schedule_summary(&schedule));
    let index: usize = schedule
        .meta_get("plan-index")
        .ok_or_else(|| format!("{path}: no `plan-index` metadata"))?
        .parse()
        .map_err(|_| format!("{path}: bad `plan-index`"))?;
    let test = out.tests.get(index).ok_or_else(|| {
        format!(
            "{path}: plan-index {index} out of range (suite has {})",
            out.tests.len()
        )
    })?;
    if let Some(key) = schedule.meta_get("plan") {
        if key != test.plan.dedup_key() {
            return Err(format!(
                "{path}: plan {index} drifted — recorded `{key}`, synthesized `{}`",
                test.plan.dedup_key()
            ));
        }
    }
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let outcome = replay_schedule(prog, mir, &seeds, &test.plan, budget, &schedule)?;
    println!(
        "replayed plan {index}: {} race key(s), {} divergence(s), trace digest {:#018x}",
        outcome.keys.len(),
        outcome.divergences,
        outcome.trace_digest
    );
    if outcome.divergences > 0 {
        return Err(format!("{path}: replay diverged from the recording"));
    }
    if let Some(target) = schedule.meta_get("target") {
        let key = StaticRaceKey::parse_meta(target).map_err(|e| format!("{path}: {e}"))?;
        if !outcome.manifests(&key) {
            return Err(format!("{path}: target race {key} did not manifest"));
        }
        println!("target race {key} manifested");
    }
    if let Some(digest) = schedule.meta_get("trace-digest") {
        let want = u64::from_str_radix(digest.trim_start_matches("0x"), 16)
            .map_err(|e| format!("{path}: bad trace-digest: {e}"))?;
        if outcome.trace_digest != want {
            return Err(format!(
                "{path}: trace digest mismatch — recorded {digest}, replayed {:#018x}",
                outcome.trace_digest
            ));
        }
        println!("trace digest matches the recording");
    }
    Ok(())
}

/// Runs the detection + confirmation protocol per plan and writes one
/// ddmin-minimized `.sched` fixture per confirmed race into `dir`.
fn record_fixtures(
    prog: &Program,
    mir: &MirProgram,
    out: &SynthesisOutput,
    cfg: &DetectConfig,
    dir: &Path,
    label: &str,
) -> Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let cfg = DetectConfig {
        minimize: true,
        ..cfg.clone()
    };
    let mut written = 0usize;
    for test in &out.tests {
        let mut report = evaluate_test_observed(
            prog,
            mir,
            &seeds,
            &test.plan,
            &cfg,
            test.index as u64,
            &Obs::new(),
        );
        // Stamp the static pre-screener's verdict onto each confirmed race
        // (the detectors cannot: only the synthesis output knows which pair
        // a plan was derived from).
        for (_, confirmed) in &mut report.reproduced {
            confirmed.static_verdict =
                out.static_verdict_for(test.index, confirmed.key.span_a, confirmed.key.span_b);
        }
        for (_, confirmed) in &report.reproduced {
            let Some(schedule) = &confirmed.schedule else {
                continue;
            };
            let mut schedule = schedule.clone();
            schedule.set_meta("class", label);
            schedule.set_meta("plan-index", test.index.to_string());
            schedule.set_meta("plan", test.plan.dedup_key());
            schedule.set_meta("target", confirmed.key.to_meta());
            schedule.set_meta(
                "verdict",
                if confirmed.benign {
                    "benign"
                } else {
                    "harmful"
                },
            );
            schedule.set_meta("sched-seed", format!("{:#x}", confirmed.sched_seed));
            schedule.set_meta("strategy", cfg.strategy.label());
            if let Some(v) = &confirmed.static_verdict {
                schedule.set_meta("static-verdict", v.to_string());
            }
            // Stamp the byte-identity oracle: replay once and record the
            // digest the regression suite must reproduce.
            let replay = replay_schedule(prog, mir, &seeds, &test.plan, cfg.budget, &schedule)?;
            if replay.divergences > 0 || !replay.manifests(&confirmed.key) {
                println!(
                    "warning: plan {} race {} does not replay cleanly, skipping fixture",
                    test.index, confirmed.key
                );
                continue;
            }
            schedule.set_meta("trace-digest", format!("{:#018x}", replay.trace_digest));
            let file = dir.join(format!("{label}-p{}-{written}.sched", test.index));
            std::fs::write(&file, schedule.to_text())
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            println!(
                "wrote {} ({} decisions, {} preemptions, {})",
                file.display(),
                schedule.len(),
                schedule.preemptions(),
                schedule.meta_get("verdict").unwrap_or("?"),
            );
            written += 1;
        }
    }
    Ok(written)
}

fn cmd_synth(rest: &[String]) -> Result<(), String> {
    let (_src, prog) = load(rest)?;
    let mir = lower_program(&prog);
    let obs = obs_for(rest);
    let (prog, mir, out) = run_synthesis(&prog, &mir, rest, &obs)?;
    println!(
        "{} racing pairs, {} synthesized tests ({} race-expecting) in {:?}",
        out.pair_count(),
        out.test_count(),
        out.tests.iter().filter(|t| t.plan.expects_race).count(),
        out.elapsed
    );
    if flag(rest, "--timings") {
        print!("{}", out.timings.render());
    }
    for (name, err) in &out.seed_failures {
        println!("warning: seed `{name}` failed: {err}");
    }
    if flag(rest, "--render") {
        for t in &out.tests {
            println!("\n=== test #{} ===", t.index);
            print!("{}", t.plan.render(&prog));
        }
    }
    if let Some(file) = opt(rest, "--replay") {
        replay_file(&prog, &mir, &out, file, 2_000_000)?;
    }
    if let Some(dir) = opt(rest, "--record") {
        let explore = ExploreOptions {
            strategy: strategy_opts(rest)?,
            seed: opt_usize(rest, "--seed", 0xdecaf)? as u64,
            threads: opt_usize(rest, "--threads", 0)?,
            ..ExploreOptions::default()
        };
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let demos = demonstrate_observed(&prog, &mir, &out, &explore, &obs);
        for d in &demos {
            let file = dir.join(format!("demo-p{}.sched", d.test_index));
            std::fs::write(&file, d.schedule.to_text())
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            println!("{}", render_schedule_summary(&d.schedule));
            println!("  -> {}", file.display());
            for f in &d.failures {
                println!("  thread failure: {f}");
            }
        }
        println!(
            "recorded {} demonstration run(s) under strategy {}",
            demos.len(),
            explore.strategy.label()
        );
    }
    write_telemetry(
        rest,
        &obs,
        "synth",
        out.timings.threads,
        &[("strategy", strategy_opts(rest)?.label().to_string())],
    )
}

fn cmd_detect(rest: &[String]) -> Result<(), String> {
    let (_src, prog) = load(rest)?;
    let mir = lower_program(&prog);
    let obs = obs_for(rest);
    let (prog, mir, mut out) = run_synthesis(&prog, &mir, rest, &obs)?;
    let cfg = DetectConfig {
        schedule_trials: opt_usize(rest, "--schedules", 6)?,
        confirm_trials: opt_usize(rest, "--confirms", 4)?,
        seed: opt_usize(rest, "--seed", 42)? as u64,
        budget: 2_000_000,
        threads: opt_usize(rest, "--threads", 0)?,
        strategy: strategy_opts(rest)?,
        ..DetectConfig::default()
    };
    if let Some(file) = opt(rest, "--replay") {
        return replay_file(&prog, &mir, &out, file, cfg.budget);
    }
    if let Some(dir) = opt(rest, "--record") {
        let n = record_fixtures(&prog, &mir, &out, &cfg, Path::new(dir), "detect")?;
        println!("recorded {n} fixture(s)");
        return Ok(());
    }
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
    let (reports, agg) =
        narada::detect::evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs);
    if let Some(path) = opt(rest, "--report-out") {
        let jopts = job_opts(rest)?;
        let doc = narada::serve::render_report(&prog, &_src, &jopts, &out, &reports, &agg);
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    println!("{}", narada::serve::summary_line(plans.len(), &agg));
    if flag(rest, "--timings") {
        out.timings.record_detect(agg.elapsed, agg.jobs);
        print!("{}", out.timings.render());
    }
    write_telemetry(
        rest,
        &obs,
        "detect",
        out.timings.threads,
        &[
            ("schedules", cfg.schedule_trials.to_string()),
            ("confirms", cfg.confirm_trials.to_string()),
            ("seed", cfg.seed.to_string()),
            ("strategy", cfg.strategy.label().to_string()),
        ],
    )
}

/// Renders one side of a candidate pair: `Class.method path kind locks`.
fn render_access(prog: &Program, a: &narada::core::AccessRecord) -> String {
    let path = a
        .path
        .as_ref()
        .map(|p| p.display(prog).to_string())
        .unwrap_or_else(|| "?".into());
    let locks: Vec<String> = a
        .locks
        .iter()
        .map(|l| {
            l.path
                .as_ref()
                .map(|p| p.display(prog).to_string())
                .unwrap_or_else(|| "<internal>".into())
        })
        .collect();
    format!(
        "{} {} {}{} locks=[{}]",
        prog.qualified_name(a.method),
        path,
        if a.is_write { "W" } else { "R" },
        if a.unprotected { " unprot" } else { "" },
        locks.join(",")
    )
}

/// One access site of a candidate pair as a JSON object (`pairs --json`).
fn access_json(prog: &Program, a: &narada::core::AccessRecord) -> Json {
    Json::obj()
        .with("method", Json::Str(prog.qualified_name(a.method)))
        .with(
            "path",
            Json::Str(
                a.path
                    .as_ref()
                    .map(|p| p.display(prog).to_string())
                    .unwrap_or_else(|| "?".into()),
            ),
        )
        .with("kind", Json::Str(if a.is_write { "W" } else { "R" }.into()))
        .with("unprotected", Json::Bool(a.unprotected))
        .with(
            "locks",
            Json::Arr(
                a.locks
                    .iter()
                    .map(|l| {
                        Json::Str(
                            l.path
                                .as_ref()
                                .map(|p| p.display(prog).to_string())
                                .unwrap_or_else(|| "<internal>".into()),
                        )
                    })
                    .collect(),
            ),
        )
}

/// Generates a sequential seed suite for a program (or corpus class) and
/// prints it as compilable MJ — library classes plus the `gen_*` tests —
/// so the output can feed straight back into `narada synth`/`detect`.
/// Generation statistics go to stderr, keeping stdout byte-comparable
/// across runs (the determinism smoke in CI relies on this).
fn cmd_gen(rest: &[String]) -> Result<(), String> {
    let prog = match rest.first().filter(|a| !a.starts_with("--")) {
        Some(id) if narada::corpus::by_id(id).is_some() => {
            let e = narada::corpus::by_id(id).expect("checked");
            e.compile().map_err(|d| format!("{}: {d}", e.id))?
        }
        _ => load(rest)?.1,
    };
    let mir = lower_program(&prog);
    let obs = obs_for(rest);
    let opts = gen_opts(rest, "--seed")?;
    let api = if flag(rest, "--full-api") || prog.tests.is_empty() {
        narada::gen::ApiSurface::for_program(&prog)
    } else {
        narada::gen::ApiSurface::from_tests(&prog, &mir)
    };
    let basis = (!flag(rest, "--full-api") && !prog.tests.is_empty())
        .then(|| narada::gen::FactBasis::from_tests(&prog, &mir));
    let out = narada::gen::generate(&prog, &mir, &api, basis.as_ref(), &opts, &obs);
    let stats = out.stats;
    let mut gen_prog = prog.clone();
    gen_prog.tests = out.tests;
    print!("{}", narada::lang::pretty::program(&gen_prog));
    eprintln!(
        "generated {} test(s): {} candidates over {} rounds, {} facts covered, \
         {} discarded (error), {} rejected (no novelty), {} rejected (shape), \
         {} rejected (off target)",
        gen_prog.tests.len(),
        stats.candidates,
        stats.rounds,
        stats.facts,
        stats.discarded_error,
        stats.rejected_no_novelty,
        stats.rejected_shape,
        stats.rejected_off_target,
    );
    write_telemetry(
        rest,
        &obs,
        "gen",
        narada::core::effective_threads(opts.threads),
        &[
            ("budget", opts.budget.to_string()),
            ("gen-seed", format!("{:#x}", opts.seed)),
            ("max-len", opts.max_len.to_string()),
        ],
    )
}

fn cmd_pairs(rest: &[String]) -> Result<(), String> {
    let prog = match rest.first().filter(|a| !a.starts_with("--")) {
        Some(id) if narada::corpus::by_id(id).is_some() => {
            let e = narada::corpus::by_id(id).expect("checked");
            e.compile().map_err(|d| format!("{}: {d}", e.id))?
        }
        _ => load(rest)?.1,
    };
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &synth_opts(rest)?, None, &Obs::new());
    let verdicts = narada::screen_pairs(&mir, &out.pairs);
    let may_only = flag(rest, "--may-race-only");
    if flag(rest, "--json") {
        let entries: Vec<Json> = out
            .pairs
            .pairs
            .iter()
            .zip(&verdicts)
            .enumerate()
            .filter(|(_, (_, v))| !may_only || v.may_race())
            .map(|(i, (pair, v))| {
                let (x, y) = out.pairs.accesses_of(pair);
                Json::obj()
                    .with("index", Json::Int(i as i64))
                    .with("verdict", Json::Str(v.to_string()))
                    .with("may_race", Json::Bool(v.may_race()))
                    .with("a", access_json(&prog, x))
                    .with("b", access_json(&prog, y))
            })
            .collect();
        println!("{}", Json::Arr(entries).to_pretty());
        return Ok(());
    }
    let mut shown = 0usize;
    for (i, (pair, v)) in out.pairs.pairs.iter().zip(&verdicts).enumerate() {
        if may_only && !v.may_race() {
            continue;
        }
        let (x, y) = out.pairs.accesses_of(pair);
        println!(
            "#{i:<4} {:<28} {}  |  {}",
            v.to_string(),
            render_access(&prog, x),
            render_access(&prog, y)
        );
        shown += 1;
    }
    let pruned = verdicts.iter().filter(|v| !v.may_race()).count();
    println!(
        "{} candidate pairs ({} may-race, {} must-not-race){}",
        out.pairs.pairs.len(),
        out.pairs.pairs.len() - pruned,
        pruned,
        if may_only {
            format!(", {shown} shown")
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_corpus(rest: &[String]) -> Result<(), String> {
    let entries = match rest.first().filter(|a| !a.starts_with("--")) {
        Some(id) => vec![narada::corpus::by_id(id)
            .ok_or_else(|| format!("unknown corpus id `{id}` (C1..C9)"))?],
        None => narada::corpus::all(),
    };
    let obs = obs_for(rest);
    let mut classes = Vec::new();
    let mut threads = 0usize;
    for e in entries {
        classes.push(e.id);
        let prog = e.compile().map_err(|d| format!("{}: {d}", e.id))?;
        let mir = lower_program(&prog);
        let (prog, mir, out) = run_synthesis(&prog, &mir, rest, &obs)?;
        threads = out.timings.threads;
        println!(
            "{} {} ({}): {} pairs, {} tests [paper: {} pairs, {} tests]",
            e.id,
            e.class_name,
            e.benchmark,
            out.pair_count(),
            out.test_count(),
            e.paper.race_pairs,
            e.paper.tests
        );
        if flag(rest, "--timings") {
            print!("{}", out.timings.render());
        }
        if flag(rest, "--detect") || opt(rest, "--record").is_some() {
            let cfg = DetectConfig {
                schedule_trials: opt_usize(rest, "--schedules", 6)?,
                confirm_trials: opt_usize(rest, "--confirms", 4)?,
                seed: opt_usize(rest, "--seed", 42)? as u64,
                threads: opt_usize(rest, "--threads", 0)?,
                strategy: strategy_opts(rest)?,
                ..DetectConfig::default()
            };
            if let Some(dir) = opt(rest, "--record") {
                let label = e.id.to_lowercase();
                let n = record_fixtures(&prog, &mir, &out, &cfg, Path::new(dir), &label)?;
                println!("{}: recorded {n} fixture(s)", e.id);
            } else {
                let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
                let plans: Vec<_> = out.tests.iter().map(|t| &t.plan).collect();
                let agg = evaluate_suite_full(&prog, &mir, &seeds, &plans, &cfg, &obs).1;
                println!(
                    "{}: {} races detected, {} reproduced ({} harmful, {} benign)",
                    e.id,
                    agg.races_detected,
                    agg.harmful + agg.benign,
                    agg.harmful,
                    agg.benign
                );
            }
        }
    }
    write_telemetry(
        rest,
        &obs,
        "corpus",
        threads,
        &[("classes", classes.join(","))],
    )
}

/// Differential generator sweep: generated classes through screener +
/// scheduler, disagreements shrunk and written as fixtures. Owns its
/// exit codes: 0 = agreement, 1 = usage/IO error, 3 = soundness
/// disagreement found.
fn cmd_difftest(rest: &[String]) -> ExitCode {
    match run_difftest(rest) {
        Ok(disagreements) if disagreements > 0 => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The fallible body of `cmd_difftest`; returns the number of classes
/// with soundness disagreements.
fn run_difftest(rest: &[String]) -> Result<usize, String> {
    use narada::difftest::{shrink_class, DiffConfig, Outcome};

    let cfg = DiffConfig {
        seed: opt_usize(rest, "--seed", 0xd1ff)? as u64,
        count: opt_usize(rest, "--count", 36)?,
        threads: opt_usize(rest, "--threads", 0)?,
        schedule_trials: opt_usize(rest, "--schedules", 6)?,
        confirm_trials: opt_usize(rest, "--confirms", 4)?,
        inject_unsound: flag(rest, "--inject-unsound"),
        ..DiffConfig::default()
    };
    let obs = obs_for(rest);
    let sweep = narada::difftest::run_sweep(&cfg, &obs);
    if flag(rest, "--verbose") {
        for r in &sweep.reports {
            println!("{}", r.summary());
        }
    } else {
        for r in &sweep.reports {
            if !matches!(r.outcome, Outcome::Agree) {
                println!("{}", r.summary());
            }
        }
    }
    println!("{}", sweep.summary());

    let disagreeing = sweep.soundness();
    for r in &disagreeing {
        if let Outcome::Soundness(ds) = &r.outcome {
            for d in ds {
                println!(
                    "SOUNDNESS {}: pair {} discharged ({}) but confirmed by test {}",
                    r.spec.label(),
                    d.race,
                    d.reason,
                    d.test_index
                );
            }
        }
    }
    if !disagreeing.is_empty() && flag(rest, "--shrink") {
        let dir = Path::new(opt(rest, "--fixtures").unwrap_or("tests/fixtures/difftest"));
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for r in &disagreeing {
            match shrink_class(r.spec, &cfg, &obs) {
                Some(outcome) => {
                    let file = dir.join(format!("{}.mj", r.spec.label()));
                    std::fs::write(&file, outcome.fixture_source())
                        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                    println!(
                        "shrunk {}: removed [{}] in {} probe(s) -> {}",
                        r.spec.label(),
                        outcome.removed.join(", "),
                        outcome.probes,
                        file.display()
                    );
                }
                None => println!(
                    "shrink {}: disagreement did not reproduce, no fixture written",
                    r.spec.label()
                ),
            }
        }
    }
    write_telemetry(
        rest,
        &obs,
        "difftest",
        narada::core::effective_threads(cfg.threads),
        &[
            ("seed", format!("{:#x}", cfg.seed)),
            ("count", cfg.count.to_string()),
            (
                "generator-version",
                narada::difftest::GENERATOR_VERSION.to_string(),
            ),
            ("digest", format!("{:016x}", sweep.digest)),
        ],
    )?;
    Ok(disagreeing.len())
}

/// Renders, diffs, or trend-gates run manifests. Owns its exit codes:
/// 0 = rendered / within tolerance, 1 = usage or IO error, 4 = a gated
/// metric breached its trend tolerance band (the CI regression signal).
fn cmd_report(rest: &[String]) -> ExitCode {
    match run_report(rest) {
        Ok(true) => ExitCode::from(4),
        Ok(false) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Optional float flag (percent tolerances).
fn opt_f64(rest: &[String], name: &str) -> Result<Option<f64>, String> {
    match opt(rest, name) {
        None if flag(rest, name) => Err(format!("{name} expects a number")),
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} expects a number, got `{v}`")),
    }
}

/// The fallible body of `cmd_report`; returns whether a trend gate
/// breached — validating every file against the schema's required fields
/// along the way.
fn run_report(rest: &[String]) -> Result<bool, String> {
    let load_manifest = |path: &str| -> Result<RunManifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        RunManifest::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    // Positional manifest paths: everything that is neither a flag nor
    // the value of a value-taking flag.
    let mut files: Vec<&String> = Vec::new();
    let mut skip_value = false;
    for a in rest {
        if skip_value {
            skip_value = false;
            continue;
        }
        if a == "--tolerance" || a == "--wall-tolerance" {
            skip_value = true;
            continue;
        }
        if !a.starts_with("--") {
            files.push(a);
        }
    }
    if flag(rest, "--trend") {
        if files.len() < 2 {
            return Err("report --trend expects at least two manifest files \
                        (a baseline and a current run per group)"
                .into());
        }
        let manifests = files
            .iter()
            .map(|f| load_manifest(f))
            .collect::<Result<Vec<_>, _>>()?;
        let tolerance = opt_f64(rest, "--tolerance")?.unwrap_or(0.0);
        let wall_tolerance = opt_f64(rest, "--wall-tolerance")?;
        let trend = narada::obs::trend::compare(&manifests, tolerance, wall_tolerance)?;
        print!("{}", trend.render());
        return Ok(!trend.ok());
    }
    if flag(rest, "--diff") {
        let [a, b] = files[..] else {
            return Err("report --diff expects exactly two manifest files".into());
        };
        print!(
            "{}",
            RunManifest::render_diff(&load_manifest(a)?, &load_manifest(b)?)
        );
        return Ok(false);
    }
    if files.is_empty() {
        return Err(format!(
            "report expects at least one manifest file\n{USAGE}"
        ));
    }
    for f in files {
        print!("{}", load_manifest(f)?.render());
    }
    Ok(false)
}

/// Default service address (`--addr` overrides; `narada serve` can bind
/// port 0 and publish the real port via `--port-file`).
const DEFAULT_ADDR: &str = "127.0.0.1:7979";

fn addr_opt(rest: &[String]) -> String {
    opt(rest, "--addr").unwrap_or(DEFAULT_ADDR).to_string()
}

/// Builds wire-form job options from the same flags `cmd_detect` reads,
/// so `narada submit <file> --seed 7 --static-rank` means exactly what
/// `narada detect <file> --seed 7 --static-rank` means.
fn job_opts(rest: &[String]) -> Result<narada::serve::JobOptions, String> {
    Ok(narada::serve::JobOptions {
        schedules: opt_usize(rest, "--schedules", 6)?,
        confirms: opt_usize(rest, "--confirms", 4)?,
        seed: opt_usize(rest, "--seed", 42)? as u64,
        threads: opt_usize(rest, "--threads", 0)?,
        strategy: strategy_opts(rest)?,
        static_filter: flag(rest, "--static-filter"),
        static_rank: flag(rest, "--static-rank"),
        generate_seeds: flag(rest, "--generate-seeds"),
        gen_budget: opt_usize(rest, "--budget", 512)?,
        gen_seed: opt_usize(rest, "--gen-seed", 0x67656e)? as u64,
        ..narada::serve::JobOptions::default()
    })
}

/// Reads a job's library source: an `.mj` path or a corpus id.
fn source_arg(rest: &[String]) -> Result<String, String> {
    let arg = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| format!("expected an .mj file or corpus id\n{USAGE}"))?;
    if let Some(entry) = narada::corpus::by_id(arg) {
        return Ok(entry.source.to_string());
    }
    std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let defaults = narada::serve::ServeConfig::default();
    let config = narada::serve::ServeConfig {
        addr: opt(rest, "--addr").unwrap_or("127.0.0.1:7979").to_string(),
        workers: opt_usize(rest, "--threads", 2)?.max(1),
        state_dir: opt(rest, "--state-dir").map(std::path::PathBuf::from),
        port_file: opt(rest, "--port-file").map(std::path::PathBuf::from),
        cache_capacity: opt_usize(rest, "--cache-capacity", 64)?,
        slow_job_ms: opt_usize(rest, "--slow-job-ms", defaults.slow_job_ms as usize)? as u64,
        event_log_max_bytes: opt_usize(
            rest,
            "--event-log-max-bytes",
            defaults.event_log_max_bytes as usize,
        )? as u64,
    };
    let completed = narada::serve::serve(config)?;
    println!("narada serve: drained, {completed} job(s) completed");
    Ok(())
}

/// Live daemon dashboard over the `watch` stream; `--once` degrades to a
/// single `health` frame printed as compact JSON (for scripts).
fn cmd_top(rest: &[String]) -> Result<(), String> {
    let addr = addr_opt(rest);
    let mut client = narada::serve::Client::connect(&addr)?;
    if flag(rest, "--once") {
        println!("{}", client.health()?.to_compact());
        return Ok(());
    }
    let interval = opt_usize(rest, "--interval", 1000)? as u64;
    let count = opt_usize(rest, "--count", 0)? as u64;
    client.watch(interval, count, &mut |frame| {
        // Clear + home, then redraw — a self-contained refresh per frame.
        print!("\x1b[2J\x1b[H{}", render_top(&addr, frame));
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        true
    })?;
    Ok(())
}

/// One `top` screen: daemon status, job table, latency quantiles (cold
/// vs warm plus per-stage), cache occupancy, and worker heartbeats.
fn render_top(addr: &str, frame: &Json) -> String {
    let int = |node: Option<&Json>| node.and_then(|v| v.as_i64()).unwrap_or(0);
    let secs = |ns: i64| ns as f64 / 1e9;
    let mut out = String::new();
    let status = frame.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    out.push_str(&format!(
        "narada top — {addr}  [{status}]  uptime {:.1}s  frame {}\n\n",
        secs(int(frame.get("uptime_ns"))),
        int(frame.get("seq")),
    ));
    let jobs = frame.get("jobs");
    out.push_str(&format!(
        "jobs   total {}  queued {}  running {}  done {}  failed {}\n",
        int(jobs.and_then(|j| j.get("total"))),
        int(jobs.and_then(|j| j.get("queued"))),
        int(jobs.and_then(|j| j.get("running"))),
        int(jobs.and_then(|j| j.get("done"))),
        int(jobs.and_then(|j| j.get("failed"))),
    ));
    if let Some(slow) = frame.get("slow_jobs").and_then(|s| s.as_arr()) {
        for entry in slow {
            out.push_str(&format!(
                "  SLOW job {} running {:.1}s (budget {:.1}s)\n",
                int(entry.get("job")),
                secs(int(entry.get("running_ns"))),
                secs(int(frame.get("slow_job_budget_ns"))),
            ));
        }
    }
    out.push_str("\nlatency (ms)      count      p50      p90      p99\n");
    let lat = frame.get("latency");
    let mut lat_row = |label: &str, node: Option<&Json>| {
        let ms = |key: &str| int(node.and_then(|n| n.get(key))) as f64 / 1e6;
        out.push_str(&format!(
            "  {label:<12} {:>8} {:>8.2} {:>8.2} {:>8.2}\n",
            int(node.and_then(|n| n.get("count"))),
            ms("p50"),
            ms("p90"),
            ms("p99"),
        ));
    };
    lat_row("cold", lat.and_then(|l| l.get("cold")));
    lat_row("warm", lat.and_then(|l| l.get("warm")));
    for stage in ["compile", "synth", "detect"] {
        lat_row(
            stage,
            lat.and_then(|l| l.get("stages")).and_then(|s| s.get(stage)),
        );
    }
    let cache = frame.get("cache");
    out.push_str(&format!(
        "\ncache  {}\n       counters {}\n",
        program_occupancy(cache),
        cache
            .and_then(|c| c.get("counters"))
            .map(Json::to_compact)
            .unwrap_or_default(),
    ));
    if let Some(ages) = frame
        .get("workers")
        .and_then(|w| w.get("heartbeat_ages_ns"))
        .and_then(|a| a.as_arr())
    {
        out.push_str("workers");
        for (i, age) in ages.iter().enumerate() {
            match age.as_i64() {
                Some(ns) => out.push_str(&format!("  w{i} {:.1}s", secs(ns))),
                None => out.push_str(&format!("  w{i} -")),
            }
        }
        out.push('\n');
    }
    out
}

/// `programs N/CAP` from a frame carrying the cache's `sizes` and
/// `capacity` objects.
fn program_occupancy(frame: Option<&Json>) -> String {
    let programs = |key: &str| {
        frame
            .and_then(|f| f.get(key))
            .and_then(|c| c.get("programs"))
            .and_then(Json::as_i64)
            .unwrap_or(0)
    };
    format!("programs {}/{}", programs("sizes"), programs("capacity"))
}

fn cmd_submit(rest: &[String]) -> Result<(), String> {
    let source = source_arg(rest)?;
    let options = job_opts(rest)?;
    let mut client = narada::serve::Client::connect(&addr_opt(rest))?;
    let job = client.submit(&source, &options)?;
    println!("job {job}");
    Ok(())
}

fn cmd_jobs(rest: &[String]) -> Result<(), String> {
    let addr = addr_opt(rest);
    let mut client = narada::serve::Client::connect(&addr)?;
    let resp = client.jobs()?;
    let rows = resp.get("jobs").and_then(|j| j.as_arr()).unwrap_or(&[]);
    if rows.is_empty() {
        println!("no jobs");
    }
    for row in rows {
        let id = row.get("job").and_then(|j| j.as_i64()).unwrap_or(-1);
        let status = row.get("status").and_then(|s| s.as_str()).unwrap_or("?");
        let fnv = row
            .get("source_fnv")
            .and_then(|s| s.as_str())
            .unwrap_or("?");
        match row.get("summary").and_then(|s| s.as_str()) {
            Some(summary) => println!("job {id} [{status}] fnv={fnv}: {summary}"),
            None => println!("job {id} [{status}] fnv={fnv}"),
        }
    }
    if flag(rest, "--stats") {
        let stats = client.stats()?;
        println!(
            "cache: {}",
            stats.get("cache").map(Json::to_compact).unwrap_or_default()
        );
        println!("{}", program_occupancy(Some(&stats)));
    }
    Ok(())
}

fn cmd_fetch(rest: &[String]) -> Result<(), String> {
    let id: u64 = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("expected a job id")?
        .parse()
        .map_err(|_| "job id must be a number".to_string())?;
    let wait = flag(rest, "--wait");
    let quiet = flag(rest, "--quiet");
    let mut client = narada::serve::Client::connect(&addr_opt(rest))?;
    let mut on_event = |frame: &Json| {
        if quiet {
            return;
        }
        let event = frame.get("event").and_then(|e| e.as_str()).unwrap_or("?");
        match frame.get("stage").and_then(|s| s.as_str()) {
            Some(stage) => eprintln!("job {id}: {event} {stage}"),
            None => eprintln!("job {id}: {event}"),
        }
    };
    let resp = client.fetch(id, wait, &mut on_event)?;
    let status = resp.get("status").and_then(|s| s.as_str()).unwrap_or("?");
    if let Some(err) = resp.get("error").and_then(|e| e.as_str()) {
        return Err(format!("job {id} {status}: {err}"));
    }
    match resp.get("report").and_then(|r| r.as_str()) {
        Some(report) => match opt(rest, "--out") {
            Some(path) => {
                std::fs::write(path, report).map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote {path}");
            }
            None => print!("{report}"),
        },
        None => println!("job {id}: {status}"),
    }
    Ok(())
}

fn cmd_shutdown(rest: &[String]) -> Result<(), String> {
    let mut client = narada::serve::Client::connect(&addr_opt(rest))?;
    let resp = client.shutdown()?;
    let done = resp.get("completed").and_then(|c| c.as_i64()).unwrap_or(0);
    let failed = resp.get("failed").and_then(|c| c.as_i64()).unwrap_or(0);
    println!("server drained: {done} completed, {failed} failed");
    Ok(())
}
