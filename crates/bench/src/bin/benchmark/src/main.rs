//! The repository benchmark: end-to-end and per-layer numbers for the
//! jobs narada users run, measured through each layer's public entry
//! points, in-process, and timed from outside.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds 20] [--trace [0|1]]
//!           [--out DIR]
//! benchmark --bless
//! ```
//!
//! Every workload does a fixed amount of work, sized to
//! [`RUN_SECONDS`]; `--seconds` is accepted only with that value.
//! Each run prints every metric by name and unit, and as its last line
//! one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Any
//! correctness failure makes the exit code non-zero. `--out DIR` also
//! writes `DIR/<workload>.json`, `<workload>.samples.json` and, traced,
//! `<workload>.layers.json` and `<workload>.trace.jsonl`. `--bless`
//! rewrites the committed goldens. See README.md for the workloads and
//! what each metric means.

mod corpus;
mod difftest;
mod host;
mod layers;
mod serve;
mod stats;
mod sys;

use layers::LayerMetrics;
use narada_obs::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Load threads and connections. Fixed at the reference host's core
/// count, not read from `nproc`, so numbers compare across hosts.
pub const LOAD_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// About how long a workload's timed region lasts on the reference host,
/// in s (`run_seconds` in `BENCHMARK.json`; corpus-detect, which needs
/// 12 passes, runs longer). The work itself is a fixed count per
/// workload, so both sides of a comparison do the same work;
/// `--seconds` may only restate this value.
const RUN_SECONDS: u64 = 20;

/// Every end-to-end metric: name, unit, and whether higher is better.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("jobs_per_s", "1/s", true),
    ("job_ms_p50", "ms", false),
    ("job_ms_p90", "ms", false),
    ("cpu_ms_per_job", "ms", false),
    ("peak_rss_mb", "MiB", false),
    ("races_reproduced", "count", true),
];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusDetect,
    DifftestSweep,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorpusDetect,
        Workload::DifftestSweep,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusDetect => "corpus-detect",
            Workload::DifftestSweep => "difftest-sweep",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeChurn => "serve-churn",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the committed goldens were made with.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CorpusDetect => corpus::DEFAULT_SEED,
            Workload::DifftestSweep => difftest::DEFAULT_SEED,
            Workload::ServeWarm | Workload::ServeChurn => serve::DEFAULT_SEED,
        }
    }

    /// Runs the workload once. `untraced` is given for the traced half of
    /// a `--trace` run: the same inputs, already measured without tracing.
    fn run(self, p: &Params, untraced: Option<&Measured>) -> Measured {
        match self {
            Workload::CorpusDetect => corpus::run(p, untraced.is_some()),
            Workload::DifftestSweep => difftest::run(p, untraced),
            Workload::ServeWarm => serve::run(p, false, untraced.is_some()),
            Workload::ServeChurn => serve::run(p, true, untraced.is_some()),
        }
    }
}

/// How much of a workload's fixed work a run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// All of it: what the end-to-end metrics are stated over.
    Full,
    /// Half, for each half of a traced run.
    Half,
    /// One unit, for the test suite.
    Smoke,
}

/// How one run is sized and checked.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub size: Size,
    pub setup_reps: usize,
    /// Golden text to check against instead of the committed one.
    pub golden: Option<String>,
}

impl Params {
    /// Units of work (passes, sweeps, requests) for this run, of the
    /// workload's `full` count.
    pub fn units(&self, full: usize) -> usize {
        match self.size {
            Size::Full => full,
            Size::Half => full.div_ceil(2),
            Size::Smoke => 1,
        }
    }

    pub fn smoke(&self) -> bool {
        self.size == Size::Smoke
    }

    /// Runs `setup` `setup_reps` times, returning each duration in s.
    pub fn time_setups(&self, mut setup: impl FnMut()) -> Vec<f64> {
        (0..self.setup_reps)
            .map(|_| {
                let t = Instant::now();
                setup();
                t.elapsed().as_secs_f64()
            })
            .collect()
    }

    /// The golden text to check against.
    pub fn golden<'a>(&'a self, committed: &'a str) -> &'a str {
        self.golden.as_deref().unwrap_or(committed)
    }
}

/// One timed job.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The unit of work it ran, repeated across the run: a corpus class,
    /// a generated class, or a served source.
    pub unit: usize,
    /// When it started.
    pub start: Instant,
    /// Latency, ms.
    pub ms: f64,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Each set-up's duration, in s.
    pub setup_s: Vec<f64>,
    /// Every timed job.
    pub samples: Vec<Sample>,
    /// Wall time of the timed region, s.
    pub wall_s: f64,
    /// Process CPU spent in the timed region, in ms.
    pub cpu_ms: f64,
    /// Host-speed probe rounds taken at idle points through the run.
    pub probe: host::HostProbe,
    /// Jobs whose outcome was checked.
    pub attempted: usize,
    /// One line per job that failed a check.
    pub failures: Vec<String>,
    /// Races reproduced per pass.
    pub races_per_pass: f64,
    /// Workload sizes, for the result stamp.
    pub sizes: Vec<(&'static str, u64)>,
    /// Per-job canonical results of the first pass.
    pub results: Vec<String>,
    /// The per-layer ledger (traced runs only).
    pub layers: Option<LayerMetrics>,
    /// The recorded spans as JSON Lines (traced runs only).
    pub trace_jsonl: String,
}

impl Measured {
    fn job_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }

    /// Every timed job's latency at the reference host's speed, each
    /// scaled by the probe rounds around it.
    fn scaled_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.ms * self.probe.factor(s.start, s.ms))
            .collect()
    }

    /// What `ms`, one latency per timed job, multiplies the run's job
    /// time by: with the scaled latencies, the host's speed relative to
    /// the reference host.
    fn multiplier(&self, ms: &[f64]) -> f64 {
        let measured: f64 = self.samples.iter().map(|s| s.ms).sum();
        match measured > 0.0 {
            true => ms.iter().sum::<f64>() / measured,
            false => 1.0,
        }
    }

    /// The end-to-end metrics, in [`END_TO_END`] order, over every timed
    /// job, with `ms` the jobs' latencies: scaled, or as measured. Set-up,
    /// throughput and CPU scale by the run's [`Measured::multiplier`].
    fn end_to_end(&self, ms: &[f64]) -> Vec<f64> {
        let k = self.multiplier(ms);
        let jobs = ms.len().max(1) as f64;
        vec![
            stats::median(&self.setup_s) * k,
            jobs / self.wall_s.max(1e-9) / k,
            stats::percentile(ms, 0.5),
            stats::percentile(ms, 0.9),
            self.cpu_ms / jobs * k,
            sys::peak_rss_mb(),
            self.races_per_pass,
        ]
    }

    /// Every sample as `[unit, ms]`.
    fn samples_json(&self) -> Json {
        Json::Arr(
            self.samples
                .iter()
                .map(|s| Json::Arr(vec![Json::Int(s.unit as i64), Json::Float(s.ms)]))
                .collect(),
        )
    }
}

/// A finished measurement: what gets printed and written.
struct Outcome {
    workload: Workload,
    params: Params,
    traced: bool,
    measured: Measured,
    /// The host's speed over the run relative to the reference host.
    host_speed: f64,
    /// End-to-end metrics at the reference host's speed (the result
    /// line), and as measured on this host.
    end_to_end: Vec<f64>,
    as_measured: Vec<f64>,
}

impl Outcome {
    fn failed(&self) -> usize {
        self.measured.failures.len()
    }

    /// The process exit status: non-zero on any correctness failure.
    fn exit_status(&self) -> u8 {
        u8::from(self.failed() > 0)
    }

    /// The metrics of the result line: end-to-end, or per-layer when
    /// traced.
    fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        match (&self.measured.layers, self.traced) {
            (Some(layers), true) => layers::PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit, layers[name]))
                .collect(),
            _ => END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(&(name, unit, _), &v)| (name, unit, v))
                .collect(),
        }
    }

    fn metrics_json(&self) -> Json {
        let mut doc = Json::obj();
        for (name, unit, value) in self.metrics() {
            doc.set(
                name,
                Json::obj()
                    .with("value", Json::Float(value))
                    .with("unit", Json::Str(unit.into())),
            );
        }
        doc
    }

    /// The last stdout line.
    fn result_line(&self) -> String {
        Json::obj()
            .with("correct", Json::Bool(self.failed() == 0))
            .with(
                "attempted",
                Json::Int(self.measured.attempted.max(1) as i64),
            )
            .with("failed", Json::Int(self.failed() as i64))
            .with("metrics", self.metrics_json())
            .to_compact()
    }

    /// Identity of the run: what was measured, where, and how big.
    fn stamp(&self) -> Json {
        let mut sizes = Json::obj();
        for (k, v) in &self.measured.sizes {
            sizes.set(k, Json::Int(*v as i64));
        }
        Json::obj()
            .with("workload", Json::Str(self.workload.name().into()))
            .with("seed", Json::Int(self.params.seed as i64))
            .with("traced", Json::Bool(self.traced))
            .with("git_rev", Json::Str(narada_obs::git_rev()))
            .with("host_cores", Json::Int(narada_obs::host_cores() as i64))
            .with("threads", Json::Int(LOAD_THREADS as i64))
            .with("sizes", sizes)
    }

    fn print(&self) {
        let m = &self.measured;
        let sizes: Vec<String> = m.sizes.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!(
            "{} seed {} | {} | load threads {} | host cores {}{}",
            self.workload.name(),
            self.params.seed,
            sizes.join(", "),
            LOAD_THREADS,
            narada_obs::host_cores(),
            if self.traced { " | traced" } else { "" }
        );
        let all = m.job_ms();
        let n = all.len();
        let (q1, q3) = stats::quartiles(&all);
        let note = |name: &str| -> String {
            match name {
                "setup_s" => format!("median of {} set-up(s)", m.setup_s.len()),
                "job_ms_p50" => format!("{n} samples; as measured, quartiles {q1:.4}..{q3:.4}"),
                "job_ms_p90" => {
                    let beyond = stats::samples_beyond(n, 0.9);
                    match stats::percentile_supported(n, 0.9) {
                        true => format!("{n} samples, {beyond} beyond"),
                        false => format!("{n} samples, only {beyond} beyond: too few"),
                    }
                }
                "cpu_ms_per_job" => format!(
                    "utilisation {:.4} cores",
                    m.cpu_ms / 1e3 / m.wall_s.max(1e-9)
                ),
                _ => String::new(),
            }
        };
        println!(
            "  host speed {:.4} of the reference host (probe rounds {}, other CPU at most {:.3} ms a round); as measured here in [ ]",
            self.host_speed,
            m.probe.rounds_ms.len(),
            m.probe.max_other_cpu_ms()
        );
        for ((&(name, unit, _), value), raw) in END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .zip(&self.as_measured)
        {
            println!(
                "  {name:<30} {value:>14.4} {unit:<8} [{raw:.4}] {}",
                note(name)
            );
        }
        println!(
            "  {:<30} {:>14.4} {:<8} {} of {} job(s) failed a check",
            "failed_frac",
            self.failed() as f64 / m.attempted.max(1) as f64,
            "fraction",
            self.failed(),
            m.attempted
        );
        if let Some(layers) = &m.layers {
            println!("  per-layer (traced half):");
            for &(name, unit, _) in layers::PER_LAYER {
                println!("  {name:<30} {:>14.4} {unit}", layers[name]);
            }
        }
        for f in m.failures.iter().take(20) {
            eprintln!("FAILED: {f}");
        }
    }

    fn write(&self, dir: &std::path::Path) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let m = &self.measured;
        let name = self.workload.name();
        let write = |file: String, text: String| {
            let path = dir.join(file);
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
        };
        let metrics = |values: &[f64]| {
            let mut doc = Json::obj();
            for (&(metric, unit, _), &v) in END_TO_END.iter().zip(values) {
                doc.set(
                    metric,
                    Json::obj()
                        .with("value", Json::Float(v))
                        .with("unit", Json::Str(unit.into())),
                );
            }
            doc
        };
        let doc = self
            .stamp()
            .with("attempted", Json::Int(m.attempted as i64))
            .with("failed", Json::Int(self.failed() as i64))
            .with(
                "failed_frac",
                Json::Float(self.failed() as f64 / m.attempted.max(1) as f64),
            )
            .with(
                "setup_s",
                Json::Arr(m.setup_s.iter().map(|&s| Json::Float(s)).collect()),
            )
            .with("timed_wall_s", Json::Float(m.wall_s))
            .with("timed_cpu_ms", Json::Float(m.cpu_ms))
            .with("host_speed", Json::Float(self.host_speed))
            .with(
                "probe_rounds_ms",
                Json::Arr(m.probe.rounds_ms.iter().map(|&p| Json::Float(p)).collect()),
            )
            .with(
                "probe_other_cpu_ms",
                Json::Arr(
                    m.probe
                        .other_cpu_ms
                        .iter()
                        .map(|&p| Json::Float(p))
                        .collect(),
                ),
            )
            .with("end_to_end", metrics(&self.end_to_end))
            .with("as_measured", metrics(&self.as_measured))
            .with(
                "failures",
                Json::Arr(m.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            );
        write(format!("{name}.json"), doc.to_pretty())?;
        write(
            format!("{name}.samples.json"),
            m.samples_json().to_compact(),
        )?;
        if self.traced {
            let doc = self.stamp().with("per_layer", self.metrics_json());
            write(format!("{name}.layers.json"), doc.to_pretty())?;
            write(format!("{name}.trace.jsonl"), m.trace_jsonl.clone())?;
        }
        Ok(())
    }
}

/// Measures one workload: untraced, or as an untraced half followed by
/// a traced half of the same inputs, whose job latencies give the
/// tracing overhead.
fn measure(workload: Workload, params: Params, traced: bool) -> Outcome {
    let run = |p: &Params, untraced: Option<&Measured>| {
        let mut m = workload.run(p, untraced);
        // Smoke runs share their process with the rest of the test
        // suite, so only measured runs can hold the probe to running
        // alone.
        if let Some(fault) = m.probe.busy().filter(|_| !p.smoke()) {
            m.failures.push(fault);
        }
        m
    };
    let measured = match traced {
        false => run(&params, None),
        true => {
            let half = Params {
                size: match params.size {
                    Size::Full => Size::Half,
                    size => size,
                },
                setup_reps: 1,
                ..params.clone()
            };
            let base = run(&half, None);
            let mut t = run(&half, Some(&base));
            let p50 = |m: &Measured| stats::median(&m.scaled_ms());
            let overhead = match p50(&base) > 0.0 {
                true => (p50(&t) / p50(&base) - 1.0) * 100.0,
                false => 0.0,
            };
            let layers = t.layers.get_or_insert_with(layers::zeroed);
            layers.insert("obs.tracing_overhead_pct", overhead);
            t.attempted += base.attempted;
            t.failures.extend(base.failures.iter().cloned());
            // The end-to-end numbers of a traced run come from its
            // untraced half.
            Measured {
                layers: t.layers,
                trace_jsonl: t.trace_jsonl,
                attempted: t.attempted,
                failures: t.failures,
                ..base
            }
        }
    };
    let scaled = measured.scaled_ms();
    Outcome {
        workload,
        params,
        traced,
        end_to_end: measured.end_to_end(&scaled),
        as_measured: measured.end_to_end(&measured.job_ms()),
        host_speed: measured.multiplier(&scaled),
        measured,
    }
}

/// Parsed command line.
struct Args {
    /// The workload, or `None` with `all` or `bless`.
    workload: Option<Workload>,
    seed: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
    bless: bool,
    /// `--workload all`: one child process per workload.
    all: bool,
}

const USAGE: &str =
    "usage: benchmark --workload <corpus-detect|difftest-sweep|serve-warm|serve-churn|all> \
[--seed N] [--seconds 20] [--trace [0|1]] [--out DIR] | --bless";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        trace: false,
        out: None,
        bless: false,
        all: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        match flag.as_str() {
            "--workload" => match value("a workload name")?.as_str() {
                "all" => args.all = true,
                name => {
                    args.workload =
                        Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?)
                }
            },
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed: bad number `{v}`"))?);
            }
            // The work is fixed; a harness that states the run length
            // must state the one it is sized to.
            "--seconds" => {
                let v = value("a number")?;
                if v.parse::<f64>() != Ok(RUN_SECONDS as f64) {
                    return Err(format!(
                        "--seconds: the work is fixed, sized to {RUN_SECONDS} s; got `{v}`"
                    ));
                }
            }
            "--trace" => {
                args.trace = true;
                if let Some(v) = it.next_if(|v| v.as_str() == "0" || v.as_str() == "1") {
                    args.trace = v == "1";
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_none() && !args.all && !args.bless {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `--workload all`: each workload in its own process, so one's heap
/// and threads never colour another's numbers.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut worst = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--workload" => {
                    it.next();
                }
                _ => args.push(a.clone()),
            }
        }
        args.extend(["--workload".to_string(), w.name().to_string()]);
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("spawn workload process");
        if !status.success() {
            worst = ExitCode::FAILURE;
        }
    }
    worst
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.filter(|_| !args.all) else {
        return run_all(&argv);
    };
    let params = Params {
        seed: args.seed.unwrap_or(workload.default_seed()),
        size: Size::Full,
        setup_reps: SETUP_REPS,
        golden: None,
    };
    let outcome = measure(workload, params, args.trace);
    outcome.print();
    if let Some(dir) = &args.out {
        if let Err(e) = outcome.write(dir) {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.result_line());
    ExitCode::from(outcome.exit_status())
}

/// Rewrites the committed goldens from the current program, at the
/// default seeds.
fn bless() -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens");
    for (file, text) in [
        (corpus::GOLDEN_FILE, corpus::golden_text()),
        (difftest::GOLDEN_FILE, difftest::golden_text()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// The metrics `BENCHMARK.json` lists under `key`, as `(name, unit,
    /// higher is better)`.
    fn benchmark_metrics(key: &str) -> Vec<(String, String, bool)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
        benchmark_json()
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better") == "higher",
                )
            })
            .collect()
    }

    fn benchmark_names(key: &str) -> Vec<String> {
        benchmark_metrics(key).into_iter().map(|m| m.0).collect()
    }

    fn smoke(workload: Workload, golden: Option<String>) -> Params {
        Params {
            seed: workload.default_seed(),
            size: Size::Smoke,
            setup_reps: 2,
            golden,
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let owned = |ms: &[(&str, &str, bool)]| -> Vec<(String, String, bool)> {
            ms.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b))
                .collect()
        };
        assert_eq!(benchmark_metrics("end_to_end"), owned(END_TO_END));
        assert_eq!(benchmark_metrics("per_layer"), owned(layers::PER_LAYER));
        let run_seconds = benchmark_json().get("run_seconds").and_then(Json::as_i64);
        assert_eq!(run_seconds, Some(RUN_SECONDS as i64));
    }

    #[test]
    fn args_accept_flag_values_and_bare_trace() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&argv(
            "--workload serve-warm --seed 9 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Some(Workload::ServeWarm), Some(9), false)
        );
        let a = parse_args(&argv("--trace --workload all --out x")).unwrap();
        assert!(a.trace && a.all && a.workload.is_none());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        // The work is fixed: no other run length is accepted.
        assert!(parse_args(&argv("--workload serve-warm --seconds 3")).is_err());
    }

    /// A smoke-sized run of every workload, traced and not: the result
    /// line parses, names exactly `BENCHMARK.json`'s metrics with finite
    /// values, and reports no failure.
    #[test]
    fn smoke_runs_emit_every_metric_without_failures() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let o = measure(w, smoke(w, None), traced);
                assert_eq!(o.failed(), 0, "{}: {:?}", w.name(), o.measured.failures);
                let line = Json::parse(&o.result_line()).expect("result line is JSON");
                let metrics = line.get("metrics").expect("metrics");
                let want = benchmark_names(if traced { "per_layer" } else { "end_to_end" });
                let got: Vec<&str> = metrics
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(got, want, "{} traced={traced}", w.name());
                for (name, v) in metrics.as_obj().unwrap() {
                    let value = v.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{}: {name} = {v:?}",
                        w.name()
                    );
                }
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn corrupted_golden_fails_the_run() {
        let w = Workload::CorpusDetect;
        let corrupted: String = corpus::GOLDEN
            .lines()
            .map(|l| match l.strip_prefix("C1 ") {
                Some(_) => "C1 0000000000000000".to_string(),
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        let o = measure(w, smoke(w, Some(corrupted)), false);
        assert!(o.failed() > 0, "a wrong C1 digest must fail");
        let line = Json::parse(&o.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_ne!(o.exit_status(), 0);
    }
}
