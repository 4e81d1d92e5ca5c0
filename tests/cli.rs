//! Tests for the `narada` command-line driver.

use std::process::Command;

fn narada(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_narada"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_fixture(name: &str, src: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("narada-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path
}

const FIXTURE: &str = r#"
    class Counter { int count; void inc() { this.count = this.count + 1; } }
    class Lib {
        Counter c;
        sync void update() { this.c.inc(); }
        sync void set(Counter x) { this.c = x; }
    }
    test seed {
        var r = new Counter();
        var p = new Lib();
        p.set(r);
        p.update();
    }
"#;

#[test]
fn no_args_prints_usage_and_fails() {
    let out = narada(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = narada(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("synth"));
}

#[test]
fn run_executes_seed_tests() {
    let path = write_fixture("run.mj", FIXTURE);
    let out = narada(&["run", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("test seed: ok"), "{stdout}");
}

#[test]
fn run_reports_failures_without_crashing() {
    let path = write_fixture("fail.mj", "test boom { assert false; }");
    let out = narada(&["run", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("assertion failed"), "{stdout}");
}

#[test]
fn mir_dumps_instructions() {
    let path = write_fixture("mir.mj", FIXTURE);
    let out = narada(&["mir", path.to_str().unwrap(), "--method", "Lib.update"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lock(this)"), "{stdout}");
    assert!(stdout.contains("I_this"), "{stdout}");
}

#[test]
fn synth_renders_plans() {
    let path = write_fixture("synth.mj", FIXTURE);
    let out = narada(&["synth", path.to_str().unwrap(), "--render"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("racing pairs"), "{stdout}");
    assert!(stdout.contains("collectObjects"), "{stdout}");
    assert!(stdout.contains("spawn"), "{stdout}");
}

#[test]
fn detect_reports_races() {
    let path = write_fixture("detect.mj", FIXTURE);
    let out = narada(&[
        "detect",
        path.to_str().unwrap(),
        "--schedules",
        "6",
        "--confirms",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("races detected"), "{stdout}");
    // Fig. 1's count race must be found and be harmful.
    assert!(
        !stdout.contains("0 races detected"),
        "the Fig. 1 race must be detected: {stdout}"
    );
}

#[test]
fn compile_errors_are_rendered_with_positions() {
    let path = write_fixture("bad.mj", "test t { var x = 1 + true; }");
    let out = narada(&["synth", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("type error"), "{stderr}");
    assert!(stderr.contains("1:"), "positions rendered: {stderr}");
}

#[test]
fn unknown_command_fails() {
    let out = narada(&["frobnicate"]);
    assert!(!out.status.success());
}

/// A mistyped or removed flag fails loudly, naming the flag, instead of
/// silently running at the defaults. `--explore` is gone: every test
/// forks, falling back to fresh starts on its own.
#[test]
fn unknown_flag_exits_2_and_names_it() {
    for (flag, value) in [("--schedule", "1"), ("--explore", "rerun")] {
        let out = narada(&["detect", "C3", flag, value, "--confirm", "1"]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing ran");
    }
}

/// Tree-walk is the only interpreter; `--engine` is gone from every
/// command that used to take it.
#[test]
fn engine_flag_is_rejected() {
    for cmd in [
        "run", "synth", "detect", "gen", "corpus", "difftest", "submit",
    ] {
        let out = narada(&[cmd, "C1", "--engine", "bytecode"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag `--engine`"),
            "{cmd}: {stderr}"
        );
    }
}

/// Every flag each usage entry documents passes the flag check. Each
/// command gets a positional (a missing file, an unknown class) or a
/// flag value that makes it fail right after the check, so nothing runs:
/// exit 1, never the unknown-flag exit 2.
#[test]
fn documented_flags_are_accepted() {
    const DETECT: &str = "--schedules x --confirms x --seed x --strict-unprotected \
        --no-prefix-fallback --no-lockset-aware --static-filter --static-rank \
        --generate-seeds --budget x --max-len x --gen-seed x --report-out x --threads x \
        --timings --strategy x --depth x --record x --replay x --trace-out x --manifest x";
    const ADDR: &str = "--addr 127.0.0.1:1";
    let cases = [
        ("run", "no-such-file.mj --test x --trace".to_string()),
        ("mir", "no-such-file.mj --method x".into()),
        (
            "synth",
            "no-such-file.mj --render --strict-unprotected --no-prefix-fallback \
             --no-lockset-aware --static-filter --static-rank --threads x --timings --seed x \
             --generate-seeds --budget x --max-len x --gen-seed x --strategy x --depth x \
             --record x --replay x --trace-out x --manifest x"
                .into(),
        ),
        ("detect", format!("no-such-file.mj {DETECT}")),
        (
            "gen",
            "no-such-file.mj --budget x --seed x --threads x --max-len x --full-api \
             --trace-out x --manifest x"
                .into(),
        ),
        (
            "pairs",
            "no-such-file.mj --may-race-only --threads x --json --strict-unprotected \
             --no-prefix-fallback --no-lockset-aware"
                .into(),
        ),
        (
            "corpus",
            "C0 --threads x --timings --detect --schedules x --confirms x --seed x \
             --strict-unprotected --no-prefix-fallback --no-lockset-aware --static-filter \
             --static-rank --generate-seeds --budget x --max-len x --gen-seed x --strategy x \
             --depth x --record x --trace-out x --manifest x"
                .into(),
        ),
        (
            "difftest",
            "--seed x --count x --threads x --shrink --fixtures x --schedules x --confirms x \
             --inject-unsound --verbose --trace-out x --manifest x"
                .into(),
        ),
        (
            "report",
            "--diff x --trend --tolerance x --wall-tolerance x".into(),
        ),
        (
            "serve",
            format!(
                "{ADDR} --threads x --state-dir x --port-file x --cache-capacity x \
                 --slow-job-ms x --event-log-max-bytes x"
            ),
        ),
        ("top", format!("{ADDR} --once --interval x --count x")),
        ("submit", format!("no-such-file.mj {ADDR} {DETECT}")),
        ("jobs", format!("{ADDR} --stats")),
        ("fetch", format!("0 {ADDR} --wait --out x --quiet")),
        ("shutdown", ADDR.into()),
    ];
    for (cmd, rest) in &cases {
        let args: Vec<&str> = std::iter::once(*cmd)
            .chain(rest.split_whitespace())
            .collect();
        let out = narada(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(!stderr.contains("unknown flag"), "{cmd}: {stderr}");
    }
}

#[test]
fn corpus_single_entry() {
    let out = narada(&["corpus", "C9"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CharArrayReader"), "{stdout}");
    assert!(stdout.contains("paper:"), "{stdout}");
}

#[test]
fn synth_writes_trace_and_manifest() {
    let path = write_fixture("telemetry.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let trace = dir.join("trace.jsonl");
    let manifest = dir.join("manifest.json");
    let out = narada(&[
        "synth",
        path.to_str().unwrap(),
        "--threads",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every trace line is a JSON object naming a span.
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(jsonl.lines().count() > 1, "{jsonl}");
    for line in jsonl.lines() {
        let span = narada::obs::Json::parse(line).expect("valid JSONL line");
        assert!(span.get("name").is_some(), "{line}");
    }

    // The manifest parses back and carries the pipeline's counters.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let m = narada::RunManifest::parse(&text).expect("manifest parses");
    assert!(m.metric("pairs.generated").is_some());
    assert!(m.config_get("strategy").is_some(), "strategy stamped");
}

#[test]
fn report_renders_and_diffs_manifests() {
    let path = write_fixture("report.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let a = dir.join("report-a.json");
    let b = dir.join("report-b.json");
    for m in [&a, &b] {
        let out = narada(&[
            "synth",
            path.to_str().unwrap(),
            "--manifest",
            m.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let out = narada(&["report", a.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pairs.generated"), "{stdout}");

    let out = narada(&["report", "--diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Identical pipelines → every metric matches.
    assert!(stdout.contains("metrics identical"), "{stdout}");
}

#[test]
fn report_rejects_invalid_manifest() {
    let path = write_fixture("not-a-manifest.json", "{\"schema\": \"nope\"}");
    let out = narada(&["report", path.to_str().unwrap()]);
    assert!(!out.status.success());
}

/// Inflates the first integer value following `key` in a manifest's JSON
/// text — the fault-injection half of the trend-gate tests.
fn inflate_metric(text: &str, key: &str) -> String {
    let at = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("`{key}` not in manifest"));
    let digits_start = at
        + text[at..]
            .find(|c: char| c.is_ascii_digit())
            .expect("metric has a numeric value");
    let digits_end = digits_start
        + text[digits_start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - digits_start);
    format!("{}999999{}", &text[..digits_start], &text[digits_end..])
}

#[test]
fn report_trend_passes_identical_runs_and_exits_4_on_regression() {
    let path = write_fixture("trend.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let a = dir.join("trend-a.json");
    let b = dir.join("trend-b.json");
    for m in [&a, &b] {
        let out = narada(&[
            "synth",
            path.to_str().unwrap(),
            "--manifest",
            m.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }

    // Identical pipelines: every deterministic metric matches, wall-clock
    // rows are informational — the gate passes at zero tolerance.
    let out = narada(&[
        "report",
        "--trend",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 breach(es)"), "{stdout}");

    // Inject a count regression into the current run: the gate must trip
    // through the dedicated exit code.
    let text = std::fs::read_to_string(&b).unwrap();
    let bad = write_fixture("trend-bad.json", &inflate_metric(&text, "pairs.generated"));
    let out = narada(&[
        "report",
        "--trend",
        a.to_str().unwrap(),
        bad.to_str().unwrap(),
        "--tolerance",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("!!"), "breach flagged: {stdout}");
    assert!(stdout.contains("pairs.generated"), "{stdout}");

    // A singleton group cannot be trended.
    let out = narada(&["report", "--trend", a.to_str().unwrap(), "--tolerance", "0"]);
    assert!(!out.status.success());
}

#[test]
fn top_once_reports_cold_and_warm_quantiles_from_a_live_daemon() {
    let dir = std::env::temp_dir().join("narada-cli-tests/topd");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let mut server = Command::new(env!("CARGO_BIN_EXE_narada"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("server starts");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                break format!("127.0.0.1:{port}");
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never wrote its port file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // One cold and one warm job so both latency histograms have samples.
    let path = write_fixture("top.mj", FIXTURE);
    for _ in 0..2 {
        let out = narada(&[
            "submit",
            path.to_str().unwrap(),
            "--addr",
            &addr,
            "--schedules",
            "3",
            "--confirms",
            "2",
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let submitted = String::from_utf8_lossy(&out.stdout);
        let job = submitted.trim().strip_prefix("job ").expect("job id");
        let out = narada(&["fetch", job, "--addr", &addr, "--wait", "--quiet"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let out = narada(&["top", "--once", "--addr", &addr]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let frame = narada::obs::Json::parse(&stdout).expect("top --once prints one JSON object");
    let latency = frame.get("latency").expect("latency section");
    let count = |side: &str| {
        latency
            .get(side)
            .and_then(|n| n.get("count"))
            .and_then(narada::obs::Json::as_i64)
            .unwrap_or_else(|| panic!("latency.{side}.count: {stdout}"))
    };
    for side in ["cold", "warm"] {
        for key in ["p50", "p90", "p99"] {
            assert!(
                latency
                    .get(side)
                    .and_then(|n| n.get(key))
                    .and_then(narada::obs::Json::as_i64)
                    .is_some(),
                "latency.{side}.{key}: {stdout}"
            );
        }
    }
    assert_eq!(count("cold"), 1, "{stdout}");
    assert_eq!(count("warm"), 1, "resubmission classifies warm: {stdout}");

    let out = narada(&["shutdown", "--addr", &addr]);
    assert!(out.status.success());
    server.wait().expect("server exits");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pairs_json_is_machine_readable() {
    let path = write_fixture("pairs.mj", FIXTURE);
    let out = narada(&["pairs", path.to_str().unwrap(), "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = narada::obs::Json::parse(&stdout).expect("pairs --json parses");
    let arr = doc.as_arr().expect("top-level array");
    assert!(!arr.is_empty());
    for pair in arr {
        assert!(
            pair.get("a").is_some() && pair.get("b").is_some(),
            "{stdout}"
        );
        assert!(pair.get("may_race").is_some(), "{stdout}");
    }
}

#[test]
fn missing_file_is_reported() {
    let out = narada(&["run", "/nonexistent/zzz.mj"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn report_diff_missing_manifest_fails() {
    let path = write_fixture("diff-present.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let present = dir.join("diff-present.json");
    let out = narada(&[
        "synth",
        path.to_str().unwrap(),
        "--manifest",
        present.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = narada(&[
        "report",
        "--diff",
        present.to_str().unwrap(),
        "/nonexistent/other.json",
    ]);
    assert!(!out.status.success(), "missing manifest must fail the diff");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn report_diff_schema_mismatch_fails() {
    let path = write_fixture("diff-schema.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let good = dir.join("diff-good.json");
    let out = narada(&[
        "synth",
        path.to_str().unwrap(),
        "--manifest",
        good.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // A structurally complete manifest from a different (future) schema
    // revision: only the version marker is wrong.
    let text = std::fs::read_to_string(&good).unwrap();
    let stale = write_fixture(
        "diff-stale.json",
        &text.replace("narada-manifest/1", "narada-manifest/999"),
    );

    let out = narada(&[
        "report",
        "--diff",
        good.to_str().unwrap(),
        stale.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "schema-mismatched manifest must fail the diff"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema"), "{stderr}");
}

#[test]
fn detect_manifest_records_gave_up() {
    let path = write_fixture("gaveup.mj", FIXTURE);
    let dir = std::env::temp_dir().join("narada-cli-tests");
    let manifest = dir.join("gaveup.json");
    let out = narada(&[
        "detect",
        path.to_str().unwrap(),
        "--schedules",
        "6",
        "--confirms",
        "4",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).unwrap();
    let m = narada::RunManifest::parse(&text).expect("manifest parses");
    assert!(m.metric("racefuzzer.gave_up").is_some());
    assert!(
        m.metric("detect.gave_up").is_none(),
        "give-ups are counted once, under racefuzzer.gave_up"
    );
}

#[test]
fn detect_manifest_splits_trial_outcomes() {
    let dir = std::env::temp_dir().join("narada-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("outcomes.json");
    let out = narada(&["detect", "C1", "--manifest", manifest.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&manifest).unwrap();
    let m = narada::RunManifest::parse(&text).expect("manifest parses");
    // An outcome counter is absent until it is first counted.
    let scalar = |key: &str| match m.metric(key) {
        Some(narada::obs::MetricValue::Counter(n) | narada::obs::MetricValue::Gauge(n)) => *n,
        None => 0,
        other => panic!("{key}: expected a scalar, got {other:?}"),
    };
    let outcomes = [
        "trial.completed",
        "trial.step_limit",
        "trial.saturated",
        "trial.decided",
        "trial.failed",
    ];
    let sum: u64 = outcomes.iter().map(|k| scalar(k)).sum();
    assert_eq!(
        sum,
        scalar("detect.trials") + scalar("detect.confirm_trials"),
        "every trial ends with exactly one outcome"
    );
    assert!(scalar("trial.completed") > 0, "{text}");
    // Test 60's trials 1, 3 and 4 livelock; the saturation cut ends them
    // long before the 2M-step budget.
    assert_eq!(scalar("trial.saturated"), 3, "{text}");
    assert_eq!(scalar("trial.step_limit"), 0, "{text}");
    assert!(scalar("sched.decisions") < 200_000, "{text}");
}

#[test]
fn closed_stdout_pipe_exits_cleanly() {
    use std::io::BufRead;
    // `pairs C6 --json` writes over three pipe buffers, so dropping the
    // reader after one line always leaves the writer a closed pipe.
    for args in [&["synth", "C1", "--render"][..], &["pairs", "C6", "--json"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_narada"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(!first.is_empty(), "{args:?}: no output");
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn gen_emits_compilable_novel_suite() {
    let path = write_fixture("gen.mj", FIXTURE);
    let out = narada(&[
        "gen",
        path.to_str().unwrap(),
        "--budget",
        "128",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("test gen_"), "{stdout}");
    // The emitted suite is a complete MJ program: library + tests.
    let prog = narada::compile(&stdout).expect("generated suite compiles");
    assert!(!prog.tests.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("candidates"), "stats on stderr: {stderr}");
}

#[test]
fn gen_output_is_byte_identical_across_threads() {
    let path = write_fixture("gen-threads.mj", FIXTURE);
    let mut outs = Vec::new();
    for threads in ["1", "8"] {
        let out = narada(&[
            "gen",
            path.to_str().unwrap(),
            "--budget",
            "128",
            "--seed",
            "5",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outs.push(out.stdout);
    }
    assert_eq!(outs[0], outs[1], "gen output must not depend on --threads");
}

#[test]
fn synth_generate_seeds_replaces_manual_suite() {
    let path = write_fixture("gen-synth.mj", FIXTURE);
    let out = narada(&[
        "synth",
        path.to_str().unwrap(),
        "--generate-seeds",
        "--budget",
        "128",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("generated"), "{stdout}");
}

#[test]
fn difftest_happy_path_exits_zero() {
    let out = narada(&["difftest", "--count", "6", "--seed", "7", "--threads", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 soundness disagreement(s)"), "{stdout}");
    assert!(stdout.contains("digest="), "{stdout}");
}

#[test]
fn difftest_output_is_thread_count_independent() {
    let a = narada(&["difftest", "--count", "9", "--seed", "11", "--threads", "1"]);
    let b = narada(&["difftest", "--count", "9", "--seed", "11", "--threads", "8"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "difftest output must not depend on --threads"
    );
}

#[test]
fn difftest_disagreement_exits_with_code_3() {
    // --inject-unsound flips one verdict per class, so the sweep must
    // find disagreements and report them through the dedicated exit code.
    let out = narada(&[
        "difftest",
        "--count",
        "3",
        "--seed",
        "7",
        "--inject-unsound",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SOUNDNESS"), "{stdout}");
}

#[test]
fn difftest_shrink_writes_fixtures() {
    let dir = std::env::temp_dir().join("narada-cli-tests/difffix");
    let _ = std::fs::remove_dir_all(&dir);
    let out = narada(&[
        "difftest",
        "--count",
        "3",
        "--seed",
        "7",
        "--inject-unsound",
        "--shrink",
        "--fixtures",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shrunk "), "{stdout}");
    let fixtures: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture dir created")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "mj"))
        .collect();
    assert!(!fixtures.is_empty(), "no fixtures written: {stdout}");
    // Fixture bodies must compile and carry the provenance header.
    for f in &fixtures {
        let text = std::fs::read_to_string(f).unwrap();
        assert!(text.contains("generator_version="), "{text}");
        assert!(text.contains("disagreement: pair"), "{text}");
    }
}

#[test]
fn difftest_writes_validatable_manifest() {
    let dir = std::env::temp_dir().join("narada-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("difftest-manifest.json");
    let out = narada(&[
        "difftest",
        "--count",
        "4",
        "--seed",
        "3",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = narada(&["report", manifest.to_str().unwrap()]);
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("difftest"), "{stdout}");
}
