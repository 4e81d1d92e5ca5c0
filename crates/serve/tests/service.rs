//! End-to-end acceptance tests for the detection service: byte-identity
//! with the batch pipeline (cold, warm, and across worker counts),
//! streamed progress events, prompt `fetch --wait` wake-ups, lossless
//! mid-queue shutdown, and the request-frame length cap.

use narada_detect::{evaluate_suite_full, DetectConfig};
use narada_lang::lower::lower_program;
use narada_obs::{Json, Obs, RunManifest};
use narada_serve::{render_report, serve, wait_ready, Client, JobOptions, ServeConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cheap-but-real options: full pipeline, smaller trial counts.
fn test_opts() -> JobOptions {
    JobOptions {
        schedules: 3,
        confirms: 2,
        ..JobOptions::default()
    }
}

/// The cache-free reference: plain compile → synthesize → detect →
/// render, no artifact store anywhere. What `narada detect
/// --report-out` computes.
fn reference_report(source: &str, opts: &JobOptions) -> String {
    let obs = Obs::new();
    let prog = narada_lang::compile(source).expect("reference compile");
    let mir = lower_program(&prog);
    let sopts = narada_core::SynthesisOptions {
        threads: opts.threads,
        static_filter: opts.static_filter,
        static_rank: opts.static_rank,
        ..narada_core::SynthesisOptions::default()
    };
    let out = narada_core::pipeline::synthesize_observed(
        &prog,
        &mir,
        &sopts,
        Some(&narada_screen::screen_pairs),
        &obs,
    );
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
    render_report(&prog, source, opts, &out, &reports, &agg)
}

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "narada-serve-test-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

struct TestServer {
    addr: String,
    handle: JoinHandle<Result<u64, String>>,
    dir: PathBuf,
}

impl TestServer {
    fn start(workers: usize, state_dir: bool) -> TestServer {
        TestServer::start_with_capacity(workers, state_dir, 64)
    }

    fn start_with_capacity(workers: usize, state_dir: bool, cache_capacity: usize) -> TestServer {
        let dir = scratch_dir("srv");
        let port_file = dir.join("port");
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            state_dir: state_dir.then(|| dir.join("state")),
            port_file: Some(port_file.clone()),
            cache_capacity,
            ..ServeConfig::default()
        };
        let handle = std::thread::spawn(move || serve(config));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let port = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    break port;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let addr = format!("127.0.0.1:{port}");
        wait_ready(&addr, Duration::from_secs(10)).expect("server ready");
        TestServer { addr, handle, dir }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// Submit + wait + return the report.
    fn run(&self, source: &str, opts: &JobOptions) -> String {
        let mut client = self.client();
        let job = client.submit(source, opts).expect("submit");
        let resp = client.fetch(job, true, &mut |_| {}).expect("fetch");
        assert_eq!(
            resp.get("status").and_then(|s| s.as_str()),
            Some("done"),
            "job failed: {resp:?}"
        );
        resp.get("report")
            .and_then(|r| r.as_str())
            .expect("report")
            .to_string()
    }

    fn stop(self) -> u64 {
        self.client().shutdown().expect("shutdown");
        let completed = self.handle.join().expect("join").expect("serve");
        std::fs::remove_dir_all(&self.dir).ok();
        completed
    }
}

#[test]
fn served_reports_are_byte_identical_to_batch_cold_and_warm() {
    let opts = test_opts();
    let sources: Vec<_> = ["C1", "C2", "C3", "C4", "C5"]
        .iter()
        .map(|id| (*id, narada_corpus::by_id(id).expect("corpus id").source))
        .collect();
    let references: Vec<_> = sources
        .iter()
        .map(|(_, source)| reference_report(source, &opts))
        .collect();
    // Cold then warm over C1-C5: each cold submission misses the program
    // cache and each warm one hits it (parse, lower and screen skipped).
    // A cache of two programs also evicts the least recently used one on
    // every miss past the second.
    for (capacity, evictions) in [(64, 0), (2, 3)] {
        let server = TestServer::start_with_capacity(2, false, capacity);
        for ((id, source), reference) in sources.iter().zip(&references) {
            let cold = server.run(source, &opts);
            assert_eq!(&cold, reference, "{id}: cold served != batch");
            let warm = server.run(source, &opts);
            assert_eq!(&warm, reference, "{id}: warm served != batch");
        }
        let stats = server.client().stats().expect("stats");
        let count = |key: &str| stats.get("cache").and_then(|c| c.get(key)?.as_i64());
        assert_eq!(
            (
                count("program_hits"),
                count("program_misses"),
                count("evictions")
            ),
            (Some(5), Some(5), Some(evictions)),
            "cache counters at cache_capacity {capacity}"
        );
        assert_eq!(server.stop(), 10);
    }
}

#[test]
fn served_report_is_independent_of_worker_count() {
    let opts = test_opts();
    let source = narada_corpus::by_id("C1").expect("C1").source;
    let mut reports = Vec::new();
    for workers in [1, 2, 8] {
        let server = TestServer::start(workers, false);
        reports.push(server.run(source, &opts));
        server.stop();
    }
    assert_eq!(reports[0], reports[1], "workers 1 vs 2");
    assert_eq!(reports[0], reports[2], "workers 1 vs 8");
}

/// Older clients still send an `engine` option; the server accepts it,
/// ignores it, and renders the same bytes as for a submission without it.
#[test]
fn engine_field_on_the_wire_is_ignored() {
    use narada_serve::proto::{read_frame, write_frame};

    let opts = test_opts();
    let source = narada_corpus::by_id("C2").expect("C2").source;
    let server = TestServer::start(1, false);
    let plain = server.run(source, &opts);

    let mut raw = std::net::TcpStream::connect(&server.addr).expect("connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone stream"));
    let submit = Json::obj()
        .with("cmd", Json::Str("submit".into()))
        .with("source", Json::Str(source.to_string()))
        .with(
            "options",
            opts.to_json().with("engine", Json::Str("bytecode".into())),
        );
    write_frame(&mut raw, &submit).expect("send submit");
    let resp = read_frame(&mut reader)
        .expect("read the answer")
        .expect("a submit response");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    let job = resp.get("job").and_then(|j| j.as_i64()).expect("job id") as u64;
    let fetched = server
        .client()
        .fetch(job, true, &mut |_| {})
        .expect("fetch");
    let report = fetched.get("report").and_then(|r| r.as_str());
    assert_eq!(report, Some(plain.as_str()));
    assert_eq!(server.stop(), 2);
}

#[test]
fn fetch_streams_manifest_backed_progress_events() {
    let opts = test_opts();
    let server = TestServer::start(1, false);
    let source = narada_corpus::by_id("C1").expect("C1").source;
    let mut client = server.client();
    let job = client.submit(source, &opts).expect("submit");
    let mut events: Vec<Json> = Vec::new();
    let resp = client
        .fetch(job, true, &mut |frame| events.push(frame.clone()))
        .expect("fetch");
    assert_eq!(resp.get("status").and_then(|s| s.as_str()), Some("done"));

    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"queued"), "events: {names:?}");
    assert!(names.contains(&"started"), "events: {names:?}");
    assert!(names.contains(&"done"), "events: {names:?}");
    let stages: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("stage").and_then(|s| s.as_str()))
        .collect();
    assert_eq!(stages, ["compile", "synth", "detect"]);

    // Every stage frame embeds a parseable narada-manifest/1 snapshot.
    for event in events.iter().filter(|e| e.get("stage").is_some()) {
        let doc = event.get("manifest").expect("manifest frame");
        let manifest = RunManifest::from_json(doc).expect("valid manifest");
        assert_eq!(manifest.name, "serve.job");
    }
    server.stop();
}

#[test]
fn mid_queue_shutdown_loses_no_completed_results() {
    // One worker, three queued jobs, shutdown issued while the queue is
    // still full: the drain must complete all three, and each report
    // must already be on disk (flushed at completion, not at exit).
    let opts = test_opts();
    let server = TestServer::start(1, true);
    let state = server.dir.join("state");
    let sources: Vec<&str> = ["C1", "C2", "C3"]
        .iter()
        .map(|id| narada_corpus::by_id(id).expect("corpus").source)
        .collect();
    let mut client = server.client();
    for source in &sources {
        client.submit(source, &opts).expect("submit");
    }
    // Immediately drain: jobs 1 and 2 are still queued behind job 0.
    let resp = client.shutdown().expect("shutdown");
    assert_eq!(resp.get("completed").and_then(|c| c.as_i64()), Some(3));
    assert_eq!(server.handle.join().expect("join").expect("serve"), 3);

    for (i, source) in sources.iter().enumerate() {
        let report = std::fs::read_to_string(state.join(format!("job-{i}.report")))
            .unwrap_or_else(|e| panic!("job-{i}.report missing: {e}"));
        assert_eq!(report, reference_report(source, &opts), "job {i}");
        let manifest = std::fs::read_to_string(state.join(format!("job-{i}.manifest.json")))
            .unwrap_or_else(|e| panic!("job-{i}.manifest.json missing: {e}"));
        RunManifest::parse(&manifest).expect("valid flushed manifest");
    }
    std::fs::remove_dir_all(&server.dir).ok();
}

#[test]
fn health_frames_are_well_shaped_under_concurrent_submits() {
    let opts = test_opts();
    for workers in [1usize, 2, 8] {
        let server = TestServer::start(workers, false);
        // Concurrent submissions from independent clients — one cold
        // class each, plus one warm resubmission to light the warm
        // latency histogram.
        std::thread::scope(|scope| {
            for id in ["C1", "C2"] {
                scope.spawn(|| {
                    let source = narada_corpus::by_id(id).expect("corpus id").source;
                    server.run(source, &opts);
                });
            }
        });
        let c1 = narada_corpus::by_id("C1").expect("C1").source;
        server.run(c1, &opts);

        let health = server.client().health().expect("health");
        assert_eq!(
            health.get("type").and_then(|t| t.as_str()),
            Some("health"),
            "{health:?}"
        );
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ready"));
        assert!(health.get("uptime_ns").and_then(Json::as_i64).unwrap_or(-1) >= 0);
        let jobs = health.get("jobs").expect("jobs section");
        for key in ["total", "queued", "running", "done", "failed"] {
            assert!(jobs.get(key).and_then(Json::as_i64).is_some(), "jobs.{key}");
        }
        assert_eq!(jobs.get("done").and_then(Json::as_i64), Some(3));

        // Latency quantiles: every key present, cold + warm counts cover
        // all three completed jobs (C1 resubmission is the warm one).
        let latency = health.get("latency").expect("latency section");
        for side in ["cold", "warm"] {
            let node = latency
                .get(side)
                .unwrap_or_else(|| panic!("latency.{side}"));
            for key in ["count", "p50", "p90", "p99"] {
                assert!(
                    node.get(key).and_then(Json::as_i64).is_some(),
                    "latency.{side}.{key}"
                );
            }
        }
        let count = |side: &str| {
            latency
                .get(side)
                .and_then(|n| n.get("count"))
                .and_then(Json::as_i64)
                .unwrap_or(0)
        };
        assert_eq!(count("cold") + count("warm"), 3, "workers={workers}");
        assert!(count("warm") >= 1, "resubmission must classify warm");
        for stage in ["compile", "synth", "detect"] {
            let node = latency
                .get("stages")
                .and_then(|s| s.get(stage))
                .unwrap_or_else(|| panic!("latency.stages.{stage}"));
            assert_eq!(node.get("count").and_then(Json::as_i64), Some(3));
        }

        // Cache occupancy is reported against capacity; the worker pool
        // reports one heartbeat slot per worker, all beaten by now.
        let cache = health.get("cache").expect("cache section");
        for key in ["counters", "sizes", "capacity"] {
            assert!(cache.get(key).is_some(), "cache.{key}");
        }
        let hb = health
            .get("workers")
            .and_then(|w| w.get("heartbeat_ages_ns"))
            .and_then(|a| a.as_arr())
            .expect("heartbeat ages");
        assert_eq!(hb.len(), workers, "one heartbeat slot per worker");
        assert!(
            hb.iter().any(|age| age.as_i64().is_some()),
            "at least one worker has beaten: {hb:?}"
        );
        assert!(health.get("slow_jobs").and_then(|s| s.as_arr()).is_some());

        server.stop();
    }
}

#[test]
fn event_log_records_job_lifecycle_in_valid_jsonl() {
    let opts = test_opts();
    let server = TestServer::start(2, true);
    let state = server.dir.join("state");
    let c1 = narada_corpus::by_id("C1").expect("C1").source;
    server.run(c1, &opts);
    server.run(c1, &opts); // warm: cache-hit events

    // Events are flushed per line at write time, so the log is complete
    // for finished jobs while the server is still up.
    let log = std::fs::read_to_string(state.join("events.jsonl")).expect("event log exists");
    let mut kinds = Vec::new();
    for line in log.lines() {
        let event = Json::parse(line).expect("every event-log line is one valid JSON object");
        assert!(
            event.get("t_ns").and_then(Json::as_i64).is_some(),
            "events carry uptime-relative timestamps: {line}"
        );
        kinds.push(
            event
                .get("event")
                .and_then(|e| e.as_str())
                .expect("event kind")
                .to_string(),
        );
    }
    for expected in [
        "server.start",
        "job.queued",
        "job.started",
        "job.done",
        "cache",
    ] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing `{expected}` in {kinds:?}"
        );
    }
    // The warm resubmission must have logged at least one program-cache
    // hit with its digest.
    assert!(
        log.lines()
            .any(|l| l.contains("\"family\":\"program\"") && l.contains("\"kind\":\"hit\"")),
        "warm job must log a program-cache hit"
    );
    server.stop();
}

#[test]
fn fetch_wait_returns_without_a_lost_wakeup_stall() {
    // A job that finishes between `fetch`'s snapshot and its wait must be
    // seen at once, not after the 200 ms re-check timeout. A tiny class
    // finishes within that window often enough that 50 cycles catch it.
    const TINY: &str = r#"
        class Cell { int v; void put(int x) { this.v = x; } int get() { return this.v; } }
        test seed { var c = new Cell(); c.put(1); var g = c.get(); }
    "#;
    let opts = test_opts();
    let server = TestServer::start(1, false);
    server.run(TINY, &opts); // warm the program cache
    let mut client = server.client();
    for cycle in 0..50 {
        let start = std::time::Instant::now();
        let job = client.submit(TINY, &opts).expect("submit");
        let resp = client.fetch(job, true, &mut |_| {}).expect("fetch");
        let took = start.elapsed();
        assert_eq!(resp.get("status").and_then(|s| s.as_str()), Some("done"));
        assert!(
            took < Duration::from_millis(150),
            "cycle {cycle}: submit + fetch --wait took {took:?}"
        );
    }
    server.stop();
}

#[test]
fn submit_after_shutdown_is_refused() {
    let server = TestServer::start(1, false);
    let addr = server.addr.clone();
    assert_eq!(server.stop(), 0);
    // The server is gone: either the connection is refused outright or
    // any in-flight submit errors.
    let refused = match Client::connect(&addr) {
        Err(_) => true,
        Ok(mut c) => c.submit("class X { }", &JobOptions::default()).is_err(),
    };
    assert!(refused, "submission after shutdown must fail");
}

#[test]
fn over_long_frame_is_refused_and_the_server_keeps_serving() {
    use narada_serve::proto::read_frame;
    use narada_serve::server::MAX_FRAME_BYTES;
    use std::io::Write;

    let server = TestServer::start(1, false);
    // One byte past the cap, and no newline: a client that never ends its
    // frame.
    let mut raw = std::net::TcpStream::connect(&server.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    raw.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1])
        .expect("write the over-long frame");
    let mut reader = std::io::BufReader::new(raw);
    let resp = read_frame(&mut reader)
        .expect("read the answer")
        .expect("an error frame before the close");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    let error = resp.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(error.contains("longer than"), "{error}");
    assert!(
        matches!(read_frame(&mut reader), Ok(None) | Err(_)),
        "the server must close the offending connection"
    );

    // Other clients are unaffected.
    let pong = server.client().ping().expect("ping on a fresh connection");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong:?}");
    let c1 = narada_corpus::by_id("C1").expect("C1").source;
    server.run(c1, &test_opts());

    // A frame well under the cap that nests arrays far past the JSON
    // parser's depth bound is refused like any malformed frame, without
    // overflowing the server's stack: an error frame, and the same
    // connection keeps serving.
    let mut raw = std::net::TcpStream::connect(&server.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).ok();
    raw.write_all(format!("{}\n", "[".repeat(20 * 1024)).as_bytes())
        .expect("write the deep frame");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    let resp = read_frame(&mut reader)
        .expect("read the answer")
        .expect("an error frame for the deep frame");
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
    let error = resp.get("error").and_then(|e| e.as_str()).unwrap_or("");
    assert!(error.contains("malformed request"), "{error}");
    raw.write_all(b"{\"cmd\":\"ping\"}\n").expect("ping");
    let pong = read_frame(&mut reader)
        .expect("read the pong")
        .expect("a ping on the same connection");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{pong:?}");
    server.run(c1, &test_opts());
    server.stop();
}
