//! The daemon: a [`TcpListener`] accept loop, a worker pool draining a
//! shared job queue, and a graceful-shutdown protocol.
//!
//! ## Lifecycle
//!
//! [`serve`] binds the address (writing the actual port to
//! `--port-file`, so scripts can bind port 0), spawns `workers` job
//! runners, and accepts connections until shutdown. Each connection gets
//! its own handler thread (requests are short; only `fetch --wait`
//! lingers, streaming progress frames).
//!
//! ## Shutdown
//!
//! A `shutdown` request — or SIGINT — closes intake: new `submit`s are
//! refused, queued jobs keep running, and the requester's response is
//! held back until the queue fully drains, then reports how many jobs
//! completed. Every job's report and manifest were already flushed to
//! `--state-dir` *at completion time*, not at shutdown, so a crash or
//! kill between jobs loses nothing that had finished.
//!
//! ## Determinism
//!
//! The worker count shards *jobs*, never a job's internals: each job
//! runs the deterministic batch pipeline with its own submitted
//! `threads` knob. Served verdicts are therefore byte-identical across
//! server worker counts — an acceptance-tested invariant.

use crate::cache::ArtifactCache;
use crate::proto::{error_frame, ok_frame, write_frame, JobOptions};
use crate::run::{cache_json, run_job, JobResult};
use crate::telemetry::ServerTelemetry;
use narada_obs::{EventLog, Json};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Server configuration (the `narada serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker-pool size (concurrent jobs). Result-neutral.
    pub workers: usize,
    /// Directory receiving each finished job's `job-N.report` and
    /// `job-N.manifest.json` as it completes, plus the JSONL event log.
    pub state_dir: Option<PathBuf>,
    /// File receiving the bound port number (ephemeral-port scripting).
    pub port_file: Option<PathBuf>,
    /// Artifact-cache capacity, in programs.
    pub cache_capacity: usize,
    /// Wall budget (milliseconds) past which a running job is flagged by
    /// the slow-job watchdog in `health` frames.
    pub slow_job_ms: u64,
    /// Size threshold for event-log rotation, in bytes.
    pub event_log_max_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            state_dir: None,
            port_file: None,
            cache_capacity: 64,
            slow_job_ms: 60_000,
            event_log_max_bytes: 1 << 20,
        }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished with a report.
    Done,
    /// Finished with an error.
    Failed,
}

impl JobStatus {
    fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

/// One submitted job.
struct Job {
    id: u64,
    source: String,
    options: JobOptions,
    status: JobStatus,
    /// Progress frames recorded so far (fetch streams them).
    events: Vec<Json>,
    /// Canonical report (done) or error text (failed).
    report: Option<String>,
    error: Option<String>,
    summary: Option<String>,
    /// Uptime nanoseconds when a worker picked the job up — the slow-job
    /// watchdog measures runtime from here.
    started_at: Option<u64>,
}

/// Everything behind the state mutex.
struct State {
    jobs: Vec<Job>,
    queue: VecDeque<u64>,
    /// Intake closed: submits are refused, workers drain and exit.
    draining: bool,
}

/// Shared server state: job table + cache + wakeups + live telemetry.
struct Shared {
    state: Mutex<State>,
    /// Signaled on every job-state or event change (fetch waiters,
    /// workers, and the shutdown drainer all park here).
    changed: Condvar,
    cache: Mutex<ArtifactCache>,
    /// Terminates the accept loop once drained.
    stop: AtomicBool,
    config: ServeConfig,
    /// Server-level registry, heartbeats, event log — see
    /// [`crate::telemetry`].
    telemetry: ServerTelemetry,
}

impl Shared {
    fn new(config: ServeConfig, telemetry: ServerTelemetry) -> Shared {
        Shared {
            state: Mutex::new(State {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                draining: false,
            }),
            changed: Condvar::new(),
            cache: Mutex::new(ArtifactCache::with_capacity(config.cache_capacity)),
            stop: AtomicBool::new(false),
            config,
            telemetry,
        }
    }
}

/// What a worker runs for each job: [`run_job`] in the daemon.
type JobBody = fn(
    &Mutex<ArtifactCache>,
    &str,
    &JobOptions,
    &mut dyn FnMut(Json),
    Option<&ServerTelemetry>,
) -> Result<JobResult, String>;

/// SIGINT flag → the accept loop turns it into a drain, exactly like a
/// `shutdown` request.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint() {
    extern "C" fn on_sigint(_: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

/// Runs the daemon until a `shutdown` request (or SIGINT) drains it.
/// Returns the number of jobs completed over the server's lifetime.
pub fn serve(config: ServeConfig) -> Result<u64, String> {
    install_sigint();
    INTERRUPTED.store(false, Ordering::SeqCst);
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let port = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .port();
    if let Some(path) = &config.port_file {
        std::fs::write(path, format!("{port}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(dir) = &config.state_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    eprintln!(
        "narada serve: listening on 127.0.0.1:{port} ({} worker(s))",
        config.workers.max(1)
    );

    let event_log = match &config.state_dir {
        Some(dir) => match EventLog::open(dir, "events", config.event_log_max_bytes) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("narada serve: event log disabled: {e}");
                None
            }
        },
        None => None,
    };
    let telemetry = ServerTelemetry::new(
        config.workers.max(1),
        config.slow_job_ms.saturating_mul(1_000_000),
        event_log,
    );
    telemetry.log_event(
        "server.start",
        Json::obj()
            .with("port", Json::Int(port as i64))
            .with("workers", Json::Int(config.workers.max(1) as i64)),
    );

    let shared = Arc::new(Shared::new(config, telemetry));

    std::thread::scope(|scope| {
        for w in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            scope.spawn(move || worker_loop(&shared, w, run_job));
        }

        while !shared.stop.load(Ordering::SeqCst) {
            if INTERRUPTED.swap(false, Ordering::SeqCst) {
                eprintln!("narada serve: interrupt — draining");
                begin_drain(&shared);
                wait_drained(&shared);
                shared.stop.store(true, Ordering::SeqCst);
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        let _ = handle_connection(stream, &shared);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("narada serve: accept error: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        // Drain flag is set by now; wake any parked worker so it exits.
        begin_drain(&shared);
        shared.changed.notify_all();
    });

    let state = shared.state.lock().map_err(|_| "state poisoned")?;
    Ok(state
        .jobs
        .iter()
        .filter(|j| j.status == JobStatus::Done)
        .count() as u64)
}

/// Closes intake and wakes everyone.
fn begin_drain(shared: &Shared) {
    if let Ok(mut state) = shared.state.lock() {
        if !state.draining {
            state.draining = true;
            let queued = state.queue.len();
            drop(state);
            shared.telemetry.log_event(
                "server.drain",
                Json::obj().with("queued", Json::Int(queued as i64)),
            );
        }
    }
    shared.changed.notify_all();
}

/// Blocks until no job is queued or running.
fn wait_drained(shared: &Shared) {
    let Ok(mut state) = shared.state.lock() else {
        return;
    };
    while state.jobs.iter().any(|j| !j.status.terminal()) {
        let (next, _) = shared
            .changed
            .wait_timeout(state, Duration::from_millis(200))
            .unwrap();
        state = next;
    }
}

/// Runs one job body, turning a panic into a `panic: …` error so the job
/// ends `Failed` and its worker lives on.
fn guarded(job: impl FnOnce() -> Result<JobResult, String>) -> Result<JobResult, String> {
    std::panic::catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panic: {msg}"))
    })
}

/// One worker: pop, run, publish, repeat; exit once draining and empty.
/// Stamps its liveness heartbeat on every wakeup, so `health` can tell a
/// parked worker (fresh beat, empty queue) from a wedged one. A job body
/// that panics fails its job, not the worker.
fn worker_loop(shared: &Shared, worker: usize, body: JobBody) {
    loop {
        shared.telemetry.beat(worker);
        let (id, source, options) = {
            let Ok(mut state) = shared.state.lock() else {
                return;
            };
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let job = &mut state.jobs[id as usize];
                    job.status = JobStatus::Running;
                    job.started_at = Some(shared.telemetry.uptime_ns());
                    let frame = Json::obj()
                        .with("event", Json::Str("started".into()))
                        .with("job", Json::Int(id as i64));
                    job.events.push(frame);
                    break (id, job.source.clone(), job.options.clone());
                }
                if state.draining || shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let (next, _) = shared
                    .changed
                    .wait_timeout(state, Duration::from_millis(200))
                    .unwrap();
                state = next;
                shared.telemetry.beat(worker);
            }
        };
        shared.changed.notify_all();
        shared.telemetry.log_event(
            "job.started",
            Json::obj()
                .with("job", Json::Int(id as i64))
                .with("worker", Json::Int(worker as i64)),
        );

        // Run outside the state lock; progress frames re-lock briefly.
        let mut publish = |frame: Json| {
            if let Ok(mut state) = shared.state.lock() {
                state.jobs[id as usize].events.push(frame);
            }
            shared.changed.notify_all();
        };
        let result = guarded(|| {
            body(
                &shared.cache,
                &source,
                &options,
                &mut publish,
                Some(&shared.telemetry),
            )
        });
        shared.telemetry.beat(worker);

        let Ok(mut state) = shared.state.lock() else {
            return;
        };
        let job = &mut state.jobs[id as usize];
        match result {
            Ok(done) => {
                flush_job(&shared.config, id, &done);
                let summary = done.summary.clone();
                job.status = JobStatus::Done;
                job.events.push(
                    Json::obj()
                        .with("event", Json::Str("done".into()))
                        .with("job", Json::Int(id as i64))
                        .with("summary", Json::Str(summary.clone()))
                        .with("cache", cache_json(&done.cache)),
                );
                job.summary = Some(done.summary);
                job.report = Some(done.report);
                drop(state);
                shared
                    .telemetry
                    .metrics
                    .counter("serve.jobs.completed")
                    .inc();
                for ev in &done.cache_events {
                    shared.telemetry.log_event(
                        "cache",
                        Json::obj()
                            .with("job", Json::Int(id as i64))
                            .with("family", Json::Str("program".into()))
                            .with("kind", Json::Str(ev.kind.into()))
                            .with("key", Json::Str(ev.key.clone())),
                    );
                }
                shared.telemetry.log_event(
                    "job.done",
                    Json::obj()
                        .with("job", Json::Int(id as i64))
                        .with("summary", Json::Str(summary)),
                );
            }
            Err(e) => {
                job.status = JobStatus::Failed;
                job.events.push(
                    Json::obj()
                        .with("event", Json::Str("failed".into()))
                        .with("job", Json::Int(id as i64))
                        .with("error", Json::Str(e.clone())),
                );
                job.error = Some(e.clone());
                drop(state);
                shared.telemetry.metrics.counter("serve.jobs.failed").inc();
                shared.telemetry.log_event(
                    "job.failed",
                    Json::obj()
                        .with("job", Json::Int(id as i64))
                        .with("error", Json::Str(e)),
                );
            }
        }
        shared.changed.notify_all();
    }
}

/// Flushes a finished job's artifacts to the state directory — called at
/// completion time so shutdown (or a crash) can never lose a finished
/// result.
fn flush_job(config: &ServeConfig, id: u64, done: &crate::run::JobResult) {
    let Some(dir) = &config.state_dir else {
        return;
    };
    let report = dir.join(format!("job-{id}.report"));
    if let Err(e) = std::fs::write(&report, &done.report) {
        eprintln!("narada serve: cannot write {}: {e}", report.display());
    }
    let manifest = dir.join(format!("job-{id}.manifest.json"));
    if let Err(e) = std::fs::write(&manifest, done.manifest.to_pretty()) {
        eprintln!("narada serve: cannot write {}: {e}", manifest.display());
    }
}

/// The longest request line the daemon reads, newline included. It is
/// far above any corpus class or generated difftest source (tens of
/// KiB), so only a client that never ends its frame reaches it; the
/// daemon answers such a line with an error frame and closes that
/// connection instead of growing one buffer without bound.
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// One read off a client connection.
enum Incoming {
    Request(Json),
    /// A complete line that is not a JSON document; carries the parse
    /// error.
    Malformed(String),
    /// The client hung up, or the server is stopping.
    Closed,
    /// The line ran past [`MAX_FRAME_BYTES`].
    Oversized,
}

/// Reads the next request off an idle connection without pinning the
/// server open: the stream carries a short read timeout, and every
/// timeout re-checks the stop flag. Without this, one idle client
/// would block `thread::scope`'s join — and therefore shutdown —
/// forever. Partial lines survive timeouts because the byte buffer
/// persists across `read_until` retries; the buffer never grows past
/// one byte beyond [`MAX_FRAME_BYTES`].
fn next_request(reader: &mut BufReader<TcpStream>, shared: &Shared) -> std::io::Result<Incoming> {
    use std::io::{BufRead, Read};
    let mut bytes = Vec::new();
    loop {
        // Room for one byte past the cap tells an over-long line apart.
        let room = (MAX_FRAME_BYTES + 1 - bytes.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut bytes) {
            Ok(0) => return Ok(Incoming::Closed),
            Ok(_) if bytes.len() > MAX_FRAME_BYTES => return Ok(Incoming::Oversized),
            Ok(_) => {
                let line = String::from_utf8_lossy(&bytes);
                if line.trim().is_empty() {
                    bytes.clear();
                    continue;
                }
                return Ok(match Json::parse(&line) {
                    Ok(req) => Incoming::Request(req),
                    Err(e) => Incoming::Malformed(e.to_string()),
                });
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(Incoming::Closed);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves one client connection until EOF or shutdown-ack.
fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let req = match next_request(&mut reader, shared)? {
            Incoming::Request(req) => req,
            Incoming::Malformed(e) => {
                write_frame(
                    &mut writer,
                    &error_frame(&format!("malformed request: {e}")),
                )?;
                continue;
            }
            Incoming::Closed => return Ok(()),
            Incoming::Oversized => {
                let msg = format!(
                    "request frame longer than {MAX_FRAME_BYTES} bytes; closing the connection"
                );
                return write_frame(&mut writer, &error_frame(&msg));
            }
        };
        let cmd = req.get("cmd").and_then(|c| c.as_str()).unwrap_or("");
        match cmd {
            "ping" => {
                let jobs = shared.state.lock().map(|s| s.jobs.len()).unwrap_or(0);
                write_frame(
                    &mut writer,
                    &ok_frame()
                        .with("service", Json::Str("narada-serve/1".into()))
                        .with("jobs", Json::Int(jobs as i64)),
                )?;
            }
            "submit" => {
                let resp = handle_submit(&req, shared);
                write_frame(&mut writer, &resp)?;
                shared.changed.notify_all();
            }
            "jobs" => {
                let resp = handle_jobs(shared);
                write_frame(&mut writer, &resp)?;
            }
            "stats" => {
                let resp = handle_stats(shared);
                write_frame(&mut writer, &resp)?;
            }
            "health" => {
                let resp = build_status(shared).with("type", Json::Str("health".into()));
                write_frame(&mut writer, &resp)?;
            }
            "fetch" => {
                handle_fetch(&req, shared, &mut writer)?;
            }
            "shutdown" => {
                begin_drain(shared);
                wait_drained(shared);
                let (done, failed) = shared
                    .state
                    .lock()
                    .map(|s| {
                        (
                            s.jobs
                                .iter()
                                .filter(|j| j.status == JobStatus::Done)
                                .count(),
                            s.jobs
                                .iter()
                                .filter(|j| j.status == JobStatus::Failed)
                                .count(),
                        )
                    })
                    .unwrap_or((0, 0));
                shared.stop.store(true, Ordering::SeqCst);
                write_frame(
                    &mut writer,
                    &ok_frame()
                        .with("drained", Json::Bool(true))
                        .with("completed", Json::Int(done as i64))
                        .with("failed", Json::Int(failed as i64)),
                )?;
                return Ok(());
            }
            other => {
                write_frame(&mut writer, &error_frame(&format!("unknown cmd `{other}`")))?;
            }
        }
    }
}

fn handle_submit(req: &Json, shared: &Shared) -> Json {
    let Some(source) = req.get("source").and_then(|s| s.as_str()) else {
        return error_frame("submit requires `source`");
    };
    let options = match req.get("options") {
        Some(doc) => match JobOptions::from_json(doc) {
            Ok(o) => o,
            Err(e) => return error_frame(&e),
        },
        None => JobOptions::default(),
    };
    let Ok(mut state) = shared.state.lock() else {
        return error_frame("state poisoned");
    };
    if state.draining {
        return error_frame("server is shutting down; submission refused");
    }
    let id = state.jobs.len() as u64;
    let mut job = Job {
        id,
        source: source.to_string(),
        options,
        status: JobStatus::Queued,
        events: Vec::new(),
        report: None,
        error: None,
        summary: None,
        started_at: None,
    };
    job.events.push(
        Json::obj()
            .with("event", Json::Str("queued".into()))
            .with("job", Json::Int(id as i64)),
    );
    let source_fnv = format!("{:016x}", ArtifactCache::program_key(&job.source));
    state.jobs.push(job);
    state.queue.push_back(id);
    drop(state);
    shared
        .telemetry
        .metrics
        .counter("serve.jobs.submitted")
        .inc();
    shared.telemetry.log_event(
        "job.queued",
        Json::obj()
            .with("job", Json::Int(id as i64))
            .with("source_fnv", Json::Str(source_fnv)),
    );
    ok_frame().with("job", Json::Int(id as i64))
}

fn job_row(job: &Job) -> Json {
    let mut row = Json::obj()
        .with("job", Json::Int(job.id as i64))
        .with("status", Json::Str(job.status.label().into()))
        .with(
            "source_fnv",
            Json::Str(format!("{:016x}", ArtifactCache::program_key(&job.source))),
        );
    if let Some(s) = &job.summary {
        row.set("summary", Json::Str(s.clone()));
    }
    if let Some(e) = &job.error {
        row.set("error", Json::Str(e.clone()));
    }
    row
}

fn handle_jobs(shared: &Shared) -> Json {
    let Ok(state) = shared.state.lock() else {
        return error_frame("state poisoned");
    };
    ok_frame().with("jobs", Json::Arr(state.jobs.iter().map(job_row).collect()))
}

fn program_count(n: usize) -> Json {
    Json::obj().with("programs", Json::Int(n as i64))
}

fn handle_stats(shared: &Shared) -> Json {
    let cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
    ok_frame()
        .with("cache", cache_json(&cache.stats))
        .with("sizes", program_count(cache.program_count()))
        .with("capacity", program_count(cache.capacity()))
        .with("uptime_ns", Json::Int(shared.telemetry.uptime_ns() as i64))
}

/// The body of a `health` frame: readiness, queue and job-table
/// summary, latency quantiles, cache occupancy vs capacity, worker
/// heartbeats, and the slow-job watchdog's flags.
fn build_status(shared: &Shared) -> Json {
    let t = &shared.telemetry;
    let now = t.uptime_ns();
    let (jobs, slow, draining) = match shared.state.lock() {
        Ok(state) => {
            let count = |s: JobStatus| state.jobs.iter().filter(|j| j.status == s).count() as i64;
            let mut rows = Vec::new();
            let mut slow = Vec::new();
            for job in &state.jobs {
                let mut row = job_row(job);
                if job.status == JobStatus::Running {
                    let running_ns = now.saturating_sub(job.started_at.unwrap_or(now));
                    row.set("running_ns", Json::Int(running_ns as i64));
                    if running_ns > t.slow_job_ns() {
                        slow.push(
                            Json::obj()
                                .with("job", Json::Int(job.id as i64))
                                .with("running_ns", Json::Int(running_ns as i64)),
                        );
                    }
                }
                rows.push(row);
            }
            let jobs = Json::obj()
                .with("total", Json::Int(state.jobs.len() as i64))
                .with("queued", Json::Int(count(JobStatus::Queued)))
                .with("running", Json::Int(count(JobStatus::Running)))
                .with("done", Json::Int(count(JobStatus::Done)))
                .with("failed", Json::Int(count(JobStatus::Failed)))
                .with("table", Json::Arr(rows));
            (jobs, slow, state.draining)
        }
        Err(_) => (Json::obj(), Vec::new(), false),
    };
    let cache = {
        let cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        Json::obj()
            .with("counters", cache_json(&cache.stats))
            .with("sizes", program_count(cache.program_count()))
            .with("capacity", program_count(cache.capacity()))
    };
    let heartbeats: Vec<Json> = t
        .heartbeat_ages_ns()
        .into_iter()
        .map(|age| {
            if age == u64::MAX {
                Json::Null
            } else {
                Json::Int(age as i64)
            }
        })
        .collect();
    ok_frame()
        .with(
            "status",
            Json::Str(if draining { "draining" } else { "ready" }.into()),
        )
        .with("uptime_ns", Json::Int(now as i64))
        .with("jobs", jobs)
        .with("latency", t.latency_json())
        .with("cache", cache)
        .with(
            "workers",
            Json::obj()
                .with("count", Json::Int(heartbeats.len() as i64))
                .with("heartbeat_ages_ns", Json::Arr(heartbeats)),
        )
        .with("slow_jobs", Json::Arr(slow))
        .with("slow_job_budget_ns", Json::Int(t.slow_job_ns() as i64))
}

/// Streams a job's progress frames (when `wait`) and its final state.
fn handle_fetch(req: &Json, shared: &Shared, writer: &mut TcpStream) -> std::io::Result<()> {
    let Some(id) = req.get("job").and_then(|j| j.as_i64()) else {
        return write_frame(writer, &error_frame("fetch requires `job`"));
    };
    let wait = matches!(req.get("wait"), Some(Json::Bool(true)));
    let mut sent = 0usize;
    loop {
        let (frames, status, report, error, summary) = {
            let Ok(state) = shared.state.lock() else {
                return write_frame(writer, &error_frame("state poisoned"));
            };
            let Some(job) = state.jobs.get(id as usize) else {
                return write_frame(writer, &error_frame(&format!("no such job {id}")));
            };
            (
                job.events[sent..].to_vec(),
                job.status,
                job.report.clone(),
                job.error.clone(),
                job.summary.clone(),
            )
        };
        if wait {
            for frame in &frames {
                write_frame(writer, frame)?;
            }
            sent += frames.len();
        }
        if status.terminal() || !wait {
            let mut resp = ok_frame()
                .with("job", Json::Int(id))
                .with("status", Json::Str(status.label().into()));
            if let Some(r) = report {
                resp.set("report", Json::Str(r));
            }
            if let Some(s) = summary {
                resp.set("summary", Json::Str(s));
            }
            if let Some(e) = error {
                resp.set("error", Json::Str(e));
            }
            return write_frame(writer, &resp);
        }
        // Park until something changes, then re-check. A change that
        // landed since the snapshot above has already notified, so it is
        // checked under the lock rather than waited for.
        let Ok(state) = shared.state.lock() else {
            return write_frame(writer, &error_frame("state poisoned"));
        };
        let changed = state
            .jobs
            .get(id as usize)
            .is_some_and(|job| job.events.len() > sent || job.status.terminal());
        if !changed {
            let _ = shared
                .changed
                .wait_timeout(state, Duration::from_millis(200))
                .unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Panics on the source `PANIC` while holding the cache lock, so the
    /// panic also poisons it; runs every other job for real.
    fn panicking_body(
        cache: &Mutex<ArtifactCache>,
        source: &str,
        opts: &JobOptions,
        progress: &mut dyn FnMut(Json),
        telemetry: Option<&ServerTelemetry>,
    ) -> Result<JobResult, String> {
        if source == "PANIC" {
            let _held = cache.lock();
            panic!("job body exploded");
        }
        run_job(cache, source, opts, progress, telemetry)
    }

    #[test]
    fn a_panicking_job_fails_and_its_worker_survives() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::new(config, ServerTelemetry::new(1, u64::MAX, None)));
        let c9 = narada_corpus::by_id("C9").expect("C9").source;
        for source in ["PANIC", c9] {
            let req = Json::obj().with("source", Json::Str(source.into()));
            assert!(handle_submit(&req, &shared).get("error").is_none());
        }
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, 0, panicking_body))
        };
        // Shut down as `narada shutdown` does; it must drain, not hang.
        let (tx, rx) = mpsc::channel();
        let drainer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                begin_drain(&shared);
                wait_drained(&shared);
                tx.send(()).unwrap();
            })
        };
        rx.recv_timeout(Duration::from_secs(60))
            .expect("shutdown drained");
        drainer.join().expect("the drain returned");
        worker
            .join()
            .expect("the worker survived the panic and exited");

        let state = shared.state.lock().unwrap();
        let (failed, done) = (&state.jobs[0], &state.jobs[1]);
        assert_eq!(failed.status, JobStatus::Failed);
        assert_eq!(failed.error.as_deref(), Some("panic: job body exploded"));
        assert_eq!(done.status, JobStatus::Done, "{:?}", done.error);
        assert!(done.report.is_some());
        assert!(shared.cache.is_poisoned(), "the panic poisoned the cache");
        drop(state);
        assert!(handle_stats(&shared).get("error").is_none());
    }
}
