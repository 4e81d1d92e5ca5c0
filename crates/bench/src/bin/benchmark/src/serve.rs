//! `serve-warm` and `serve-churn`: an in-process `narada serve` with 2
//! workers and cache capacity 64, loaded by 2 closed-loop clients, each
//! on one connection, each request submit → fetch-until-`done`. Requests
//! use `JobOptions::default()` with `threads: 1`.
//!
//! * warm — the clients resubmit a working set of 32 generated classes;
//!   one untimed fill pass before the timed loop makes every timed
//!   request a program hit, so the serving layer does most of the work.
//! * churn — the clients cycle through 256 generated classes, four times
//!   the cache capacity: every request is a program miss, an insert and
//!   an eviction, as for a never-seen class.
//!
//! The classes are fixed, so every seed measures the same per-job
//! pipeline work and reproduces the same races; `--seed` orders the
//! requests.
//!
//! Correctness, untimed after the loop: every job must end `done`, all
//! reports of one source must be the same bytes, and they must equal
//! `narada_serve::batch_report` with the same options — for every warm
//! source and every 10th churn source.

use crate::corpus::permutation;
use crate::layers::{self, ServedJob, JOB_SPAN};
use crate::{sys, Measured, Params, Sample, LOAD_THREADS};
use narada_difftest::{emit, ClassSpec};
use narada_lang::lower::lower_program;
use narada_obs::{Json, MetricValue, Obs, RunManifest};
use narada_serve::{batch_report, serve, Client, JobOptions, ServeConfig};
use narada_vm::rng::derive_seed;
use std::collections::HashSet;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const DEFAULT_SEED: u64 = 7;

/// The generator seed of every served class.
const SOURCE_SEED: u64 = 7;

/// The warm working set.
const WORKING_SET: usize = 32;

/// Churn cycles through four times the cache capacity in sources: each
/// source's previous use is always more than 64 distinct programs ago,
/// so every request misses the program cache, inserts and evicts,
/// exactly as a never-seen source would, while the repeats let each
/// source's latency be compared with itself.
const CHURN_SOURCES: usize = 4 * CACHE_CAPACITY;

/// Jobs per pass: a pass is one round over the working set, and churn
/// counts in passes of the same size.
const PASS_JOBS: usize = WORKING_SET;

/// Every how-many-th churn source is checked against a batch run.
const CHURN_CHECK_EVERY: usize = 10;

/// Requests per run, over both clients: 80 rounds of the warm working
/// set, or 20 cycles of the churn sources. About 17 s on the reference
/// host.
const REQUESTS: usize = 5120;

/// Segments of the timed loop, with a host probe round between each.
const SEGMENTS: usize = 40;

/// The server the clients load.
const WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 64;

fn job_options() -> JobOptions {
    JobOptions {
        threads: 1,
        ..JobOptions::default()
    }
}

/// `count` distinct generated class sources, in generation order.
fn sources(seed: u64, count: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    (0..)
        .map(|i| emit(ClassSpec::nth(seed, i)).source())
        .filter(|s| seen.insert(s.clone()))
        .take(count)
        .collect()
}

/// A running in-process server.
struct Server {
    addr: String,
    handle: JoinHandle<Result<u64, String>>,
}

impl Server {
    /// Binds an ephemeral port, starts `serve` on it, and waits until it
    /// answers a ping.
    fn start() -> Server {
        for _ in 0..3 {
            let port = std::net::TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .expect("probe an ephemeral port")
                .port();
            let addr = format!("127.0.0.1:{port}");
            let config = ServeConfig {
                addr: addr.clone(),
                workers: WORKERS,
                cache_capacity: CACHE_CAPACITY,
                ..ServeConfig::default()
            };
            let handle = std::thread::spawn(move || serve(config));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !handle.is_finished() && Instant::now() < deadline {
                if Client::connect(&addr).and_then(|mut c| c.ping()).is_ok() {
                    return Server { addr, handle };
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            // The port was taken between probe and bind: try another.
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        panic!("narada serve did not come up");
    }

    /// Drains and stops the server, joining its thread.
    fn stop(self) {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown");
        self.handle
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    }
}

/// What one request came back with.
struct Reply {
    sample: Sample,
    status: String,
    report: String,
    /// Stage-frame data, traced runs only.
    served: Option<ServedJob>,
}

/// The `done` response's status and report.
fn status_and_report(resp: &Result<Json, String>) -> (String, String) {
    match resp {
        Ok(r) => (
            r.get("status")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            r.get("report")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        ),
        Err(e) => (format!("error: {e}"), String::new()),
    }
}

/// Keeps what the ledger needs from a progress frame.
fn absorb_frame(frame: &Json, job: &mut ServedJob) {
    let event = frame.get("event").and_then(Json::as_str);
    let stage = frame.get("stage").and_then(Json::as_str);
    if event == Some("stage") && stage == Some("detect") {
        if let Some(m) = frame
            .get("manifest")
            .and_then(|m| RunManifest::from_json(m).ok())
        {
            job.timings = m.timings.into_iter().collect();
            job.counters = m
                .metrics
                .into_iter()
                .filter_map(|(k, v)| match v {
                    MetricValue::Counter(c) => Some((k, c)),
                    _ => None,
                })
                .collect();
        }
    }
    if event == Some("done") {
        let misses = frame
            .get("cache")
            .and_then(|c| c.get("program_misses"))
            .and_then(Json::as_i64);
        job.program_miss = misses.unwrap_or(0) > 0;
    }
}

/// One closed-loop client working through `plan` on its connection.
fn client_loop(
    client: &mut Client,
    plan: &[usize],
    sources: &[String],
    opts: &JobOptions,
    obs: Option<&Obs>,
) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(plan.len());
    for &source in plan {
        let mut served = obs.map(|_| ServedJob {
            source,
            ..ServedJob::default()
        });
        let t = Instant::now();
        let resp = {
            let _job = obs.map(|o| o.tracer.span(JOB_SPAN));
            let job = {
                let _s = obs.map(|o| o.tracer.span("serve.submit"));
                client.submit(&sources[source], opts)
            };
            let _s = obs.map(|o| o.tracer.span("serve.fetch"));
            job.and_then(|id| {
                client.fetch(id, true, &mut |frame| {
                    if let Some(s) = &mut served {
                        absorb_frame(frame, s);
                    }
                })
            })
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let sample = Sample {
            unit: source,
            start: t,
            ms,
        };
        if let Some(s) = &mut served {
            s.client_ms = ms;
        }
        let (status, report) = status_and_report(&resp);
        replies.push(Reply {
            sample,
            status,
            report,
            served,
        });
    }
    replies
}

/// Reproduced races in a `narada-report/1` document.
fn reproduced(report: &str) -> usize {
    report
        .lines()
        .find_map(|l| l.strip_prefix("summary "))
        .and_then(|s| {
            s.split_whitespace()
                .find_map(|kv| kv.strip_prefix("reproduced="))
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

pub fn run(p: &Params, churn: bool, traced: bool) -> Measured {
    let opts = job_options();
    let name = if churn { "serve-churn" } else { "serve-warm" };
    let sources = match churn {
        true => sources(SOURCE_SEED, CHURN_SOURCES),
        false => sources(SOURCE_SEED, WORKING_SET),
    };
    // Each client cycles in whole rounds, so every source is submitted
    // equally often: warm clients through the whole working set, churn
    // clients through their half of the sources.
    let round = match churn {
        true => sources.len() / LOAD_THREADS,
        false => sources.len(),
    };
    let per_client = p.units(REQUESTS).div_ceil(LOAD_THREADS).div_ceil(round) * round;
    // Churn repeats one seeded cycle, which keeps every reuse more than
    // the cache capacity apart.
    let cycle = permutation(sources.len(), p.seed);
    let plans: Vec<Vec<usize>> = (0..LOAD_THREADS)
        .map(|c| match churn {
            true => (0..per_client)
                .map(|k| cycle[(k % round) * LOAD_THREADS + c])
                .collect(),
            false => (0..per_client / round)
                .flat_map(|r| permutation(round, derive_seed(p.seed, &[c as u64, r as u64])))
                .collect(),
        })
        .collect();
    let total = per_client * LOAD_THREADS;

    let mut m = Measured {
        sizes: vec![
            ("clients", LOAD_THREADS as u64),
            ("requests", total as u64),
            ("distinct_sources", sources.len() as u64),
            ("workers", WORKERS as u64),
            ("cache_capacity", CACHE_CAPACITY as u64),
        ],
        ..Measured::default()
    };

    // Set-up: check every source compiles, start the server, and (warm)
    // fill the cache. Only the last set-up's server is kept.
    let mut server: Option<Server> = None;
    for _ in 0..p.setup_reps {
        if let Some(s) = server.take() {
            s.stop();
        }
        let t = Instant::now();
        for s in &sources {
            let prog = narada_lang::compile(s).expect("generated classes compile");
            std::hint::black_box(lower_program(&prog));
        }
        let s = Server::start();
        if !churn {
            let fill: Vec<usize> = (0..sources.len()).collect();
            let mut client = Client::connect(&s.addr).expect("connect");
            for reply in client_loop(&mut client, &fill, &sources, &opts, None) {
                m.attempted += 1;
                if reply.status != "done" {
                    m.failures
                        .push(format!("{name} fill: status {}", reply.status));
                }
            }
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");

    // The timed loop runs in segments; between them the clients pause,
    // the server idles, and the host probe runs, failing the run if the
    // server used CPU meanwhile. Each client keeps its one connection
    // throughout.
    let obs = traced.then(Obs::with_tracing);
    // A ping per connection makes sure its handler is up before the
    // first probe round.
    let mut clients: Vec<Client> = (0..LOAD_THREADS)
        .map(|_| {
            let mut c = Client::connect(&server.addr).expect("connect");
            c.ping().expect("ping");
            c
        })
        .collect();
    let mut replies: Vec<Reply> = Vec::with_capacity(total);
    let segments = SEGMENTS.min(per_client);
    for k in 0..segments {
        m.probe.round();
        let part = |plan: &[usize]| -> std::ops::Range<usize> {
            plan.len() * k / segments..plan.len() * (k + 1) / segments
        };
        let (start, cpu) = (Instant::now(), sys::cpu_ms());
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&plans)
                .map(|(client, plan)| {
                    let (sources, opts, obs) = (&sources, &opts, obs.as_ref());
                    let chunk = &plan[part(plan)];
                    scope.spawn(move || client_loop(client, chunk, sources, opts, obs))
                })
                .collect();
            for h in handles {
                replies.extend(h.join().expect("client thread"));
            }
        });
        m.wall_s += start.elapsed().as_secs_f64();
        m.cpu_ms += sys::cpu_ms() - cpu;
    }
    m.probe.round();
    drop(clients);

    // The ledger's serve-side numbers. Only traced runs ask: `health`
    // lists the whole job table, and takes seconds once it holds a few
    // thousand jobs.
    let verbs = obs.is_some().then(|| {
        let mut c = Client::connect(&server.addr).expect("connect");
        (c.health().expect("health"), c.stats().expect("stats"))
    });
    server.stop();

    // Untimed checks: every report of a source must be the same bytes,
    // and equal a cache-free batch run of the same options for every
    // warm source and every 10th churn source.
    let reference: Vec<Option<String>> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (!churn || i % CHURN_CHECK_EVERY == 0)
                .then(|| batch_report(s, &opts).expect("batch run").report)
        })
        .collect();
    let mut first: Vec<Option<&str>> = vec![None; sources.len()];
    let mut races = 0;
    for r in &replies {
        let source = r.sample.unit;
        m.samples.push(r.sample);
        m.attempted += 1;
        races += reproduced(&r.report);
        let seen = *first[source].get_or_insert(&r.report);
        let fault = if r.status != "done" {
            format!("status {}", r.status)
        } else if reference[source].as_ref().is_some_and(|b| *b != r.report) {
            "served report differs from the batch report".to_string()
        } else if seen != r.report {
            "served reports of one source differ".to_string()
        } else {
            continue;
        };
        m.failures.push(format!("{name} source {source}: {fault}"));
    }
    m.races_per_pass = races as f64 * PASS_JOBS as f64 / replies.len() as f64;

    if let (Some(obs), Some((health, stats))) = (obs, verbs) {
        // What a program-cache miss costs the frontend, per source.
        let lang_ms: Vec<(f64, f64)> = sources
            .iter()
            .map(|s| {
                let t = Instant::now();
                let prog = narada_lang::compile(s).expect("generated classes compile");
                let parse = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                std::hint::black_box(lower_program(&prog));
                (parse, t.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        let served: Vec<ServedJob> = replies.iter().filter_map(|r| r.served.clone()).collect();
        let served_passes = served.len() as f64 / PASS_JOBS as f64;
        let mut l = layers::zeroed();
        layers::from_serve(&mut l, &served, &lang_ms, &health, &stats, served_passes);
        m.layers = Some(l);
        m.trace_jsonl = obs.tracer.to_jsonl();
    }
    m
}
