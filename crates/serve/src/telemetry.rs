//! Server-level telemetry: the live side of the observability story.
//!
//! Per-job manifests carry only thread-count-invariant metrics plus
//! driver-set timings — that contract is what the byte-identity tests
//! gate. Everything inherently run-varying about the *daemon* (latency
//! distributions, worker liveness, event history) therefore lives here,
//! in a separate [`Metrics`] registry that is exposed through the
//! `health` and `stats` verbs and the JSONL event log, and is never
//! rendered into a manifest.

use narada_obs::{EventLog, Histogram, Json, Metrics, LATENCY_BUCKETS_NS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sentinel for "this worker has not beaten yet".
const NEVER: u64 = u64::MAX;

/// The daemon's live telemetry bundle, shared across workers and
/// connection handlers.
#[derive(Debug)]
pub struct ServerTelemetry {
    /// Server-lifetime registry: job/stage latency histograms and
    /// lifecycle counters (`serve.jobs.*`). Distinct from every job's own
    /// manifest registry by design.
    pub metrics: Metrics,
    started: Instant,
    log: Option<EventLog>,
    /// Per-worker last-heartbeat timestamp, in uptime nanoseconds.
    heartbeats: Vec<AtomicU64>,
    slow_job_ns: u64,
}

impl ServerTelemetry {
    /// A bundle for `workers` workers, flagging jobs that run longer than
    /// `slow_job_ns`, logging events to `log` when given.
    pub fn new(workers: usize, slow_job_ns: u64, log: Option<EventLog>) -> ServerTelemetry {
        ServerTelemetry {
            metrics: Metrics::new(),
            started: Instant::now(),
            log,
            heartbeats: (0..workers.max(1)).map(|_| AtomicU64::new(NEVER)).collect(),
            slow_job_ns,
        }
    }

    /// Monotonic nanoseconds since server start. All telemetry timestamps
    /// are uptime-relative: no wall clock, so logs from repeated runs
    /// diff cleanly.
    pub fn uptime_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// The configured slow-job wall budget, in nanoseconds.
    pub fn slow_job_ns(&self) -> u64 {
        self.slow_job_ns
    }

    /// Stamps worker `w`'s liveness heartbeat (each worker calls this on
    /// every queue wakeup, ~5/s when idle).
    pub fn beat(&self, w: usize) {
        if let Some(slot) = self.heartbeats.get(w) {
            slot.store(self.uptime_ns(), Ordering::Relaxed);
        }
    }

    /// Nanoseconds since each worker's last heartbeat (`u64::MAX` before
    /// the first).
    pub fn heartbeat_ages_ns(&self) -> Vec<u64> {
        let now = self.uptime_ns();
        self.heartbeats
            .iter()
            .map(|slot| match slot.load(Ordering::Relaxed) {
                NEVER => NEVER,
                t => now.saturating_sub(t),
            })
            .collect()
    }

    /// The job-wall histogram for a cache-cold or cache-warm job (a job
    /// is warm when its program-cache delta shows a hit).
    pub fn job_histogram(&self, warm: bool) -> Histogram {
        let name = if warm {
            "serve.job.wall_ns.warm"
        } else {
            "serve.job.wall_ns.cold"
        };
        self.metrics.histogram(name, LATENCY_BUCKETS_NS)
    }

    /// The per-stage latency histogram (`compile` / `synth` / `detect`).
    pub fn stage_histogram(&self, stage: &str) -> Histogram {
        self.metrics
            .histogram(&format!("serve.stage.{stage}.wall_ns"), LATENCY_BUCKETS_NS)
    }

    /// Appends one event to the JSONL log (if configured), stamped with
    /// the uptime and `event` kind. Log failures are counted, never
    /// propagated — telemetry must not take a job down.
    pub fn log_event(&self, kind: &str, fields: Json) {
        let Some(log) = &self.log else {
            return;
        };
        let mut entry = Json::obj()
            .with("t_ns", Json::Int(self.uptime_ns() as i64))
            .with("event", Json::Str(kind.to_string()));
        if let Json::Obj(pairs) = fields {
            for (k, v) in pairs {
                entry.set(&k, v);
            }
        }
        if log.append(&entry).is_err() {
            self.metrics.counter("serve.eventlog.errors").inc();
        }
    }

    /// The `latency` section of `health` frames (and so of `top`): job wall
    /// quantiles split cold vs warm, plus per-stage quantiles. Every key
    /// is always present (zeros when empty) so scripted consumers never
    /// branch on shape.
    pub fn latency_json(&self) -> Json {
        let quantiles = |name: &str| {
            let h = self.metrics.histogram(name, LATENCY_BUCKETS_NS);
            Json::obj()
                .with("count", Json::Int(h.count() as i64))
                .with("p50", Json::Int(h.quantile(0.50).unwrap_or(0) as i64))
                .with("p90", Json::Int(h.quantile(0.90).unwrap_or(0) as i64))
                .with("p99", Json::Int(h.quantile(0.99).unwrap_or(0) as i64))
        };
        Json::obj()
            .with("cold", quantiles("serve.job.wall_ns.cold"))
            .with("warm", quantiles("serve.job.wall_ns.warm"))
            .with(
                "stages",
                Json::obj()
                    .with("compile", quantiles("serve.stage.compile.wall_ns"))
                    .with("synth", quantiles("serve.stage.synth.wall_ns"))
                    .with("detect", quantiles("serve.stage.detect.wall_ns")),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_json_always_has_quantile_keys() {
        let t = ServerTelemetry::new(2, 1_000_000_000, None);
        let doc = t.latency_json();
        for side in ["cold", "warm"] {
            for key in ["count", "p50", "p90", "p99"] {
                assert_eq!(
                    doc.get(side)
                        .and_then(|s| s.get(key))
                        .and_then(Json::as_i64),
                    Some(0),
                    "{side}.{key}"
                );
            }
        }
        t.job_histogram(true).observe(1_000_000);
        let doc = t.latency_json();
        assert_eq!(
            doc.get("warm")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(
            doc.get("warm")
                .and_then(|s| s.get("p99"))
                .and_then(Json::as_i64)
                > Some(0)
        );
        assert!(doc.get("stages").and_then(|s| s.get("detect")).is_some());
    }

    #[test]
    fn heartbeats_age_from_never_to_fresh() {
        let t = ServerTelemetry::new(2, 1_000_000_000, None);
        assert_eq!(t.heartbeat_ages_ns(), vec![u64::MAX, u64::MAX]);
        t.beat(0);
        let ages = t.heartbeat_ages_ns();
        assert!(ages[0] < 1_000_000_000, "{ages:?}");
        assert_eq!(ages[1], u64::MAX);
    }
}
