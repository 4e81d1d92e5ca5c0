//! # narada-obs — structured run telemetry
//!
//! Zero-dependency observability layer threaded through every stage of
//! the narada pipeline:
//!
//! * [`Tracer`] — hierarchical spans with monotonic timing, thread
//!   ordinals, and parent linkage, emitted as JSONL (`--trace-out`);
//! * [`Metrics`] — a registry of named counters, gauges, and fixed-bucket
//!   histograms whose snapshot is a pure function of the work performed
//!   (byte-identical at any `--threads` value);
//! * [`RunManifest`] — one machine-readable JSON document per invocation
//!   capturing seeds, strategy, environment, stage timings, and all final
//!   metric values, written by the CLI (`--manifest`) and diffable run
//!   against run (`narada report --diff`).
//!
//! The pieces travel together as an [`Obs`] bundle:
//!
//! ```
//! use narada_obs::{Obs, RunManifest, span};
//!
//! let obs = Obs::with_tracing();
//! {
//!     let _stage = span!(obs.tracer, "stage.derive", jobs = 2);
//!     obs.metrics.counter("pairs.generated").add(2);
//! }
//! let manifest = RunManifest::from_obs("demo", 1, &obs);
//! assert!(manifest.to_pretty().contains("pairs.generated"));
//! assert!(obs.tracer.to_jsonl().contains("stage.derive"));
//! ```

#![warn(missing_docs)]

pub mod eventlog;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod span;

pub use eventlog::EventLog;
pub use json::{Json, JsonError};
pub use manifest::{git_rev, host_cores, RunManifest, MANIFEST_SCHEMA, REQUIRED_FIELDS};
pub use metrics::{
    Counter, Gauge, Histogram, MetricValue, Metrics, LATENCY_BUCKETS_NS, TRIAL_BUCKETS,
};
pub use span::{thread_ordinal, SpanGuard, SpanRecord, Tracer};

/// The telemetry bundle one run threads through the pipeline: a metrics
/// registry plus a tracer. `Sync`, so sharded workers can record through
/// a shared reference.
#[derive(Debug)]
pub struct Obs {
    /// The run's metric registry.
    pub metrics: Metrics,
    /// The run's span collector.
    pub tracer: Tracer,
}

impl Obs {
    /// Metrics only; span guards are inert (the default for library
    /// entry points that were not handed an explicit bundle).
    pub fn new() -> Obs {
        Obs {
            metrics: Metrics::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Metrics plus span recording (`--trace-out`).
    pub fn with_tracing() -> Obs {
        Obs {
            metrics: Metrics::new(),
            tracer: Tracer::enabled(),
        }
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}
