//! # narada-serve — race detection as a persistent service
//!
//! The batch CLI pays the full compile-and-analyze cost on every
//! invocation. This crate keeps a daemon resident instead: clients
//! submit `{library source, options}` jobs over a line-delimited JSON
//! TCP protocol (`narada submit` / `jobs` / `fetch`), a worker pool runs
//! the full pipeline — synthesis, schedule exploration, replay
//! confirmation — and a **program-keyed artifact cache** makes repeat
//! submissions cheap: the FNV-1a digest of the source keys the parsed
//! and lowered program, which carries its screener fixpoint and
//! generation surface, each derived at most once
//! ([`cache`]).
//!
//! Two invariants the test suite enforces:
//!
//! * **byte-identity** — a served verdict report equals the batch
//!   `narada detect --report-out` document byte-for-byte, cold or warm,
//!   at any server worker count ([`run::render_report`] is the single
//!   renderer, and a cache miss compiles through the batch path);
//! * **no lost results** — a finished job's report and manifest are
//!   flushed to `--state-dir` at completion time, so a mid-queue
//!   shutdown (graceful or SIGINT) loses nothing that had finished.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod run;
pub mod server;
pub mod telemetry;

pub use cache::{ArtifactCache, CacheEvent, CacheStats, CompiledLib};
pub use client::{wait_ready, Client};
pub use proto::JobOptions;
pub use run::{batch_report, render_report, run_job, summary_line, JobResult};
pub use server::{serve, ServeConfig};
pub use telemetry::ServerTelemetry;
