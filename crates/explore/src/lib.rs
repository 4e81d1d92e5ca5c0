//! Snapshot-forking exploration engine.
//!
//! Every schedule trial of the detection pipeline runs the same test: a
//! deterministic sequential *prefix* (seed-test object collection,
//! builders, setters — steps 1–3 of the paper's Algorithm 1) followed by
//! the concurrent *suffix* whose interleaving the trial actually varies.
//! The re-execution explorer pays the prefix once per trial; this crate
//! pays it once per test.
//!
//! The pieces:
//!
//! - [`ForkPoint`] — a test's shared prefix materialized once:
//!   an owned [`MachineSnapshot`] of the machine suspended right before
//!   the racy invocations, the resolved [`PlanPrefix`] context, and the
//!   prefix's event trace (re-fed to per-trial detectors instead of
//!   re-executed). Built by [`prepare_fork_point`].
//! - Probes are sharded by `narada_core::parallel::parallel_map_with`:
//!   each worker materializes one machine from the shared snapshot and
//!   rewinds it between probes instead of rebuilding per probe. Results
//!   merge in item order, so output is byte-identical at any worker
//!   count.
//! - [`ExploreMode`] — the `--explore fork|rerun` knob threaded through
//!   `DetectConfig`, `difftest`, and `narada serve` job options.
//!
//! ## Determinism argument
//!
//! A fork probe is bit-for-bit the suffix of the corresponding rerun
//! trial when the prefix is *seed-independent*: schedulers are only
//! consulted by `run_threads` (the suffix), so a prefix differs across
//! trials only through `rand()` draws. [`prepare_fork_point`] therefore
//! refuses to fork (returns `None`) if the prefix consumed any RNG draw;
//! the caller falls back to the re-execution path wholesale. When zero
//! draws are consumed, restoring the snapshot and reseeding with trial
//! *t*'s machine seed reproduces exactly the machine state rerun trial
//! *t* would reach at the fork point — same heap, threads, monitor
//! tables, label/invocation counters, and a freshly-seeded RNG.
//!
//! ## Memory bounds
//!
//! One owned snapshot per test (heap payload + thread stacks,
//! `MachineSnapshot::approx_bytes`, surfaced as `explore.snapshot_bytes`)
//! plus one materialized machine per live worker. Probes themselves are
//! O(mutated objects): the VM's copy-on-write undo log
//! (`Heap::mark`/`rewind`) restores only what the probe touched.

use narada_core::synth::{execute_plan_prefix, ExecError, PlanPrefix};
use narada_core::TestPlan;
use narada_lang::hir::TestId;
use narada_vm::{Event, Machine, MachineSnapshot, VecSink};
use std::fmt;

/// How the detection trial loops explore schedule suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreMode {
    /// Re-execute the whole test from `main()` for every trial (the
    /// original explorer; the byte-compat baseline).
    #[default]
    Rerun,
    /// Run the shared prefix once per test, snapshot at the fork point,
    /// and probe suffixes from copy-on-write forks.
    Fork,
}

impl ExploreMode {
    /// Parses the CLI/wire spelling (`"rerun"` / `"fork"`).
    pub fn parse(s: &str) -> Option<ExploreMode> {
        match s {
            "rerun" => Some(ExploreMode::Rerun),
            "fork" => Some(ExploreMode::Fork),
            _ => None,
        }
    }

    /// The canonical spelling (inverse of [`ExploreMode::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            ExploreMode::Rerun => "rerun",
            ExploreMode::Fork => "fork",
        }
    }
}

impl fmt::Display for ExploreMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Metrics only the fork explorer emits. Rerun-mode manifests never
/// contain them, so cross-mode manifest comparisons (the fork-vs-rerun
/// differential suite, `scripts/ci.sh`) filter these names before
/// demanding byte-identity; within one mode manifests are identical at
/// any `--threads` with no filtering.
pub const FORK_ONLY_METRICS: &[&str] = &[
    "explore.forks",
    "explore.probes",
    "explore.snapshot_bytes",
    "explore.prefix_steps_saved",
    "explore.prefix_rng_fallbacks",
];

/// A test's shared prefix, materialized once: the machine state at the
/// fork point plus everything a suffix probe needs. `Arc`-share across
/// workers; each worker restores its own machine from the snapshot.
#[derive(Debug, Clone)]
pub struct ForkPoint {
    /// Machine state suspended right before the racy invocations.
    pub snapshot: MachineSnapshot,
    /// Resolved captures and built objects for suffix argument
    /// resolution.
    pub prefix: PlanPrefix,
    /// The prefix's event trace, in order — fed to per-trial detector
    /// clones so they observe exactly what a full re-execution would
    /// have shown them.
    pub prefix_events: Vec<Event>,
}

impl ForkPoint {
    /// Events the prefix emitted — the per-probe step count a fork saves
    /// (`explore.prefix_steps_saved` = this × (probes − 1)).
    pub fn prefix_steps(&self) -> u64 {
        self.prefix_events.len() as u64
    }
}

/// Runs the sequential prefix of `plan` on `machine` and captures a
/// [`ForkPoint`] at the suspension point.
///
/// Returns `None` — *fall back to the re-execution explorer* — when the
/// prefix fails (the rerun path reports such errors with its own exact
/// semantics) or consumed RNG draws (a seed-dependent prefix cannot be
/// shared across trial seeds; see the module docs). The attempt leaves no
/// trace in any shared telemetry, so a fallback's manifests are
/// indistinguishable from plain rerun mode up to the fork-only
/// `explore.prefix_rng_fallbacks` counter its caller records.
pub fn prepare_fork_point(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
) -> Option<ForkPoint> {
    let mut sink = VecSink::new();
    let prefix: Result<PlanPrefix, ExecError> =
        execute_plan_prefix(machine, seeds, plan, &mut sink);
    let prefix = prefix.ok()?;
    if machine.rng_draws() > 0 {
        return None;
    }
    Some(ForkPoint {
        snapshot: machine.snapshot(),
        prefix,
        prefix_events: sink.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_mode_round_trips() {
        for mode in [ExploreMode::Rerun, ExploreMode::Fork] {
            assert_eq!(ExploreMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(ExploreMode::parse("bogus"), None);
        assert_eq!(ExploreMode::default(), ExploreMode::Rerun);
    }

    #[test]
    fn fork_only_metrics_all_namespaced() {
        for name in FORK_ONLY_METRICS {
            assert!(name.starts_with("explore."), "{name}");
        }
    }
}
