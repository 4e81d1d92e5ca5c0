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
//! - [`ForkPoint`] — a test's shared prefix materialized once: an owned
//!   [`MachineSnapshot`] of the machine suspended right before the racy
//!   invocations, the resolved [`PlanPrefix`] context, and the prefix's
//!   event count. The prefix's events are streamed into the caller's sink
//!   while it runs (the detection pipeline passes its prototype
//!   detectors) and never recorded. Built by [`prepare_fork_point`].
//! - Probes are sharded by `narada_core::parallel::parallel_map_with`:
//!   each worker materializes one machine from the shared snapshot and
//!   rewinds it between probes instead of rebuilding per probe. Results
//!   merge in item order, so output is byte-identical at any worker
//!   count.
//! - [`ExploreMode`] — the `--explore fork|rerun` knob threaded through
//!   `DetectConfig`, `difftest`, and `narada serve` job options. Fork is
//!   the default; rerun is the reference oracle the fork differential
//!   suite compares against.
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
//! One owned snapshot per test (heap payload + thread stacks) plus
//! whatever state the caller's prefix sink keeps (for detection, two
//! detector prototypes) plus one materialized machine per live worker.
//! No event trace is held: a fork point's size does not grow with the
//! prefix's length. Probes
//! themselves are O(mutated objects): the VM's copy-on-write undo log
//! (`Heap::mark`/`rewind`) restores only what the probe touched.

use narada_core::synth::{execute_plan_prefix, PlanPrefix};
use narada_core::TestPlan;
use narada_lang::hir::TestId;
use narada_vm::{Event, EventSink, Machine, MachineSnapshot};
use std::fmt;

/// How the detection trial loops explore schedule suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExploreMode {
    /// Re-execute the whole test from `main()` for every trial: the
    /// reference oracle the fork differential suite, `bench --bin fork`
    /// and the CI cross-check compare [`ExploreMode::Fork`] against.
    Rerun,
    /// Run the shared prefix once per test, snapshot at the fork point,
    /// and probe suffixes from copy-on-write forks (the default). A test
    /// whose prefix fails or draws from the RNG falls back to rerun.
    #[default]
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
/// differential suite) filter these names before demanding
/// byte-identity; within one mode manifests are identical at any
/// `--threads` with no filtering. The one name appears only when a test
/// took the slow path: its prefix drew from the RNG, so it could not
/// fork.
pub const FORK_ONLY_METRICS: &[&str] = &["explore.prefix_rng_fallbacks"];

/// A test's shared prefix, materialized once: the machine state at the
/// fork point plus everything a suffix probe needs. Shared by reference
/// across workers; each worker restores its own machine from the
/// snapshot.
#[derive(Debug, Clone)]
pub struct ForkPoint {
    /// Machine state suspended right before the racy invocations.
    pub snapshot: MachineSnapshot,
    /// Resolved captures and built objects for suffix argument
    /// resolution.
    pub prefix: PlanPrefix,
    /// Events the prefix emitted: the steps each probe skips.
    pub prefix_steps: u64,
}

/// Why [`prepare_fork_point`] could not fork a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoFork {
    /// The prefix failed; the rerun path reports the error with its own
    /// exact semantics.
    PrefixFailed,
    /// The prefix consumed RNG draws, so one snapshot cannot serve every
    /// trial seed (see the module docs).
    PrefixDrewRng,
}

/// Counts the events it forwards. It always wants events, so the count
/// is exact even over a sink that discards them.
struct Counting<'a> {
    inner: &'a mut dyn EventSink,
    events: u64,
}

impl EventSink for Counting<'_> {
    fn event(&mut self, ev: &Event) {
        self.events += 1;
        self.inner.event(ev);
    }
}

/// Runs the sequential prefix of `plan` on `machine`, streaming its
/// events into `sink`, and captures a [`ForkPoint`] at the suspension
/// point.
///
/// On `Err` — *fall back to the re-execution explorer* — `sink` has seen
/// a partial or seed-dependent prefix and must be discarded. The attempt
/// leaves no trace in any shared telemetry, so a fallback's manifests are
/// indistinguishable from plain rerun mode up to the
/// `explore.prefix_rng_fallbacks` counter its caller records for
/// [`NoFork::PrefixDrewRng`].
pub fn prepare_fork_point(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
    sink: &mut dyn EventSink,
) -> Result<ForkPoint, NoFork> {
    let mut counting = Counting {
        inner: sink,
        events: 0,
    };
    let prefix = execute_plan_prefix(machine, seeds, plan, &mut counting)
        .map_err(|_| NoFork::PrefixFailed)?;
    if machine.rng_draws() > 0 {
        return Err(NoFork::PrefixDrewRng);
    }
    Ok(ForkPoint {
        snapshot: machine.snapshot(),
        prefix,
        prefix_steps: counting.events,
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
        assert_eq!(ExploreMode::default(), ExploreMode::Fork);
    }

    #[test]
    fn fork_only_metrics_all_namespaced() {
        for name in FORK_ONLY_METRICS {
            assert!(name.starts_with("explore."), "{name}");
        }
    }
}
