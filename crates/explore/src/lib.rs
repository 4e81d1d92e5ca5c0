//! Snapshot-forking exploration engine.
//!
//! Every schedule trial of the detection pipeline runs the same test: a
//! deterministic sequential *prefix* (seed-test object collection,
//! builders, setters — steps 1–3 of the paper's Algorithm 1) followed by
//! the concurrent *suffix* whose interleaving the trial actually varies.
//! Re-executing each trial from `main()` pays the prefix once per trial;
//! a [`ForkPoint`] pays it once per test. [`prepare_fork_point`] runs
//! the prefix, streaming its events into the caller's sink (detection
//! passes its prototype detectors) without recording them, and
//! snapshots the machine. Each worker then restores one machine from the
//! snapshot and rewinds it between probes; the VM's copy-on-write undo
//! log (`Heap::mark`/`rewind`) restores only what a probe touched.
//!
//! A fork probe is bit-for-bit the suffix of the corresponding
//! fresh-start trial when the prefix is *seed-independent*: schedulers
//! are only consulted by `run_threads` (the suffix), so a prefix differs
//! across trials only through `rand()` draws. [`prepare_fork_point`]
//! therefore refuses to fork ([`NoFork::PrefixDrewRng`]) if the prefix
//! consumed any RNG draw, and the caller runs each trial from a fresh
//! machine instead. With zero draws, restoring the snapshot and
//! reseeding with trial *t*'s machine seed reproduces exactly the state
//! fresh-start trial *t* reaches at the fork point. `narada-detect`'s
//! `fork_differential` suite checks every fork probe against that
//! fresh-start run.

use narada_core::synth::{execute_plan_prefix, PlanPrefix};
use narada_core::TestPlan;
use narada_lang::hir::TestId;
use narada_vm::{EventSink, Machine, MachineSnapshot};

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
}

/// Why [`prepare_fork_point`] could not fork a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoFork {
    /// The prefix failed; the fresh-start path reports the error with
    /// its own exact semantics.
    PrefixFailed,
    /// The prefix consumed RNG draws, so one snapshot cannot serve every
    /// trial seed (see the module docs).
    PrefixDrewRng,
}

/// Runs the sequential prefix of `plan` on `machine`, streaming its
/// events into `sink`, and captures a [`ForkPoint`] at the suspension
/// point.
///
/// On `Err` — *fall back to fresh starts* — `sink` has seen a partial or
/// seed-dependent prefix and must be discarded. The attempt leaves no
/// trace in any shared telemetry beyond the
/// `explore.prefix_rng_fallbacks` counter its caller records for
/// [`NoFork::PrefixDrewRng`].
pub fn prepare_fork_point(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
    sink: &mut dyn EventSink,
) -> Result<ForkPoint, NoFork> {
    let prefix =
        execute_plan_prefix(machine, seeds, plan, sink).map_err(|_| NoFork::PrefixFailed)?;
    if machine.rng_draws() > 0 {
        return Err(NoFork::PrefixDrewRng);
    }
    Ok(ForkPoint {
        snapshot: machine.snapshot(),
        prefix,
    })
}
