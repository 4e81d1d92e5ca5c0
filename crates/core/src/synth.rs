//! The Test Synthesizer (paper §3.4, Algorithm 1): materializes a
//! [`TestPlan`] against a live VM.
//!
//! 1. **collectObjects** — for every capture in the plan, run a seed test
//!    and suspend it just before the first client-level invocation of the
//!    captured method, keeping references to the receiver and arguments
//!    (lines 1–4 of Algorithm 1). Each capture is an independent seed run,
//!    so distinct captures yield distinct object sets.
//! 2. **shareObjects** — already encoded in the plan: multiple call slots
//!    referencing the same [`ObjRef`] receive the same object (line 5).
//! 3. Run the builder and setter invocations sequentially (lines 6–7).
//! 4. Spawn two threads performing the racy invocations and run them under
//!    the caller-provided scheduler (lines 8–9).

use crate::context::{CaptureSpec, ObjRef, Slot, TestPlan};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_vm::{
    CallSite, EventSink, Machine, MachineOptions, RecordingScheduler, RunOutcome, Schedule,
    Scheduler, ThreadId, Value, VmError,
};
use std::fmt;

/// A synthesized multithreaded test: a plan plus bookkeeping about which
/// racing pairs it covers.
#[derive(Debug, Clone)]
pub struct SynthesizedTest {
    /// Index within the suite.
    pub index: usize,
    /// The executable plan.
    pub plan: TestPlan,
    /// Indices (into the pair set) of the racing pairs this test targets.
    pub covered_pairs: Vec<usize>,
}

/// Why a plan could not be executed.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// No seed test reaches a client call of this method.
    CaptureMissed(String),
    /// A seed run failed before reaching the capture point.
    SeedFailed(VmError),
    /// A builder or setter invocation failed.
    SetupFailed(VmError),
    /// A builder did not produce an object.
    BuilderNoObject(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::CaptureMissed(m) => write!(f, "no seed invocation of {m} to collect"),
            ExecError::SeedFailed(e) => write!(f, "seed run failed: {e}"),
            ExecError::SetupFailed(e) => write!(f, "context setup failed: {e}"),
            ExecError::BuilderNoObject(m) => write!(f, "builder {m} returned no object"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of one concurrent execution of a synthesized test.
#[derive(Debug)]
pub struct ExecReport {
    /// Scheduler outcome of the concurrent phase.
    pub outcome: RunOutcome,
    /// The two racy threads.
    pub threads: [ThreadId; 2],
    /// Runtime errors of the racy threads, if any (a crash here is itself
    /// evidence of a thread-safety violation).
    pub failures: Vec<String>,
}

/// Executes `plan` on `machine`, feeding all events (setup and concurrent
/// phase) to `sink`.
///
/// # Errors
///
/// Returns [`ExecError`] when object collection or context setup fails; the
/// concurrent phase itself never errors (thread crashes are reported in
/// [`ExecReport::failures`]).
pub fn execute_plan<S: Scheduler + ?Sized>(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
    scheduler: &mut S,
    sink: &mut dyn EventSink,
    budget: u64,
) -> Result<ExecReport, ExecError> {
    let prefix = execute_plan_prefix(machine, seeds, plan, sink)?;
    execute_plan_suffix(machine, plan, &prefix, scheduler, sink, budget)
}

/// The resolved object context a plan prefix produced: the captured call
/// sites and the built shared objects. Together with a machine snapshot
/// taken right after [`execute_plan_prefix`], this is everything
/// [`execute_plan_suffix`] needs — the fork explorer runs the prefix
/// once, snapshots, and probes many suffixes from the fork point.
#[derive(Debug, Clone)]
pub struct PlanPrefix {
    /// Call sites captured from the seed tests (step 1).
    pub captures: Vec<CallSite>,
    /// Shared objects produced by the builder calls (steps 2–3).
    pub built: Vec<Value>,
}

/// Executes the sequential prefix of `plan` — object collection, builders,
/// and setters (steps 1–3 of the paper's Algorithm 1) — leaving the
/// machine suspended at the fork point just before the racy invocations.
/// The prefix never consults a scheduler: only [`execute_plan_suffix`]'s
/// `run_threads` does, so recorded schedules are suffix-only.
///
/// # Errors
///
/// Same as [`execute_plan`] (all of whose error cases arise here).
pub fn execute_plan_prefix(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
    sink: &mut dyn EventSink,
) -> Result<PlanPrefix, ExecError> {
    let captures = plan
        .captures
        .iter()
        .map(|cap| run_capture(machine, seeds, cap, sink))
        .collect::<Result<Vec<_>, _>>()?;
    let built = run_setup(machine, plan, &captures, sink)?;
    Ok(PlanPrefix { captures, built })
}

/// One `collectObjects` run (step 1 of Algorithm 1): runs the seed tests
/// in order until one reaches a client-level call of `cap`'s method,
/// and returns that call site. Seeds that complete without one leave
/// their objects on the heap.
///
/// # Errors
///
/// [`ExecError::SeedFailed`] if a seed run aborts first, and
/// [`ExecError::CaptureMissed`] if no seed reaches the call.
pub fn run_capture(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    cap: &CaptureSpec,
    sink: &mut dyn EventSink,
) -> Result<CallSite, ExecError> {
    for &seed in seeds {
        let got = machine
            .run_test_until_call(seed, sink, &mut |site| site.method == cap.method)
            .map_err(ExecError::SeedFailed)?;
        if let Some(site) = got {
            return Ok(site);
        }
    }
    Err(ExecError::CaptureMissed(
        machine.program.qualified_name(cap.method),
    ))
}

/// Steps 2–3 of Algorithm 1 after the captures: runs `plan`'s builders,
/// then its setters, resolving shared object references against
/// `captures`, and returns the built objects.
///
/// # Errors
///
/// [`ExecError::SetupFailed`] or [`ExecError::BuilderNoObject`].
pub fn run_setup(
    machine: &mut Machine<'_>,
    plan: &TestPlan,
    captures: &[CallSite],
    sink: &mut dyn EventSink,
) -> Result<Vec<Value>, ExecError> {
    let mut built: Vec<Value> = Vec::with_capacity(plan.builders.len());
    for call in &plan.builders {
        let m = machine.program.method(call.method);
        let value = if m.is_ctor {
            // `new C(shared, …)`: allocate, then run the constructor.
            let obj = machine.heap.alloc_instance(m.owner);
            let args = resolve_args(captures, &built, &call.args);
            machine
                .invoke(call.method, Some(Value::Ref(obj)), args, sink)
                .map_err(ExecError::SetupFailed)?;
            Value::Ref(obj)
        } else {
            let recv = call.recv.map(|r| resolve(captures, &built, r));
            let args = resolve_args(captures, &built, &call.args);
            machine
                .invoke(call.method, recv, args, sink)
                .map_err(ExecError::SetupFailed)?
                .ok_or_else(|| {
                    ExecError::BuilderNoObject(machine.program.qualified_name(call.method))
                })?
        };
        built.push(value);
    }
    for call in &plan.setters {
        let recv = call.recv.map(|r| resolve(captures, &built, r));
        let args = resolve_args(captures, &built, &call.args);
        match call.stop_after {
            // §4 partial invocation: a later library-internal write would
            // clobber the context, so the setter is suspended right after
            // its writeable assignment on a parked helper thread.
            Some(site) => {
                machine
                    .invoke_partial(call.method, recv, args, site, sink)
                    .map_err(ExecError::SetupFailed)?;
            }
            None => {
                machine
                    .invoke(call.method, recv, args, sink)
                    .map_err(ExecError::SetupFailed)?;
            }
        }
    }
    Ok(built)
}

/// Executes the concurrent suffix of `plan` from a machine positioned at
/// the fork point (step 4 of Algorithm 1): spawns the two racy
/// invocations and runs them under `scheduler`.
///
/// # Errors
///
/// Returns [`ExecError::SetupFailed`] if spawning an invocation fails;
/// the concurrent phase itself never errors.
pub fn execute_plan_suffix<S: Scheduler + ?Sized, K: EventSink + ?Sized>(
    machine: &mut Machine<'_>,
    plan: &TestPlan,
    prefix: &PlanPrefix,
    scheduler: &mut S,
    sink: &mut K,
    budget: u64,
) -> Result<ExecReport, ExecError> {
    let PlanPrefix { captures, built } = prefix;
    // 4. Spawn the racy invocations and run them concurrently.
    let mut threads = Vec::with_capacity(2);
    for call in &plan.racy {
        let recv = call.recv.map(|r| resolve(captures, built, r));
        let args = resolve_args(captures, built, &call.args);
        let tid = machine
            .spawn_invoke(call.method, recv, args, sink)
            .map_err(ExecError::SetupFailed)?;
        threads.push(tid);
    }
    let outcome = machine.run_threads(scheduler, sink, budget);
    let failures = threads
        .iter()
        .filter_map(|&t| match machine.thread_status(t) {
            narada_vm::ThreadStatus::Failed(e) => Some(e.to_string()),
            _ => None,
        })
        .collect();
    Ok(ExecReport {
        outcome,
        threads: [threads[0], threads[1]],
        failures,
    })
}

/// Executes `plan` while recording every scheduling decision of the
/// concurrent phase, returning the report together with a replayable
/// [`Schedule`] (named after `scheduler`, stamped with the machine seed).
///
/// # Errors
///
/// Same as [`execute_plan`].
pub fn execute_plan_recorded(
    machine: &mut Machine<'_>,
    seeds: &[TestId],
    plan: &TestPlan,
    scheduler: &mut dyn Scheduler,
    sink: &mut dyn EventSink,
    budget: u64,
) -> Result<(ExecReport, Schedule), ExecError> {
    let machine_seed = machine.seed();
    let mut rec = RecordingScheduler::new(scheduler);
    let report = execute_plan(machine, seeds, plan, &mut rec, sink, budget)?;
    Ok((report, rec.into_schedule(machine_seed)))
}

/// Convenience: builds a fresh machine and executes the plan once.
///
/// # Errors
///
/// Same as [`execute_plan`].
#[allow(clippy::too_many_arguments)]
pub fn execute_plan_fresh(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    scheduler: &mut dyn Scheduler,
    sink: &mut dyn EventSink,
    machine_opts: MachineOptions,
    budget: u64,
) -> Result<ExecReport, ExecError> {
    let mut machine = Machine::new(prog, mir, machine_opts);
    execute_plan(&mut machine, seeds, plan, scheduler, sink, budget)
}

fn resolve(captures: &[CallSite], built: &[Value], r: ObjRef) -> Value {
    match r {
        ObjRef::Capture { capture, slot } => {
            let site = &captures[capture];
            match slot {
                Slot::Recv => site.recv.unwrap_or(Value::Null),
                Slot::Arg(i) => site.args.get(i).copied().unwrap_or(Value::Null),
            }
        }
        ObjRef::Built { builder } => built.get(builder).copied().unwrap_or(Value::Null),
    }
}

fn resolve_args(captures: &[CallSite], built: &[Value], args: &[ObjRef]) -> Vec<Value> {
    args.iter().map(|&a| resolve(captures, built, a)).collect()
}
