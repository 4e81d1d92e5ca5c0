//! The steppable MJ virtual machine.
//!
//! A [`Machine`] owns a heap and any number of threads, each an explicit
//! frame stack over flat MIR. Execution advances one instruction at a time
//! ([`Machine::step`]), so a [`Scheduler`](crate::Scheduler) can interleave
//! threads at instruction granularity — the basis for both the random
//! stress scheduler and the RaceFuzzer-style directed scheduler.
//!
//! The machine supports the object-collection protocol of the paper's
//! Algorithm 1: [`Machine::run_test_until_call`] executes a sequential seed
//! test and *suspends before* a chosen client-level invocation, returning
//! the receiver/argument references while keeping every allocated object
//! alive in the heap (there is no garbage collector).

use crate::error::{VmError, VmErrorKind};
use crate::event::{CopySrc, Event, EventKind, EventSink, FieldKey, InvId, Label, ThreadId};
use crate::heap::{Heap, HeapMark};
use crate::rng::SplitMix64;
use crate::value::{ObjId, Value};
use narada_lang::ast::{BinOp, UnOp};
use narada_lang::hir::{MethodId, Program, TestId};
use narada_lang::mir::{BodyId, InstrKind, MirProgram, VarId};
use narada_lang::Span;

/// Tuning knobs for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineOptions {
    /// Seed for `rand()` and any stochastic choices. Runs are deterministic
    /// given the same seed and schedule.
    pub seed: u64,
    /// Per-thread executed-instruction budget; exceeding it fails the
    /// thread with [`VmErrorKind::StepLimit`].
    pub max_steps: u64,
    /// Maximum frame-stack depth per thread.
    pub max_frames: usize,
}

impl Default for MachineOptions {
    fn default() -> Self {
        MachineOptions {
            seed: 0x6e61_7261_6461,
            max_steps: 2_000_000,
            max_frames: 512,
        }
    }
}

/// Scheduling status of one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Can execute its next instruction.
    Runnable,
    /// Waiting for another thread to release a monitor.
    Blocked(ObjId),
    /// Deliberately frozen mid-execution (paper §4: a context-setter
    /// suspended at its writeable assignment); never scheduled until
    /// unparked.
    Parked,
    /// Ran to completion.
    Finished,
    /// Aborted with a runtime error.
    Failed(VmError),
}

#[derive(Debug, Clone)]
struct Frame {
    body: BodyId,
    inv: InvId,
    pc: usize,
    regs: Vec<Value>,
    /// Monitors entered by this frame, innermost last; released on return
    /// (covers `return` inside `sync`, Java-style).
    held: Vec<ObjId>,
    /// Caller register receiving the return value.
    ret_dst: Option<VarId>,
}

/// A queued client invocation for a multi-call thread body.
#[derive(Debug, Clone)]
pub struct PendingInvoke {
    /// Method to invoke (dispatched on the receiver's runtime class).
    pub method: MethodId,
    /// Receiver (`None` for static methods).
    pub recv: Option<Value>,
    /// Arguments.
    pub args: Vec<Value>,
}

#[derive(Debug, Clone)]
struct ThreadState {
    frames: Vec<Frame>,
    status: ThreadStatus,
    steps: u64,
    /// Invocations to run after the current one completes (multi-call
    /// thread bodies, e.g. the ConTeGe baseline's suffixes).
    queue: std::collections::VecDeque<PendingInvoke>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            frames: Vec::new(),
            status: ThreadStatus::Finished,
            steps: 0,
            queue: std::collections::VecDeque::new(),
        }
    }
}

/// What [`Machine::preview`] says the next instruction of a thread will do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preview {
    /// A heap read of the given location.
    Read(ObjId, FieldKey),
    /// A heap write of the given location, with the value about to be
    /// stored (used by the harmful/benign race triage).
    Write(ObjId, FieldKey, Value),
    /// A monitor acquisition.
    Lock(ObjId),
    /// Anything else.
    Other,
}

impl Preview {
    /// The location touched, for read/write previews.
    pub fn access(self) -> Option<(ObjId, FieldKey, bool)> {
        match self {
            Preview::Read(o, f) => Some((o, f, false)),
            Preview::Write(o, f, _) => Some((o, f, true)),
            _ => None,
        }
    }

    /// The value about to be written, for write previews.
    pub fn written_value(self) -> Option<Value> {
        match self {
            Preview::Write(_, _, v) => Some(v),
            _ => None,
        }
    }
}

/// Outcome of [`Machine::run_threads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every thread finished (some may have failed; inspect
    /// [`Machine::thread_status`]).
    Completed,
    /// All remaining threads are blocked on monitors.
    Deadlock {
        /// The blocked threads.
        blocked: Vec<ThreadId>,
    },
    /// The global step budget ran out before completion.
    StepLimit,
    /// The sink reported saturation: one thread had run alone for
    /// [`SATURATION_WINDOW`] decisions and fed it nothing new (see
    /// [`EventSink::saturated`]).
    Saturated,
    /// The scheduler reported the run's verdict decided (see
    /// [`Scheduler::decided`](crate::Scheduler::decided)): nothing the
    /// remaining steps could do would change what the run is for.
    Decided,
}

/// Consecutive scheduling decisions a single live thread must take, and
/// quiet events a saturation-watching sink must see, before
/// [`Machine::run_threads`] may end a run as [`RunOutcome::Saturated`].
pub const SATURATION_WINDOW: u64 = 20_000;

/// A client-level call site observed by [`Machine::run_test_until_call`].
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The dispatch-resolved target method.
    pub method: MethodId,
    /// Receiver value (`None` for static calls).
    pub recv: Option<Value>,
    /// Argument values.
    pub args: Vec<Value>,
}

/// The MJ virtual machine. See the module docs.
#[derive(Debug)]
pub struct Machine<'p> {
    /// The program being executed.
    pub program: &'p Program,
    /// Its lowered MIR.
    pub mir: &'p MirProgram,
    /// The shared heap.
    pub heap: Heap,
    threads: Vec<ThreadState>,
    /// Return values of finished single-invocation threads.
    thread_results: Vec<(ThreadId, Value)>,
    next_label: u64,
    next_inv: u64,
    rng: SplitMix64,
    /// Count of `Rand` instructions executed since construction/reset.
    /// The fork explorer shares a prefix across seeds only when the
    /// prefix drew nothing (zero draws ⇒ prefix is seed-independent).
    rng_draws: u64,
    opts: MachineOptions,
}

/// An in-place rewind point from [`Machine::mark`]: a copy-on-write
/// [`HeapMark`] plus owned copies of the (small) non-heap state.
/// [`Machine::rewind`] undoes only what was mutated on the heap since.
#[derive(Debug, Clone)]
pub struct MachineMark {
    heap: HeapMark,
    threads: Vec<ThreadState>,
    thread_results: Vec<(ThreadId, Value)>,
    next_label: u64,
    next_inv: u64,
    rng: SplitMix64,
    seed: u64,
    rng_draws: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine with one (empty) main thread.
    pub fn new(program: &'p Program, mir: &'p MirProgram, opts: MachineOptions) -> Self {
        let rng = SplitMix64::seed_from_u64(opts.seed);
        Machine {
            program,
            mir,
            heap: Heap::new(program),
            threads: vec![ThreadState::new()],
            thread_results: Vec::new(),
            next_label: 0,
            next_inv: 0,
            rng,
            rng_draws: 0,
            opts,
        }
    }

    /// Creates a machine with default options.
    pub fn with_defaults(program: &'p Program, mir: &'p MirProgram) -> Self {
        Self::new(program, mir, MachineOptions::default())
    }

    /// Restores the machine to its freshly-constructed state under `seed`:
    /// empty heap, a single idle main thread, and label/invocation counters
    /// at zero. Lets callers that run many independent tests (e.g. the seed
    /// generator's candidate executor) reuse one machine instead of paying
    /// an allocation per run, while keeping each run's trace identical to a
    /// `Machine::new` run with the same seed.
    pub fn reset(&mut self, seed: u64) {
        self.heap = Heap::new(self.program);
        self.threads = vec![ThreadState::new()];
        self.thread_results = Vec::new();
        self.next_label = 0;
        self.next_inv = 0;
        self.opts.seed = seed;
        self.rng = SplitMix64::seed_from_u64(seed);
        self.rng_draws = 0;
    }

    /// Reseeds the RNG without touching any other state. The capture walk
    /// calls this after rewinding to a mark so each probe's suffix draws
    /// from its own trial seed while sharing the prefix.
    pub fn reseed(&mut self, seed: u64) {
        self.opts.seed = seed;
        self.rng = SplitMix64::seed_from_u64(seed);
    }

    /// Number of `Rand` instructions executed since construction/reset.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    // ------------------------------------------------------------------
    // Marks (the capture walk's substrate)
    // ------------------------------------------------------------------

    /// Takes an in-place rewind point: a copy-on-write heap mark plus
    /// owned copies of the small non-heap state. [`Machine::rewind`]
    /// restores it without cloning the heap; the same mark can be
    /// rewound to any number of times.
    pub fn mark(&mut self) -> MachineMark {
        MachineMark {
            heap: self.heap.mark(),
            threads: self.threads.clone(),
            thread_results: self.thread_results.clone(),
            next_label: self.next_label,
            next_inv: self.next_inv,
            rng: self.rng.clone(),
            seed: self.opts.seed,
            rng_draws: self.rng_draws,
        }
    }

    /// Rewinds to a mark taken on *this* machine: heap mutations since
    /// the mark are undone object-by-object via the heap's undo log, and
    /// the non-heap state is written back from the mark's copies.
    pub fn rewind(&mut self, mark: &MachineMark) {
        self.heap.rewind(&mark.heap);
        self.threads = mark.threads.clone();
        self.thread_results = mark.thread_results.clone();
        self.next_label = mark.next_label;
        self.next_inv = mark.next_inv;
        self.rng = mark.rng.clone();
        self.opts.seed = mark.seed;
        self.rng_draws = mark.rng_draws;
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of threads ever created (including main).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The machine seed. Together with a recorded schedule this is the
    /// complete reproduction recipe for a run (see
    /// [`Schedule`](crate::schedule::Schedule)).
    pub fn seed(&self) -> u64 {
        self.opts.seed
    }

    /// Status of a thread.
    pub fn thread_status(&self, tid: ThreadId) -> &ThreadStatus {
        &self.threads[tid.index()].status
    }

    /// Threads currently able to run.
    pub fn runnable_threads(&self) -> Vec<ThreadId> {
        let mut runnable = Vec::new();
        self.fill_runnable(&mut runnable);
        runnable
    }

    /// Replaces the contents of `runnable` with the threads currently
    /// able to run, in thread order, reusing its allocation.
    fn fill_runnable(&self, runnable: &mut Vec<ThreadId>) {
        runnable.clear();
        runnable.extend(
            self.threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == ThreadStatus::Runnable)
                .map(|(i, _)| ThreadId(i as u32)),
        );
    }

    /// Whether any thread waits for a monitor.
    fn any_blocked(&self) -> bool {
        self.threads
            .iter()
            .any(|t| matches!(t.status, ThreadStatus::Blocked(_)))
    }

    /// Monitors currently held by a thread (all frames, innermost last).
    pub fn held_locks(&self, tid: ThreadId) -> Vec<ObjId> {
        self.threads[tid.index()]
            .frames
            .iter()
            .flat_map(|f| f.held.iter().copied())
            .collect()
    }

    /// Like [`Machine::preview`], also returning the source span of the
    /// next instruction (used by directed schedulers to match static
    /// program points).
    pub fn preview_detail(&self, tid: ThreadId) -> Option<(Preview, Span)> {
        let t = &self.threads[tid.index()];
        let frame = t.frames.last()?;
        let body = self.mir.body(frame.body);
        let span = body.instrs.get(frame.pc)?.span;
        Some((self.preview(tid)?, span))
    }

    /// Classifies the next instruction of `tid` without executing it.
    /// Returns `None` for finished/failed threads.
    pub fn preview(&self, tid: ThreadId) -> Option<Preview> {
        let t = &self.threads[tid.index()];
        if matches!(t.status, ThreadStatus::Finished | ThreadStatus::Failed(_)) {
            return None;
        }
        let frame = t.frames.last()?;
        let body = self.mir.body(frame.body);
        let instr = body.instrs.get(frame.pc)?;
        let reg = |v: &VarId| frame.regs[v.index()];
        Some(match &instr.kind {
            InstrKind::ReadField { obj, field, .. } => match reg(obj).as_obj() {
                Some(o) => Preview::Read(o, FieldKey::Field(*field)),
                None => Preview::Other,
            },
            InstrKind::WriteField { obj, field, src } => match reg(obj).as_obj() {
                Some(o) => Preview::Write(o, FieldKey::Field(*field), reg(src)),
                None => Preview::Other,
            },
            InstrKind::ReadIndex { arr, idx, .. } => match (reg(arr).as_obj(), reg(idx).as_int()) {
                (Some(o), Some(i)) => Preview::Read(o, FieldKey::Elem(i)),
                _ => Preview::Other,
            },
            InstrKind::WriteIndex { arr, idx, src } => match (reg(arr).as_obj(), reg(idx).as_int())
            {
                (Some(o), Some(i)) => Preview::Write(o, FieldKey::Elem(i), reg(src)),
                _ => Preview::Other,
            },
            InstrKind::MonitorEnter { var } => match reg(var).as_obj() {
                Some(o) => Preview::Lock(o),
                None => Preview::Other,
            },
            _ => Preview::Other,
        })
    }

    // ------------------------------------------------------------------
    // Sequential execution
    // ------------------------------------------------------------------

    /// Runs a sequential test to completion on the main thread.
    ///
    /// The heap is *not* reset: repeated runs accumulate objects, which is
    /// exactly what the synthesizer's object collection needs.
    ///
    /// # Errors
    ///
    /// Returns the runtime error if the test's thread aborts.
    pub fn run_test(&mut self, test: TestId, sink: &mut dyn EventSink) -> Result<(), VmError> {
        self.start_test(test, sink);
        self.run_thread_to_completion(ThreadId::MAIN, sink)
    }

    /// Runs a sequential test until just before a client-level call for
    /// which `want` returns true. Returns the captured call site (receiver
    /// and argument references) or `None` if the test completed without a
    /// match. The suspended execution is abandoned, but its objects stay
    /// alive in the heap.
    ///
    /// # Errors
    ///
    /// Returns the runtime error if the test's thread aborts before a match.
    pub fn run_test_until_call(
        &mut self,
        test: TestId,
        sink: &mut dyn EventSink,
        want: &mut dyn FnMut(&CallSite) -> bool,
    ) -> Result<Option<CallSite>, VmError> {
        self.start_test(test, sink);
        let site = self.run_until_call(sink, want)?;
        if site.is_some() {
            self.abandon_main(sink);
        }
        Ok(site)
    }

    /// Runs the main thread's sequential test (begun with
    /// [`Machine::start_test`]) until just before a client-level call for
    /// which `want` returns true, and leaves it suspended there: calling
    /// again with a `want` that declines that call runs it and goes on.
    /// Returns the call site, or `None` once the test completed without
    /// a match.
    ///
    /// # Errors
    ///
    /// Returns the runtime error if the test's thread aborts before a match.
    pub fn run_until_call(
        &mut self,
        sink: &mut dyn EventSink,
        want: &mut dyn FnMut(&CallSite) -> bool,
    ) -> Result<Option<CallSite>, VmError> {
        loop {
            match self.thread_status(ThreadId::MAIN) {
                ThreadStatus::Finished => return Ok(None),
                ThreadStatus::Failed(e) => return Err(e.clone()),
                ThreadStatus::Blocked(_) | ThreadStatus::Parked => {
                    // Sequential execution cannot block (monitors are
                    // re-entrant and no other thread runs) unless a previous
                    // concurrent phase leaked a lock; treat as deadlock.
                    return Err(VmError::new(
                        VmErrorKind::Internal("sequential test blocked on a monitor".into()),
                        Span::DUMMY,
                    ));
                }
                ThreadStatus::Runnable => {}
            }
            if let Some(site) = self.client_call_site(ThreadId::MAIN) {
                if want(&site) {
                    return Ok(Some(site));
                }
            }
            self.step(ThreadId::MAIN, sink);
        }
    }

    /// Abandons the main thread's suspended execution: its objects stay
    /// alive in the heap, but the frames (and any monitors they hold) are
    /// discarded so the main thread can be reused for further seed runs
    /// and setter invocations.
    pub fn abandon_main(&mut self, sink: &mut dyn EventSink) {
        self.abandon_thread(ThreadId::MAIN, sink);
    }

    /// If the next instruction of `tid` is a call *in a test body frame*,
    /// resolves and returns it.
    fn client_call_site(&self, tid: ThreadId) -> Option<CallSite> {
        let frame = self.threads[tid.index()].frames.last()?;
        if !matches!(frame.body, BodyId::Test(_)) {
            return None;
        }
        let body = self.mir.body(frame.body);
        let instr = body.instrs.get(frame.pc)?;
        let reg = |v: &VarId| frame.regs[v.index()];
        match &instr.kind {
            InstrKind::Call {
                recv, method, args, ..
            } => {
                let rv = reg(recv);
                let target = rv
                    .as_obj()
                    .and_then(|o| self.heap.class_of(o))
                    .and_then(|c| self.program.dispatch(c, &self.program.method(*method).name))
                    .unwrap_or(*method);
                Some(CallSite {
                    method: target,
                    recv: Some(rv),
                    args: args.iter().map(reg).collect(),
                })
            }
            InstrKind::CallStatic { method, args, .. } => Some(CallSite {
                method: *method,
                recv: None,
                args: args.iter().map(reg).collect(),
            }),
            InstrKind::CallExact {
                recv, method, args, ..
            } => Some(CallSite {
                method: *method,
                recv: Some(reg(recv)),
                args: args.iter().map(reg).collect(),
            }),
            _ => None,
        }
    }

    /// Invokes `method` on the main thread and runs it to completion,
    /// returning its result. Used to execute context-setter sequences of a
    /// synthesized test.
    ///
    /// # Errors
    ///
    /// Returns the runtime error if the invocation aborts.
    pub fn invoke(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
        sink: &mut dyn EventSink,
    ) -> Result<Option<Value>, VmError> {
        self.begin_invocation(ThreadId::MAIN, method, recv, args, sink)?;
        self.run_thread_to_completion(ThreadId::MAIN, sink)?;
        Ok(self.take_thread_result(ThreadId::MAIN))
    }

    fn run_thread_to_completion(
        &mut self,
        tid: ThreadId,
        sink: &mut dyn EventSink,
    ) -> Result<(), VmError> {
        loop {
            match self.thread_status(tid) {
                ThreadStatus::Finished => return Ok(()),
                ThreadStatus::Failed(e) => return Err(e.clone()),
                ThreadStatus::Blocked(_) | ThreadStatus::Parked => {
                    return Err(VmError::new(
                        VmErrorKind::Internal(
                            "single-threaded execution blocked on a monitor".into(),
                        ),
                        Span::DUMMY,
                    ))
                }
                ThreadStatus::Runnable => self.step(tid, sink),
            }
        }
    }

    // ------------------------------------------------------------------
    // Concurrent execution
    // ------------------------------------------------------------------

    /// Spawns a fresh thread that will perform a single client invocation
    /// of `method`. Emits `ThreadSpawn` and the client `InvokeStart`.
    ///
    /// # Errors
    ///
    /// Fails if `recv` does not match the method's staticness.
    pub fn spawn_invoke(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
        sink: &mut dyn EventSink,
    ) -> Result<ThreadId, VmError> {
        let tid = ThreadId(self.threads.len() as u32);
        self.threads.push(ThreadState::new());
        self.emit(
            ThreadId::MAIN,
            Span::DUMMY,
            EventKind::ThreadSpawn { child: tid },
            sink,
        );
        self.begin_invocation(tid, method, recv, args, sink)?;
        Ok(tid)
    }

    /// Freezes a runnable thread; it will not be scheduled until
    /// [`Machine::unpark`].
    pub fn park(&mut self, tid: ThreadId) {
        if self.threads[tid.index()].status == ThreadStatus::Runnable {
            self.threads[tid.index()].status = ThreadStatus::Parked;
        }
    }

    /// Makes a parked thread runnable again.
    pub fn unpark(&mut self, tid: ThreadId) {
        if self.threads[tid.index()].status == ThreadStatus::Parked {
            self.threads[tid.index()].status = ThreadStatus::Runnable;
        }
    }

    /// Paper §4: run a context-setter *partially* — invoke `method` on a
    /// fresh thread and suspend it right after the write at `stop_span`
    /// executes, stepping on to the closest point where the thread holds
    /// no monitors, then park it. Used when a later (non-controllable)
    /// update inside the method would overwrite the state the context
    /// needs.
    ///
    /// Returns the parked thread (or a finished one, when the method ran
    /// to completion before reaching the site).
    ///
    /// # Errors
    ///
    /// Fails on receiver mismatch or when the partial run aborts.
    pub fn invoke_partial(
        &mut self,
        method: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
        stop_span: Span,
        sink: &mut dyn EventSink,
    ) -> Result<ThreadId, VmError> {
        let tid = self.spawn_invoke(method, recv, args, sink)?;
        let mut hit = false;
        loop {
            match self.thread_status(tid) {
                ThreadStatus::Finished => return Ok(tid),
                ThreadStatus::Failed(e) => return Err(e.clone()),
                ThreadStatus::Blocked(_) | ThreadStatus::Parked => {
                    return Err(VmError::new(
                        VmErrorKind::Internal("partial invocation blocked".into()),
                        stop_span,
                    ))
                }
                ThreadStatus::Runnable => {}
            }
            if hit && self.held_locks(tid).is_empty() {
                self.park(tid);
                return Ok(tid);
            }
            if !hit {
                if let Some((Preview::Write(..), span)) = self.preview_detail(tid) {
                    if span == stop_span {
                        hit = true; // execute the write, then unwind locks
                    }
                }
            }
            self.step(tid, sink);
        }
    }

    /// Spawns a thread that performs a whole *sequence* of client
    /// invocations, one after another (later calls run only if earlier
    /// ones neither fail nor deadlock).
    ///
    /// # Errors
    ///
    /// Fails if the first invocation's receiver/staticness mismatch.
    pub fn spawn_invoke_seq(
        &mut self,
        mut calls: Vec<PendingInvoke>,
        sink: &mut dyn EventSink,
    ) -> Result<ThreadId, VmError> {
        if calls.is_empty() {
            return Err(VmError::new(
                VmErrorKind::Internal("empty invocation sequence".into()),
                Span::DUMMY,
            ));
        }
        let first = calls.remove(0);
        let tid = self.spawn_invoke(first.method, first.recv, first.args, sink)?;
        self.threads[tid.index()].queue.extend(calls);
        Ok(tid)
    }

    /// Runs all runnable threads under `scheduler` until completion,
    /// deadlock, or the step `budget` is exhausted, or until `scheduler`
    /// reports the run decided or `sink` reports saturation.
    ///
    /// `scheduler.decided` is asked before every decision, right after
    /// the budget check, with whether one thread is the sole live one
    /// (runnable, with none blocked). Saturation is checked only while
    /// that holds: once [`SATURATION_WINDOW`] such decisions run in a
    /// row, `sink.saturated` is asked before each of them. Any decision
    /// with another live thread resets the count.
    pub fn run_threads(
        &mut self,
        scheduler: &mut dyn crate::Scheduler,
        sink: &mut dyn EventSink,
        budget: u64,
    ) -> RunOutcome {
        let mut steps = 0u64;
        let mut lone = 0u64;
        // One buffer for the whole run, refilled in place per decision.
        let mut runnable = Vec::with_capacity(self.threads.len());
        loop {
            self.fill_runnable(&mut runnable);
            if runnable.is_empty() {
                let blocked: Vec<ThreadId> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t.status, ThreadStatus::Blocked(_)))
                    .map(|(i, _)| ThreadId(i as u32))
                    .collect();
                if blocked.is_empty() {
                    return RunOutcome::Completed;
                }
                return RunOutcome::Deadlock { blocked };
            }
            if steps >= budget {
                return RunOutcome::StepLimit;
            }
            let alone = runnable.len() == 1 && !self.any_blocked();
            if scheduler.decided(alone) {
                return RunOutcome::Decided;
            }
            if alone {
                lone += 1;
                if lone >= SATURATION_WINDOW && sink.saturated(lone) {
                    return RunOutcome::Saturated;
                }
            } else {
                lone = 0;
            }
            let tid = scheduler.choose(self, &runnable);
            debug_assert!(runnable.contains(&tid), "scheduler chose unrunnable thread");
            self.step(tid, sink);
            steps += 1;
        }
    }

    // ------------------------------------------------------------------
    // Frame plumbing
    // ------------------------------------------------------------------

    fn fresh_inv(&mut self) -> InvId {
        let id = InvId(self.next_inv);
        self.next_inv += 1;
        id
    }

    fn emit(&mut self, tid: ThreadId, span: Span, kind: EventKind, sink: &mut dyn EventSink) {
        let label = Label(self.next_label);
        self.next_label += 1;
        sink.event(&Event {
            label,
            tid,
            span,
            kind,
        });
    }

    /// Begins a sequential test on the main thread, in place of the
    /// thread's old frames; [`Machine::run_until_call`] runs it.
    pub fn start_test(&mut self, test: TestId, sink: &mut dyn EventSink) {
        let body = self.mir.test(test);
        let inv = self.fresh_inv();
        let t = &mut self.threads[ThreadId::MAIN.index()];
        t.frames.clear();
        t.status = ThreadStatus::Runnable;
        t.steps = 0;
        t.frames.push(Frame {
            body: BodyId::Test(test),
            inv,
            pc: 0,
            regs: vec![Value::Null; body.vars.len()],
            held: Vec::new(),
            ret_dst: None,
        });
        self.emit(
            ThreadId::MAIN,
            Span::DUMMY,
            EventKind::InvokeStart {
                inv,
                body: BodyId::Test(test),
                method: None,
                caller: None,
                from_client: false,
                recv: None,
                recv_var: None,
                args: Vec::new(),
                arg_vars: Vec::new(),
            },
            sink,
        );
    }

    /// Pushes a client invocation frame onto `tid` (which must be idle).
    fn begin_invocation(
        &mut self,
        tid: ThreadId,
        method: MethodId,
        recv: Option<Value>,
        args: Vec<Value>,
        sink: &mut dyn EventSink,
    ) -> Result<(), VmError> {
        let m = self.program.method(method);
        // Dynamic dispatch from the harness mirrors a client call site.
        let target = match recv
            .and_then(Value::as_obj)
            .and_then(|o| self.heap.class_of(o))
        {
            Some(c) if !m.is_static => self.program.dispatch(c, &m.name).unwrap_or(method),
            _ => method,
        };
        let tm = self.program.method(target);
        if tm.is_static != recv.is_none() {
            return Err(VmError::new(
                VmErrorKind::Internal(format!(
                    "receiver mismatch invoking {}",
                    self.program.qualified_name(target)
                )),
                tm.span,
            ));
        }
        // An ill-typed harness invocation (receiver class unrelated to the
        // method's owner) must fail cleanly, not corrupt field layouts.
        if let Some(obj) = recv.and_then(Value::as_obj) {
            let ok = self
                .heap
                .class_of(obj)
                .map(|c| self.program.is_subclass(c, tm.owner))
                .unwrap_or(false);
            if !ok {
                return Err(VmError::new(
                    VmErrorKind::Internal(format!(
                        "receiver {obj} is not a {}",
                        self.program.class(tm.owner).name
                    )),
                    tm.span,
                ));
            }
        }
        let body = self.mir.method(target);
        let mut regs = vec![Value::Null; body.vars.len()];
        let mut slot = 0usize;
        if let Some(r) = recv {
            regs[0] = r;
            slot = 1;
        }
        for (i, a) in args.iter().enumerate() {
            regs[slot + i] = *a;
        }
        let inv = self.fresh_inv();
        let t = &mut self.threads[tid.index()];
        debug_assert!(t.frames.is_empty(), "begin_invocation on busy thread");
        t.status = ThreadStatus::Runnable;
        t.steps = 0;
        t.frames.push(Frame {
            body: BodyId::Method(target),
            inv,
            pc: 0,
            regs,
            held: Vec::new(),
            ret_dst: None,
        });
        self.emit(
            tid,
            tm.span,
            EventKind::InvokeStart {
                inv,
                body: BodyId::Method(target),
                method: Some(target),
                caller: None,
                from_client: true,
                recv,
                recv_var: None,
                args,
                arg_vars: Vec::new(),
            },
            sink,
        );
        Ok(())
    }

    /// The value produced by a finished single-invocation thread (stored by
    /// `do_return` in a side slot).
    fn take_thread_result(&mut self, tid: ThreadId) -> Option<Value> {
        self.thread_results
            .iter()
            .position(|(t, _)| *t == tid)
            .map(|i| self.thread_results.remove(i).1)
    }

    // ------------------------------------------------------------------
    // The interpreter core
    // ------------------------------------------------------------------

    /// Executes one instruction of `tid`. No-op unless the thread is
    /// runnable. Lock contention flips the thread to `Blocked` without
    /// consuming the instruction.
    pub fn step(&mut self, tid: ThreadId, sink: &mut dyn EventSink) {
        let t = tid.index();
        if self.threads[t].status != ThreadStatus::Runnable {
            return;
        }
        self.threads[t].steps += 1;
        if self.threads[t].steps > self.opts.max_steps {
            let span = self.current_span(tid);
            self.thread_fail(tid, VmError::new(VmErrorKind::StepLimit, span), sink);
            return;
        }
        let Some(frame) = self.threads[t].frames.last() else {
            self.threads[t].status = ThreadStatus::Finished;
            return;
        };
        // Borrowed through the program's lifetime, not `self`'s, so the
        // arms below can mutate the machine while reading the instruction.
        let mir: &'p MirProgram = self.mir;
        let body = mir.body(frame.body);
        debug_assert!(frame.pc < body.instrs.len(), "pc past end of body");
        let instr = &body.instrs[frame.pc];
        let span = instr.span;
        let inv = frame.inv;

        macro_rules! reg {
            ($v:expr) => {
                self.threads[t].frames.last().unwrap().regs[$v.index()]
            };
        }
        macro_rules! set_reg {
            ($v:expr, $val:expr) => {
                self.threads[t].frames.last_mut().unwrap().regs[$v.index()] = $val
            };
        }
        macro_rules! advance {
            () => {
                self.threads[t].frames.last_mut().unwrap().pc += 1
            };
        }
        macro_rules! fail {
            ($kind:expr) => {{
                self.thread_fail(tid, VmError::new($kind, span), sink);
                return;
            }};
        }
        macro_rules! obj_of {
            ($v:expr) => {
                match reg!($v).as_obj() {
                    Some(o) => o,
                    None => fail!(VmErrorKind::NullDeref),
                }
            };
        }

        match instr.kind {
            InstrKind::Const { dst, val } => {
                let value = match val {
                    narada_lang::mir::ConstVal::Int(n) => Value::Int(n),
                    narada_lang::mir::ConstVal::Bool(b) => Value::Bool(b),
                    narada_lang::mir::ConstVal::Null => Value::Null,
                };
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Opaque,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::Copy { dst, src } => {
                let value = reg!(src);
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Var(src),
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::Rand { dst } => {
                self.rng_draws += 1;
                let value = Value::Int(self.rng.gen_range(0..1_000_000));
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Opaque,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::Binary { dst, op, l, r } => {
                let value = match eval_binary(op, reg!(l), reg!(r)) {
                    Ok(v) => v,
                    Err(kind) => fail!(kind),
                };
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Opaque,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::Unary { dst, op, v } => {
                let value = match (op, reg!(v)) {
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (UnOp::Neg, Value::Int(n)) => Value::Int(n.wrapping_neg()),
                    _ => fail!(VmErrorKind::Internal("unary type mismatch".into())),
                };
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Opaque,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::ReadField { dst, obj, field } => {
                let o = obj_of!(obj);
                let value = self.heap.get_field(o, field);
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Read {
                        inv,
                        dst,
                        obj_var: obj,
                        obj: o,
                        field: FieldKey::Field(field),
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::WriteField { obj, field, src } => {
                let o = obj_of!(obj);
                let value = reg!(src);
                self.heap.set_field(o, field, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Write {
                        inv,
                        obj_var: obj,
                        obj: o,
                        field: FieldKey::Field(field),
                        src_var: src,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::ReadIndex { dst, arr, idx } => {
                let o = obj_of!(arr);
                let i = reg!(idx).as_int().unwrap_or(0);
                let Some(value) = self.heap.get_elem(o, i) else {
                    fail!(VmErrorKind::IndexOutOfBounds {
                        idx: i,
                        len: self.heap.array_len(o),
                    });
                };
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Read {
                        inv,
                        dst,
                        obj_var: arr,
                        obj: o,
                        field: FieldKey::Elem(i),
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::WriteIndex { arr, idx, src } => {
                let o = obj_of!(arr);
                let i = reg!(idx).as_int().unwrap_or(0);
                let value = reg!(src);
                if !self.heap.set_elem(o, i, value) {
                    fail!(VmErrorKind::IndexOutOfBounds {
                        idx: i,
                        len: self.heap.array_len(o),
                    });
                }
                self.emit(
                    tid,
                    span,
                    EventKind::Write {
                        inv,
                        obj_var: arr,
                        obj: o,
                        field: FieldKey::Elem(i),
                        src_var: src,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::ArrayLen { dst, arr } => {
                let o = obj_of!(arr);
                let value = Value::Int(self.heap.array_len(o) as i64);
                set_reg!(dst, value);
                self.emit(
                    tid,
                    span,
                    EventKind::Copy {
                        inv,
                        dst,
                        src: CopySrc::Opaque,
                        value,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::AllocObj { dst, class } => {
                let obj = self.heap.alloc_instance(self.program, class);
                set_reg!(dst, Value::Ref(obj));
                self.emit(
                    tid,
                    span,
                    EventKind::Alloc {
                        inv,
                        dst,
                        obj,
                        class: Some(class),
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::NewArray { dst, ref elem, len } => {
                let n = reg!(len).as_int().unwrap_or(0);
                if n < 0 {
                    fail!(VmErrorKind::NegativeArrayLength(n));
                }
                let obj = self.heap.alloc_array(elem.clone(), n as usize);
                set_reg!(dst, Value::Ref(obj));
                self.emit(
                    tid,
                    span,
                    EventKind::Alloc {
                        inv,
                        dst,
                        obj,
                        class: None,
                    },
                    sink,
                );
                advance!();
            }
            InstrKind::CallInit { obj, field } => {
                let o = obj_of!(obj);
                advance!();
                self.push_callee_frame(
                    tid,
                    BodyId::FieldInit(field),
                    Some(Value::Ref(o)),
                    Vec::new(),
                    None,
                    Some(obj),
                    Vec::new(),
                    span,
                    sink,
                );
            }
            InstrKind::Call {
                dst,
                recv,
                method,
                ref args,
            } => {
                let o = obj_of!(recv);
                let Some(class) = self.heap.class_of(o) else {
                    fail!(VmErrorKind::Internal("method call on array".into()));
                };
                let name = &self.program.method(method).name;
                let Some(target) = self.program.dispatch(class, name) else {
                    fail!(VmErrorKind::Internal(format!(
                        "no method {name} on {class}"
                    )));
                };
                let arg_vals: Vec<Value> = args.iter().map(|a| reg!(a)).collect();
                let arg_vars = args.clone();
                advance!();
                self.push_callee_frame(
                    tid,
                    BodyId::Method(target),
                    Some(Value::Ref(o)),
                    arg_vals,
                    dst,
                    Some(recv),
                    arg_vars,
                    span,
                    sink,
                );
            }
            InstrKind::CallExact {
                dst,
                recv,
                method,
                ref args,
            } => {
                let o = obj_of!(recv);
                let arg_vals: Vec<Value> = args.iter().map(|a| reg!(a)).collect();
                let arg_vars = args.clone();
                advance!();
                self.push_callee_frame(
                    tid,
                    BodyId::Method(method),
                    Some(Value::Ref(o)),
                    arg_vals,
                    dst,
                    Some(recv),
                    arg_vars,
                    span,
                    sink,
                );
            }
            InstrKind::CallStatic {
                dst,
                method,
                ref args,
            } => {
                let arg_vals: Vec<Value> = args.iter().map(|a| reg!(a)).collect();
                let arg_vars = args.clone();
                advance!();
                self.push_callee_frame(
                    tid,
                    BodyId::Method(method),
                    None,
                    arg_vals,
                    dst,
                    None,
                    arg_vars,
                    span,
                    sink,
                );
            }
            InstrKind::Jump { target } => {
                self.threads[t].frames.last_mut().unwrap().pc = target;
            }
            InstrKind::Branch {
                cond,
                then_t,
                else_t,
            } => {
                let Some(b) = reg!(cond).as_bool() else {
                    fail!(VmErrorKind::Internal("branch on non-bool".into()));
                };
                self.threads[t].frames.last_mut().unwrap().pc = if b { then_t } else { else_t };
            }
            InstrKind::MonitorEnter { var } => {
                let o = obj_of!(var);
                let owner = self.heap.object(o).lock_owner;
                match owner {
                    None => {
                        let objm = self.heap.object_mut(o);
                        objm.lock_owner = Some(tid.0);
                        objm.lock_count = 1;
                        self.threads[t].frames.last_mut().unwrap().held.push(o);
                        self.emit(
                            tid,
                            span,
                            EventKind::Lock {
                                inv,
                                var: Some(var),
                                obj: o,
                            },
                            sink,
                        );
                        advance!();
                    }
                    Some(owner) if owner == tid.0 => {
                        self.heap.object_mut(o).lock_count += 1;
                        self.threads[t].frames.last_mut().unwrap().held.push(o);
                        advance!();
                    }
                    Some(_) => {
                        self.threads[t].status = ThreadStatus::Blocked(o);
                    }
                }
            }
            InstrKind::MonitorExit { var } => {
                let o = obj_of!(var);
                self.release_monitor(tid, o, span, sink);
                let frame = self.threads[t].frames.last_mut().unwrap();
                if let Some(pos) = frame.held.iter().rposition(|&h| h == o) {
                    frame.held.remove(pos);
                }
                advance!();
            }
            InstrKind::Return { val } => {
                let value = val.map(|v| reg!(v));
                self.do_return(tid, val, value, span, sink);
            }
            InstrKind::Assert { cond } => {
                if reg!(cond) != Value::Bool(true) {
                    fail!(VmErrorKind::AssertFailed);
                }
                advance!();
            }
            InstrKind::MissingReturn => {
                fail!(VmErrorKind::MissingReturn);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_callee_frame(
        &mut self,
        tid: ThreadId,
        body_id: BodyId,
        recv: Option<Value>,
        args: Vec<Value>,
        ret_dst: Option<VarId>,
        recv_var: Option<VarId>,
        arg_vars: Vec<VarId>,
        span: Span,
        sink: &mut dyn EventSink,
    ) {
        let t = tid.index();
        if self.threads[t].frames.len() >= self.opts.max_frames {
            self.thread_fail(tid, VmError::new(VmErrorKind::StackOverflow, span), sink);
            return;
        }
        let caller_frame = self.threads[t].frames.last().expect("caller frame");
        let caller_inv = caller_frame.inv;
        let from_client = matches!(caller_frame.body, BodyId::Test(_));
        let body = self.mir.body(body_id);
        let mut regs = vec![Value::Null; body.vars.len()];
        let mut slot = 0usize;
        if let Some(r) = recv {
            regs[0] = r;
            slot = 1;
        }
        for (i, a) in args.iter().enumerate() {
            regs[slot + i] = *a;
        }
        let inv = self.fresh_inv();
        let method = match body_id {
            BodyId::Method(m) => Some(m),
            _ => None,
        };
        self.threads[t].frames.push(Frame {
            body: body_id,
            inv,
            pc: 0,
            regs,
            held: Vec::new(),
            ret_dst,
        });
        self.emit(
            tid,
            span,
            EventKind::InvokeStart {
                inv,
                body: body_id,
                method,
                caller: Some(caller_inv),
                from_client,
                recv,
                recv_var,
                args,
                arg_vars,
            },
            sink,
        );
    }

    fn do_return(
        &mut self,
        tid: ThreadId,
        ret_var: Option<VarId>,
        value: Option<Value>,
        span: Span,
        sink: &mut dyn EventSink,
    ) {
        let t = tid.index();
        let frame = self.threads[t].frames.pop().expect("return without frame");
        // Release monitors still held by the frame (early return in sync).
        for &o in frame.held.iter().rev() {
            self.release_monitor(tid, o, span, sink);
        }
        let to_client = self.threads[t]
            .frames
            .last()
            .map(|f| matches!(f.body, BodyId::Test(_)))
            .unwrap_or(true);
        self.emit(
            tid,
            span,
            EventKind::InvokeEnd {
                inv: frame.inv,
                body: frame.body,
                ret_var,
                ret: value,
                to_client,
            },
            sink,
        );
        match self.threads[t].frames.last_mut() {
            Some(parent) => {
                if let (Some(dst), Some(v)) = (frame.ret_dst, value) {
                    parent.regs[dst.index()] = v;
                    let parent_inv = parent.inv;
                    self.emit(
                        tid,
                        span,
                        EventKind::Copy {
                            inv: parent_inv,
                            dst,
                            src: CopySrc::CallResult { callee: frame.inv },
                            value: v,
                        },
                        sink,
                    );
                }
            }
            None => {
                if let Some(v) = value {
                    self.thread_results.push((tid, v));
                }
                if let Some(next) = self.threads[t].queue.pop_front() {
                    // Multi-call thread body: start the next invocation.
                    if let Err(e) =
                        self.begin_invocation(tid, next.method, next.recv, next.args, sink)
                    {
                        self.emit(
                            tid,
                            span,
                            EventKind::ThreadFail {
                                message: e.to_string(),
                            },
                            sink,
                        );
                        self.threads[t].status = ThreadStatus::Failed(e);
                    }
                } else {
                    self.threads[t].status = ThreadStatus::Finished;
                    self.emit(tid, span, EventKind::ThreadFinish, sink);
                }
            }
        }
    }

    /// Decrements a monitor; on the 1→0 transition releases it, emits
    /// `Unlock`, and wakes blocked threads.
    fn release_monitor(&mut self, tid: ThreadId, o: ObjId, span: Span, sink: &mut dyn EventSink) {
        let inv = self.threads[tid.index()]
            .frames
            .last()
            .map(|f| f.inv)
            .unwrap_or(InvId(u64::MAX));
        let obj = self.heap.object_mut(o);
        debug_assert_eq!(obj.lock_owner, Some(tid.0), "unlock by non-owner");
        obj.lock_count = obj.lock_count.saturating_sub(1);
        if obj.lock_count == 0 {
            obj.lock_owner = None;
            self.emit(tid, span, EventKind::Unlock { inv, obj: o }, sink);
            for thr in &mut self.threads {
                if thr.status == ThreadStatus::Blocked(o) {
                    thr.status = ThreadStatus::Runnable;
                }
            }
        }
    }

    /// Discards a thread's frames, releasing any monitors they hold. The
    /// heap is untouched.
    fn abandon_thread(&mut self, tid: ThreadId, sink: &mut dyn EventSink) {
        let t = tid.index();
        let frames = std::mem::take(&mut self.threads[t].frames);
        for frame in frames.iter().rev() {
            for &o in frame.held.iter().rev() {
                self.release_monitor(tid, o, Span::DUMMY, sink);
            }
        }
        self.threads[t].status = ThreadStatus::Finished;
    }

    fn thread_fail(&mut self, tid: ThreadId, err: VmError, sink: &mut dyn EventSink) {
        let t = tid.index();
        // Unwind: release all monitors held anywhere on the stack.
        let frames = std::mem::take(&mut self.threads[t].frames);
        for frame in frames.iter().rev() {
            for &o in frame.held.iter().rev() {
                self.release_monitor(tid, o, err.span, sink);
            }
        }
        self.emit(
            tid,
            err.span,
            EventKind::ThreadFail {
                message: err.to_string(),
            },
            sink,
        );
        self.threads[t].status = ThreadStatus::Failed(err);
    }

    fn current_span(&self, tid: ThreadId) -> Span {
        self.threads[tid.index()]
            .frames
            .last()
            .and_then(|f| self.mir.body(f.body).instrs.get(f.pc))
            .map(|i| i.span)
            .unwrap_or(Span::DUMMY)
    }
}

// `inline(always)`: the dispatch loop evaluates this on every binary
// instruction, and a plain `#[inline]` hint loses to the code size of
// the (cold, outlined) type-mismatch arm — an out-of-line call here
// forces the operands and result through the stack.
#[inline(always)]
fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, VmErrorKind> {
    use BinOp::*;
    Ok(match (op, l, r) {
        (Add, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(b)),
        (Sub, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(b)),
        (Mul, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(b)),
        (Div, Value::Int(_), Value::Int(0)) => return Err(VmErrorKind::DivByZero),
        (Div, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_div(b)),
        (Rem, Value::Int(_), Value::Int(0)) => return Err(VmErrorKind::DivByZero),
        (Rem, Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_rem(b)),
        (Lt, Value::Int(a), Value::Int(b)) => Value::Bool(a < b),
        (Le, Value::Int(a), Value::Int(b)) => Value::Bool(a <= b),
        (Gt, Value::Int(a), Value::Int(b)) => Value::Bool(a > b),
        (Ge, Value::Int(a), Value::Int(b)) => Value::Bool(a >= b),
        (Eq, a, b) => Value::Bool(a.same(b)),
        (Ne, a, b) => Value::Bool(!a.same(b)),
        (And, Value::Bool(a), Value::Bool(b)) => Value::Bool(a && b),
        (Or, Value::Bool(a), Value::Bool(b)) => Value::Bool(a || b),
        _ => return Err(binary_type_mismatch(op, l, r)),
    })
}

#[cold]
#[inline(never)]
fn binary_type_mismatch(op: BinOp, l: Value, r: Value) -> VmErrorKind {
    VmErrorKind::Internal(format!("binary {op:?} on {l} and {r}"))
}
