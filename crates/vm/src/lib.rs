//! # narada-vm — steppable virtual machine for MJ
//!
//! Executes the MIR produced by [`narada_lang`]:
//!
//! * a shared, non-collected [`Heap`] of objects with Java-style re-entrant
//!   monitors;
//! * a [`Machine`] holding any number of threads, each advanced one
//!   instruction at a time so a [`Scheduler`] controls the interleaving;
//! * an [`EventSink`] stream of labelled trace events consumed by the
//!   Narada trace analysis (sequential runs) and by the dynamic race
//!   detectors (concurrent runs);
//! * seed-test suspension ([`Machine::run_test_until_call`]) implementing
//!   the object-collection step of the paper's Algorithm 1.
//!
//! ## Example: trace a sequential seed test
//!
//! ```
//! use narada_lang::{compile, lower::lower_program};
//! use narada_vm::{Machine, VecSink};
//!
//! let program = compile(r#"
//!     class Counter { int count; void inc() { this.count = this.count + 1; } }
//!     test seed { var c = new Counter(); c.inc(); }
//! "#).unwrap();
//! let mir = lower_program(&program);
//! let mut machine = Machine::with_defaults(&program, &mir);
//! let mut trace = VecSink::new();
//! machine.run_test(program.test_by_name("seed").unwrap(), &mut trace)?;
//! assert!(!trace.events.is_empty());
//! # Ok::<(), narada_vm::VmError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod heap;
pub mod machine;
pub mod render;
pub mod rng;
pub mod schedule;
pub mod scheduler;
pub mod value;

pub use error::{VmError, VmErrorKind};
pub use event::{
    trace_digest, CopySrc, Event, EventKind, EventSink, FieldKey, InvId, Label, NullSink, TeeSink,
    ThreadId, VecSink,
};
pub use heap::{Heap, HeapMark, Object, ObjectData};
pub use machine::{
    CallSite, Machine, MachineMark, MachineOptions, MachineSnapshot, PendingInvoke, Preview,
    RunOutcome, ThreadStatus, SATURATION_WINDOW,
};
pub use render::{render_schedule_summary, TraceRenderer};
pub use rng::{derive_seed, splitmix64, SplitMix64};
pub use schedule::{Schedule, ScheduleError, VM_VERSION};
pub use scheduler::{
    ObservedScheduler, PctScheduler, RandomScheduler, RecordingScheduler, ReplayScheduler,
    RoundRobin, ScheduleStrategy, Scheduler, SegmentScheduler, SerialScheduler,
};
pub use value::{ObjId, Value};
