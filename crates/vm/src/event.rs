//! Execution trace events.
//!
//! Every semantically interesting VM step emits one [`Event`] with a unique,
//! monotonically increasing [`Label`] — the paper's *dynamic execution
//! index*. The same stream serves two consumers:
//!
//! * the **trace analysis** of `narada-core` (paper §3.1–§3.2), which reads
//!   the *symbolic* payload (register ids, parameter-copy variables,
//!   invocation scopes) to build the abstract heap `H`, the access map `A`,
//!   and the summaries `D`;
//! * the **dynamic race detectors** of `narada-detect`, which read the
//!   *concrete* payload (thread ids, object ids, lock transitions).

use crate::value::{ObjId, Value};
use narada_lang::hir::{ClassId, FieldId, MethodId};
use narada_lang::mir::{BodyId, VarId};
use narada_lang::Span;
use std::fmt;

macro_rules! fmt_display_tuple {
    ($prefix:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, concat!($prefix, "{}"), self.0)
        }
    };
}

/// Dynamic execution index: position of an event in the global trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u64);

impl fmt::Display for Label {
    fmt_display_tuple!("#");
}

/// Identifies a VM thread. Thread 0 is the main (sequential) thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main thread, used for sequential seed tests and test setup.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fmt_display_tuple!("T");
}

/// Identifies one dynamic method/test/initializer invocation; variables in
/// trace events are scoped by their invocation (paper §4: "We scope the
/// variable names by assigning unique index for each method invocation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvId(pub u64);

impl fmt::Display for InvId {
    fmt_display_tuple!("i");
}

/// Which memory location within an object an access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldKey {
    /// A named field.
    Field(FieldId),
    /// An array element (concrete index, for precise race detection).
    Elem(i64),
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKey::Field(id) => write!(f, "{id}"),
            FieldKey::Elem(i) => write!(f, "[{i}]"),
        }
    }
}

/// Source classification of a register copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopySrc {
    /// `dst := src` — aliasing-relevant variable copy.
    Var(VarId),
    /// Result of a constant, arithmetic, `rand()`, or `length` — a value
    /// the client cannot control (paper: *not controllable*).
    Opaque,
    /// The value returned by a completed callee invocation.
    CallResult {
        /// The callee's invocation id.
        callee: InvId,
    },
}

/// The payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A method/constructor/field-initializer/test body began executing.
    InvokeStart {
        /// Fresh invocation id for the callee.
        inv: InvId,
        /// The body that starts.
        body: BodyId,
        /// The method, when `body` is a method.
        method: Option<MethodId>,
        /// Caller invocation (`None` for harness-driven or test roots).
        caller: Option<InvId>,
        /// True when invoked by client code (a `test` body or the harness):
        /// triggers the paper's `R` bootstrapping of controllability.
        from_client: bool,
        /// Receiver value, for instance bodies.
        recv: Option<Value>,
        /// Caller register holding the receiver, when known.
        recv_var: Option<VarId>,
        /// Argument values.
        args: Vec<Value>,
        /// Caller registers holding the arguments, when known.
        arg_vars: Vec<VarId>,
    },
    /// A body finished.
    InvokeEnd {
        /// The finished invocation.
        inv: InvId,
        /// The body that finished.
        body: BodyId,
        /// Callee register returned (`return(x)`), if a value was returned.
        ret_var: Option<VarId>,
        /// The returned value.
        ret: Option<Value>,
        /// True when returning to client code (the paper's *return* rule
        /// applies only on return to the client).
        to_client: bool,
    },
    /// Register copy: `dst := src` (assign rule) or an opaque definition.
    Copy {
        /// Executing invocation.
        inv: InvId,
        /// Destination register.
        dst: VarId,
        /// Source classification.
        src: CopySrc,
        /// The value copied.
        value: Value,
    },
    /// Object allocation (`x := alloc` rule).
    Alloc {
        /// Executing invocation.
        inv: InvId,
        /// Destination register.
        dst: VarId,
        /// The fresh object.
        obj: ObjId,
        /// Allocated class (`None` for arrays).
        class: Option<ClassId>,
    },
    /// Heap read: `dst := obj.field` / `dst := arr[i]`.
    Read {
        /// Executing invocation.
        inv: InvId,
        /// Destination register.
        dst: VarId,
        /// Register naming the object.
        obj_var: VarId,
        /// Concrete object read.
        obj: ObjId,
        /// Location within the object.
        field: FieldKey,
        /// Value read.
        value: Value,
    },
    /// Heap write: `obj.field := src` / `arr[i] := src`.
    Write {
        /// Executing invocation.
        inv: InvId,
        /// Register naming the object.
        obj_var: VarId,
        /// Concrete object written.
        obj: ObjId,
        /// Location within the object.
        field: FieldKey,
        /// Register naming the stored value.
        src_var: VarId,
        /// Value stored.
        value: Value,
    },
    /// Outermost monitor acquisition (re-entrant re-acquisitions are not
    /// reported: locksets only change on the 0→1 transition).
    Lock {
        /// Executing invocation.
        inv: InvId,
        /// Register naming the lock object, when from a `sync` construct.
        var: Option<VarId>,
        /// The lock object.
        obj: ObjId,
    },
    /// Final monitor release (1→0 transition).
    Unlock {
        /// Executing invocation.
        inv: InvId,
        /// The lock object.
        obj: ObjId,
    },
    /// A new thread was spawned by the harness.
    ThreadSpawn {
        /// The new thread.
        child: ThreadId,
    },
    /// A thread ran to completion.
    ThreadFinish,
    /// A thread aborted with a runtime error.
    ThreadFail {
        /// Rendered error message.
        message: String,
    },
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dynamic execution index.
    pub label: Label,
    /// Executing thread.
    pub tid: ThreadId,
    /// Source span of the instruction.
    pub span: Span,
    /// Payload.
    pub kind: EventKind,
}

/// Order-sensitive 64-bit digest of an event trace.
///
/// Two runs with equal digests produced byte-identical traces (up to hash
/// collision); the record/replay tests and the committed `.sched` fixtures
/// use this as the "replay reproduced the run exactly" oracle without
/// storing whole traces.
pub fn trace_digest(events: &[Event]) -> u64 {
    use std::fmt::Write as _;
    let mut buf = String::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in events {
        buf.clear();
        // Debug formatting is deterministic and covers every payload field.
        let _ = write!(buf, "{ev:?}");
        for b in buf.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    crate::rng::splitmix64(&mut h)
}

/// Consumer of the event stream. Detectors and the trace recorder implement
/// this; sinks must not assume events arrive from a single thread id.
pub trait EventSink {
    /// Called for every event, in trace order.
    fn event(&mut self, ev: &Event);

    /// Whether this sink actually consumes events. The bytecode engine
    /// skips *constructing* events for sinks that return `false` (label
    /// counters still advance, so the trace is unchanged if a listening
    /// sink is attached mid-run). Defaults to `true`; only sinks that
    /// provably discard everything should override.
    fn wants_events(&self) -> bool {
        true
    }

    /// Saturation hook of [`Machine::run_threads`](crate::Machine::run_threads),
    /// asked before each scheduling decision once a single thread has been
    /// the only live one for `lone` >= [`SATURATION_WINDOW`] decisions in a
    /// row; `lone == SATURATION_WINDOW` marks the start of a new lone
    /// stretch. Returning `true` ends the run with
    /// [`RunOutcome::Saturated`](crate::RunOutcome::Saturated). Defaults to
    /// `false`, so a sink that does not opt in is never cut; wrapping
    /// sinks such as [`TeeSink`] do not forward it.
    ///
    /// [`SATURATION_WINDOW`]: crate::machine::SATURATION_WINDOW
    fn saturated(&mut self, _lone: u64) -> bool {
        false
    }
}

/// Sink that discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&mut self, _ev: &Event) {}

    fn wants_events(&self) -> bool {
        false
    }
}

/// Sink that records the whole trace in memory.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The recorded events, in order.
    pub events: Vec<Event>,
}

impl VecSink {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for VecSink {
    fn event(&mut self, ev: &Event) {
        self.events.push(ev.clone());
    }
}

/// Fans one event stream out to two sinks.
#[derive(Debug)]
pub struct TeeSink<'a, A: ?Sized, B: ?Sized> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: EventSink + ?Sized, B: EventSink + ?Sized> EventSink for TeeSink<'_, A, B> {
    fn event(&mut self, ev: &Event) {
        self.a.event(ev);
        self.b.event(ev);
    }

    fn wants_events(&self) -> bool {
        self.a.wants_events() || self.b.wants_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(Label(5).to_string(), "#5");
        assert_eq!(ThreadId(2).to_string(), "T2");
        assert_eq!(InvId(9).to_string(), "i9");
        assert_eq!(FieldKey::Elem(3).to_string(), "[3]");
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut sink = VecSink::new();
        for i in 0..3 {
            sink.event(&Event {
                label: Label(i),
                tid: ThreadId::MAIN,
                span: Span::DUMMY,
                kind: EventKind::ThreadFinish,
            });
        }
        assert_eq!(sink.events.len(), 3);
        assert!(sink.events.windows(2).all(|w| w[0].label < w[1].label));
    }

    #[test]
    fn tee_sink_duplicates() {
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        let ev = Event {
            label: Label(0),
            tid: ThreadId::MAIN,
            span: Span::DUMMY,
            kind: EventKind::ThreadFinish,
        };
        TeeSink {
            a: &mut a,
            b: &mut b,
        }
        .event(&ev);
        assert_eq!(a.events.len(), 1);
        assert_eq!(b.events.len(), 1);
    }
}
