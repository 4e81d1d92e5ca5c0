//! Runtime errors. MJ has no exception handling, so a [`VmError`] aborts the
//! executing thread (like an uncaught Java exception) — the ConTeGe-style
//! baseline uses exactly this as its thread-safety-violation oracle.

use crate::value::ObjId;
use narada_lang::Span;
use std::error::Error;
use std::fmt;

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmErrorKind {
    /// Dereferenced `null` (field access, call, index, or `sync`).
    NullDeref,
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        idx: i64,
        /// The array length.
        len: usize,
    },
    /// `new T[n]` with negative `n`.
    NegativeArrayLength(i64),
    /// Integer division or remainder by zero.
    DivByZero,
    /// `assert` failed.
    AssertFailed,
    /// Control fell off the end of a non-void method.
    MissingReturn,
    /// Call stack exceeded the configured limit.
    StackOverflow,
    /// Thread exceeded the configured step budget (runaway loop).
    StepLimit,
    /// A heap operation met an object of the wrong shape: a field access
    /// on an array or on an instance whose class lacks the field, or an
    /// array operation on an instance. Well-typed code cannot get here;
    /// an ill-typed harness invocation can.
    TypeConfusion {
        /// The operation attempted (`"field read"`, `"index write"`, …).
        op: &'static str,
        /// The object it was attempted on.
        obj: ObjId,
    },
    /// Internal invariant violation (a bug in the VM or front end).
    Internal(String),
}

impl fmt::Display for VmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmErrorKind::NullDeref => write!(f, "null dereference"),
            VmErrorKind::IndexOutOfBounds { idx, len } => {
                write!(f, "index {idx} out of bounds for length {len}")
            }
            VmErrorKind::NegativeArrayLength(n) => write!(f, "negative array length {n}"),
            VmErrorKind::DivByZero => write!(f, "division by zero"),
            VmErrorKind::AssertFailed => write!(f, "assertion failed"),
            VmErrorKind::MissingReturn => write!(f, "non-void method returned no value"),
            VmErrorKind::StackOverflow => write!(f, "call stack overflow"),
            VmErrorKind::StepLimit => write!(f, "step limit exceeded"),
            VmErrorKind::TypeConfusion { op, obj } => {
                write!(f, "{op} on {obj}, an object of the wrong shape")
            }
            VmErrorKind::Internal(msg) => write!(f, "internal vm error: {msg}"),
        }
    }
}

/// A runtime error with the source location of the failing instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    /// What went wrong.
    pub kind: VmErrorKind,
    /// Where the failing instruction came from.
    pub span: Span,
}

impl VmError {
    /// Creates a new error.
    pub fn new(kind: VmErrorKind, span: Span) -> Self {
        VmError { kind, span }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {})", self.kind, self.span)
    }
}

impl Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_span() {
        let e = VmError::new(VmErrorKind::DivByZero, Span::new(3, 9));
        assert_eq!(e.to_string(), "division by zero (at 3..9)");
    }

    #[test]
    fn oob_message() {
        let e = VmErrorKind::IndexOutOfBounds { idx: -1, len: 4 };
        assert_eq!(e.to_string(), "index -1 out of bounds for length 4");
    }
}
