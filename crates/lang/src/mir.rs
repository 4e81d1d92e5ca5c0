//! MIR — a flat, three-address instruction IR lowered from [`hir`].
//!
//! The VM executes MIR one instruction at a time, which makes threads
//! steppable (a scheduler can interleave at instruction granularity) and
//! makes execution traces exactly match the paper's trace grammar:
//! every heap operation is `x := y`, `x := y.f`, `x.f := y`, `lock(x)`,
//! `unlock(x)`, or `return(x)` over named variables.
//!
//! Lowering also inserts the paper's §3.2 *parameter-copy variables*: at
//! every method entry, fresh variables `I_this`, `I_p0`, … (kind
//! [`VarKind::ParamCopy`]) are assigned the receiver and each parameter, so
//! that the trace analysis can recover `src(x, H)` — which client-supplied
//! value a later access is rooted at — even after the original parameter
//! variables are reassigned.
//!
//! [`hir`]: crate::hir

use crate::ast::{BinOp, UnOp};
use crate::hir::{ClassId, FieldId, LocalId, MethodId, TestId, Ty};
use crate::span::Span;
use std::fmt;

/// A virtual register within one [`Body`]. Indices `0..num_locals` are the
/// source-level locals (same layout as [`crate::hir::Method::locals`]);
/// parameter copies and compiler temporaries follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Dense index of this register.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Which parameter slot a [`VarKind::ParamCopy`] variable mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PSlot {
    /// The receiver (`this`).
    This,
    /// The i-th declared parameter (0-based).
    Param(usize),
}

impl fmt::Display for PSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PSlot::This => write!(f, "this"),
            PSlot::Param(i) => write!(f, "p{i}"),
        }
    }
}

/// Classification of a MIR variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarKind {
    /// A source-level local (including `this` and parameters).
    Local,
    /// A parameter-copy variable `I_…` inserted at method entry (§3.2).
    ParamCopy(PSlot),
    /// A compiler temporary.
    Temp,
}

/// Metadata for one MIR variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Display name (`x`, `I_this`, `$t3`, …).
    pub name: String,
    /// What the variable is.
    pub kind: VarKind,
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstVal {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// The null reference.
    Null,
}

impl fmt::Display for ConstVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstVal::Int(n) => write!(f, "{n}"),
            ConstVal::Bool(b) => write!(f, "{b}"),
            ConstVal::Null => write!(f, "null"),
        }
    }
}

/// One MIR instruction.
#[derive(Debug, Clone)]
pub struct Instr {
    /// The operation.
    pub kind: InstrKind,
    /// Source span, for diagnostics and race reports.
    pub span: Span,
}

/// MIR instruction kinds. `usize` operands of jumps are instruction indices
/// within the same body.
#[derive(Debug, Clone)]
pub enum InstrKind {
    /// `dst := const`
    Const {
        /// Destination register.
        dst: VarId,
        /// The constant.
        val: ConstVal,
    },
    /// `dst := src` (variable-to-variable copy; aliasing-relevant).
    Copy {
        /// Destination register.
        dst: VarId,
        /// Source register.
        src: VarId,
    },
    /// `dst := rand()` — an integer the client cannot control.
    Rand {
        /// Destination register.
        dst: VarId,
    },
    /// `dst := l op r`
    Binary {
        /// Destination register.
        dst: VarId,
        /// Operator (never `&&`/`||`; those are lowered to branches).
        op: BinOp,
        /// Left operand.
        l: VarId,
        /// Right operand.
        r: VarId,
    },
    /// `dst := op v`
    Unary {
        /// Destination register.
        dst: VarId,
        /// Operator.
        op: UnOp,
        /// Operand.
        v: VarId,
    },
    /// `dst := obj.field`
    ReadField {
        /// Destination register.
        dst: VarId,
        /// Object register.
        obj: VarId,
        /// Field read.
        field: FieldId,
    },
    /// `obj.field := src`
    WriteField {
        /// Object register.
        obj: VarId,
        /// Field written.
        field: FieldId,
        /// Source register.
        src: VarId,
    },
    /// `dst := arr[idx]`
    ReadIndex {
        /// Destination register.
        dst: VarId,
        /// Array register.
        arr: VarId,
        /// Index register.
        idx: VarId,
    },
    /// `arr[idx] := src`
    WriteIndex {
        /// Array register.
        arr: VarId,
        /// Index register.
        idx: VarId,
        /// Source register.
        src: VarId,
    },
    /// `dst := arr.length`
    ArrayLen {
        /// Destination register.
        dst: VarId,
        /// Array register.
        arr: VarId,
    },
    /// `dst := alloc C` — allocates an instance with default field values.
    /// Lowering of `new C(args)` emits `AllocObj`, then one [`CallInit`] per
    /// initialized field (parent-first), then a [`CallExact`] of the
    /// constructor; splitting keeps every instruction single-frame in the
    /// steppable VM.
    ///
    /// [`CallInit`]: InstrKind::CallInit
    /// [`CallExact`]: InstrKind::CallExact
    AllocObj {
        /// Destination register.
        dst: VarId,
        /// Allocated class.
        class: ClassId,
    },
    /// Run the field-initializer body of `field` with `this` bound to the
    /// object in `obj`.
    CallInit {
        /// Register holding the freshly allocated object.
        obj: VarId,
        /// Field whose initializer body runs.
        field: FieldId,
    },
    /// Exact (non-virtual) call; used for constructors.
    CallExact {
        /// Destination register.
        dst: Option<VarId>,
        /// Receiver register.
        recv: VarId,
        /// The exact method invoked (no vtable lookup).
        method: MethodId,
        /// Argument registers.
        args: Vec<VarId>,
    },
    /// `dst := new T[len]`
    NewArray {
        /// Destination register.
        dst: VarId,
        /// Element type.
        elem: Ty,
        /// Length register.
        len: VarId,
    },
    /// `dst := recv.m(args)` — dynamic dispatch by method name.
    Call {
        /// Destination register (`None` when the result is discarded or
        /// the method returns void).
        dst: Option<VarId>,
        /// Receiver register.
        recv: VarId,
        /// Statically resolved target; the VM re-dispatches by name on the
        /// receiver's runtime class.
        method: MethodId,
        /// Argument registers.
        args: Vec<VarId>,
    },
    /// `dst := C.m(args)` — static call.
    CallStatic {
        /// Destination register.
        dst: Option<VarId>,
        /// Target method.
        method: MethodId,
        /// Argument registers.
        args: Vec<VarId>,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Conditional branch on a boolean register.
    Branch {
        /// Condition register.
        cond: VarId,
        /// Target when true.
        then_t: usize,
        /// Target when false.
        else_t: usize,
    },
    /// Acquire the monitor of the object in `var` (re-entrant).
    MonitorEnter {
        /// Lock object register.
        var: VarId,
    },
    /// Release the monitor of the object in `var`.
    MonitorExit {
        /// Lock object register.
        var: VarId,
    },
    /// Return from the body, releasing any monitors the frame still holds.
    Return {
        /// Optional value register.
        val: Option<VarId>,
    },
    /// `assert cond` — aborts the thread when false.
    Assert {
        /// Condition register.
        cond: VarId,
    },
    /// Fell off the end of a non-void method: a runtime error.
    MissingReturn,
}

/// Identifies a lowered body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BodyId {
    /// A method or constructor.
    Method(MethodId),
    /// A sequential test.
    Test(TestId),
    /// A field initializer (runs at allocation with `this` = var 0).
    FieldInit(FieldId),
}

impl fmt::Display for BodyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyId::Method(m) => write!(f, "method:{m}"),
            BodyId::Test(t) => write!(f, "test:{t}"),
            BodyId::FieldInit(fid) => write!(f, "init:{fid}"),
        }
    }
}

/// A lowered body: registers plus a flat instruction stream.
#[derive(Debug, Clone)]
pub struct Body {
    /// Which HIR item this body implements.
    pub id: BodyId,
    /// Register metadata; indices `0..num_locals` are source locals.
    pub vars: Vec<VarInfo>,
    /// Number of source-level locals at the start of `vars`.
    pub num_locals: usize,
    /// The instructions.
    pub instrs: Vec<Instr>,
}

impl Body {
    /// Register ids of all parameter-copy variables, in slot order.
    pub fn param_copies(&self) -> Vec<(PSlot, VarId)> {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v.kind {
                VarKind::ParamCopy(slot) => Some((slot, VarId(i as u32))),
                _ => None,
            })
            .collect()
    }

    /// The parameter-copy register for a slot, if present.
    pub fn param_copy(&self, slot: PSlot) -> Option<VarId> {
        self.param_copies()
            .into_iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, v)| v)
    }

    /// Variable name for display.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Monitor acquire/release sites of the body, in instruction order:
    /// `(instruction index, lock-object register, is_acquire)`. Static
    /// lockset analyses iterate these instead of re-matching
    /// [`InstrKind::MonitorEnter`]/[`InstrKind::MonitorExit`] themselves.
    pub fn lock_sites(&self) -> impl Iterator<Item = (usize, VarId, bool)> + '_ {
        self.instrs
            .iter()
            .enumerate()
            .filter_map(|(i, instr)| match instr.kind {
                InstrKind::MonitorEnter { var } => Some((i, var, true)),
                InstrKind::MonitorExit { var } => Some((i, var, false)),
                _ => None,
            })
    }

    /// Renders the body as readable MIR assembly (for debugging/goldens).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "body {} ({} vars)", self.id, self.vars.len());
        for (i, instr) in self.instrs.iter().enumerate() {
            let _ = writeln!(out, "  {i:3}: {}", self.render(&instr.kind));
        }
        out
    }

    fn render(&self, k: &InstrKind) -> String {
        let n = |v: &VarId| self.var_name(*v).to_string();
        match k {
            InstrKind::Const { dst, val } => format!("{} := {val}", n(dst)),
            InstrKind::Copy { dst, src } => format!("{} := {}", n(dst), n(src)),
            InstrKind::Rand { dst } => format!("{} := rand()", n(dst)),
            InstrKind::Binary { dst, op, l, r } => {
                format!("{} := {} {op} {}", n(dst), n(l), n(r))
            }
            InstrKind::Unary { dst, op, v } => format!("{} := {op}{}", n(dst), n(v)),
            InstrKind::ReadField { dst, obj, field } => {
                format!("{} := {}.{field}", n(dst), n(obj))
            }
            InstrKind::WriteField { obj, field, src } => {
                format!("{}.{field} := {}", n(obj), n(src))
            }
            InstrKind::ReadIndex { dst, arr, idx } => {
                format!("{} := {}[{}]", n(dst), n(arr), n(idx))
            }
            InstrKind::WriteIndex { arr, idx, src } => {
                format!("{}[{}] := {}", n(arr), n(idx), n(src))
            }
            InstrKind::ArrayLen { dst, arr } => format!("{} := {}.length", n(dst), n(arr)),
            InstrKind::AllocObj { dst, class } => format!("{} := alloc {class}", n(dst)),
            InstrKind::CallInit { obj, field } => format!("init-field {}.{field}", n(obj)),
            InstrKind::CallExact {
                dst,
                recv,
                method,
                args,
            } => {
                let args: Vec<_> = args.iter().map(n).collect();
                let d = dst.map(|d| format!("{} := ", n(&d))).unwrap_or_default();
                format!("{d}callexact {}.{method}({})", n(recv), args.join(", "))
            }
            InstrKind::NewArray { dst, len, .. } => {
                format!("{} := new[]({})", n(dst), n(len))
            }
            InstrKind::Call {
                dst,
                recv,
                method,
                args,
                ..
            } => {
                let args: Vec<_> = args.iter().map(n).collect();
                let d = dst.map(|d| format!("{} := ", n(&d))).unwrap_or_default();
                format!("{d}call {}.{method}({})", n(recv), args.join(", "))
            }
            InstrKind::CallStatic { dst, method, args } => {
                let args: Vec<_> = args.iter().map(n).collect();
                let d = dst.map(|d| format!("{} := ", n(&d))).unwrap_or_default();
                format!("{d}callstatic {method}({})", args.join(", "))
            }
            InstrKind::Jump { target } => format!("jump {target}"),
            InstrKind::Branch {
                cond,
                then_t,
                else_t,
            } => {
                format!("branch {} ? {then_t} : {else_t}", n(cond))
            }
            InstrKind::MonitorEnter { var } => format!("lock({})", n(var)),
            InstrKind::MonitorExit { var } => format!("unlock({})", n(var)),
            InstrKind::Return { val } => match val {
                Some(v) => format!("return {}", n(v)),
                None => "return".to_string(),
            },
            InstrKind::Assert { cond } => format!("assert {}", n(cond)),
            InstrKind::MissingReturn => "missing-return".to_string(),
        }
    }
}

/// All lowered bodies of one program.
#[derive(Debug, Clone, Default)]
pub struct MirProgram {
    /// Method bodies, indexed by [`MethodId`].
    pub methods: Vec<Body>,
    /// Test bodies, indexed by [`TestId`].
    pub tests: Vec<Body>,
    /// Field-initializer bodies, indexed by [`FieldId`];
    /// `None` for a field without an initializer.
    pub field_inits: Vec<Option<Body>>,
}

impl MirProgram {
    /// Looks up a body.
    #[inline]
    pub fn body(&self, id: BodyId) -> &Body {
        match id {
            BodyId::Method(m) => &self.methods[m.index()],
            BodyId::Test(t) => &self.tests[t.index()],
            BodyId::FieldInit(f) => self.field_inits[f.index()]
                .as_ref()
                .expect("a field-initializer body for a field with an initializer"),
        }
    }

    /// Body for a method.
    #[inline]
    pub fn method(&self, m: MethodId) -> &Body {
        &self.methods[m.index()]
    }

    /// Body for a test.
    pub fn test(&self, t: TestId) -> &Body {
        &self.tests[t.index()]
    }
}

/// Layout helper: the receiver local for instance bodies.
pub const THIS_VAR: VarId = VarId(0);

#[allow(unused_imports)]
use crate::hir::LocalId as _LocalIdDocOnly; // referenced in docs

/// Converts an HIR local slot to its MIR register (identity mapping).
pub fn local_var(l: LocalId) -> VarId {
    VarId(l.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::hir::MethodId;
    use crate::lower::lower_program;

    #[test]
    fn lock_sites_lists_monitor_pairs_in_order() {
        let prog = compile(
            r#"
            class A {
                int x;
                sync void locked() { this.x = 1; }
                void bare() { this.x = 2; }
            }
        "#,
        )
        .expect("compiles");
        let mir = lower_program(&prog);

        let locked = mir.method(MethodId(0));
        let sites: Vec<_> = locked.lock_sites().collect();
        // A sync method wraps its body in exactly one enter/exit pair on
        // the receiver; sites come back in instruction order.
        assert!(sites.len() >= 2, "{}", locked.dump());
        assert_eq!((sites[0].1, sites[0].2), (THIS_VAR, true));
        assert!(sites.iter().skip(1).all(|&(_, v, _)| v == THIS_VAR));
        assert!(
            sites.iter().filter(|&&(_, _, acq)| !acq).count() >= 1,
            "at least one release"
        );
        let mut idxs: Vec<_> = sites.iter().map(|&(i, _, _)| i).collect();
        let sorted = idxs.clone();
        idxs.sort_unstable();
        assert_eq!(idxs, sorted, "sites are in instruction order");

        let bare = mir.method(MethodId(1));
        assert_eq!(
            bare.lock_sites().count(),
            0,
            "no monitors in a plain method"
        );
    }
}
