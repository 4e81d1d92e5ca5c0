//! Lowering from [`hir`] to flat [`mir`].
//!
//! Responsibilities:
//!
//! * three-address conversion — every intermediate value lands in a named
//!   register, so execution traces name every heap access;
//! * insertion of the §3.2 parameter-copy variables (`I_this`, `I_p0`, …) at
//!   the top of every method;
//! * `sync` methods become `MonitorEnter(this) … MonitorExit(this)` around
//!   the body (monitors are also released on early `return` by the VM's
//!   frame unwind);
//! * structured control flow (`if`/`while`/`&&`/`||`) becomes jumps.
//!
//! [`hir`]: crate::hir
//! [`mir`]: crate::mir

use crate::ast::BinOp;
use crate::hir::{self, Program};
use crate::mir::*;
use crate::span::Span;

/// Lowers every method, test, and field initializer of `prog`.
pub fn lower_program(prog: &Program) -> MirProgram {
    let mut mir = MirProgram::default();
    for m in &prog.methods {
        mir.methods.push(lower_method(prog, m));
    }
    for t in &prog.tests {
        mir.tests.push(lower_test(prog, t));
    }
    for f in &prog.fields {
        if let Some(init) = &f.init {
            mir.field_inits
                .insert(f.id, lower_field_init(prog, f, init));
        }
    }
    mir
}

fn lower_method(prog: &Program, m: &hir::Method) -> Body {
    let mut cx = LowerCx::new(BodyId::Method(m.id), &m.locals);
    // Parameter copies first (paper Fig. 11: `I1 := this; I2 := y; lock…`).
    if let Some(this) = m.this_local() {
        let copy = cx.fresh_param_copy(PSlot::This);
        cx.emit(
            InstrKind::Copy {
                dst: copy,
                src: local_var(this),
            },
            m.span,
        );
    }
    for (i, p) in m.param_locals().into_iter().enumerate() {
        let copy = cx.fresh_param_copy(PSlot::Param(i));
        cx.emit(
            InstrKind::Copy {
                dst: copy,
                src: local_var(p),
            },
            m.span,
        );
    }
    if m.is_sync {
        cx.emit(InstrKind::MonitorEnter { var: THIS_VAR }, m.span);
    }
    cx.block(prog, &m.body);
    if m.is_sync {
        cx.emit(InstrKind::MonitorExit { var: THIS_VAR }, m.span);
    }
    if m.ret == hir::Ty::Void {
        cx.emit(InstrKind::Return { val: None }, m.span);
    } else {
        cx.emit(InstrKind::MissingReturn, m.span);
    }
    cx.finish()
}

/// Lowers a single test body. Public so callers that synthesize new HIR
/// tests against an existing program (e.g. the seed generator) can produce
/// matching MIR bodies without re-lowering the whole program.
pub fn lower_test(prog: &Program, t: &hir::Test) -> Body {
    let mut cx = LowerCx::new(BodyId::Test(t.id), &t.locals);
    cx.block(prog, &t.body);
    cx.emit(InstrKind::Return { val: None }, t.span);
    cx.finish()
}

fn lower_field_init(prog: &Program, f: &hir::Field, init: &hir::Expr) -> Body {
    // Body layout: var 0 is `this`; evaluate the initializer, store it.
    let this_local = hir::Local {
        name: "this".into(),
        ty: hir::Ty::Class(f.owner),
    };
    let locals = vec![this_local];
    let mut cx = LowerCx::new(BodyId::FieldInit(f.id), &locals);
    let src = cx.expr(prog, init);
    cx.emit(
        InstrKind::WriteField {
            obj: THIS_VAR,
            field: f.id,
            src,
        },
        f.span,
    );
    cx.emit(InstrKind::Return { val: None }, f.span);
    cx.finish()
}

struct LowerCx {
    id: BodyId,
    vars: Vec<VarInfo>,
    num_locals: usize,
    instrs: Vec<Instr>,
}

impl LowerCx {
    fn new(id: BodyId, locals: &[hir::Local]) -> Self {
        let vars: Vec<VarInfo> = locals
            .iter()
            .map(|l| VarInfo {
                name: l.name.clone(),
                kind: VarKind::Local,
            })
            .collect();
        LowerCx {
            id,
            num_locals: vars.len(),
            vars,
            instrs: Vec::new(),
        }
    }

    fn finish(self) -> Body {
        Body {
            id: self.id,
            vars: self.vars,
            num_locals: self.num_locals,
            instrs: self.instrs,
        }
    }

    fn emit(&mut self, kind: InstrKind, span: Span) -> usize {
        self.instrs.push(Instr { kind, span });
        self.instrs.len() - 1
    }

    fn fresh_temp(&mut self) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: format!("$t{}", self.vars.len()),
            kind: VarKind::Temp,
        });
        id
    }

    fn fresh_param_copy(&mut self, slot: PSlot) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: format!("I_{slot}"),
            kind: VarKind::ParamCopy(slot),
        });
        id
    }

    fn here(&self) -> usize {
        self.instrs.len()
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.instrs[at].kind {
            InstrKind::Jump { target: t } => *t = target,
            other => panic!("patch_jump on non-jump {other:?}"),
        }
    }

    fn patch_branch(&mut self, at: usize, then_t: Option<usize>, else_t: Option<usize>) {
        match &mut self.instrs[at].kind {
            InstrKind::Branch {
                then_t: t,
                else_t: e,
                ..
            } => {
                if let Some(v) = then_t {
                    *t = v;
                }
                if let Some(v) = else_t {
                    *e = v;
                }
            }
            other => panic!("patch_branch on non-branch {other:?}"),
        }
    }

    fn block(&mut self, prog: &Program, b: &hir::Block) {
        for s in &b.stmts {
            self.stmt(prog, s);
        }
    }

    fn stmt(&mut self, prog: &Program, s: &hir::Stmt) {
        match s {
            hir::Stmt::Let { local, init, span } => {
                let src = self.expr(prog, init);
                self.emit(
                    InstrKind::Copy {
                        dst: local_var(*local),
                        src,
                    },
                    *span,
                );
            }
            hir::Stmt::Assign { place, value, span } => match place {
                hir::Place::Local(l) => {
                    let src = self.expr(prog, value);
                    self.emit(
                        InstrKind::Copy {
                            dst: local_var(*l),
                            src,
                        },
                        *span,
                    );
                }
                hir::Place::Field { obj, field } => {
                    let obj = self.expr(prog, obj);
                    let src = self.expr(prog, value);
                    self.emit(
                        InstrKind::WriteField {
                            obj,
                            field: *field,
                            src,
                        },
                        *span,
                    );
                }
                hir::Place::Index { arr, idx } => {
                    let arr = self.expr(prog, arr);
                    let idx = self.expr(prog, idx);
                    let src = self.expr(prog, value);
                    self.emit(InstrKind::WriteIndex { arr, idx, src }, *span);
                }
            },
            hir::Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let c = self.expr(prog, cond);
                let br = self.emit(
                    InstrKind::Branch {
                        cond: c,
                        then_t: 0,
                        else_t: 0,
                    },
                    *span,
                );
                let then_start = self.here();
                self.block(prog, then_blk);
                match else_blk {
                    Some(e) => {
                        let skip_else = self.emit(InstrKind::Jump { target: 0 }, *span);
                        let else_start = self.here();
                        self.block(prog, e);
                        let after = self.here();
                        self.patch_branch(br, Some(then_start), Some(else_start));
                        self.patch_jump(skip_else, after);
                    }
                    None => {
                        let after = self.here();
                        self.patch_branch(br, Some(then_start), Some(after));
                    }
                }
            }
            hir::Stmt::While { cond, body, span } => {
                let loop_start = self.here();
                let c = self.expr(prog, cond);
                let br = self.emit(
                    InstrKind::Branch {
                        cond: c,
                        then_t: 0,
                        else_t: 0,
                    },
                    *span,
                );
                let body_start = self.here();
                self.block(prog, body);
                self.emit(InstrKind::Jump { target: loop_start }, *span);
                let after = self.here();
                self.patch_branch(br, Some(body_start), Some(after));
            }
            hir::Stmt::Sync { lock, body, span } => {
                let l = self.expr(prog, lock);
                self.emit(InstrKind::MonitorEnter { var: l }, *span);
                self.block(prog, body);
                self.emit(InstrKind::MonitorExit { var: l }, *span);
            }
            hir::Stmt::Return { value, span } => {
                let val = value.as_ref().map(|v| self.expr(prog, v));
                self.emit(InstrKind::Return { val }, *span);
            }
            hir::Stmt::Assert { cond, span } => {
                let c = self.expr(prog, cond);
                self.emit(InstrKind::Assert { cond: c }, *span);
            }
            hir::Stmt::Expr(e) => {
                self.expr_for_effect(prog, e);
            }
        }
    }

    /// Lowers a call-like expression discarding its result.
    fn expr_for_effect(&mut self, prog: &Program, e: &hir::Expr) {
        match e {
            hir::Expr::Call {
                recv,
                method,
                args,
                span,
            } => {
                let recv = self.expr(prog, recv);
                let args = args.iter().map(|a| self.expr(prog, a)).collect();
                self.emit(
                    InstrKind::Call {
                        dst: None,
                        recv,
                        method: *method,
                        args,
                    },
                    *span,
                );
            }
            hir::Expr::StaticCall { method, args, span } => {
                let args = args.iter().map(|a| self.expr(prog, a)).collect();
                self.emit(
                    InstrKind::CallStatic {
                        dst: None,
                        method: *method,
                        args,
                    },
                    *span,
                );
            }
            other => {
                let _ = self.expr(prog, other);
            }
        }
    }

    /// Lowers an expression; the result register is returned.
    fn expr(&mut self, prog: &Program, e: &hir::Expr) -> VarId {
        match e {
            hir::Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                span,
            } => {
                // Short-circuit: result := lhs; branch; result := rhs.
                let result = self.fresh_temp();
                let l = self.expr(prog, lhs);
                self.emit(
                    InstrKind::Copy {
                        dst: result,
                        src: l,
                    },
                    *span,
                );
                let br = self.emit(
                    InstrKind::Branch {
                        cond: result,
                        then_t: 0,
                        else_t: 0,
                    },
                    *span,
                );
                let rhs_start = self.here();
                let r = self.expr(prog, rhs);
                self.emit(
                    InstrKind::Copy {
                        dst: result,
                        src: r,
                    },
                    *span,
                );
                let after = self.here();
                match op {
                    BinOp::And => self.patch_branch(br, Some(rhs_start), Some(after)),
                    BinOp::Or => self.patch_branch(br, Some(after), Some(rhs_start)),
                    _ => unreachable!(),
                }
                result
            }
            _ => self.expr_inner(prog, e),
        }
    }

    fn expr_inner(&mut self, prog: &Program, e: &hir::Expr) -> VarId {
        match e {
            hir::Expr::Int(n, span) => {
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::Const {
                        dst,
                        val: ConstVal::Int(*n),
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Bool(b, span) => {
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::Const {
                        dst,
                        val: ConstVal::Bool(*b),
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Null(span) => {
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::Const {
                        dst,
                        val: ConstVal::Null,
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Local(l, _) => local_var(*l),
            hir::Expr::Rand(span) => {
                let dst = self.fresh_temp();
                self.emit(InstrKind::Rand { dst }, *span);
                dst
            }
            hir::Expr::GetField { obj, field, span } => {
                let obj = self.expr_inner(prog, obj);
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::ReadField {
                        dst,
                        obj,
                        field: *field,
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Index { arr, idx, span } => {
                let arr = self.expr_inner(prog, arr);
                let idx = self.expr_inner(prog, idx);
                let dst = self.fresh_temp();
                self.emit(InstrKind::ReadIndex { dst, arr, idx }, *span);
                dst
            }
            hir::Expr::ArrayLen { arr, span } => {
                let arr = self.expr_inner(prog, arr);
                let dst = self.fresh_temp();
                self.emit(InstrKind::ArrayLen { dst, arr }, *span);
                dst
            }
            hir::Expr::New {
                class,
                args,
                ctor,
                span,
            } => {
                let args: Vec<VarId> = args.iter().map(|a| self.expr_inner(prog, a)).collect();
                let dst = self.fresh_temp();
                self.emit(InstrKind::AllocObj { dst, class: *class }, *span);
                // Field initializers, parent-first (all_fields order).
                for &f in prog.fields_of(*class) {
                    if prog.field(f).init.is_some() {
                        self.emit(InstrKind::CallInit { obj: dst, field: f }, *span);
                    }
                }
                if let Some(ctor) = ctor {
                    self.emit(
                        InstrKind::CallExact {
                            dst: None,
                            recv: dst,
                            method: *ctor,
                            args,
                        },
                        *span,
                    );
                }
                dst
            }
            hir::Expr::NewArray { elem, len, span } => {
                let len = self.expr_inner(prog, len);
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::NewArray {
                        dst,
                        elem: elem.clone(),
                        len,
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Call {
                recv,
                method,
                args,
                span,
            } => {
                let recv = self.expr_inner(prog, recv);
                let args = args.iter().map(|a| self.expr_inner(prog, a)).collect();
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::Call {
                        dst: Some(dst),
                        recv,
                        method: *method,
                        args,
                    },
                    *span,
                );
                dst
            }
            hir::Expr::StaticCall { method, args, span } => {
                let args = args.iter().map(|a| self.expr_inner(prog, a)).collect();
                let dst = self.fresh_temp();
                self.emit(
                    InstrKind::CallStatic {
                        dst: Some(dst),
                        method: *method,
                        args,
                    },
                    *span,
                );
                dst
            }
            hir::Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                span,
            } => self.expr(
                prog,
                &hir::Expr::Binary {
                    op: *op,
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                    span: *span,
                },
            ),
            hir::Expr::Binary { op, lhs, rhs, span } => {
                let l = self.expr_inner(prog, lhs);
                let r = self.expr_inner(prog, rhs);
                let dst = self.fresh_temp();
                self.emit(InstrKind::Binary { dst, op: *op, l, r }, *span);
                dst
            }
            hir::Expr::Unary { op, operand, span } => {
                let v = self.expr_inner(prog, operand);
                let dst = self.fresh_temp();
                self.emit(InstrKind::Unary { dst, op: *op, v }, *span);
                dst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::hir::{LocalId, MethodId, TestId};

    fn mir_of(src: &str) -> (Program, MirProgram) {
        let prog = compile(src).unwrap_or_else(|e| panic!("compile failed:\n{e}"));
        let mir = lower_program(&prog);
        (prog, mir)
    }

    #[test]
    fn param_copies_inserted() {
        let (_, mir) = mir_of(
            r#"
            class A {
                int x;
                void foo(A y) { this.x = 1; }
            }
        "#,
        );
        let body = mir.method(MethodId(0));
        let copies = body.param_copies();
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[0].0, PSlot::This);
        assert_eq!(copies[1].0, PSlot::Param(0));
        // First two instructions are the copies.
        assert!(matches!(body.instrs[0].kind, InstrKind::Copy { .. }));
        assert!(matches!(body.instrs[1].kind, InstrKind::Copy { .. }));
        assert!(body.var_name(copies[0].1).contains("I_this"));
    }

    #[test]
    fn sync_method_gets_monitor_pair() {
        let (_, mir) = mir_of("class A { sync void m() { } }");
        let body = mir.method(MethodId(0));
        let kinds: Vec<_> = body.instrs.iter().map(|i| &i.kind).collect();
        assert!(matches!(kinds[1], InstrKind::MonitorEnter { var } if *var == THIS_VAR));
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, InstrKind::MonitorExit { var } if *var == THIS_VAR)),
            "{}",
            body.dump()
        );
    }

    #[test]
    fn nonvoid_ends_with_missing_return_guard() {
        let (_, mir) = mir_of("class A { int m() { return 1; } }");
        let body = mir.method(MethodId(0));
        assert!(matches!(
            body.instrs.last().unwrap().kind,
            InstrKind::MissingReturn
        ));
    }

    #[test]
    fn while_loop_shape() {
        let (_, mir) = mir_of(
            r#"
            test t {
                var i = 0;
                while (i < 3) { i = i + 1; }
            }
        "#,
        );
        let body = mir.test(TestId(0));
        let branch = body
            .instrs
            .iter()
            .enumerate()
            .find_map(|(i, ins)| match ins.kind {
                InstrKind::Branch { then_t, else_t, .. } => Some((i, then_t, else_t)),
                _ => None,
            })
            .expect("loop branch");
        let (at, then_t, else_t) = branch;
        assert_eq!(then_t, at + 1, "then branch falls through to body");
        assert!(else_t > then_t, "else exits the loop");
        // Back-edge jumps before the branch.
        let back = body
            .instrs
            .iter()
            .find_map(|ins| match ins.kind {
                InstrKind::Jump { target } => Some(target),
                _ => None,
            })
            .expect("back edge");
        assert!(back < at);
    }

    #[test]
    fn short_circuit_and_branches() {
        let (_, mir) = mir_of("test t { var b = true && false; }");
        let body = mir.test(TestId(0));
        assert!(
            body.instrs
                .iter()
                .any(|i| matches!(i.kind, InstrKind::Branch { .. })),
            "{}",
            body.dump()
        );
        // No Binary instruction with And remains.
        assert!(!body.instrs.iter().any(|i| matches!(
            i.kind,
            InstrKind::Binary {
                op: BinOp::And | BinOp::Or,
                ..
            }
        )));
    }

    #[test]
    fn field_init_bodies_created() {
        let (prog, mir) = mir_of("class A { int x = 41 + 1; int y; }");
        let a = prog.class_by_name("A").unwrap();
        let x = prog.field_by_name(a, "x").unwrap();
        let y = prog.field_by_name(a, "y").unwrap();
        assert!(mir.field_inits.contains_key(&x));
        assert!(!mir.field_inits.contains_key(&y));
        let body = &mir.field_inits[&x];
        assert!(body
            .instrs
            .iter()
            .any(|i| matches!(i.kind, InstrKind::WriteField { .. })));
    }

    #[test]
    fn locals_keep_identity_mapping() {
        let (prog, mir) = mir_of("class A { int m(int a, int b) { return a + b; } }");
        let m = &prog.methods[0];
        let body = mir.method(m.id);
        for (i, l) in m.locals.iter().enumerate() {
            assert_eq!(body.var_name(local_var(LocalId(i as u32))), l.name);
        }
        assert_eq!(body.num_locals, m.locals.len());
    }

    #[test]
    fn sync_block_lowering() {
        let (_, mir) = mir_of(
            r#"
            class A {
                int x;
                void m(A other) { sync (other) { this.x = 1; } }
            }
        "#,
        );
        let body = mir.method(MethodId(0));
        let enter = body
            .instrs
            .iter()
            .position(|i| matches!(i.kind, InstrKind::MonitorEnter { .. }))
            .unwrap();
        let write = body
            .instrs
            .iter()
            .position(|i| matches!(i.kind, InstrKind::WriteField { .. }))
            .unwrap();
        let exit = body
            .instrs
            .iter()
            .position(|i| matches!(i.kind, InstrKind::MonitorExit { .. }))
            .unwrap();
        assert!(enter < write && write < exit);
    }

    #[test]
    fn dump_is_readable() {
        let (_, mir) = mir_of("class A { int x; void m() { this.x = rand(); } }");
        let s = mir.method(MethodId(0)).dump();
        assert!(s.contains("rand()"), "{s}");
        assert!(s.contains(":="), "{s}");
    }

    #[test]
    fn static_call_lowering() {
        let (_, mir) = mir_of(
            r#"
            class F { static F make() { return new F(); } }
            test t { var f = F.make(); }
        "#,
        );
        let body = mir.test(TestId(0));
        assert!(body
            .instrs
            .iter()
            .any(|i| matches!(i.kind, InstrKind::CallStatic { dst: Some(_), .. })));
    }

    #[test]
    fn call_stmt_discards_result() {
        let (_, mir) = mir_of(
            r#"
            class C { int m() { return 1; } }
            test t { var c = new C(); c.m(); }
        "#,
        );
        let body = mir.test(TestId(0));
        assert!(body
            .instrs
            .iter()
            .any(|i| matches!(i.kind, InstrKind::Call { dst: None, .. })));
    }
}
