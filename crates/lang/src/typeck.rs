//! Name resolution and type checking: lowers the parsed [`ast`] into the
//! resolved [`hir`].
//!
//! Checking proceeds in three passes:
//!
//! 1. **collect** — assign [`ClassId`]s, resolve `extends` edges, reject
//!    duplicate and cyclic class hierarchies and chains deeper than
//!    [`MAX_HIERARCHY_DEPTH`];
//! 2. **declare** — build field/method arenas, inherited field lists and
//!    vtables, checking duplicate members and override signatures;
//! 3. **check** — type-check every field initializer, method body, and test
//!    body, lowering them to HIR.
//!
//! [`ast`]: crate::ast
//! [`hir`]: crate::hir

use crate::ast;
use crate::ast::{BinOp, UnOp};
use crate::error::{Diagnostic, Diagnostics, Phase};
use crate::hir::*;
use crate::span::Span;
use std::collections::HashMap;

/// Type-checks a parsed program and lowers it to HIR.
///
/// # Errors
///
/// Returns every resolution/typing error found. Bodies containing errors are
/// still traversed as far as possible so that multiple errors are reported.
pub fn check(ast: &ast::Program) -> Result<Program, Diagnostics> {
    let mut cx = Checker {
        prog: Program::default(),
        errors: Vec::new(),
    };
    cx.collect_classes(ast);
    if cx.errors.is_empty() {
        cx.declare_members(ast);
    }
    if cx.errors.is_empty() {
        cx.check_bodies(ast);
    }
    if cx.errors.is_empty() {
        let order = cx.topo_order();
        cx.prog.build_resolution_tables(&order);
        Ok(cx.prog)
    } else {
        Err(Diagnostics::new(cx.errors))
    }
}

/// The most classes one `extends` chain may hold, the class itself
/// included. Each class copies its parent's field list and vtable, so
/// compile time and memory grow with the square of a chain's depth; the
/// corpus's deepest chain holds 2.
pub const MAX_HIERARCHY_DEPTH: usize = 64;

struct Checker {
    prog: Program,
    errors: Vec<Diagnostic>,
}

impl Checker {
    fn error(&mut self, msg: impl Into<String>, span: Span) {
        self.errors.push(Diagnostic::new(Phase::Check, msg, span));
    }

    // ------------------------------------------------------------------
    // Pass 1: classes
    // ------------------------------------------------------------------

    fn collect_classes(&mut self, ast: &ast::Program) {
        for decl in &ast.classes {
            if self.prog.class_names.contains_key(&decl.name.name) {
                self.error(
                    format!("duplicate class `{}`", decl.name.name),
                    decl.name.span,
                );
                continue;
            }
            let id = ClassId(self.prog.classes.len() as u32);
            self.prog.class_names.insert(decl.name.name.clone(), id);
            self.prog.classes.push(Class {
                id,
                name: decl.name.name.clone(),
                parent: None,
                own_fields: Vec::new(),
                all_fields: Vec::new(),
                own_methods: Vec::new(),
                vtable: HashMap::new(),
                ctor: None,
                span: decl.span,
            });
        }
        // Resolve parents.
        for decl in &ast.classes {
            let Some(&id) = self.prog.class_names.get(&decl.name.name) else {
                continue;
            };
            if let Some(parent) = &decl.parent {
                match self.prog.class_names.get(&parent.name).copied() {
                    Some(pid) if pid == id => {
                        self.error(
                            format!("class `{}` extends itself", decl.name.name),
                            parent.span,
                        );
                    }
                    Some(pid) => self.prog.classes[id.index()].parent = Some(pid),
                    None => {
                        self.error(format!("unknown superclass `{}`", parent.name), parent.span)
                    }
                }
            }
        }
        // Reject cycles and over-deep chains. A class's walk up its chain
        // stops at the first class an earlier walk settled, so each class
        // is walked once.
        let n = self.prog.classes.len();
        let mut depth = vec![0usize; n]; // 0 = not settled yet
        let mut on_path = vec![false; n];
        for c in 0..n {
            let mut path: Vec<ClassId> = Vec::new();
            let mut cur = Some(ClassId(c as u32));
            while let Some(id) = cur {
                if depth[id.index()] != 0 {
                    break;
                }
                if on_path[id.index()] {
                    let last = *path.last().expect("a class on the path was pushed");
                    self.error(
                        format!(
                            "inheritance cycle involving `{}`",
                            self.prog.class(last).name
                        ),
                        self.prog.class(last).span,
                    );
                    // Break the cycle so later passes terminate.
                    self.prog.classes[last.index()].parent = None;
                    cur = None;
                    break;
                }
                on_path[id.index()] = true;
                path.push(id);
                cur = self.prog.class(id).parent;
            }
            let mut d = cur.map_or(0, |id| depth[id.index()]);
            for id in path.into_iter().rev() {
                on_path[id.index()] = false;
                d += 1;
                depth[id.index()] = d;
                if d == MAX_HIERARCHY_DEPTH + 1 {
                    self.error(
                        format!(
                            "class `{}` is {d} classes deep in its `extends` chain; \
                             at most {MAX_HIERARCHY_DEPTH} are allowed",
                            self.prog.class(id).name
                        ),
                        self.prog.class(id).span,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: members
    // ------------------------------------------------------------------

    fn resolve_ty(&mut self, t: &ast::TypeExpr) -> Ty {
        match t {
            ast::TypeExpr::Int(_) => Ty::Int,
            ast::TypeExpr::Bool(_) => Ty::Bool,
            ast::TypeExpr::Named(id) => match self.prog.class_names.get(&id.name) {
                Some(&c) => Ty::Class(c),
                None => {
                    self.error(format!("unknown type `{}`", id.name), id.span);
                    Ty::Int // recovery type
                }
            },
            ast::TypeExpr::Array(elem, _) => Ty::Array(Box::new(self.resolve_ty(elem))),
        }
    }

    fn declare_members(&mut self, ast: &ast::Program) {
        for decl in &ast.classes {
            let id = self.prog.class_names[&decl.name.name];
            for f in &decl.fields {
                let ty = self.resolve_ty(&f.ty);
                let dup = self.prog.classes[id.index()]
                    .own_fields
                    .iter()
                    .any(|&fid| self.prog.field(fid).name == f.name.name);
                if dup {
                    self.error(
                        format!(
                            "duplicate field `{}` in class `{}`",
                            f.name.name, decl.name.name
                        ),
                        f.name.span,
                    );
                    continue;
                }
                let fid = FieldId(self.prog.fields.len() as u32);
                self.prog.fields.push(Field {
                    id: fid,
                    name: f.name.name.clone(),
                    ty,
                    owner: id,
                    init: None, // filled in pass 3
                    span: f.span,
                });
                self.prog.classes[id.index()].own_fields.push(fid);
            }
            for m in &decl.methods {
                let ret = match (&m.ret, m.is_ctor) {
                    (_, true) | (None, _) => Ty::Void,
                    (Some(t), false) => self.resolve_ty(t),
                };
                let mut locals = Vec::new();
                if !m.is_static {
                    locals.push(Local {
                        name: "this".into(),
                        ty: Ty::Class(id),
                    });
                }
                let mut seen = HashMap::new();
                for p in &m.params {
                    let ty = self.resolve_ty(&p.ty);
                    if seen.insert(p.name.name.clone(), ()).is_some() {
                        self.error(
                            format!("duplicate parameter `{}`", p.name.name),
                            p.name.span,
                        );
                    }
                    locals.push(Local {
                        name: p.name.name.clone(),
                        ty,
                    });
                }
                let mid = MethodId(self.prog.methods.len() as u32);
                let dup = if m.is_ctor {
                    self.prog.classes[id.index()].ctor.is_some()
                } else {
                    self.prog.classes[id.index()]
                        .own_methods
                        .iter()
                        .any(|&om| self.prog.method(om).name == m.name.name)
                };
                if dup {
                    self.error(
                        format!(
                            "duplicate method `{}` in class `{}` (MJ has no overloading)",
                            m.name.name, decl.name.name
                        ),
                        m.name.span,
                    );
                    continue;
                }
                self.prog.methods.push(Method {
                    id: mid,
                    name: m.name.name.clone(),
                    owner: id,
                    is_static: m.is_static,
                    is_sync: m.is_sync,
                    is_ctor: m.is_ctor,
                    ret,
                    num_params: m.params.len(),
                    locals,
                    body: Block::default(),
                    span: m.span,
                });
                if m.is_ctor {
                    self.prog.classes[id.index()].ctor = Some(mid);
                } else {
                    self.prog.classes[id.index()].own_methods.push(mid);
                }
            }
        }
        if !self.errors.is_empty() {
            return;
        }
        self.build_inherited_tables();
    }

    /// Computes `all_fields` and `vtable` in topological (parent-first)
    /// order, checking field shadowing and override signatures.
    fn build_inherited_tables(&mut self) {
        let order = self.topo_order();
        for id in order {
            let parent = self.prog.class(id).parent;
            let (mut all_fields, mut vtable) = match parent {
                Some(p) => (
                    self.prog.class(p).all_fields.clone(),
                    self.prog.class(p).vtable.clone(),
                ),
                None => (Vec::new(), HashMap::new()),
            };
            for &f in &self.prog.class(id).own_fields.clone() {
                let fname = self.prog.field(f).name.clone();
                if let Some(&shadowed) = all_fields
                    .iter()
                    .find(|&&g| self.prog.field(g).name == fname)
                {
                    let span = self.prog.field(f).span;
                    self.error(
                        format!(
                            "field `{}` shadows inherited field of class `{}`",
                            fname,
                            self.prog.class(self.prog.field(shadowed).owner).name
                        ),
                        span,
                    );
                    continue;
                }
                all_fields.push(f);
            }
            for &m in &self.prog.class(id).own_methods.clone() {
                let mname = self.prog.method(m).name.clone();
                if let Some(&overridden) = vtable.get(&mname) {
                    let ov = self.prog.method(overridden);
                    let me = self.prog.method(m);
                    let sig_ok = ov.num_params == me.num_params
                        && ov.ret == me.ret
                        && ov.is_static == me.is_static
                        && ov
                            .param_tys()
                            .iter()
                            .zip(me.param_tys().iter())
                            .all(|(a, b)| a == b);
                    if !sig_ok {
                        let span = me.span;
                        self.error(
                            format!(
                                "method `{}` overrides `{}` with an incompatible signature",
                                mname,
                                self.prog.qualified_name(overridden)
                            ),
                            span,
                        );
                    }
                }
                vtable.insert(mname, m);
            }
            let class = &mut self.prog.classes[id.index()];
            class.all_fields = all_fields;
            class.vtable = vtable;
        }
    }

    /// Parent-first class ordering (cycles already broken in pass 1).
    fn topo_order(&self) -> Vec<ClassId> {
        let n = self.prog.classes.len();
        let mut order = Vec::with_capacity(n);
        let mut done = vec![false; n];
        fn visit(prog: &Program, id: ClassId, done: &mut [bool], order: &mut Vec<ClassId>) {
            if done[id.index()] {
                return;
            }
            done[id.index()] = true;
            if let Some(p) = prog.class(id).parent {
                visit(prog, p, done, order);
            }
            order.push(id);
        }
        for i in 0..n {
            visit(&self.prog, ClassId(i as u32), &mut done, &mut order);
        }
        order
    }

    // ------------------------------------------------------------------
    // Pass 3: bodies
    // ------------------------------------------------------------------

    fn check_bodies(&mut self, ast: &ast::Program) {
        // Field initializers.
        for decl in &ast.classes {
            let cid = self.prog.class_names[&decl.name.name];
            for f in &decl.fields {
                let Some(fid) = self.prog.field_by_name(cid, &f.name.name) else {
                    continue;
                };
                if self.prog.field(fid).owner != cid {
                    continue;
                }
                if let Some(init) = &f.init {
                    let mut body = BodyCx::for_field_init(self, cid);
                    let (expr, ty) = body.expr(init);
                    let want = body.cx.prog.field(fid).ty.clone();
                    body.require_assignable(&ty, &want, init.span());
                    self.prog.fields[fid.index()].init = Some(expr);
                }
            }
        }
        // Method bodies.
        for decl in &ast.classes {
            let cid = self.prog.class_names[&decl.name.name];
            for m in &decl.methods {
                let mid = if m.is_ctor {
                    self.prog.class(cid).ctor
                } else {
                    self.prog
                        .class(cid)
                        .own_methods
                        .iter()
                        .copied()
                        .find(|&om| self.prog.method(om).name == m.name.name)
                };
                let Some(mid) = mid else { continue };
                let mut body = BodyCx::for_method(self, mid);
                let blk = body.block(&m.body);
                let locals = std::mem::take(&mut body.locals);
                self.prog.methods[mid.index()].body = blk;
                self.prog.methods[mid.index()].locals = locals;
            }
        }
        // Tests.
        for t in &ast.tests {
            if self
                .prog
                .tests
                .iter()
                .any(|existing| existing.name == t.name.name)
            {
                self.error(format!("duplicate test `{}`", t.name.name), t.name.span);
                continue;
            }
            let id = TestId(self.prog.tests.len() as u32);
            let mut body = BodyCx::for_test(self);
            let blk = body.block(&t.body);
            let locals = std::mem::take(&mut body.locals);
            self.prog.tests.push(Test {
                id,
                name: t.name.name.clone(),
                locals,
                body: blk,
                span: t.span,
            });
        }
    }
}

/// Context for checking one body (method, test, or field initializer).
struct BodyCx<'a> {
    cx: &'a mut Checker,
    /// All local slots seen so far.
    locals: Vec<Local>,
    /// Lexical scopes: name → slot. Innermost last.
    scopes: Vec<HashMap<String, LocalId>>,
    /// Return type expected (`None` inside tests / field inits).
    ret: Option<Ty>,
    /// Whether `this` (slot 0) is available.
    has_this: bool,
}

impl<'a> BodyCx<'a> {
    fn for_method(cx: &'a mut Checker, mid: MethodId) -> Self {
        let m = cx.prog.method(mid);
        let locals = m.locals.clone();
        let ret = Some(m.ret.clone());
        let has_this = !m.is_static;
        let mut scope = HashMap::new();
        for (i, l) in locals.iter().enumerate() {
            scope.insert(l.name.clone(), LocalId(i as u32));
        }
        BodyCx {
            cx,
            locals,
            scopes: vec![scope],
            ret,
            has_this,
        }
    }

    fn for_test(cx: &'a mut Checker) -> Self {
        BodyCx {
            cx,
            locals: Vec::new(),
            scopes: vec![HashMap::new()],
            ret: None,
            has_this: false,
        }
    }

    fn for_field_init(cx: &'a mut Checker, owner: ClassId) -> Self {
        BodyCx {
            cx,
            locals: vec![Local {
                name: "this".into(),
                ty: Ty::Class(owner),
            }],
            scopes: vec![HashMap::from([("this".to_string(), LocalId(0))])],
            ret: None,
            has_this: true,
        }
    }

    fn lookup(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &str, ty: Ty, span: Span) -> LocalId {
        if self
            .scopes
            .last()
            .expect("scope stack never empty")
            .contains_key(name)
        {
            self.cx
                .error(format!("`{name}` is already defined in this scope"), span);
        }
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Local {
            name: name.to_string(),
            ty,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), id);
        id
    }

    fn require_assignable(&mut self, found: &Ty, want: &Ty, span: Span) {
        if !self.cx.prog.is_subtype(found, want) {
            let found = found.display(&self.cx.prog).to_string();
            let want = want.display(&self.cx.prog).to_string();
            self.cx
                .error(format!("expected `{want}`, found `{found}`"), span);
        }
    }

    fn block(&mut self, blk: &ast::Block) -> Block {
        self.scopes.push(HashMap::new());
        let stmts = blk.stmts.iter().map(|s| self.stmt(s)).collect();
        self.scopes.pop();
        Block { stmts }
    }

    fn stmt(&mut self, stmt: &ast::Stmt) -> Stmt {
        match stmt {
            ast::Stmt::Let { name, init, span } => {
                let (init, ty) = self.expr(init);
                if ty == Ty::Void {
                    self.cx
                        .error("cannot bind a variable to a `void` value", *span);
                }
                let local = self.declare(&name.name, ty, name.span);
                Stmt::Let {
                    local,
                    init,
                    span: *span,
                }
            }
            ast::Stmt::Assign {
                target,
                value,
                span,
            } => {
                let (place, want) = self.place(target);
                let (value, found) = self.expr(value);
                self.require_assignable(&found, &want, *span);
                Stmt::Assign {
                    place,
                    value,
                    span: *span,
                }
            }
            ast::Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                let (cond, cty) = self.expr(cond);
                self.require_assignable(&cty, &Ty::Bool, cond.span());
                Stmt::If {
                    cond,
                    then_blk: self.block(then_blk),
                    else_blk: else_blk.as_ref().map(|b| self.block(b)),
                    span: *span,
                }
            }
            ast::Stmt::While { cond, body, span } => {
                let (cond, cty) = self.expr(cond);
                self.require_assignable(&cty, &Ty::Bool, cond.span());
                Stmt::While {
                    cond,
                    body: self.block(body),
                    span: *span,
                }
            }
            ast::Stmt::Sync { lock, body, span } => {
                let (lock, lty) = self.expr(lock);
                if !lty.is_reference() {
                    let lty = lty.display(&self.cx.prog).to_string();
                    self.cx.error(
                        format!("`sync` requires a reference type, found `{lty}`"),
                        *span,
                    );
                }
                Stmt::Sync {
                    lock,
                    body: self.block(body),
                    span: *span,
                }
            }
            ast::Stmt::Return { value, span } => {
                let ret = self.ret.clone();
                match (&ret, value) {
                    (None, _) if value.is_some() => {
                        self.cx.error("cannot `return` a value here", *span);
                        Stmt::Return {
                            value: None,
                            span: *span,
                        }
                    }
                    (_, None) => {
                        if let Some(r) = &ret {
                            if *r != Ty::Void {
                                self.cx
                                    .error("missing return value in non-void method", *span);
                            }
                        }
                        Stmt::Return {
                            value: None,
                            span: *span,
                        }
                    }
                    (Some(want), Some(v)) => {
                        let (v, found) = self.expr(v);
                        if *want == Ty::Void {
                            self.cx
                                .error("cannot return a value from a `void` method", *span);
                        } else {
                            self.require_assignable(&found, &want.clone(), v.span());
                        }
                        Stmt::Return {
                            value: Some(v),
                            span: *span,
                        }
                    }
                    (None, Some(_)) => unreachable!("covered above"),
                }
            }
            ast::Stmt::Assert { cond, span } => {
                let (cond, cty) = self.expr(cond);
                self.require_assignable(&cty, &Ty::Bool, cond.span());
                Stmt::Assert { cond, span: *span }
            }
            ast::Stmt::Expr(e) => {
                if !matches!(
                    e,
                    ast::Expr::Call { .. } | ast::Expr::BuiltinCall { .. } | ast::Expr::New { .. }
                ) {
                    self.cx.error(
                        "only calls and allocations can be used as statements",
                        e.span(),
                    );
                }
                let (e, _) = self.expr(e);
                Stmt::Expr(e)
            }
        }
    }

    fn place(&mut self, target: &ast::Expr) -> (Place, Ty) {
        match target {
            ast::Expr::Name(id) => match self.lookup(&id.name) {
                Some(local) => {
                    let ty = self.locals[local.index()].ty.clone();
                    (Place::Local(local), ty)
                }
                None => {
                    self.cx
                        .error(format!("unknown variable `{}`", id.name), id.span);
                    (
                        Place::Local(self.declare(&id.name, Ty::Int, id.span)),
                        Ty::Int,
                    )
                }
            },
            ast::Expr::This(span) => {
                self.cx.error("cannot assign to `this`", *span);
                (Place::Local(LocalId(0)), Ty::Int)
            }
            ast::Expr::Field { obj, field, span } => {
                let (obj, oty) = self.expr(obj);
                match oty {
                    Ty::Class(c) => match self.cx.prog.field_by_name(c, &field.name) {
                        Some(f) => {
                            let fty = self.cx.prog.field(f).ty.clone();
                            (Place::Field { obj, field: f }, fty)
                        }
                        None => {
                            self.cx.error(
                                format!(
                                    "class `{}` has no field `{}`",
                                    self.cx.prog.class(c).name,
                                    field.name
                                ),
                                field.span,
                            );
                            (Place::Local(LocalId(0)), Ty::Int)
                        }
                    },
                    Ty::Array(_) if field.name == "length" => {
                        self.cx.error("array `length` is read-only", *span);
                        (Place::Local(LocalId(0)), Ty::Int)
                    }
                    other => {
                        let other = other.display(&self.cx.prog).to_string();
                        self.cx
                            .error(format!("field access on non-object type `{other}`"), *span);
                        (Place::Local(LocalId(0)), Ty::Int)
                    }
                }
            }
            ast::Expr::Index { arr, idx, span } => {
                let (arr, aty) = self.expr(arr);
                let (idx, ity) = self.expr(idx);
                self.require_assignable(&ity, &Ty::Int, idx.span());
                match aty {
                    Ty::Array(elem) => (Place::Index { arr, idx }, *elem),
                    other => {
                        let other = other.display(&self.cx.prog).to_string();
                        self.cx
                            .error(format!("indexing non-array type `{other}`"), *span);
                        (Place::Local(LocalId(0)), Ty::Int)
                    }
                }
            }
            other => {
                self.cx.error("invalid assignment target", other.span());
                (Place::Local(LocalId(0)), Ty::Int)
            }
        }
    }

    /// Checks an expression and returns its lowering plus its static type.
    fn expr(&mut self, e: &ast::Expr) -> (Expr, Ty) {
        match e {
            ast::Expr::Int(n, s) => (Expr::Int(*n, *s), Ty::Int),
            ast::Expr::Bool(b, s) => (Expr::Bool(*b, *s), Ty::Bool),
            ast::Expr::Null(s) => (Expr::Null(*s), Ty::Null),
            ast::Expr::This(s) => {
                if !self.has_this {
                    self.cx
                        .error("`this` is not available in a static context", *s);
                    return (Expr::Int(0, *s), Ty::Int);
                }
                let ty = self.locals[0].ty.clone();
                (Expr::Local(LocalId(0), *s), ty)
            }
            ast::Expr::Name(id) => match self.lookup(&id.name) {
                Some(local) => {
                    let ty = self.locals[local.index()].ty.clone();
                    (Expr::Local(local, id.span), ty)
                }
                None => {
                    self.cx
                        .error(format!("unknown variable `{}`", id.name), id.span);
                    (Expr::Int(0, id.span), Ty::Int)
                }
            },
            ast::Expr::Field { obj, field, span } => {
                // Class-qualified static access is only legal in call
                // position, handled under `Call` below.
                let (obj, oty) = self.expr(obj);
                match oty {
                    Ty::Class(c) => match self.cx.prog.field_by_name(c, &field.name) {
                        Some(f) => {
                            let ty = self.cx.prog.field(f).ty.clone();
                            (
                                Expr::GetField {
                                    obj: Box::new(obj),
                                    field: f,
                                    span: *span,
                                },
                                ty,
                            )
                        }
                        None => {
                            self.cx.error(
                                format!(
                                    "class `{}` has no field `{}`",
                                    self.cx.prog.class(c).name,
                                    field.name
                                ),
                                field.span,
                            );
                            (Expr::Int(0, *span), Ty::Int)
                        }
                    },
                    Ty::Array(_) if field.name == "length" => (
                        Expr::ArrayLen {
                            arr: Box::new(obj),
                            span: *span,
                        },
                        Ty::Int,
                    ),
                    other => {
                        let other = other.display(&self.cx.prog).to_string();
                        self.cx
                            .error(format!("field access on non-object type `{other}`"), *span);
                        (Expr::Int(0, *span), Ty::Int)
                    }
                }
            }
            ast::Expr::Index { arr, idx, span } => {
                let (arr, aty) = self.expr(arr);
                let (idx, ity) = self.expr(idx);
                self.require_assignable(&ity, &Ty::Int, idx.span());
                match aty {
                    Ty::Array(elem) => (
                        Expr::Index {
                            arr: Box::new(arr),
                            idx: Box::new(idx),
                            span: *span,
                        },
                        *elem,
                    ),
                    other => {
                        let other = other.display(&self.cx.prog).to_string();
                        self.cx
                            .error(format!("indexing non-array type `{other}`"), *span);
                        (Expr::Int(0, *span), Ty::Int)
                    }
                }
            }
            ast::Expr::Call {
                recv,
                method,
                args,
                span,
            } => self.call(recv, method, args, *span),
            ast::Expr::BuiltinCall { name, args, span } => {
                if name.name == "rand" {
                    if !args.is_empty() {
                        self.cx.error("`rand()` takes no arguments", *span);
                    }
                    (Expr::Rand(*span), Ty::Int)
                } else {
                    self.cx.error(
                        format!(
                            "unknown function `{}` (only `rand()` and method calls exist)",
                            name.name
                        ),
                        name.span,
                    );
                    (Expr::Int(0, *span), Ty::Int)
                }
            }
            ast::Expr::New { class, args, span } => {
                let Some(&cid) = self.cx.prog.class_names.get(&class.name) else {
                    self.cx
                        .error(format!("unknown class `{}`", class.name), class.span);
                    return (Expr::Int(0, *span), Ty::Int);
                };
                let ctor = self.cx.prog.ctor_for(cid);
                let args = self.check_args_against(ctor, args, *span, &class.name);
                (
                    Expr::New {
                        class: cid,
                        args,
                        ctor,
                        span: *span,
                    },
                    Ty::Class(cid),
                )
            }
            ast::Expr::NewArray { elem, len, span } => {
                let elem = self.cx.resolve_ty(elem);
                let (len, lty) = self.expr(len);
                self.require_assignable(&lty, &Ty::Int, len.span());
                (
                    Expr::NewArray {
                        elem: elem.clone(),
                        len: Box::new(len),
                        span: *span,
                    },
                    Ty::Array(Box::new(elem)),
                )
            }
            ast::Expr::Binary { op, lhs, rhs, span } => {
                let (lhs, lt) = self.expr(lhs);
                let (rhs, rt) = self.expr(rhs);
                let ty = self.binary_ty(*op, &lt, &rt, *span);
                (
                    Expr::Binary {
                        op: *op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        span: *span,
                    },
                    ty,
                )
            }
            ast::Expr::Unary { op, operand, span } => {
                let (operand, ot) = self.expr(operand);
                let want = match op {
                    UnOp::Not => Ty::Bool,
                    UnOp::Neg => Ty::Int,
                };
                self.require_assignable(&ot, &want, *span);
                (
                    Expr::Unary {
                        op: *op,
                        operand: Box::new(operand),
                        span: *span,
                    },
                    want,
                )
            }
        }
    }

    fn binary_ty(&mut self, op: BinOp, lt: &Ty, rt: &Ty, span: Span) -> Ty {
        use BinOp::*;
        match op {
            Add | Sub | Mul | Div | Rem => {
                self.require_assignable(lt, &Ty::Int, span);
                self.require_assignable(rt, &Ty::Int, span);
                Ty::Int
            }
            Lt | Le | Gt | Ge => {
                self.require_assignable(lt, &Ty::Int, span);
                self.require_assignable(rt, &Ty::Int, span);
                Ty::Bool
            }
            And | Or => {
                self.require_assignable(lt, &Ty::Bool, span);
                self.require_assignable(rt, &Ty::Bool, span);
                Ty::Bool
            }
            Eq | Ne => {
                let ok =
                    self.cx.prog.tys_compatible(lt, rt) || (lt.is_reference() && rt.is_reference());
                if !ok {
                    let l = lt.display(&self.cx.prog).to_string();
                    let r = rt.display(&self.cx.prog).to_string();
                    self.cx
                        .error(format!("cannot compare `{l}` with `{r}`"), span);
                }
                Ty::Bool
            }
        }
    }

    fn call(
        &mut self,
        recv: &ast::Expr,
        method: &ast::Ident,
        args: &[ast::Expr],
        span: Span,
    ) -> (Expr, Ty) {
        // `C.m(args)` — static call when `C` names a class and is not a local.
        if let ast::Expr::Name(id) = recv {
            if self.lookup(&id.name).is_none() {
                if let Some(&cid) = self.cx.prog.class_names.get(&id.name) {
                    return self.static_call(cid, method, args, span);
                }
                self.cx
                    .error(format!("unknown variable `{}`", id.name), id.span);
                return (Expr::Int(0, span), Ty::Int);
            }
        }
        let (recv, rty) = self.expr(recv);
        let Ty::Class(c) = rty else {
            let rty = rty.display(&self.cx.prog).to_string();
            self.cx
                .error(format!("method call on non-object type `{rty}`"), span);
            return (Expr::Int(0, span), Ty::Int);
        };
        let Some(mid) = self.cx.prog.dispatch(c, &method.name) else {
            self.cx.error(
                format!(
                    "class `{}` has no method `{}`",
                    self.cx.prog.class(c).name,
                    method.name
                ),
                method.span,
            );
            return (Expr::Int(0, span), Ty::Int);
        };
        if self.cx.prog.method(mid).is_static {
            self.cx.error(
                format!(
                    "`{}` is static; call it as `{}(…)`",
                    method.name,
                    self.cx.prog.qualified_name(mid)
                ),
                method.span,
            );
        }
        let ret = self.cx.prog.method(mid).ret.clone();
        let args = self.check_args_against(Some(mid), args, span, &method.name);
        (
            Expr::Call {
                recv: Box::new(recv),
                method: mid,
                args,
                span,
            },
            ret,
        )
    }

    fn static_call(
        &mut self,
        cid: ClassId,
        method: &ast::Ident,
        args: &[ast::Expr],
        span: Span,
    ) -> (Expr, Ty) {
        let target = self
            .cx
            .prog
            .class(cid)
            .own_methods
            .iter()
            .copied()
            .find(|&m| self.cx.prog.method(m).name == method.name);
        let Some(mid) = target else {
            self.cx.error(
                format!(
                    "class `{}` has no static method `{}`",
                    self.cx.prog.class(cid).name,
                    method.name
                ),
                method.span,
            );
            return (Expr::Int(0, span), Ty::Int);
        };
        if !self.cx.prog.method(mid).is_static {
            self.cx.error(
                format!(
                    "`{}` is an instance method; call it on an object",
                    self.cx.prog.qualified_name(mid)
                ),
                method.span,
            );
        }
        let ret = self.cx.prog.method(mid).ret.clone();
        let args = self.check_args_against(Some(mid), args, span, &method.name);
        (
            Expr::StaticCall {
                method: mid,
                args,
                span,
            },
            ret,
        )
    }

    fn check_args_against(
        &mut self,
        target: Option<MethodId>,
        args: &[ast::Expr],
        span: Span,
        name: &str,
    ) -> Vec<Expr> {
        let want: Vec<Ty> = match target {
            Some(m) => self
                .cx
                .prog
                .method(m)
                .param_tys()
                .into_iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        if args.len() != want.len() {
            self.cx.error(
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    want.len(),
                    args.len()
                ),
                span,
            );
        }
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let (a, ty) = self.expr(a);
            if let Some(w) = want.get(i) {
                self.require_assignable(&ty, &w.clone(), a.span());
            }
            out.push(a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile(src: &str) -> Program {
        let ast = parse(src).unwrap_or_else(|e| panic!("parse failed:\n{e}"));
        check(&ast).unwrap_or_else(|e| panic!("check failed:\n{e}"))
    }

    fn compile_err(src: &str) -> String {
        let ast = parse(src).expect("parse should succeed");
        check(&ast).expect_err("check should fail").to_string()
    }

    #[test]
    fn checks_counter_lib() {
        let p = compile(
            r#"
            class Counter {
                int count;
                void inc() { this.count = this.count + 1; }
            }
            class Lib {
                Counter c;
                sync void update() { this.c.inc(); }
                sync void set(Counter x) { this.c = x; }
            }
            test t1 {
                var r = new Counter();
                var l = new Lib();
                l.set(r);
                l.update();
            }
        "#,
        );
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.tests.len(), 1);
        let lib = p.class_by_name("Lib").unwrap();
        assert!(p.dispatch(lib, "update").is_some());
        assert!(p.dispatch(lib, "missing").is_none());
    }

    #[test]
    fn inheritance_and_vtable_override() {
        let p = compile(
            r#"
            class Base {
                int v;
                int get() { return this.v; }
            }
            class Derived extends Base {
                int get() { return this.v + 1; }
                int both() { return this.get(); }
            }
        "#,
        );
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        let base_get = p.dispatch(base, "get").unwrap();
        let derived_get = p.dispatch(derived, "get").unwrap();
        assert_ne!(base_get, derived_get);
        assert_eq!(p.method(derived_get).owner, derived);
        // Inherited field visible.
        assert!(p.field_by_name(derived, "v").is_some());
        assert_eq!(p.fields_of(derived).len(), 1);
    }

    #[test]
    fn ctor_resolution() {
        let p = compile(
            r#"
            class Box {
                int v;
                init(int v) { this.v = v; }
            }
            test t { var b = new Box(42); }
        "#,
        );
        let b = p.class_by_name("Box").unwrap();
        assert!(p.class(b).ctor.is_some());
    }

    #[test]
    fn static_factory_call() {
        let p = compile(
            r#"
            class Queues {
                static Queues create() { return new Queues(); }
            }
            test t { var q = Queues.create(); }
        "#,
        );
        let Stmt::Let { init, .. } = &p.tests[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(init, Expr::StaticCall { .. }));
    }

    #[test]
    fn local_shadows_class_name() {
        // A local named like a class is preferred for `x.m()`.
        let p = compile(
            r#"
            class Helper { void go() { return; } }
            test t {
                var Helper = new Helper();
                Helper.go();
            }
        "#,
        );
        let Stmt::Expr(Expr::Call { .. }) = &p.tests[0].body.stmts[1] else {
            panic!("expected instance call");
        };
    }

    #[test]
    fn array_length_lowering() {
        let p = compile(
            r#"
            class C {
                int len(int[] a) { return a.length; }
            }
        "#,
        );
        let m = &p.methods[0];
        let Stmt::Return { value: Some(v), .. } = &m.body.stmts[0] else {
            panic!()
        };
        assert!(matches!(v, Expr::ArrayLen { .. }));
    }

    #[test]
    fn err_unknown_variable() {
        let msg = compile_err("test t { x = 1; }");
        assert!(msg.contains("unknown variable `x`"), "{msg}");
    }

    #[test]
    fn err_type_mismatch_assignment() {
        let msg = compile_err(
            r#"
            class A { int x; }
            test t { var a = new A(); a.x = true; }
        "#,
        );
        assert!(msg.contains("expected `int`, found `bool`"), "{msg}");
    }

    #[test]
    fn err_subtype_violation() {
        let msg = compile_err(
            r#"
            class A { }
            class B extends A { }
            class H { B b; void set(A a) { this.b = a; } }
        "#,
        );
        assert!(msg.contains("expected `B`, found `A`"), "{msg}");
    }

    #[test]
    fn ok_upcast_assignment() {
        compile(
            r#"
            class A { }
            class B extends A { }
            class H { A a; void set(B b) { this.a = b; } }
        "#,
        );
    }

    #[test]
    fn err_this_in_test() {
        let msg = compile_err("test t { var x = this; }");
        assert!(msg.contains("static context"), "{msg}");
    }

    #[test]
    fn err_this_in_static() {
        let msg = compile_err("class C { static void m() { var x = this; } }");
        assert!(msg.contains("static context"), "{msg}");
    }

    #[test]
    fn err_duplicate_class() {
        let msg = compile_err("class A { } class A { }");
        assert!(msg.contains("duplicate class"), "{msg}");
    }

    #[test]
    fn err_inheritance_cycle() {
        let msg = compile_err("class A extends B { } class B extends A { }");
        assert!(msg.contains("cycle"), "{msg}");
    }

    /// `L{depth-1}` sits `depth` classes deep, each with one method.
    fn chain(depth: usize) -> String {
        let mut src = String::from("class L0 { int m0() { return 0; } }\n");
        for i in 1..depth {
            src += &format!(
                "class L{i} extends L{} {{ int m{i}() {{ return {i}; }} }}\n",
                i - 1
            );
        }
        src
    }

    #[test]
    fn extends_chains_are_bounded() {
        compile(&chain(MAX_HIERARCHY_DEPTH));
        let msg = compile_err(&chain(MAX_HIERARCHY_DEPTH + 1));
        assert!(msg.contains("class `L64` is 65 classes deep"), "{msg}");
        let msg = compile_err(&chain(4_000));
        assert_eq!(msg.matches("classes deep").count(), 1, "{msg}");
    }

    #[test]
    fn err_self_extends() {
        let msg = compile_err("class A extends A { }");
        assert!(msg.contains("extends itself"), "{msg}");
    }

    #[test]
    fn err_field_shadowing() {
        let msg = compile_err(
            r#"
            class A { int x; }
            class B extends A { int x; }
        "#,
        );
        assert!(msg.contains("shadows"), "{msg}");
    }

    #[test]
    fn err_override_signature() {
        let msg = compile_err(
            r#"
            class A { int m() { return 1; } }
            class B extends A { bool m() { return true; } }
        "#,
        );
        assert!(msg.contains("incompatible signature"), "{msg}");
    }

    #[test]
    fn err_sync_on_int() {
        let msg = compile_err("class C { void m(int x) { sync (x) { } } }");
        assert!(msg.contains("reference type"), "{msg}");
    }

    #[test]
    fn err_arity() {
        let msg = compile_err(
            r#"
            class C { void m(int a, int b) { } }
            test t { var c = new C(); c.m(1); }
        "#,
        );
        assert!(msg.contains("expects 2 argument(s), got 1"), "{msg}");
    }

    #[test]
    fn err_return_value_from_void() {
        let msg = compile_err("class C { void m() { return 1; } }");
        assert!(msg.contains("void"), "{msg}");
    }

    #[test]
    fn err_call_on_int() {
        let msg = compile_err("test t { var x = 1; x.m(); }");
        assert!(msg.contains("non-object"), "{msg}");
    }

    #[test]
    fn err_duplicate_local() {
        let msg = compile_err("test t { var x = 1; var x = 2; }");
        assert!(msg.contains("already defined"), "{msg}");
    }

    #[test]
    fn nested_scope_shadowing_ok() {
        compile("test t { var x = 1; if (true) { var x = 2; } }");
    }

    #[test]
    fn null_assignable_to_reference() {
        compile(
            r#"
            class A { A next; void clear() { this.next = null; } }
        "#,
        );
    }

    #[test]
    fn err_null_assignable_to_int() {
        let msg = compile_err("class A { int x; void m() { this.x = null; } }");
        assert!(msg.contains("found `null`"), "{msg}");
    }

    #[test]
    fn field_initializer_checked() {
        let p = compile("class A { int x = 1 + 2; A self = null; }");
        let a = p.class_by_name("A").unwrap();
        let x = p.field_by_name(a, "x").unwrap();
        assert!(p.field(x).init.is_some());
    }

    #[test]
    fn err_field_initializer_type() {
        let msg = compile_err("class A { int x = true; }");
        assert!(msg.contains("expected `int`"), "{msg}");
    }

    #[test]
    fn err_void_let() {
        let msg = compile_err(
            r#"
            class C { void m() { } }
            test t { var c = new C(); var x = c.m(); }
        "#,
        );
        assert!(msg.contains("void"), "{msg}");
    }

    #[test]
    fn reference_equality_allowed_across_hierarchy() {
        compile(
            r#"
            class A { }
            class B { }
            test t {
                var a = new A();
                var b = new B();
                assert a != null;
                var same = a == null || b == null;
            }
        "#,
        );
    }

    #[test]
    fn err_compare_int_with_bool() {
        let msg = compile_err("test t { var x = 1 == true; }");
        assert!(msg.contains("cannot compare"), "{msg}");
    }

    #[test]
    fn rand_builtin() {
        let p = compile("class C { int m() { return rand(); } }");
        let Stmt::Return { value: Some(v), .. } = &p.methods[0].body.stmts[0] else {
            panic!()
        };
        assert!(matches!(v, Expr::Rand(_)));
    }

    #[test]
    fn err_unknown_builtin() {
        let msg = compile_err("test t { foo(); }");
        assert!(msg.contains("unknown function `foo`"), "{msg}");
    }

    #[test]
    fn param_locals_layout() {
        let p = compile("class C { int m(int a, bool b) { return a; } }");
        let m = &p.methods[0];
        assert_eq!(m.locals[0].name, "this");
        assert_eq!(m.locals[1].name, "a");
        assert_eq!(m.locals[2].name, "b");
        assert_eq!(m.param_locals(), vec![LocalId(1), LocalId(2)]);
        assert_eq!(m.this_local(), Some(LocalId(0)));
    }

    #[test]
    fn static_method_has_no_this_slot() {
        let p = compile("class C { static int m(int a) { return a; } }");
        let m = &p.methods[0];
        assert_eq!(m.locals[0].name, "a");
        assert_eq!(m.param_locals(), vec![LocalId(0)]);
        assert_eq!(m.this_local(), None);
    }
}
