//! Resolved, typed intermediate representation (HIR).
//!
//! Produced by the type checker from the parsed [`crate::ast`]; consumed by
//! the VM (`narada-vm`) and by the trace analysis (`narada-core`). All names
//! are resolved to dense ids ([`ClassId`], [`MethodId`], [`FieldId`],
//! [`LocalId`]) backed by arenas in [`Program`].

use crate::ast::{BinOp, UnOp};
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index of this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a class in [`Program::classes`].
    ClassId,
    "c"
);
define_id!(
    /// Identifies a method in [`Program::methods`].
    MethodId,
    "m"
);
define_id!(
    /// Identifies a field in [`Program::fields`].
    FieldId,
    "f"
);
define_id!(
    /// Identifies a local slot within one method or test body.
    LocalId,
    "l"
);
define_id!(
    /// Identifies a sequential test in [`Program::tests`].
    TestId,
    "t"
);

/// A resolved MJ type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit integer.
    Int,
    /// Boolean.
    Bool,
    /// No value (method returns only).
    Void,
    /// The type of `null` before it is unified with a reference type.
    Null,
    /// An instance of a class (or any subclass).
    Class(ClassId),
    /// An array with the given element type.
    Array(Box<Ty>),
}

impl Ty {
    /// True for types whose values are heap references (`Class`, `Array`,
    /// `Null`).
    pub fn is_reference(&self) -> bool {
        matches!(self, Ty::Class(_) | Ty::Array(_) | Ty::Null)
    }

    /// Renders the type using `prog` for class names.
    pub fn display<'p>(&'p self, prog: &'p Program) -> TyDisplay<'p> {
        TyDisplay { ty: self, prog }
    }
}

/// Helper returned by [`Ty::display`].
#[derive(Debug)]
pub struct TyDisplay<'p> {
    ty: &'p Ty,
    prog: &'p Program,
}

impl fmt::Display for TyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ty {
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
            Ty::Void => write!(f, "void"),
            Ty::Null => write!(f, "null"),
            Ty::Class(c) => write!(f, "{}", self.prog.class(*c).name),
            Ty::Array(e) => write!(f, "{}[]", e.display(self.prog)),
        }
    }
}

/// A resolved class.
#[derive(Debug, Clone)]
pub struct Class {
    /// This class's id.
    pub id: ClassId,
    /// Class name.
    pub name: String,
    /// Superclass, if any.
    pub parent: Option<ClassId>,
    /// Fields declared directly in this class.
    pub own_fields: Vec<FieldId>,
    /// All fields including inherited ones, supertype-first.
    pub all_fields: Vec<FieldId>,
    /// Methods declared directly in this class (excluding the constructor).
    pub own_methods: Vec<MethodId>,
    /// Dynamic-dispatch table: method name → most-derived implementation.
    pub vtable: HashMap<String, MethodId>,
    /// Constructor, if declared.
    pub ctor: Option<MethodId>,
    /// Source span of the declaration.
    pub span: Span,
}

/// A resolved field.
#[derive(Debug, Clone)]
pub struct Field {
    /// This field's id.
    pub id: FieldId,
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Declaring class.
    pub owner: ClassId,
    /// Optional initializer, evaluated at allocation with `this` in scope.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// A local variable slot (includes `this` and parameters).
#[derive(Debug, Clone)]
pub struct Local {
    /// Source-level name (`this` for the receiver slot).
    pub name: String,
    /// Static type.
    pub ty: Ty,
}

/// A resolved method or constructor.
#[derive(Debug, Clone)]
pub struct Method {
    /// This method's id.
    pub id: MethodId,
    /// Method name (`init` for constructors).
    pub name: String,
    /// Declaring class.
    pub owner: ClassId,
    /// `static` modifier.
    pub is_static: bool,
    /// `sync` modifier — the body runs holding the receiver's monitor.
    pub is_sync: bool,
    /// True for constructors.
    pub is_ctor: bool,
    /// Return type (`Ty::Void` when none).
    pub ret: Ty,
    /// Number of declared parameters (not counting `this`).
    pub num_params: usize,
    /// All local slots: slot 0 is `this` for instance methods, parameters
    /// follow, then `var`-introduced locals in declaration order.
    pub locals: Vec<Local>,
    /// The body.
    pub body: Block,
    /// Source span of the declaration.
    pub span: Span,
}

impl Method {
    /// Local slots holding the parameters, in order.
    pub fn param_locals(&self) -> Vec<LocalId> {
        let first = if self.is_static { 0 } else { 1 };
        (first..first + self.num_params)
            .map(|i| LocalId(i as u32))
            .collect()
    }

    /// The `this` slot, for instance methods.
    pub fn this_local(&self) -> Option<LocalId> {
        if self.is_static {
            None
        } else {
            Some(LocalId(0))
        }
    }

    /// Parameter types, in order.
    pub fn param_tys(&self) -> Vec<&Ty> {
        self.param_locals()
            .into_iter()
            .map(|l| &self.locals[l.index()].ty)
            .collect()
    }
}

/// A resolved sequential test.
#[derive(Debug, Clone)]
pub struct Test {
    /// This test's id.
    pub id: TestId,
    /// Test name.
    pub name: String,
    /// Local slots introduced in the body.
    pub locals: Vec<Local>,
    /// The body (client code).
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A statement block.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// An assignment target.
#[derive(Debug, Clone)]
pub enum Place {
    /// A local slot.
    Local(LocalId),
    /// `obj.field`
    Field {
        /// Object whose field is written.
        obj: Expr,
        /// The field.
        field: FieldId,
    },
    /// `arr[idx]`
    Index {
        /// The array.
        arr: Expr,
        /// The element index.
        idx: Expr,
    },
}

/// A resolved statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Initialize a fresh local slot.
    Let {
        /// Destination slot.
        local: LocalId,
        /// Initializer.
        init: Expr,
        /// Source span.
        span: Span,
    },
    /// Store into a place.
    Assign {
        /// Target place.
        place: Place,
        /// Value stored.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch.
        else_blk: Option<Block>,
        /// Source span.
        span: Span,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// Monitor-style critical section.
    Sync {
        /// Lock object expression.
        lock: Expr,
        /// Body run under the lock.
        body: Block,
        /// Source span.
        span: Span,
    },
    /// Return from the enclosing method.
    Return {
        /// Optional value.
        value: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// Assertion; failing aborts the executing thread.
    Assert {
        /// Condition.
        cond: Expr,
        /// Source span.
        span: Span,
    },
    /// Expression evaluated for effect.
    Expr(Expr),
}

/// A resolved expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// `null`
    Null(Span),
    /// Read a local slot (`this` is slot 0 of instance methods).
    Local(LocalId, Span),
    /// `obj.field`
    GetField {
        /// Object read from.
        obj: Box<Expr>,
        /// The field.
        field: FieldId,
        /// Source span.
        span: Span,
    },
    /// `arr[idx]`
    Index {
        /// The array.
        arr: Box<Expr>,
        /// The element index.
        idx: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `arr.length`
    ArrayLen {
        /// The array.
        arr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// `new C(args)`
    New {
        /// Allocated class.
        class: ClassId,
        /// Constructor arguments (empty when no constructor declared).
        args: Vec<Expr>,
        /// Constructor to run, if the class declares one.
        ctor: Option<MethodId>,
        /// Source span.
        span: Span,
    },
    /// `new T[len]`
    NewArray {
        /// Element type.
        elem: Ty,
        /// Length.
        len: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Instance call; dispatched dynamically by name at run time starting
    /// from the statically resolved `method`.
    Call {
        /// Receiver.
        recv: Box<Expr>,
        /// Statically resolved target (dispatch re-resolves by name).
        method: MethodId,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// `C.m(args)` static call.
    StaticCall {
        /// The target method.
        method: MethodId,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// The `rand()` builtin: an int the client cannot control.
    Rand(Span),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// Source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Null(s)
            | Expr::Local(_, s)
            | Expr::Rand(s) => *s,
            Expr::GetField { span, .. }
            | Expr::Index { span, .. }
            | Expr::ArrayLen { span, .. }
            | Expr::New { span, .. }
            | Expr::NewArray { span, .. }
            | Expr::Call { span, .. }
            | Expr::StaticCall { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. } => *span,
        }
    }
}

/// A fully resolved program: the unit the VM executes and the analysis reads.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All classes, indexed by [`ClassId`].
    pub classes: Vec<Class>,
    /// All methods, indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// All fields, indexed by [`FieldId`].
    pub fields: Vec<Field>,
    /// All sequential tests, indexed by [`TestId`].
    pub tests: Vec<Test>,
    /// Class lookup by name.
    pub class_names: HashMap<String, ClassId>,
    /// Slot of each field in the instances that carry it, indexed by
    /// [`FieldId`] (see [`Program::field_slot`]).
    field_slots: Vec<u32>,
    /// Dispatch slot of each method, indexed by [`MethodId`] (see
    /// [`Program::dispatch_target`]).
    method_slots: Vec<DispatchSlot>,
    /// Where each class's row of `slot_targets` starts, and
    /// how long it is, indexed by [`ClassId`].
    slot_rows: Vec<(u32, u32)>,
    /// Every class's implementation per dispatch slot, beside the method
    /// that opened the slot: one row per class, its parent's slots first,
    /// one entry per vtable entry.
    slot_targets: Vec<(MethodId, MethodId)>,
}

/// Where a method sits in the dispatch rows: the slot of the method it
/// overrides, or a new one after its parent class's last, and the method
/// that opened that slot. Constructors have none ([`DispatchSlot::NONE`]).
#[derive(Debug, Clone, Copy)]
struct DispatchSlot {
    slot: u32,
    root: MethodId,
}

impl DispatchSlot {
    const NONE: DispatchSlot = DispatchSlot {
        slot: u32::MAX,
        root: MethodId(u32::MAX),
    };
}

impl Program {
    /// Builds the per-program resolution tables behind
    /// [`Program::field_slot`] and [`Program::dispatch_target`] from the
    /// finished `all_fields` and `vtable`s, visiting classes in `order`
    /// (parents first). The type checker calls it once per program; the
    /// VM then resolves fields and calls by indexing. Both tables grow
    /// with each class's own hierarchy, as its `all_fields` and `vtable`
    /// do, never with classes × methods.
    pub(crate) fn build_resolution_tables(&mut self, order: &[ClassId]) {
        let mut field_slots = vec![0; self.fields.len()];
        let mut method_slots = vec![DispatchSlot::NONE; self.methods.len()];
        let mut slot_rows = vec![(0, 0); self.classes.len()];
        let mut slot_targets = Vec::new();
        for &id in order {
            let class = self.class(id);
            for (slot, f) in class.all_fields.iter().enumerate() {
                field_slots[f.index()] = slot as u32;
            }
            let start = slot_targets.len();
            let parent = class.parent.map(|p| {
                let (from, len) = slot_rows[p.index()];
                slot_targets.extend_from_within(from as usize..(from + len) as usize);
                self.class(p)
            });
            for &m in &class.own_methods {
                let overridden = parent.and_then(|p| p.vtable.get(&self.method(m).name));
                let at = match overridden {
                    Some(o) => method_slots[o.index()],
                    None => {
                        slot_targets.push((m, m));
                        DispatchSlot {
                            slot: (slot_targets.len() - 1 - start) as u32,
                            root: m,
                        }
                    }
                };
                slot_targets[start + at.slot as usize] = (m, at.root);
                method_slots[m.index()] = at;
            }
            slot_rows[id.index()] = (start as u32, (slot_targets.len() - start) as u32);
        }
        self.field_slots = field_slots;
        self.method_slots = method_slots;
        self.slot_rows = slot_rows;
        self.slot_targets = slot_targets;
    }

    /// Slot of `field` in every instance that carries it. Layouts are
    /// parent-prefix (a class's `all_fields` extends its parent's), so
    /// the slot does not depend on the runtime class; whether an
    /// instance carries the field at all is the caller's check
    /// (`fields_of(class).get(slot) == Some(&field)`).
    #[inline]
    pub fn field_slot(&self, field: FieldId) -> usize {
        self.field_slots[field.index()] as usize
    }

    /// What a virtual call of `method` dispatches to on an instance of
    /// `class`: [`Program::dispatch`] of `method`'s name. When `class`
    /// descends from the class that opened `method`'s slot, which every
    /// well-typed call's receiver does, that is the entry at the slot in
    /// `class`'s row. Only a receiver outside that hierarchy (an ill-typed
    /// harness invocation) falls back to the name-keyed vtable.
    #[inline]
    pub fn dispatch_target(&self, class: ClassId, method: MethodId) -> Option<MethodId> {
        let DispatchSlot { slot, root } = self.method_slots[method.index()];
        let (start, len) = self.slot_rows[class.index()];
        if slot < len {
            let (target, opener) = self.slot_targets[(start + slot) as usize];
            if opener == root {
                return Some(target);
            }
        }
        self.dispatch(class, &self.method(method).name)
    }

    /// The class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids always come from this program).
    #[inline]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// The method with the given id.
    #[inline]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// The field with the given id.
    #[inline]
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// The test with the given id.
    pub fn test(&self, id: TestId) -> &Test {
        &self.tests[id.index()]
    }

    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_names.get(name).copied()
    }

    /// Looks up a test by name.
    pub fn test_by_name(&self, name: &str) -> Option<TestId> {
        self.tests.iter().find(|t| t.name == name).map(|t| t.id)
    }

    /// Resolves a method by name on `class` through the vtable (dynamic
    /// dispatch).
    pub fn dispatch(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.class(class).vtable.get(name).copied()
    }

    /// True iff `sub` is `sup` or a transitive subclass of it.
    pub fn is_subclass(&self, mut sub: ClassId, sup: ClassId) -> bool {
        loop {
            if sub == sup {
                return true;
            }
            match self.class(sub).parent {
                Some(p) => sub = p,
                None => return false,
            }
        }
    }

    /// Subtyping: reflexive; `Null <: ref`; class covariance via `extends`;
    /// arrays invariant.
    pub fn is_subtype(&self, sub: &Ty, sup: &Ty) -> bool {
        match (sub, sup) {
            (Ty::Null, t) if t.is_reference() => true,
            (Ty::Class(a), Ty::Class(b)) => self.is_subclass(*a, *b),
            (a, b) => a == b,
        }
    }

    /// True if two types are unifiable (either direction of subtyping);
    /// used by the `Q` rules of the context deriver to match setter types.
    pub fn tys_compatible(&self, a: &Ty, b: &Ty) -> bool {
        self.is_subtype(a, b) || self.is_subtype(b, a)
    }

    /// The constructor run by `new C(…)`: the class's own constructor, or
    /// the nearest ancestor's when it declares none (implicit super
    /// construction).
    pub fn ctor_for(&self, class: ClassId) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(ctor) = self.class(c).ctor {
                return Some(ctor);
            }
            cur = self.class(c).parent;
        }
        None
    }

    /// Finds a field by name on `class`, searching the inheritance chain.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for &f in &self.class(c).own_fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            cur = self.class(c).parent;
        }
        None
    }

    /// All fields of `class`, including inherited ones.
    #[inline]
    pub fn fields_of(&self, class: ClassId) -> &[FieldId] {
        &self.class(class).all_fields
    }

    /// Iterator over all non-constructor public entry points of `class`
    /// (its vtable), sorted by name for determinism.
    pub fn entry_points(&self, class: ClassId) -> Vec<MethodId> {
        let mut ms: Vec<MethodId> = self.class(class).vtable.values().copied().collect();
        ms.sort();
        ms
    }

    /// A stable, human-readable name like `SyncQueue.removeFirst`.
    pub fn qualified_name(&self, method: MethodId) -> String {
        let m = self.method(method);
        format!("{}.{}", self.class(m.owner).name, m.name)
    }

    /// A stable, human-readable field name like `SyncQueue.mutex`.
    pub fn qualified_field(&self, field: FieldId) -> String {
        let f = self.field(field);
        format!("{}.{}", self.class(f.owner).name, f.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        // class A { }  class B extends A { }
        let mut prog = Program::default();
        prog.classes.push(Class {
            id: ClassId(0),
            name: "A".into(),
            parent: None,
            own_fields: vec![],
            all_fields: vec![],
            own_methods: vec![],
            vtable: HashMap::new(),
            ctor: None,
            span: Span::DUMMY,
        });
        prog.classes.push(Class {
            id: ClassId(1),
            name: "B".into(),
            parent: Some(ClassId(0)),
            own_fields: vec![],
            all_fields: vec![],
            own_methods: vec![],
            vtable: HashMap::new(),
            ctor: None,
            span: Span::DUMMY,
        });
        prog.class_names.insert("A".into(), ClassId(0));
        prog.class_names.insert("B".into(), ClassId(1));
        prog
    }

    #[test]
    fn subclass_chain() {
        let p = tiny_program();
        assert!(p.is_subclass(ClassId(1), ClassId(0)));
        assert!(p.is_subclass(ClassId(0), ClassId(0)));
        assert!(!p.is_subclass(ClassId(0), ClassId(1)));
    }

    #[test]
    fn subtyping_null_and_arrays() {
        let p = tiny_program();
        assert!(p.is_subtype(&Ty::Null, &Ty::Class(ClassId(0))));
        assert!(p.is_subtype(&Ty::Null, &Ty::Array(Box::new(Ty::Int))));
        assert!(!p.is_subtype(&Ty::Null, &Ty::Int));
        // Arrays are invariant.
        let arr_b = Ty::Array(Box::new(Ty::Class(ClassId(1))));
        let arr_a = Ty::Array(Box::new(Ty::Class(ClassId(0))));
        assert!(!p.is_subtype(&arr_b, &arr_a));
        assert!(p.is_subtype(&arr_b, &arr_b));
    }

    #[test]
    fn tys_compatible_is_symmetric() {
        let p = tiny_program();
        let a = Ty::Class(ClassId(0));
        let b = Ty::Class(ClassId(1));
        assert!(p.tys_compatible(&a, &b));
        assert!(p.tys_compatible(&b, &a));
        assert!(!p.tys_compatible(&Ty::Int, &a));
    }

    #[test]
    fn ty_display() {
        let p = tiny_program();
        let t = Ty::Array(Box::new(Ty::Class(ClassId(1))));
        assert_eq!(t.display(&p).to_string(), "B[]");
    }

    #[test]
    fn id_display() {
        assert_eq!(ClassId(3).to_string(), "c3");
        assert_eq!(MethodId(7).to_string(), "m7");
        assert_eq!(FieldId(1).to_string(), "f1");
    }

    /// Entries of the dispatch rows against the vtables they mirror.
    fn table_sizes(p: &Program) -> (usize, usize) {
        let vtables = p.classes.iter().map(|c| c.vtable.len()).sum();
        (p.slot_targets.len(), vtables)
    }

    /// Thousands of unrelated classes sharing one method name: the tables
    /// hold one entry per method and field, not one per class × method,
    /// and a call on an unrelated class still finds that class's own
    /// method of the name.
    #[test]
    fn resolution_tables_stay_linear_over_flat_classes() {
        const N: usize = 4096;
        let src: String = (0..N)
            .map(|i| format!("class K{i} {{ int f; int get() {{ return this.f; }} }}\n"))
            .collect();
        let p = crate::compile(&src).unwrap();
        assert_eq!(table_sizes(&p), (N, N));
        assert_eq!(p.field_slots.len(), N);
        assert_eq!(p.slot_rows.len(), N);
        let class = |i: usize| p.class_by_name(&format!("K{i}")).unwrap();
        let get = |i: usize| p.dispatch(class(i), "get").unwrap();
        assert_eq!(p.dispatch_target(class(7), get(7)), Some(get(7)));
        assert_eq!(p.dispatch_target(class(N - 1), get(0)), Some(get(N - 1)));
    }

    /// A chain of overrides: each class's row is its parent's plus its new
    /// methods, so the rows are exactly as large as the vtables.
    #[test]
    fn resolution_rows_grow_with_the_hierarchy() {
        let mut src = String::from("class L0 { int get() { return 0; } }\n");
        for i in 1..64 {
            src += &format!(
                "class L{i} extends L{} {{ int get() {{ return {i}; }} int m{i}() {{ return 0; }} }}\n",
                i - 1
            );
        }
        let p = crate::compile(&src).unwrap();
        let (rows, vtables) = table_sizes(&p);
        assert_eq!(rows, vtables);
        assert_eq!(rows, 64 + 63 * 64 / 2);
        let class = |i: usize| p.class_by_name(&format!("L{i}")).unwrap();
        let get0 = p.dispatch(class(0), "get").unwrap();
        for i in 0..64 {
            assert_eq!(
                p.dispatch_target(class(i), get0),
                p.dispatch(class(i), "get")
            );
        }
    }
}
