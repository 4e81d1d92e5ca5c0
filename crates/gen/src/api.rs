//! API-surface model: what the generator may call, and with which bindings.
//!
//! A [`CallSpec`] records one client-callable library method together with
//! the concrete receiver classes and per-parameter concrete argument
//! classes the generator may bind it with; a [`CtorSpec`] does the same for
//! constructors. Two extractors build the surface:
//!
//! * [`ApiSurface::from_tests`] replays the program's existing sequential
//!   tests on the VM and keeps exactly the *observed* bindings — which
//!   method roots the client calls, which concrete classes show up as
//!   receivers and arguments. This matters for pair parity: the potential
//!   racy pair set keys on the dynamically-dispatched *root* method of each
//!   access, so generated suites must exercise the same client-call roots
//!   with the same concrete receiver classes as the suite they replace.
//! * [`ApiSurface::for_program`] derives a liberal surface from the HIR
//!   alone (every vtable entry point, every subtype-compatible binding)
//!   for programs that ship no tests to learn from.
//!
//! Both extractors also mine the scalar literal palette: every `int`
//! literal appearing in library code (plus small defaults), on the Randoop
//! observation that constants from the code under test make far better
//! inputs than uniform random values.

use narada_lang::hir::{Block, ClassId, Expr, MethodId, Place, Program, Stmt, Ty};
use narada_lang::mir::MirProgram;
use narada_vm::{EventKind, Machine, ObjId, Value, VecSink};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One client-callable library method plus its legal bindings.
#[derive(Debug, Clone)]
pub struct CallSpec {
    /// The method to invoke (the *static* target; dispatch may select an
    /// override at run time depending on the receiver class).
    pub method: MethodId,
    /// Concrete classes the generator may use as the receiver. Empty for
    /// static methods.
    pub recv_classes: Vec<ClassId>,
    /// Per reference-typed parameter: the concrete classes the generator
    /// may bind it with. Scalar parameters carry an empty set.
    pub param_classes: Vec<Vec<ClassId>>,
}

/// How to construct instances of one class.
#[derive(Debug, Clone)]
pub struct CtorSpec {
    /// The class to instantiate.
    pub class: ClassId,
    /// The constructor `new class(…)` runs ([`Program::ctor_for`]); `None`
    /// when no constructor exists anywhere on the inheritance chain.
    pub ctor: Option<MethodId>,
    /// Per reference-typed constructor parameter: legal concrete argument
    /// classes.
    pub param_classes: Vec<Vec<ClassId>>,
}

/// The complete generation surface for one program.
#[derive(Debug, Clone, Default)]
pub struct ApiSurface {
    /// Client-callable methods, sorted by method id for determinism.
    pub calls: Vec<CallSpec>,
    /// Instantiable classes, sorted by class id for determinism.
    pub ctors: Vec<CtorSpec>,
    /// Scalar literal palette for `int` arguments (sorted, deduplicated).
    pub ints: Vec<i64>,
    /// Length palette for `new int[n]` arguments (sorted, deduplicated).
    pub array_lens: Vec<usize>,
}

impl ApiSurface {
    /// The constructor spec for `class`, if it is instantiable.
    pub fn ctor(&self, class: ClassId) -> Option<&CtorSpec> {
        self.ctors.iter().find(|c| c.class == class)
    }

    /// The surface seed generation draws from: observed from the
    /// program's own tests ([`ApiSurface::from_tests`]) when it has any,
    /// derived from its declarations ([`ApiSurface::for_program`])
    /// otherwise.
    pub fn for_suite(prog: &Program, mir: &MirProgram) -> ApiSurface {
        if prog.tests.is_empty() {
            ApiSurface::for_program(prog)
        } else {
            ApiSurface::from_tests(prog, mir)
        }
    }

    /// Extracts the surface *observed* while running the program's own
    /// sequential tests: client-call roots with their concrete receiver and
    /// argument classes, and constructor invocations at any depth (so a
    /// factory's internal `new` still teaches us how to build the object).
    pub fn from_tests(prog: &Program, mir: &MirProgram) -> ApiSurface {
        let mut sink = VecSink::new();
        let mut machine = Machine::with_defaults(prog, mir);
        for t in &prog.tests {
            // A failing seed still yields a usable prefix of events.
            let _ = machine.run_test(t.id, &mut sink);
        }

        // Concrete class of every allocated object (arrays carry `None`
        // and are excluded — they are rebuilt literally, not via specs).
        let mut obj_class: HashMap<ObjId, ClassId> = HashMap::new();
        let class_of = |map: &HashMap<ObjId, ClassId>, v: &Value| -> Option<ClassId> {
            v.as_obj().and_then(|o| map.get(&o).copied())
        };

        type Bindings = (BTreeSet<ClassId>, Vec<BTreeSet<ClassId>>);
        let mut calls: BTreeMap<MethodId, Bindings> = BTreeMap::new();
        let mut ctors: BTreeMap<ClassId, (Option<MethodId>, Vec<BTreeSet<ClassId>>)> =
            BTreeMap::new();

        for ev in sink.events.iter() {
            match &ev.kind {
                EventKind::Alloc {
                    obj,
                    class: Some(c),
                    ..
                } => {
                    obj_class.insert(*obj, *c);
                }
                EventKind::InvokeStart {
                    method: Some(m),
                    from_client,
                    recv,
                    args,
                    ..
                } => {
                    let meth = prog.method(*m);
                    if meth.is_ctor {
                        let Some(c) = recv.as_ref().and_then(|v| class_of(&obj_class, v)) else {
                            continue;
                        };
                        let entry = ctors
                            .entry(c)
                            .or_insert_with(|| (Some(*m), vec![BTreeSet::new(); args.len()]));
                        for (slot, arg) in args.iter().enumerate() {
                            if let Some(ac) = class_of(&obj_class, arg) {
                                entry.1[slot].insert(ac);
                            }
                        }
                    } else if *from_client {
                        let entry = calls.entry(*m).or_insert_with(|| {
                            (BTreeSet::new(), vec![BTreeSet::new(); args.len()])
                        });
                        if let Some(c) = recv.as_ref().and_then(|v| class_of(&obj_class, v)) {
                            entry.0.insert(c);
                        }
                        for (slot, arg) in args.iter().enumerate() {
                            if let Some(ac) = class_of(&obj_class, arg) {
                                entry.1[slot].insert(ac);
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        // Classes allocated without a constructor anywhere on their chain
        // still need a spec so the generator can `new` them.
        for &c in obj_class.values() {
            ctors
                .entry(c)
                .or_insert_with(|| (prog.ctor_for(c), Vec::new()));
        }

        let (ints, array_lens) = mine_ints(prog);
        ApiSurface {
            calls: calls
                .into_iter()
                .map(|(method, (recv, params))| CallSpec {
                    method,
                    recv_classes: recv.into_iter().collect(),
                    param_classes: params
                        .into_iter()
                        .map(|s| s.into_iter().collect())
                        .collect(),
                })
                .collect(),
            ctors: ctors
                .into_iter()
                .map(|(class, (ctor, params))| CtorSpec {
                    class,
                    ctor,
                    param_classes: params
                        .into_iter()
                        .map(|s| s.into_iter().collect())
                        .collect(),
                })
                .collect(),
            ints,
            array_lens,
        }
    }

    /// Derives a liberal surface from the HIR alone: every vtable entry
    /// point of every class is callable, and every reference slot accepts
    /// every subtype-compatible class. Used when the program has no tests
    /// to observe (`narada gen --full-api`).
    pub fn for_program(prog: &Program) -> ApiSurface {
        let concrete: Vec<ClassId> = prog.classes.iter().map(|c| c.id).collect();
        let assignable = |ty: &Ty| -> Vec<ClassId> {
            concrete
                .iter()
                .copied()
                .filter(|&k| prog.is_subtype(&Ty::Class(k), ty))
                .collect()
        };

        let mut calls: BTreeMap<MethodId, CallSpec> = BTreeMap::new();
        for class in &prog.classes {
            for m in prog.entry_points(class.id) {
                let meth = prog.method(m);
                let spec = calls.entry(m).or_insert_with(|| CallSpec {
                    method: m,
                    recv_classes: Vec::new(),
                    param_classes: meth.param_tys().iter().map(|t| assignable(t)).collect(),
                });
                if !meth.is_static && !spec.recv_classes.contains(&class.id) {
                    spec.recv_classes.push(class.id);
                }
            }
        }
        for spec in calls.values_mut() {
            spec.recv_classes.sort();
        }

        let ctors = concrete
            .iter()
            .map(|&c| {
                let ctor = prog.ctor_for(c);
                let param_classes = match ctor {
                    Some(m) => prog
                        .method(m)
                        .param_tys()
                        .iter()
                        .map(|t| assignable(t))
                        .collect(),
                    None => Vec::new(),
                };
                CtorSpec {
                    class: c,
                    ctor,
                    param_classes,
                }
            })
            .collect();

        let (ints, array_lens) = mine_ints(prog);
        ApiSurface {
            calls: calls.into_values().collect(),
            ctors,
            ints,
            array_lens,
        }
    }
}

/// Collects every `int` literal in the program (method bodies, field
/// initializers, and any existing tests) plus small defaults; array
/// lengths are the subset in `1..=16`.
fn mine_ints(prog: &Program) -> (Vec<i64>, Vec<usize>) {
    let mut ints: BTreeSet<i64> = BTreeSet::new();
    for m in &prog.methods {
        walk_block(&m.body, &mut ints);
    }
    for f in &prog.fields {
        if let Some(init) = &f.init {
            walk_expr(init, &mut ints);
        }
    }
    // Literals from existing tests matter as much as library constants:
    // a hand-written seed's key values decide which hit/miss branches its
    // trace exercises, and reaching the same states needs the same keys.
    for t in &prog.tests {
        walk_block(&t.body, &mut ints);
    }
    for d in [0, 1, 2, 3, 4, 8] {
        ints.insert(d);
    }
    let array_lens: Vec<usize> = ints
        .iter()
        .copied()
        .filter(|&v| (1..=16).contains(&v))
        .map(|v| v as usize)
        .collect();
    (ints.into_iter().collect(), array_lens)
}

fn walk_block(block: &Block, ints: &mut BTreeSet<i64>) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let { init, .. } => walk_expr(init, ints),
            Stmt::Assign { place, value, .. } => {
                walk_place(place, ints);
                walk_expr(value, ints);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                walk_expr(cond, ints);
                walk_block(then_blk, ints);
                if let Some(b) = else_blk {
                    walk_block(b, ints);
                }
            }
            Stmt::While { cond, body, .. } => {
                walk_expr(cond, ints);
                walk_block(body, ints);
            }
            Stmt::Sync { lock, body, .. } => {
                walk_expr(lock, ints);
                walk_block(body, ints);
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    walk_expr(e, ints);
                }
            }
            Stmt::Assert { cond, .. } => walk_expr(cond, ints),
            Stmt::Expr(e) => walk_expr(e, ints),
        }
    }
}

fn walk_place(place: &Place, ints: &mut BTreeSet<i64>) {
    match place {
        Place::Local(_) => {}
        Place::Field { obj, .. } => walk_expr(obj, ints),
        Place::Index { arr, idx } => {
            walk_expr(arr, ints);
            walk_expr(idx, ints);
        }
    }
}

fn walk_expr(expr: &Expr, ints: &mut BTreeSet<i64>) {
    match expr {
        Expr::Int(v, _) => {
            ints.insert(*v);
        }
        Expr::GetField { obj, .. } => walk_expr(obj, ints),
        Expr::Index { arr, idx, .. } => {
            walk_expr(arr, ints);
            walk_expr(idx, ints);
        }
        Expr::ArrayLen { arr, .. } => walk_expr(arr, ints),
        Expr::New { args, .. } => args.iter().for_each(|a| walk_expr(a, ints)),
        Expr::NewArray { len, .. } => walk_expr(len, ints),
        Expr::Call { recv, args, .. } => {
            walk_expr(recv, ints);
            args.iter().for_each(|a| walk_expr(a, ints));
        }
        Expr::StaticCall { args, .. } => args.iter().for_each(|a| walk_expr(a, ints)),
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, ints);
            walk_expr(rhs, ints);
        }
        Expr::Unary { operand, .. } => walk_expr(operand, ints),
        Expr::Bool(..) | Expr::Null(..) | Expr::Local(..) | Expr::Rand(..) => {}
    }
}
