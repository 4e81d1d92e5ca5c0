//! Oracle for the per-program resolution tables the VM executes from:
//! for every class × method and class × field of the corpus (C1–C9) and
//! a 256-class differential-testing slice, the dense dispatch table must
//! agree with the name-keyed vtable lookup `Program::dispatch`, overrides
//! included, and a field's slot must be its position in the `all_fields`
//! of every class that has it.

use narada_difftest::{emit, ClassSpec, DiffConfig};
use narada_lang::hir::{ClassId, Program};

/// Checks both tables of `prog` against their definitions; returns the
/// number of class × method entries that dispatch to an override (a
/// target other than the statically named method).
fn check(name: &str, prog: &Program) -> usize {
    let mut overrides = 0;
    for class in &prog.classes {
        for method in &prog.methods {
            let want = prog.dispatch(class.id, &method.name);
            assert_eq!(
                prog.dispatch_target(class.id, method.id),
                want,
                "{name}: dispatch of {} on {}",
                prog.qualified_name(method.id),
                class.name
            );
            overrides += usize::from(want.is_some_and(|t| t != method.id));
        }
        for (pos, &field) in class.all_fields.iter().enumerate() {
            assert_eq!(
                prog.field_slot(field),
                pos,
                "{name}: slot of {} in {}",
                prog.qualified_field(field),
                class.name
            );
        }
    }
    // Every field has a slot, including those of classes no other class
    // extends.
    for field in &prog.fields {
        let owner: ClassId = field.owner;
        assert_eq!(
            prog.fields_of(owner).get(prog.field_slot(field.id)),
            Some(&field.id),
            "{name}: {} in its owner",
            prog.qualified_field(field.id)
        );
    }
    overrides
}

#[test]
fn tables_agree_with_vtables_and_layouts_on_the_corpus() {
    let mut overrides = 0;
    for entry in narada_corpus::all() {
        let prog = entry.compile().expect("corpus compiles");
        overrides += check(entry.id, &prog);
    }
    assert!(overrides > 0, "the corpus exercises no override");
}

#[test]
fn tables_agree_with_vtables_and_layouts_on_a_difftest_slice() {
    let seed = DiffConfig::default().seed;
    for spec in ClassSpec::enumerate(seed, 256) {
        let class = emit(spec);
        let prog = narada_lang::compile(&class.source()).expect("generated classes compile");
        check(&format!("{spec:?}"), &prog);
    }
}

/// Overrides two levels deep, a static method and a method name two
/// unrelated classes share: each class dispatches to its own nearest
/// definition and to nothing outside its hierarchy.
#[test]
fn tables_follow_overrides_and_unrelated_names() {
    let prog = narada_lang::compile(
        r#"
        class A { int a; int get() { return 1; } int only() { return 0; } static int s() { return 2; } }
        class B extends A { int b; int get() { return 3; } }
        class C extends B { int c; int get() { return 4; } }
        class D { int d; int get() { return 5; } }
        "#,
    )
    .unwrap();
    // Each of the four classes sends three of the four `get`s elsewhere.
    assert_eq!(check("overrides", &prog), 12);
    let class = |n| prog.class_by_name(n).unwrap();
    let get_of = |n| prog.dispatch(class(n), "get").unwrap();
    assert_eq!(
        prog.dispatch_target(class("C"), get_of("A")),
        Some(get_of("C"))
    );
    assert_eq!(
        prog.dispatch_target(class("D"), get_of("A")),
        Some(get_of("D"))
    );
    let only = prog.dispatch(class("A"), "only").unwrap();
    assert_eq!(prog.dispatch_target(class("D"), only), None);
    let c = prog.field_by_name(class("C"), "c").unwrap();
    assert_eq!(prog.field_slot(c), 2);
}
