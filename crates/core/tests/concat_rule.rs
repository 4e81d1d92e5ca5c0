//! The `Q` *concat* rule (paper Fig. 10/Fig. 12): when no single method
//! assigns the whole dereference chain `x.f.g`, compose a setter for `f`
//! with a setter for `g` on a fresh intermediate object — `n` then `m` in
//! the paper's Fig. 12.

use narada_core::{synthesize_source, SynthesisOptions};

/// `M.use` races on `I_this.f.g.o`; sharing needs `I_this.f.g` to alias.
/// There is no method assigning `f.g` in one step — the deriver must chain
/// `setG` (inner, on a fresh N) before `setF` (outer install).
const CONCAT: &str = r#"
    class X { int o; }
    class N {
        X g;
        void setG(X v) { this.g = v; }
    }
    class M {
        N f;
        void setF(N v) { this.f = v; }
        sync void use() {
            var n = this.f;
            var x = n.g;
            x.o = x.o + 1;
        }
    }
    test seed {
        var x = new X();
        var n = new N();
        var m = new M();
        n.setG(x);
        m.setF(n);
        m.use();
    }
"#;

#[test]
fn concat_chains_inner_setter_before_outer() {
    let (prog, _mir, out) = synthesize_source(CONCAT, &SynthesisOptions::default()).unwrap();
    let plan = out
        .tests
        .iter()
        .map(|t| &t.plan)
        .find(|p| {
            prog.method(p.racy[0].method).name == "use"
                && prog.method(p.racy[1].method).name == "use"
                && p.expects_race
        })
        .unwrap_or_else(|| {
            panic!(
                "use||use plan expected:\n{}",
                out.tests
                    .iter()
                    .map(|t| t.plan.render(&prog))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        });
    let names: Vec<&str> = plan
        .setters
        .iter()
        .map(|s| prog.method(s.method).name.as_str())
        .collect();
    assert!(names.contains(&"setF"), "{names:?}\n{}", plan.render(&prog));
    assert!(names.contains(&"setG"), "{names:?}\n{}", plan.render(&prog));
    // Fig. 12 order: the inner object's field is set before it is
    // installed (`z.baz(x); a.bar(z);`).
    let g_pos = names.iter().position(|n| *n == "setG").unwrap();
    let f_pos = names.iter().position(|n| *n == "setF").unwrap();
    assert!(g_pos < f_pos, "inner setter first: {names:?}");
}

#[test]
fn concat_execution_shares_the_deep_object() {
    use narada_core::execute_plan;
    use narada_vm::{Machine, NullSink, RandomScheduler, Value};

    let (prog, mir, out) = synthesize_source(CONCAT, &SynthesisOptions::default()).unwrap();
    let test = out
        .tests
        .iter()
        .find(|t| prog.method(t.plan.racy[0].method).name == "use" && t.plan.expects_race)
        .unwrap();
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    let m_class = prog.class_by_name("M").unwrap();
    let n_class = prog.class_by_name("N").unwrap();
    let f = prog.field_by_name(m_class, "f").unwrap();
    let g = prog.field_by_name(n_class, "g").unwrap();

    let mut machine = Machine::with_defaults(&prog, &mir);
    let mut sched = RandomScheduler::new(1);
    let report = execute_plan(
        &mut machine,
        &seeds,
        &test.plan,
        &mut sched,
        &mut NullSink,
        1_000_000,
    )
    .expect("plan executes");
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    // The two racy receivers must reach one shared X through f.g.
    let deep_x: Vec<Value> = (0..machine.heap.len() as u32)
        .map(narada_vm::ObjId)
        .filter(|&o| machine.heap.class_of(o) == Some(m_class))
        .filter_map(|o| machine.heap.get_field(o, f).unwrap().as_obj())
        .map(|n| machine.heap.get_field(n, g).unwrap())
        .collect();
    let shared_exists = deep_x
        .iter()
        .any(|v| v.as_obj().is_some() && deep_x.iter().filter(|w| *w == v).count() >= 2);
    assert!(shared_exists, "f.g must alias across receivers: {deep_x:?}");
}
