//! Property-based tests over core invariants, driven by the workspace's
//! own deterministic [`SplitMix64`] generator (no external fuzzing deps):
//!
//! * arithmetic: the MJ VM agrees with a direct Rust evaluation oracle on
//!   arbitrary expression trees;
//! * pretty-printing: `compile → pretty → compile → pretty` is a fixpoint;
//! * vector clocks: `join` is a commutative, associative, idempotent
//!   least-upper-bound;
//! * detector soundness relation: on arbitrary valid interleavings, every
//!   happens-before race is also a lockset race (common-lock accesses are
//!   always HB-ordered, so FastTrack ⊆ Eraser);
//! * detector equivalence: FastTrack and Djit⁺ report the same racy
//!   locations on random traces — under BOTH the sequential and the
//!   work-sharded (`parallel_map`) trial runners, with identical results.
//!
//! Every case derives its seed as `derive_seed(PROPERTY_SEED, &[case])`,
//! so a failure message's case index reproduces the input exactly.

use narada::detect::{DjitDetector, FastTrackDetector, LocksetDetector, VectorClock};
use narada::lang::lower::lower_program;
use narada::vm::rng::{derive_seed, SplitMix64};
use narada::vm::{
    Event, EventKind, EventSink, FieldKey, InvId, Label, Machine, NullSink, ObjId, ThreadId, Value,
    VecSink,
};

const PROPERTY_SEED: u64 = 0x9a5a_da00;

/// Runs `body` for `n` independently-seeded cases. The case index is the
/// reproduction handle: re-running the test replays the same inputs.
fn cases(n: u64, mut body: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..n {
        let mut rng = SplitMix64::seed_from_u64(derive_seed(PROPERTY_SEED, &[case]));
        body(case, &mut rng);
    }
}

// ----------------------------------------------------------------------
// Arithmetic oracle
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Expr {
    Lit(i32),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn to_mj(&self) -> String {
        match self {
            Expr::Lit(n) if *n < 0 => format!("(0 - {})", -(*n as i64)),
            Expr::Lit(n) => format!("{n}"),
            Expr::Add(a, b) => format!("({} + {})", a.to_mj(), b.to_mj()),
            Expr::Sub(a, b) => format!("({} - {})", a.to_mj(), b.to_mj()),
            Expr::Mul(a, b) => format!("({} * {})", a.to_mj(), b.to_mj()),
        }
    }

    fn eval(&self) -> i64 {
        match self {
            Expr::Lit(n) => *n as i64,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
        }
    }
}

/// Random expression tree, depth-bounded; leaves get likelier with depth.
fn gen_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth >= 4 || rng.gen_range(0u32..4) == 0 {
        return Expr::Lit(rng.gen_range(-100i32..100));
    }
    let a = Box::new(gen_expr(rng, depth + 1));
    let b = Box::new(gen_expr(rng, depth + 1));
    match rng.gen_range(0u32..3) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        _ => Expr::Mul(a, b),
    }
}

#[test]
fn vm_arithmetic_matches_oracle() {
    cases(64, |case, rng| {
        let e = gen_expr(rng, 0);
        let src = format!(
            "class Out {{ int v; void go() {{ this.v = {}; }} }}\n\
             test t {{ var o = new Out(); o.go(); }}",
            e.to_mj()
        );
        let prog = narada::compile(&src).expect("generated program compiles");
        let mir = lower_program(&prog);
        let mut m = Machine::with_defaults(&prog, &mir);
        m.run_test(prog.tests[0].id, &mut NullSink).expect("runs");
        let out = prog.class_by_name("Out").unwrap();
        let v = prog.field_by_name(out, "v").unwrap();
        let obj = ObjId(0);
        assert_eq!(
            m.heap.get_field(obj, v).unwrap(),
            Value::Int(e.eval()),
            "case {case}: vm disagrees with oracle on {}",
            e.to_mj()
        );
    });
}

#[test]
fn pretty_print_is_fixpoint() {
    cases(64, |case, rng| {
        let e = gen_expr(rng, 0);
        let src = format!(
            "class Out {{ int v; void go() {{ this.v = {}; }} }}\n\
             test t {{ var o = new Out(); o.go(); }}",
            e.to_mj()
        );
        let prog = narada::compile(&src).expect("compiles");
        let printed = narada::lang::pretty::program(&prog);
        let reprog = narada::compile(&printed).expect("pretty output recompiles");
        assert_eq!(
            narada::lang::pretty::program(&reprog),
            printed,
            "case {case}: pretty-print not a fixpoint"
        );
    });
}

#[test]
fn vm_trace_is_deterministic() {
    cases(32, |case, rng| {
        let seed = rng.next_u64();
        let src = r#"
            class R { int a; int b; void roll() { this.a = rand(); this.b = rand() % 17; } }
            test t { var r = new R(); r.roll(); r.roll(); }
        "#;
        let prog = narada::compile(src).unwrap();
        let mir = lower_program(&prog);
        let run = |s: u64| {
            let mut m = Machine::new(
                &prog,
                &mir,
                narada::vm::MachineOptions {
                    seed: s,
                    ..Default::default()
                },
            );
            let mut sink = VecSink::new();
            m.run_test(prog.tests[0].id, &mut sink).unwrap();
            sink.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Write { value, .. } => Some(value),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(seed), run(seed), "case {case}: seed {seed} diverged");
    });
}

// ----------------------------------------------------------------------
// Vector clock lattice laws
// ----------------------------------------------------------------------

fn gen_vc(rng: &mut SplitMix64) -> VectorClock {
    let mut vc = VectorClock::new();
    for i in 0..rng.gen_range(0usize..6) {
        vc.set(ThreadId(i as u32), rng.gen_range(0u32..40));
    }
    vc
}

#[test]
fn vc_join_commutative() {
    cases(128, |case, rng| {
        let (a, b) = (gen_vc(rng), gen_vc(rng));
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        for i in 0..8 {
            assert_eq!(ab.get(ThreadId(i)), ba.get(ThreadId(i)), "case {case}");
        }
    });
}

#[test]
fn vc_join_associative() {
    cases(128, |case, rng| {
        let (a, b, c) = (gen_vc(rng), gen_vc(rng), gen_vc(rng));
        let mut left = a.clone();
        left.join(&b);
        left.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut right = a.clone();
        right.join(&bc);
        for i in 0..8 {
            assert_eq!(left.get(ThreadId(i)), right.get(ThreadId(i)), "case {case}");
        }
    });
}

#[test]
fn vc_join_is_upper_bound() {
    cases(128, |case, rng| {
        let (a, b) = (gen_vc(rng), gen_vc(rng));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j), "case {case}: a ≤ a⊔b");
        assert!(b.leq(&j), "case {case}: b ≤ a⊔b");
        // And idempotent.
        let mut jj = j.clone();
        jj.join(&j.clone());
        for i in 0..8 {
            assert_eq!(jj.get(ThreadId(i)), j.get(ThreadId(i)), "case {case}");
        }
    });
}

#[test]
fn vc_leq_antisymmetric() {
    cases(128, |case, rng| {
        let (a, b) = (gen_vc(rng), gen_vc(rng));
        if a.leq(&b) && b.leq(&a) {
            for i in 0..8 {
                assert_eq!(a.get(ThreadId(i)), b.get(ThreadId(i)), "case {case}");
            }
        }
    });
}

// ----------------------------------------------------------------------
// Detector relations on random valid interleavings
// ----------------------------------------------------------------------

/// Per-thread operations; the interleaver below enforces lock exclusion.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lock(u8),
    Unlock,
    Read(u8),
    Write(u8),
}

fn gen_thread_ops(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.gen_range(0usize..12))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => Op::Lock(rng.gen_range(0u8..2)),
            1 => Op::Unlock,
            2 => Op::Read(rng.gen_range(0u8..3)),
            _ => Op::Write(rng.gen_range(0u8..3)),
        })
        .collect()
}

fn gen_choices(rng: &mut SplitMix64) -> Vec<bool> {
    (0..rng.gen_range(0usize..40))
        .map(|_| rng.gen_bool(0.5))
        .collect()
}

/// Simulates two threads' op lists under an interleaving choice sequence,
/// producing a *valid* event stream (locks exclusive, well-nested;
/// unmatched unlocks dropped).
fn interleave(threads: [&[Op]; 2], choices: &[bool]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut label = 0u64;
    let mut emit = |tid: u32, kind: EventKind| {
        events.push(Event {
            label: Label(label),
            tid: ThreadId(tid),
            span: narada::lang::Span::new(label as u32 * 2, label as u32 * 2 + 1),
            kind,
        });
        label += 1;
    };
    // Spawn both workers from main.
    emit(0, EventKind::ThreadSpawn { child: ThreadId(1) });
    emit(0, EventKind::ThreadSpawn { child: ThreadId(2) });

    let mut pc = [0usize; 2];
    let mut held: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
    let mut lock_owner: [Option<usize>; 2] = [None, None];
    let mut ci = 0usize;
    loop {
        // Pick a thread with work left whose next op is not blocked.
        let pick = |t: usize, pc: &[usize; 2], lock_owner: &[Option<usize>; 2]| -> bool {
            if pc[t] >= threads[t].len() {
                return false;
            }
            match threads[t][pc[t]] {
                Op::Lock(l) => lock_owner[l as usize].map(|o| o == t).unwrap_or(true),
                _ => true,
            }
        };
        let c0 = pick(0, &pc, &lock_owner);
        let c1 = pick(1, &pc, &lock_owner);
        let t = match (c0, c1) {
            (false, false) => break,
            (true, false) => 0,
            (false, true) => 1,
            (true, true) => {
                let choice = choices.get(ci).copied().unwrap_or(false);
                ci += 1;
                usize::from(choice)
            }
        };
        let tid = t as u32 + 1;
        let op = threads[t][pc[t]];
        pc[t] += 1;
        match op {
            Op::Lock(l) => {
                // Re-entrant acquisition is silent (matches the VM).
                if lock_owner[l as usize].is_none() {
                    lock_owner[l as usize] = Some(t);
                    emit(
                        tid,
                        EventKind::Lock {
                            inv: InvId(0),
                            var: None,
                            obj: ObjId(100 + l as u32),
                        },
                    );
                }
                held[t].push(l);
            }
            Op::Unlock => {
                if let Some(l) = held[t].pop() {
                    if !held[t].contains(&l) {
                        lock_owner[l as usize] = None;
                        emit(
                            tid,
                            EventKind::Unlock {
                                inv: InvId(0),
                                obj: ObjId(100 + l as u32),
                            },
                        );
                    }
                }
            }
            Op::Read(x) => emit(
                tid,
                EventKind::Read {
                    inv: InvId(0),
                    dst: narada::lang::mir::VarId(0),
                    obj_var: narada::lang::mir::VarId(0),
                    obj: ObjId(x as u32),
                    field: FieldKey::Elem(0),
                    value: Value::Int(0),
                },
            ),
            Op::Write(x) => emit(
                tid,
                EventKind::Write {
                    inv: InvId(0),
                    obj_var: narada::lang::mir::VarId(0),
                    obj: ObjId(x as u32),
                    field: FieldKey::Elem(0),
                    src_var: narada::lang::mir::VarId(1),
                    value: Value::Int(0),
                },
            ),
        }
    }
    events
}

/// One random two-thread interleaving: the generator inputs for a
/// detector-comparison trial.
#[derive(Clone)]
struct TraceCase {
    t1: Vec<Op>,
    t2: Vec<Op>,
    choices: Vec<bool>,
}

impl TraceCase {
    fn gen(rng: &mut SplitMix64) -> TraceCase {
        TraceCase {
            t1: gen_thread_ops(rng),
            t2: gen_thread_ops(rng),
            choices: gen_choices(rng),
        }
    }

    fn events(&self) -> Vec<Event> {
        interleave([&self.t1, &self.t2], &self.choices)
    }
}

#[test]
fn fasttrack_within_djit() {
    cases(128, |case, rng| {
        // FastTrack is an optimization of Djit+'s full vector clocks that
        // deliberately reports *fewer race instances* (it resets the read
        // set after a write). The precise relationship, asserted here:
        // every FastTrack race is a Djit+ race, and both agree on WHICH
        // LOCATIONS are racy.
        let events = TraceCase::gen(rng).events();
        let mut ft = FastTrackDetector::new();
        let mut dj = DjitDetector::new();
        for ev in &events {
            ft.event(ev);
            dj.event(ev);
        }
        let ft_keys: std::collections::BTreeSet<_> =
            ft.races().iter().map(|r| r.static_key()).collect();
        let dj_keys: std::collections::BTreeSet<_> =
            dj.races().iter().map(|r| r.static_key()).collect();
        assert!(
            ft_keys.is_subset(&dj_keys),
            "case {case}: fasttrack races must be djit races: {:?} vs {:?}",
            ft_keys,
            dj_keys
        );
        let ft_locs: std::collections::BTreeSet<_> =
            ft.races().iter().map(|r| (r.obj, r.field)).collect();
        let dj_locs: std::collections::BTreeSet<_> =
            dj.races().iter().map(|r| (r.obj, r.field)).collect();
        assert_eq!(ft_locs, dj_locs, "case {case}: racy locations must agree");
    });
}

/// ISSUE satellite: FastTrack and Djit⁺ agree on the race set of random
/// MJ traces, and the *sharded* trial runner ([`narada::parallel_map`])
/// reproduces the sequential runner's verdicts byte-for-byte. A
/// divergence in the first comparison is a detector bug (FastTrack is an
/// optimization of Djit⁺); a divergence in the second is a determinism
/// bug in the work-sharding layer.
#[test]
fn fasttrack_djit_agree_under_sequential_and_sharded_runners() {
    let mut rng = SplitMix64::seed_from_u64(derive_seed(PROPERTY_SEED, &[0xFA57]));
    let trace_cases: Vec<TraceCase> = (0..96).map(|_| TraceCase::gen(&mut rng)).collect();

    // The per-trace detector job: racy-location sets from both detectors.
    let verdict = |tc: &TraceCase| {
        let events = tc.events();
        let mut ft = FastTrackDetector::new();
        let mut dj = DjitDetector::new();
        for ev in &events {
            ft.event(ev);
            dj.event(ev);
        }
        let ft_locs: Vec<_> = {
            let set: std::collections::BTreeSet<_> =
                ft.races().iter().map(|r| (r.obj, r.field)).collect();
            set.into_iter().collect()
        };
        let dj_locs: Vec<_> = {
            let set: std::collections::BTreeSet<_> =
                dj.races().iter().map(|r| (r.obj, r.field)).collect();
            set.into_iter().collect()
        };
        (ft_locs, dj_locs)
    };

    // Sequential runner.
    let sequential: Vec<_> = trace_cases.iter().map(verdict).collect();
    for (i, (ft_locs, dj_locs)) in sequential.iter().enumerate() {
        assert_eq!(
            ft_locs, dj_locs,
            "trace {i}: FastTrack and Djit+ disagree on the race set"
        );
    }

    // Sharded runner: same jobs fanned out over the claiming queue, at
    // two worker counts; the merged result vector must be identical.
    for threads in [2usize, 4] {
        let sharded = narada::parallel_map(threads, &trace_cases, |_, tc| verdict(tc));
        assert_eq!(
            sharded, sequential,
            "sharded trial runner (threads={threads}) diverged from sequential verdicts"
        );
    }
}

#[test]
fn fasttrack_races_are_lockset_races() {
    cases(128, |case, rng| {
        let events = TraceCase::gen(rng).events();
        let mut lockset = LocksetDetector::new();
        let mut hb = FastTrackDetector::new();
        for ev in &events {
            lockset.event(ev);
            hb.event(ev);
        }
        // Two accesses ordered only by a common lock are never an HB race,
        // so every FastTrack race must also violate the lockset discipline.
        let eraser_keys: std::collections::HashSet<_> =
            lockset.races().iter().map(|r| r.static_key()).collect();
        for race in hb.races() {
            assert!(
                eraser_keys.contains(&race.static_key()),
                "case {case}: HB race {:?} missed by lockset ({} events)",
                race,
                events.len()
            );
        }
    });
}

// ----------------------------------------------------------------------
// Schedule record/replay round-trip
// ----------------------------------------------------------------------

/// Random racy MJ library: two methods doing 1–4 unsynchronized accesses
/// to shared state, so the pipeline synthesizes race-expecting tests.
fn gen_racy_program(rng: &mut SplitMix64) -> String {
    let body = |rng: &mut SplitMix64| -> String {
        (0..rng.gen_range(1usize..5))
            .map(|i| match rng.gen_range(0u32..4) {
                0 => "this.x = this.x + 1;".to_string(),
                1 => "this.y = rand();".to_string(),
                2 => format!("var t{i} = this.x; this.y = t{i};"),
                _ => format!("this.a[{}] = this.x;", rng.gen_range(0u32..3)),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (m1, m2) = (body(rng), body(rng));
    format!(
        "class C {{ int x; int y; int[] a; init() {{ this.a = new int[4]; }}\n\
           void m1() {{ {m1} }}\n\
           void m2() {{ {m2} }} }}\n\
         test seed {{ var c = new C(); c.m1(); c.m2(); }}"
    )
}

/// ISSUE satellite: recording a concurrent run and replaying its schedule
/// on a fresh machine with the same seed reproduces the event trace
/// *byte-identically* — the invariant the `.sched` fixture suite rests on.
/// Exercised across random programs, random machine seeds, and all
/// scheduler families.
#[test]
fn record_replay_round_trips_event_traces() {
    use narada::core::execute_plan;
    use narada::vm::{trace_digest, MachineOptions, ReplayScheduler, ScheduleStrategy};
    cases(24, |case, rng| {
        let src = gen_racy_program(rng);
        let (prog, mir, out) =
            narada::synthesize_source(&src, &narada::SynthesisOptions::default())
                .expect("generated program compiles");
        let Some(test) = out.tests.iter().find(|t| t.plan.expects_race) else {
            return; // nothing synthesized for this shape — rare, fine
        };
        let strategy = match rng.gen_range(0u32..4) {
            0 => ScheduleStrategy::Random,
            1 => ScheduleStrategy::Sticky { stay_percent: 85 },
            2 => ScheduleStrategy::Pct { depth: 3 },
            _ => ScheduleStrategy::RoundRobin,
        };
        let machine_seed = rng.next_u64();
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

        // Record.
        let mut machine = Machine::new(
            &prog,
            &mir,
            MachineOptions {
                seed: machine_seed,
                ..Default::default()
            },
        );
        let mut sched = strategy.build(rng.next_u64(), 400);
        let mut recorded = VecSink::new();
        let (_, schedule) = narada::core::execute_plan_recorded(
            &mut machine,
            &seeds,
            &test.plan,
            &mut *sched,
            &mut recorded,
            2_000_000,
        )
        .expect("recorded run executes");
        assert_eq!(schedule.seed, machine_seed, "case {case}");

        // Replay on a fresh machine.
        let mut machine = Machine::new(
            &prog,
            &mir,
            MachineOptions {
                seed: machine_seed,
                ..Default::default()
            },
        );
        let mut replay = ReplayScheduler::from_schedule(&schedule);
        let mut replayed = VecSink::new();
        execute_plan(
            &mut machine,
            &seeds,
            &test.plan,
            &mut replay,
            &mut replayed,
            2_000_000,
        )
        .expect("replayed run executes");

        assert_eq!(
            replay.divergences(),
            0,
            "case {case} ({}): replay diverged from the recording",
            strategy.label()
        );
        assert_eq!(
            replayed.events,
            recorded.events,
            "case {case} ({}): replayed trace differs",
            strategy.label()
        );
        assert_eq!(
            trace_digest(&replayed.events),
            trace_digest(&recorded.events),
            "case {case}: digest oracle disagrees with event equality"
        );
    });
}

/// The demonstration recorder (the CLI's `synth --record`) is sharded over
/// the worker pool; its output — including every recorded schedule — must
/// be identical at any thread count, and every schedule it emits must
/// replay cleanly.
#[test]
fn demonstrations_are_thread_count_invariant_and_replayable() {
    use narada::core::{demonstrate_observed, ExploreOptions};
    use narada::vm::ScheduleStrategy;
    use narada::Obs;
    let src = r#"
        class Counter { int count; void inc() { this.count = this.count + 1; } }
        class Lib {
            Counter c;
            sync void update() { this.c.inc(); }
            sync void set(Counter x) { this.c = x; }
        }
        test seed {
            var r = new Counter();
            var p = new Lib();
            p.set(r);
            p.update();
        }
    "#;
    let (prog, mir, out) =
        narada::synthesize_source(src, &narada::SynthesisOptions::default()).unwrap();
    for strategy in [ScheduleStrategy::Random, ScheduleStrategy::Pct { depth: 3 }] {
        let explore = |threads: usize| ExploreOptions {
            strategy: strategy.clone(),
            threads,
            ..ExploreOptions::default()
        };
        let sequential = demonstrate_observed(&prog, &mir, &out, &explore(1), &Obs::new());
        assert!(
            !sequential.is_empty(),
            "{}: no demonstrations",
            strategy.label()
        );
        for threads in [2usize, 4] {
            let sharded = demonstrate_observed(&prog, &mir, &out, &explore(threads), &Obs::new());
            let key = |ds: &[narada::core::Demonstration]| -> Vec<_> {
                ds.iter()
                    .map(|d| (d.test_index, d.schedule.clone()))
                    .collect()
            };
            assert_eq!(
                key(&sharded),
                key(&sequential),
                "{}: demonstrations differ at threads={threads}",
                strategy.label()
            );
        }
        // Every recorded schedule replays without divergence.
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        for d in &sequential {
            let replay = narada::detect::replay_schedule(
                &prog,
                &mir,
                &seeds,
                &out.tests[d.test_index].plan,
                2_000_000,
                &d.schedule,
            )
            .expect("replay executes");
            assert_eq!(
                replay.divergences,
                0,
                "{}: demonstration for plan {} does not replay",
                strategy.label(),
                d.test_index
            );
        }
    }
}

// ----------------------------------------------------------------------
// Front-end robustness
// ----------------------------------------------------------------------

/// The front end must never panic: arbitrary char soup either parses or
/// produces diagnostics.
#[test]
fn compile_never_panics() {
    cases(256, |_case, rng| {
        let len = rng.gen_range(0usize..80);
        let src: String = (0..len)
            .map(|_| {
                // Bias toward ASCII (parser-relevant) with some multi-byte
                // chars mixed in to stress span arithmetic.
                match rng.gen_range(0u32..8) {
                    0 => char::from_u32(rng.gen_range(0x80u32..0x2000)).unwrap_or('\u{fffd}'),
                    _ => rng.gen_range(0x20u8..0x7f) as char,
                }
            })
            .collect();
        let _ = narada::compile(&src);
    });
}

/// Same, on inputs built from MJ-ish tokens (much deeper parser
/// penetration than raw soup).
#[test]
fn compile_never_panics_on_tokenish_input() {
    const WORDS: &[&str] = &[
        "class", "test", "sync", "init", "extends", "static", "if", "else", "while", "return",
        "var", "new", "this", "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "==", "+", "-",
        "*", "/", "%", "&&", "||", "!", "<", ">", "int", "bool", "void", "x", "y", "Foo", "m", "0",
        "42",
    ];
    cases(256, |_case, rng| {
        let n = rng.gen_range(0usize..60);
        let src = (0..n)
            .map(|_| WORDS[rng.gen_range(0usize..WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let _ = narada::compile(&src);
    });
}

// ----------------------------------------------------------------------
// Static screening
// ----------------------------------------------------------------------

/// ISSUE satellite: screener/scheduler agreement. A `MustNotRace`
/// verdict promises that *no* synthesized context manifests the race, so
/// a pair whose covering test dynamically reproduces a confirmed race
/// must have been ranked `MayRace`. Runs the lock-heavy classes C2 and
/// C3 by default (where the screener actually discharges pairs); set
/// `NARADA_AGREEMENT_FULL=1` to sweep C1–C5, the paper's evaluation
/// prefix.
#[test]
fn screener_agreement() {
    use narada::detect::{evaluate_test_observed, DetectConfig};
    use narada::Obs;

    let ids: &[&str] = if std::env::var("NARADA_AGREEMENT_FULL").is_ok() {
        &["C1", "C2", "C3", "C4", "C5"]
    } else {
        &["C2", "C3"]
    };
    let cfg = DetectConfig {
        schedule_trials: 6,
        confirm_trials: 4,
        seed: 42,
        ..DetectConfig::default()
    };
    let mut discharged = 0usize;
    let mut manifested = 0usize;
    for id in ids {
        let e = narada::corpus::by_id(id).expect("known id");
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        // Rank, don't filter: every generated pair still gets a derived
        // plan, so a wrong `MustNotRace` verdict can be caught in the act.
        let opts = narada::SynthesisOptions {
            static_rank: true,
            ..narada::SynthesisOptions::default()
        };
        let out = narada::synthesize_observed(
            &prog,
            &mir,
            &opts,
            Some(&narada::screen_pairs),
            &Obs::new(),
        );
        let verdicts = out.verdicts.as_deref().expect("ranking stores verdicts");
        discharged += verdicts.iter().filter(|v| !v.may_race()).count();
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        for (ti, t) in out.tests.iter().enumerate() {
            let report =
                evaluate_test_observed(&prog, &mir, &seeds, &t.plan, &cfg, ti as u64, &Obs::new());
            for (_, race) in &report.reproduced {
                manifested += 1;
                let v = out.static_verdict_for(ti, race.key.span_a, race.key.span_b);
                if let Some(narada::StaticVerdict::MustNotRace { reason }) = v {
                    panic!(
                        "{id}: pair {} discharged ({reason}) but test {ti} \
                         reproduced it under the scheduler",
                        race.key
                    );
                }
            }
        }
    }
    // The property is vacuous unless both sides actually fire.
    assert!(discharged > 0, "screener discharged nothing on {ids:?}");
    assert!(manifested > 0, "scheduler reproduced nothing on {ids:?}");
}
