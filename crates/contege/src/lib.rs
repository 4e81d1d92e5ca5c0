//! # narada-contege — the random-search baseline
//!
//! A ConTeGe-style generator (Pradel & Gross, *Fully Automatic and Precise
//! Detection of Thread Safety Violations*, PLDI 2012): concurrent tests are
//! produced by **random search** — a random sequential *prefix* builds an
//! object pool, then two random call *suffixes* run concurrently against a
//! shared receiver. A test exposes a thread-safety violation when the
//! concurrent execution crashes or deadlocks while each linearization of
//! the same calls runs cleanly.
//!
//! Because nothing directs the search toward racy states (no trace
//! analysis, no object-sharing constraints), ConTeGe needs orders of
//! magnitude more tests than Narada's synthesis — the paper's §5
//! comparison, which this crate regenerates.

#![warn(missing_docs)]

use narada_lang::hir::{ClassId, MethodId, Program, Ty};
use narada_lang::mir::MirProgram;
use narada_vm::rng::SplitMix64;
use narada_vm::{
    Machine, MachineOptions, NullSink, ObjId, PendingInvoke, RandomScheduler, RunOutcome,
    SerialScheduler, ThreadStatus, Value,
};

/// Generator options.
#[derive(Debug, Clone)]
pub struct ContegeOptions {
    /// Maximum number of generated tests.
    pub max_tests: usize,
    /// Number of calls in the sequential prefix.
    pub prefix_len: usize,
    /// Number of calls per concurrent suffix.
    pub suffix_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Step budget per concurrent execution.
    pub budget: u64,
    /// Number of interleavings tried per generated test.
    pub schedules_per_test: usize,
    /// Stop at the first violation (paper counts tests-to-first-violation).
    pub stop_at_first: bool,
}

impl Default for ContegeOptions {
    fn default() -> Self {
        ContegeOptions {
            max_tests: 2_000,
            prefix_len: 4,
            suffix_len: 3,
            seed: 0xc0ffee,
            budget: 400_000,
            schedules_per_test: 3,
            stop_at_first: true,
        }
    }
}

/// How a violation manifested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A thread crashed concurrently but not in either linearization.
    Crash,
    /// The concurrent execution deadlocked.
    Deadlock,
}

/// A detected thread-safety violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// 1-based index of the generated test that exposed it.
    pub test_index: usize,
    /// Crash or deadlock.
    pub kind: ViolationKind,
    /// Rendered failure message.
    pub message: String,
}

/// Result of a generation campaign.
#[derive(Debug, Default)]
pub struct ContegeResult {
    /// Number of tests generated and executed.
    pub tests_generated: usize,
    /// Violations found.
    pub violations: Vec<Violation>,
}

impl ContegeResult {
    /// Index of the first violating test, if any.
    pub fn first_violation_at(&self) -> Option<usize> {
        self.violations.first().map(|v| v.test_index)
    }
}

/// One randomly generated concurrent test.
#[derive(Debug, Clone)]
struct GeneratedTest {
    prefix: Vec<CallTemplate>,
    suffixes: [Vec<CallTemplate>; 2],
}

#[derive(Debug, Clone)]
struct CallTemplate {
    method: MethodId,
    /// Pool index of the receiver (`None` = static).
    recv: Option<usize>,
    /// Argument templates.
    args: Vec<ArgTemplate>,
}

#[derive(Debug, Clone)]
enum ArgTemplate {
    Int(i64),
    Bool(bool),
    /// Pool index of an object argument (rare: random search shares
    /// sub-objects only by luck, as in the original ConTeGe).
    Pool(usize),
    /// A freshly constructed argument object (the common case).
    Fresh(ClassId),
    Null,
}

/// Runs the ConTeGe-style campaign against the library classes of `prog`.
pub fn run_contege(prog: &Program, mir: &MirProgram, opts: &ContegeOptions) -> ContegeResult {
    let mut rng = SplitMix64::seed_from_u64(opts.seed);
    let gen = Generator::new(prog);
    let mut result = ContegeResult::default();
    if gen.constructible.is_empty() {
        return result;
    }
    for test_index in 1..=opts.max_tests {
        result.tests_generated = test_index;
        let Some(test) = gen.generate(&mut rng, opts) else {
            continue;
        };
        if let Some(violation) = execute_test(prog, mir, &test, test_index, opts, &mut rng) {
            result.violations.push(violation);
            if opts.stop_at_first {
                break;
            }
        }
    }
    result
}

struct Generator<'p> {
    prog: &'p Program,
    /// Classes we can instantiate with synthesizable arguments.
    constructible: Vec<ClassId>,
}

impl<'p> Generator<'p> {
    fn new(prog: &'p Program) -> Self {
        let constructible = prog
            .classes
            .iter()
            .filter(|c| {
                match prog.ctor_for(c.id) {
                    // Constructor args must be scalars or other classes.
                    Some(ctor) => prog
                        .method(ctor)
                        .param_tys()
                        .iter()
                        .all(|t| matches!(t, Ty::Int | Ty::Bool | Ty::Class(_) | Ty::Array(_))),
                    None => true,
                }
            })
            .map(|c| c.id)
            .collect();
        Generator {
            prog,
            constructible,
        }
    }

    fn generate(&self, rng: &mut SplitMix64, opts: &ContegeOptions) -> Option<GeneratedTest> {
        // The pool: indices 0..N of objects created at setup. Object 0 is
        // the "class under test" instance both suffixes share.
        let pool_size = 1 + rng.gen_range(1..4usize);
        let mut prefix = Vec::new();
        for _ in 0..opts.prefix_len {
            if let Some(c) = self.random_call(rng, pool_size) {
                prefix.push(c);
            }
        }
        let mut suffixes = [Vec::new(), Vec::new()];
        for suffix in &mut suffixes {
            for _ in 0..opts.suffix_len {
                if let Some(c) = self.random_call(rng, pool_size) {
                    suffix.push(c);
                }
            }
            if suffix.is_empty() {
                return None;
            }
        }
        Some(GeneratedTest { prefix, suffixes })
    }

    fn random_call(&self, rng: &mut SplitMix64, pool: usize) -> Option<CallTemplate> {
        // Pick a random instance method of a random constructible class.
        for _ in 0..16 {
            let class = self.constructible[rng.gen_range(0..self.constructible.len())];
            let methods = self.prog.entry_points(class);
            if methods.is_empty() {
                continue;
            }
            let method = methods[rng.gen_range(0..methods.len())];
            let m = self.prog.method(method);
            if m.is_ctor {
                continue;
            }
            let mut args = Vec::new();
            let mut ok = true;
            for ty in m.param_tys() {
                match ty {
                    Ty::Int => args.push(ArgTemplate::Int(rng.gen_range(0..10))),
                    Ty::Bool => args.push(ArgTemplate::Bool(rng.gen_bool(0.5))),
                    Ty::Class(c) => {
                        // ConTeGe constructs fresh argument objects; pool
                        // sharing (the thing Narada *engineers*) happens
                        // only by luck.
                        let roll = rng.gen_range(0..100);
                        if roll < 10 {
                            args.push(ArgTemplate::Null);
                        } else if roll < 25 {
                            args.push(ArgTemplate::Pool(rng.gen_range(0..pool)));
                        } else {
                            args.push(ArgTemplate::Fresh(*c));
                        }
                    }
                    Ty::Array(_) => {
                        ok = false;
                        break;
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let recv = if m.is_static {
                None
            } else {
                Some(rng.gen_range(0..pool))
            };
            return Some(CallTemplate { method, recv, args });
        }
        None
    }
}

/// Builds the object pool for one execution: one instance per pool slot,
/// round-robin over constructible classes, preferring the receiver class
/// of the first suffix call for slot 0.
fn build_pool(
    prog: &Program,
    machine: &mut Machine<'_>,
    test: &GeneratedTest,
    pool_size: usize,
) -> Option<Vec<ObjId>> {
    // Slot class choice: the class that owns the method of the first
    // suffix call, then others.
    let preferred = test.suffixes[0]
        .first()
        .map(|c| prog.method(c.method).owner)?;
    let mut pool = Vec::with_capacity(pool_size);
    for i in 0..pool_size {
        let class = if i == 0 {
            preferred
        } else {
            // Cycle deterministically through classes.
            narada_lang::hir::ClassId(((preferred.0 as usize + i) % prog.classes.len()) as u32)
        };
        let obj = instantiate(prog, machine, class, 0)?;
        pool.push(obj);
    }
    Some(pool)
}

/// Instantiates `class`, synthesizing constructor arguments (fresh nested
/// objects for class-typed parameters, small defaults for scalars).
fn instantiate(
    prog: &Program,
    machine: &mut Machine<'_>,
    class: ClassId,
    depth: usize,
) -> Option<ObjId> {
    if depth > 3 {
        return None;
    }
    let obj = machine.heap.alloc_instance(class);
    if let Some(ctor) = prog.ctor_for(class) {
        let mut args = Vec::new();
        for ty in prog.method(ctor).param_tys() {
            let v = match ty {
                Ty::Int => Value::Int(4),
                Ty::Bool => Value::Bool(false),
                Ty::Class(c) => {
                    let nested = instantiate(prog, machine, *c, depth + 1)?;
                    Value::Ref(nested)
                }
                Ty::Array(elem) => {
                    let arr = machine.heap.alloc_array((**elem).clone(), 8);
                    Value::Ref(arr)
                }
                _ => return None,
            };
            args.push(v);
        }
        machine
            .invoke(ctor, Some(Value::Ref(obj)), args, &mut NullSink)
            .ok()?;
    }
    Some(obj)
}

/// Picks a pool object compatible with `want`, preferring the indexed
/// slot, then scanning; `None` when the pool has no instance of the class.
fn compatible_pool_obj(
    prog: &Program,
    machine: &Machine<'_>,
    pool: &[ObjId],
    idx: usize,
    want: ClassId,
) -> Option<ObjId> {
    let fits = |o: ObjId| {
        machine
            .heap
            .class_of(o)
            .map(|c| prog.is_subclass(c, want))
            .unwrap_or(false)
    };
    let preferred = pool[idx % pool.len()];
    if fits(preferred) {
        return Some(preferred);
    }
    pool.iter().copied().find(|&o| fits(o))
}

/// Materializes a call template against the pool; `None` when no
/// type-compatible receiver/argument exists (the call is skipped — random
/// search wastes effort, as it should).
fn materialize(
    prog: &Program,
    machine: &mut Machine<'_>,
    call: &CallTemplate,
    pool: &[ObjId],
) -> Option<PendingInvoke> {
    let m = prog.method(call.method);
    let recv = match call.recv {
        None => None,
        Some(i) => Some(Value::Ref(compatible_pool_obj(
            prog, machine, pool, i, m.owner,
        )?)),
    };
    let mut args = Vec::with_capacity(call.args.len());
    for (slot, a) in call.args.iter().enumerate() {
        let v = match a {
            ArgTemplate::Int(n) => Value::Int(*n),
            ArgTemplate::Bool(b) => Value::Bool(*b),
            ArgTemplate::Null => Value::Null,
            ArgTemplate::Pool(i) => {
                let want = match m.param_tys().get(slot) {
                    Some(Ty::Class(c)) => *c,
                    _ => return None,
                };
                match compatible_pool_obj(prog, machine, pool, *i, want) {
                    Some(o) => Value::Ref(o),
                    None => Value::Null,
                }
            }
            ArgTemplate::Fresh(c) => match instantiate(prog, machine, *c, 0) {
                Some(o) => Value::Ref(o),
                None => Value::Null,
            },
        };
        args.push(v);
    }
    Some(PendingInvoke {
        method: call.method,
        recv,
        args,
    })
}

/// Runs one generated test: concurrent executions under random schedules;
/// on failure, both linearizations re-run — a violation is reported only
/// when the failure is concurrency-specific (the ConTeGe oracle).
fn execute_test(
    prog: &Program,
    mir: &MirProgram,
    test: &GeneratedTest,
    test_index: usize,
    opts: &ContegeOptions,
    rng: &mut SplitMix64,
) -> Option<Violation> {
    let pool_size = 4;
    for _ in 0..opts.schedules_per_test {
        let schedule_seed = rng.next_u64();
        let concurrent = run_once(prog, mir, test, pool_size, opts, Some(schedule_seed))?;
        match concurrent {
            Outcome::Clean => continue,
            Outcome::Deadlock => {
                return Some(Violation {
                    test_index,
                    kind: ViolationKind::Deadlock,
                    message: "concurrent execution deadlocked".into(),
                });
            }
            Outcome::Crash(msg) => {
                // Both serial orders must be clean for a true violation.
                let serial = run_once(prog, mir, test, pool_size, opts, None)?;
                if matches!(serial, Outcome::Clean) {
                    return Some(Violation {
                        test_index,
                        kind: ViolationKind::Crash,
                        message: msg,
                    });
                }
            }
        }
    }
    None
}

enum Outcome {
    Clean,
    Crash(String),
    Deadlock,
}

fn run_once(
    prog: &Program,
    mir: &MirProgram,
    test: &GeneratedTest,
    pool_size: usize,
    opts: &ContegeOptions,
    schedule_seed: Option<u64>,
) -> Option<Outcome> {
    let mut machine = Machine::new(
        prog,
        mir,
        MachineOptions {
            seed: opts.seed,
            max_steps: opts.budget,
            ..MachineOptions::default()
        },
    );
    let pool = build_pool(prog, &mut machine, test, pool_size)?;
    // Prefix runs sequentially; its failures are setup noise, not
    // violations.
    for call in &test.prefix {
        if let Some(inv) = materialize(prog, &mut machine, call, &pool) {
            let _ = machine.invoke(inv.method, inv.recv, inv.args, &mut NullSink);
        }
    }
    let mut tids = Vec::new();
    for suffix in &test.suffixes {
        let calls: Vec<PendingInvoke> = suffix
            .iter()
            .filter_map(|c| materialize(prog, &mut machine, c, &pool))
            .collect();
        if calls.is_empty() {
            continue;
        }
        let tid = machine.spawn_invoke_seq(calls, &mut NullSink).ok()?;
        tids.push(tid);
    }
    if tids.len() < 2 {
        return Some(Outcome::Clean);
    }
    let outcome = match schedule_seed {
        Some(seed) => {
            let mut sched = RandomScheduler::with_stickiness(seed, 60);
            machine.run_threads(&mut sched, &mut NullSink, opts.budget)
        }
        None => {
            let mut sched = SerialScheduler::new();
            machine.run_threads(&mut sched, &mut NullSink, opts.budget)
        }
    };
    Some(match outcome {
        RunOutcome::Deadlock { .. } => Outcome::Deadlock,
        RunOutcome::StepLimit | RunOutcome::Saturated | RunOutcome::Decided => Outcome::Clean,
        RunOutcome::Completed => {
            let crash = tids.iter().find_map(|&t| match machine.thread_status(t) {
                ThreadStatus::Failed(e) => Some(e.to_string()),
                _ => None,
            });
            match crash {
                Some(msg) => Outcome::Crash(msg),
                None => Outcome::Clean,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use narada_lang::lower::lower_program;

    fn build(src: &str) -> (Program, MirProgram) {
        let prog = narada_lang::compile(src).unwrap();
        let mir = lower_program(&prog);
        (prog, mir)
    }

    #[test]
    fn finds_crash_in_cracked_reader() {
        // close() nulls buf without a lock: read()||close() crashes
        // concurrently but both serial orders are clean (read checks count
        // first).
        let (prog, mir) = build(
            r#"
            class Reader {
                int[] buf;
                int count;
                int pos;
                init() { this.buf = new int[4]; this.count = 4; this.pos = 0; }
                int read() {
                    if (this.pos < this.count) {
                        var c = this.buf[this.pos];
                        this.pos = this.pos + 1;
                        return c;
                    }
                    return 0 - 1;
                }
                void close() { this.count = 0; this.buf = null; }
            }
            "#,
        );
        let opts = ContegeOptions {
            max_tests: 600,
            seed: 7,
            ..Default::default()
        };
        let result = run_contege(&prog, &mir, &opts);
        assert!(
            !result.violations.is_empty(),
            "random search should eventually crash read||close ({} tests)",
            result.tests_generated
        );
    }

    #[test]
    fn clean_class_produces_no_violations() {
        let (prog, mir) = build(
            r#"
            class Safe {
                int v;
                sync void set(int x) { this.v = x; }
                sync int get() { return this.v; }
            }
            "#,
        );
        let opts = ContegeOptions {
            max_tests: 150,
            ..Default::default()
        };
        let result = run_contege(&prog, &mir, &opts);
        assert!(result.violations.is_empty());
        assert_eq!(result.tests_generated, 150);
    }

    #[test]
    fn deterministic_given_seed() {
        let (prog, mir) = build(
            r#"
            class C {
                int[] a;
                init() { this.a = new int[2]; }
                void w(int i) { this.a[i % 2] = i; }
                void kill() { this.a = null; }
            }
            "#,
        );
        let opts = ContegeOptions {
            max_tests: 300,
            seed: 11,
            ..Default::default()
        };
        let r1 = run_contege(&prog, &mir, &opts);
        let r2 = run_contege(&prog, &mir, &opts);
        assert_eq!(r1.tests_generated, r2.tests_generated);
        assert_eq!(r1.first_violation_at(), r2.first_violation_at());
    }

    #[test]
    fn empty_program_yields_nothing() {
        let (prog, mir) = build("");
        let result = run_contege(&prog, &mir, &ContegeOptions::default());
        assert_eq!(result.tests_generated, 0);
    }
}
