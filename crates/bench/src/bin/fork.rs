//! Fork-vs-rerun explorer shootout: **executed prefix steps** and wall
//! clock on C1's narrow-window plans (the paper's motivating benchmark).
//!
//! Both explorers run the *same* detection workload — the narrow-window
//! racy plans of C1, screened exactly as the schedule-exploration
//! shootout screens them (reachable under random scouting, but
//! manifesting on under half of the scouts) — and must produce
//! byte-identical verdicts; the bench asserts it. What differs is the
//! work: the re-execution explorer runs the sequential prefix once per
//! trial, the fork explorer runs it once per test and probes suffixes
//! from copy-on-write snapshot forks. The headline metric is the ratio
//! of prefix steps the two modes execute (`fork.prefix_step_ratio_x100`,
//! gated by the trend baseline at ≥ 3×), with wall clock reported
//! alongside.
//!
//! Knobs: `NARADA_REPS` (wall-clock repetitions, default 5),
//! `NARADA_MAX_PLANS` (default 12), `NARADA_THREADS`. An output path
//! argument (e.g. `results/fork_exploration.md`) additionally writes the
//! report there.

use narada_bench::render_table;
use narada_core::{execute_plan, synthesize, SynthesisOptions, TestPlan};
use narada_corpus::by_id;
use narada_detect::{
    evaluate_suite_full, evaluate_test_observed, ClassDetection, DetectConfig, ExploreMode,
    TestReport,
};
use narada_explore::prepare_fork_point;
use narada_lang::hir::{Program, TestId};
use narada_lang::lower::lower_program;
use narada_lang::mir::MirProgram;
use narada_obs::{MetricValue, Obs};
use narada_vm::rng::derive_seed;
use narada_vm::{
    Machine, MachineOptions, NullSink, ObjectData, RecordingScheduler, ScheduleStrategy, Scheduler,
    SegmentScheduler, SerialScheduler, ThreadId, Value,
};

const BASE_SEED: u64 = 0xf0_4cbe;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Allocation-order-insensitive digest of the final heap (multiset of
/// per-object value summaries) — the same serializability oracle the
/// schedule-exploration shootout uses.
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

fn run_once(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    scheduler: &mut dyn Scheduler,
    machine_seed: u64,
) -> Option<(u64, bool, [ThreadId; 2])> {
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
        heap_digest(&machine),
        !report.failures.is_empty(),
        report.threads,
    ))
}

/// Outcomes of the two serial orders of the racy calls: a scouting run
/// whose (digest, crashed) matches neither is non-serializable.
fn serial_outcomes(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    machine_seed: u64,
) -> Option<Vec<(u64, bool)>> {
    let mut rec = RecordingScheduler::new(SerialScheduler::new());
    let (d1, c1, [a, b]) = run_once(prog, mir, seeds, plan, &mut rec, machine_seed)?;
    let big = rec.choices.len() as u64 + 1_000;
    let mut ba = SegmentScheduler::new(vec![(b, big), (a, big)]);
    let (d2, c2, _) = run_once(prog, mir, seeds, plan, &mut ba, machine_seed)?;
    let mut allowed = vec![(d1, c1)];
    if (d2, c2) != (d1, c1) {
        allowed.push((d2, c2));
    }
    Some(allowed)
}

/// One explorer mode's observable output as a byte string (wall clock
/// excluded), mirroring the fork differential suite's renderer.
fn render_verdicts(reports: &[TestReport], agg: &ClassDetection) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            out,
            "test {i}: detected={:?} reproduced={:?} errors={:?}",
            r.detected, r.reproduced, r.setup_errors
        );
    }
    let _ = writeln!(
        out,
        "agg: detected={} harmful={} benign={} unreproduced={}",
        agg.races_detected, agg.harmful, agg.benign, agg.unreproduced
    );
    out
}

fn main() {
    let reps = env_usize("NARADA_REPS", 5);
    let max_plans = env_usize("NARADA_MAX_PLANS", 12);
    let threads = narada_bench::env_threads();
    let out_path = std::env::args().nth(1);
    let obs = Obs::new();
    let bench_start = std::time::Instant::now();

    let entry = by_id("C1").expect("C1 in corpus");
    let prog = entry.compile().expect("C1 compiles");
    let mir = lower_program(&prog);
    let out = synthesize(&prog, &mir, &SynthesisOptions::default());
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();

    // Screen: narrow-window racy plans — reachable (some random scout
    // goes non-serializable) but under half the scouts manifest.
    let scout = 16u64;
    let mut screened: Vec<&TestPlan> = Vec::new();
    for (i, t) in out.tests.iter().enumerate() {
        if !t.plan.expects_race {
            continue;
        }
        let ms = derive_seed(BASE_SEED, &[1, i as u64]);
        let Some(allowed) = serial_outcomes(&prog, &mir, &seeds, &t.plan, ms) else {
            continue;
        };
        let hits = (0..scout)
            .filter(|&k| {
                let ss = derive_seed(BASE_SEED, &[2, i as u64, k]);
                let mut sched = ScheduleStrategy::Random.build(ss, 1_000);
                run_once(&prog, &mir, &seeds, &t.plan, &mut *sched, ms)
                    .map(|(d, c, _)| !allowed.contains(&(d, c)))
                    .unwrap_or(false)
            })
            .count();
        if hits > 0 && hits < scout as usize / 2 {
            screened.push(&t.plan);
        }
    }
    if screened.is_empty() {
        screened = out
            .tests
            .iter()
            .filter(|t| t.plan.expects_race)
            .map(|t| &t.plan)
            .collect();
    }
    screened.truncate(max_plans);
    eprintln!("C1: {} narrow-window plans under bench", screened.len());

    let cfg = |explore: ExploreMode| DetectConfig {
        schedule_trials: 6,
        confirm_trials: 4,
        seed: 42,
        budget: 2_000_000,
        threads,
        strategy: ScheduleStrategy::Pct { depth: 3 },
        explore,
        ..DetectConfig::default()
    };

    // One timed detection sweep per mode per repetition; the first
    // repetition's verdicts are compared across modes.
    let run_mode = |mode: ExploreMode| {
        let mut walls = Vec::new();
        let mut kept: Option<String> = None;
        for _ in 0..reps {
            let start = std::time::Instant::now();
            let (reports, agg) =
                evaluate_suite_full(&prog, &mir, &seeds, &screened, &cfg(mode), &Obs::new());
            walls.push(start.elapsed());
            if kept.is_none() {
                kept = Some(render_verdicts(&reports, &agg));
            }
        }
        (kept.expect("at least one repetition"), walls)
    };
    let (rerun_verdicts, rerun_walls) = run_mode(ExploreMode::Rerun);
    let (fork_verdicts, fork_walls) = run_mode(ExploreMode::Fork);
    assert_eq!(
        fork_verdicts, rerun_verdicts,
        "fork explorer diverged from rerun — the shootout compares nothing"
    );

    // Prefix-step accounting, plan by plan. A plan that forks executes
    // its prefix once; rerun executes it once per probe (every detection
    // trial and confirmation attempt). The fork point is re-prepared to
    // count the prefix's steps, and the plan's probes are re-counted from
    // a run of its own (the counts are deterministic).
    let counter = |obs: &Obs, name: &str| match obs.metrics.value(name) {
        Some(MetricValue::Counter(v)) => v,
        _ => 0,
    };
    let (mut forks, mut probes, mut saved, mut fork_prefix_steps) = (0u64, 0u64, 0u64, 0u64);
    for (i, plan) in screened.iter().enumerate() {
        let mut m = Machine::new(
            &prog,
            &mir,
            MachineOptions {
                seed: derive_seed(42, &[1, 0, 0]),
                ..MachineOptions::default()
            },
        );
        let Ok(fp) = prepare_fork_point(&mut m, &seeds, plan, &mut NullSink) else {
            continue;
        };
        let plan_obs = Obs::new();
        evaluate_test_observed(
            &prog,
            &mir,
            &seeds,
            plan,
            &cfg(ExploreMode::Fork),
            i as u64,
            &plan_obs,
        );
        let plan_probes =
            counter(&plan_obs, "detect.trials") + counter(&plan_obs, "detect.confirm_trials");
        forks += 1;
        probes += plan_probes;
        fork_prefix_steps += fp.prefix_steps;
        saved += fp.prefix_steps * plan_probes.saturating_sub(1);
    }
    let rerun_prefix_steps = saved + fork_prefix_steps;
    assert!(forks > 0, "no plan ever forked — nothing was measured");
    let ratio = rerun_prefix_steps as f64 / fork_prefix_steps.max(1) as f64;
    assert!(
        ratio >= 3.0,
        "fork mode must execute >=3x fewer prefix steps, got {ratio:.2}x"
    );

    let min_s = |w: &[std::time::Duration]| w.iter().min().map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let mean_s = |w: &[std::time::Duration]| {
        w.iter().map(|d| d.as_secs_f64()).sum::<f64>() / w.len().max(1) as f64
    };
    let rows = vec![
        vec![
            "rerun".to_string(),
            rerun_prefix_steps.to_string(),
            format!("{:.3}", min_s(&rerun_walls)),
            format!("{:.3}", mean_s(&rerun_walls)),
        ],
        vec![
            "fork".to_string(),
            fork_prefix_steps.to_string(),
            format!("{:.3}", min_s(&fork_walls)),
            format!("{:.3}", mean_s(&fork_walls)),
        ],
    ];
    let table = render_table(
        &[
            "explorer",
            "prefix steps executed",
            "min wall (s)",
            "mean wall (s)",
        ],
        &rows,
    );
    println!("Fork-vs-rerun explorer shootout (C1 narrow-window plans)");
    print!("{table}");
    println!(
        "prefix-step ratio {ratio:.1}x  (forks {forks}, probes {probes}, steps saved {saved})"
    );

    obs.metrics.counter("fork.plans").add(screened.len() as u64);
    obs.metrics.counter("fork.forks").add(forks);
    obs.metrics.counter("fork.probes").add(probes);
    obs.metrics
        .counter("fork.prefix_steps_rerun")
        .add(rerun_prefix_steps);
    obs.metrics
        .counter("fork.prefix_steps_fork")
        .add(fork_prefix_steps);
    obs.metrics.counter("fork.prefix_steps_saved").add(saved);
    obs.metrics
        .counter("fork.prefix_step_ratio_x100")
        .add((ratio * 100.0) as u64);
    obs.metrics
        .gauge("bench.fork.rerun_wall_ns")
        .set((min_s(&rerun_walls) * 1e9) as u64);
    obs.metrics
        .gauge("bench.fork.fork_wall_ns")
        .set((min_s(&fork_walls) * 1e9) as u64);

    if let Some(path) = out_path {
        let report = format!(
            "# Snapshot-forking exploration: fork vs rerun (C1)\n\n\
             Both explorers run the same detection workload over C1's\n\
             narrow-window racy plans (screened as in\n\
             `schedule_exploration.md`: reachable under random scouting but\n\
             manifesting on under half the scouts) with schedules 6,\n\
             confirms 4, PCT depth 3 — and the bench asserts their verdicts\n\
             are byte-identical before comparing cost. The re-execution\n\
             explorer runs each test's sequential prefix once per trial;\n\
             the fork explorer runs it once per test, snapshots the machine\n\
             (copy-on-write heap marks), and probes every suffix from\n\
             restored forks.\n\n\
             - plans: {} (narrow-window racy plans of C1)\n\
             - wall repetitions: {reps} (min and mean reported)\n\n\
             ```text\n{table}```\n\n\
             The fork explorer executed {ratio:.1}x fewer prefix steps\n\
             ({fork_prefix_steps} vs {rerun_prefix_steps}; {forks} forks\n\
             serving {probes} probes, {saved} steps saved), which the\n\
             wall-clock column reflects directly — the prefix dominates\n\
             C1's per-trial cost, so skipping its re-execution is the whole\n\
             win. `BENCH_fork.json` gates the step accounting (and the\n\
             >=3x ratio) in CI; wall clock stays informational.\n",
            screened.len(),
        );
        std::fs::write(&path, &report).expect("write results file");
        eprintln!("wrote {path}");
    }

    obs.metrics
        .gauge("bench.fork.wall_ns")
        .set_duration(bench_start.elapsed());
    narada_bench::write_manifest(
        "fork",
        1,
        &obs,
        &[
            ("reps", reps.to_string()),
            ("max_plans", max_plans.to_string()),
            ("base_seed", format!("{BASE_SEED:#x}")),
        ],
    );
}
