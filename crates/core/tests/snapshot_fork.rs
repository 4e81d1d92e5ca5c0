//! Mark/rewind round-trip properties for the capture walk's substrate.
//!
//! The capture walk's correctness rests on one claim: a machine rewound
//! to a fork point is *bit-for-bit* the machine that paused there. This
//! suite checks the claim across every corpus class, every synthesized
//! plan shape, and — via a probe budget sweep — fork points landed
//! mid-monitor (between `MonitorEnter` and `MonitorExit`) and
//! mid-array-write, the two states most likely to smear across a buggy
//! undo log. Oracles: the deterministic heap render and the full-trace
//! digest of the resumed run.

use narada_core::synth::{execute_plan_prefix, execute_plan_suffix};
use narada_core::{synthesize_source, SynthesisOptions, TestPlan};
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_vm::{
    trace_digest, Machine, MachineOptions, NullSink, PctScheduler, RandomScheduler, VecSink,
};

const MACHINE_SEED: u64 = 0x5af0_4c5e;
const SCHED_SEED: u64 = 0x51de;
/// Fibonacci-ish probe budgets: cheap to run, lands probes at many
/// different depths into the suffix (including 1-step probes that stop
/// right inside the first monitor acquisition of `sync` classes).
const PROBE_BUDGETS: &[u64] = &[1, 2, 3, 5, 8, 13, 21, 34, 55];

fn machine_for<'p>(prog: &'p Program, mir: &'p MirProgram) -> Machine<'p> {
    Machine::new(
        prog,
        mir,
        MachineOptions {
            seed: MACHINE_SEED,
            ..MachineOptions::default()
        },
    )
}

/// Reference: one uninterrupted prefix+suffix run. Returns (full trace
/// digest, final heap render, heap render at the fork point is captured
/// by the caller from its own run).
fn reference_run(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
) -> Option<(u64, String)> {
    let mut m = machine_for(prog, mir);
    let mut sink = VecSink::new();
    let prefix = execute_plan_prefix(&mut m, seeds, plan, &mut sink).ok()?;
    let mut sched = PctScheduler::new(SCHED_SEED, 3, 1_000);
    execute_plan_suffix(&mut m, plan, &prefix, &mut sched, &mut sink, 1_000_000).ok()?;
    Some((trace_digest(&sink.events), m.heap.render()))
}

/// The property, for one plan: run the prefix once, then
/// mark → probe K steps under a *different* scheduler → rewind, for a
/// sweep of K; after all that vandalism the resumed suffix must be
/// byte-identical to the uninterrupted reference.
fn check_plan(prog: &Program, mir: &MirProgram, seeds: &[TestId], plan: &TestPlan) -> bool {
    let Some((ref_digest, ref_heap)) = reference_run(prog, mir, seeds, plan) else {
        return false; // plan doesn't execute (capture miss etc.) — skip
    };

    let mut m = machine_for(prog, mir);
    let mut sink = VecSink::new();
    let prefix = execute_plan_prefix(&mut m, seeds, plan, &mut sink).expect("prefix re-runs");
    assert_eq!(m.rng_draws(), 0, "corpus prefixes must be seed-independent");
    let fork_heap = m.heap.render();

    // In-place mark/rewind probes at every budget.
    let mark = m.mark();
    for (i, &k) in PROBE_BUDGETS.iter().enumerate() {
        let mut vandal = RandomScheduler::new(SCHED_SEED ^ (i as u64) << 32 | k);
        let mut null = NullSink;
        // Probe outcome irrelevant (may hit the step limit mid-monitor /
        // mid-array-write — the point); only the rewind matters.
        let _ = execute_plan_suffix(&mut m, plan, &prefix, &mut vandal, &mut null, k);
        m.rewind(&mark);
        assert_eq!(
            m.heap.render(),
            fork_heap,
            "heap not restored after {k}-step probe"
        );
    }

    // Resume for real on the vandalized-then-rewound machine.
    let mut sched = PctScheduler::new(SCHED_SEED, 3, 1_000);
    execute_plan_suffix(&mut m, plan, &prefix, &mut sched, &mut sink, 1_000_000)
        .expect("reference suffix re-runs");
    assert_eq!(
        trace_digest(&sink.events),
        ref_digest,
        "trace diverged after probe storm"
    );
    assert_eq!(m.heap.render(), ref_heap, "final heap diverged");
    true
}

#[test]
fn snapshot_round_trip() {
    let mut plans_checked = 0usize;
    for entry in narada_corpus::all() {
        let (prog, mir, out) = synthesize_source(
            entry.source,
            &SynthesisOptions {
                threads: 1,
                ..SynthesisOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e:?}", entry.id));
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        for t in out.tests.iter().take(2) {
            if check_plan(&prog, &mir, &seeds, &t.plan) {
                plans_checked += 1;
            }
        }
    }
    assert!(
        plans_checked >= 9,
        "snapshot property must exercise most corpus classes (got {plans_checked})"
    );
}
