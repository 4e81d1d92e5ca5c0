//! ddmin schedule minimization and fixture replay (exploration engine,
//! part 3).
//!
//! A schedule that manifests a race usually contains thousands of
//! scheduling decisions, almost all irrelevant: the race needs only the
//! few preemptions that put the two conflicting accesses back to back.
//! [`minimize_schedule`] shrinks a manifesting schedule to a (1-)minimal
//! set of *segments* — maximal runs of a single thread — using
//! Zeller/Hildebrandt delta debugging (ddmin) with the passive detectors
//! as the oracle: a candidate passes iff re-executing under it still makes
//! the Eraser-lockset ∪ FastTrack pass report the target [`StaticRaceKey`].
//!
//! Candidates are probed with [`SegmentScheduler`], which tolerates
//! infeasible prefixes (a segment whose thread is blocked or finished is
//! skipped; exhausted schedules fall back to serial execution), so every
//! subset of segments yields *some* complete run. The winning candidate is
//! then re-recorded so the committed `.sched` fixture is an exact,
//! [`ReplayScheduler`]-replayable decision sequence, not a segment sketch.

use crate::fasttrack::FastTrackDetector;
use crate::lockset::LocksetDetector;
use crate::race::StaticRaceKey;
use narada_core::synth::execute_plan;
use narada_core::TestPlan;
use narada_lang::hir::{Program, TestId};
use narada_lang::mir::MirProgram;
use narada_vm::{
    trace_digest, Machine, MachineOptions, RecordingScheduler, ReplayScheduler, Schedule,
    SegmentScheduler, TeeSink, ThreadId, VecSink,
};

/// Hard cap on oracle executions per minimization, so a pathological
/// schedule cannot stall the pipeline (each probe is a full test run).
const MAX_PROBES: usize = 256;

/// Result of minimizing one manifesting schedule.
#[derive(Debug, Clone)]
pub struct MinimizeOutcome {
    /// The minimized schedule, re-recorded as exact decisions (replayable
    /// with [`ReplayScheduler`] against the same machine seed).
    pub schedule: Schedule,
    /// Oracle executions spent.
    pub probes: usize,
    /// Thread-switch count of the input schedule.
    pub initial_preemptions: usize,
    /// Thread-switch count of the minimized schedule.
    pub final_preemptions: usize,
}

/// One re-execution of a plan under a given scheduler with the passive
/// detectors attached: did the target race manifest, and what exact
/// decision sequence ran?
struct Probe {
    manifested: bool,
    recorded: Vec<ThreadId>,
}

#[allow(clippy::too_many_arguments)]
fn probe(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    machine_seed: u64,
    budget: u64,
    target: &StaticRaceKey,
    segments: &[(ThreadId, u64)],
) -> Option<Probe> {
    let mut machine = Machine::new(
        prog,
        mir,
        MachineOptions {
            seed: machine_seed,
            ..MachineOptions::default()
        },
    );
    let mut lockset = LocksetDetector::new();
    let mut hb = FastTrackDetector::new();
    let mut sink = TeeSink {
        a: &mut lockset,
        b: &mut hb,
    };
    let mut rec = RecordingScheduler::new(SegmentScheduler::new(segments.to_vec()));
    execute_plan(&mut machine, seeds, plan, &mut rec, &mut sink, budget).ok()?;
    let manifested = lockset
        .races()
        .iter()
        .chain(hb.races())
        .any(|r| r.static_key() == *target);
    Some(Probe {
        manifested,
        recorded: rec.into_choices(),
    })
}

/// Merges adjacent segments of the same thread (arises when ddmin removes
/// the segment between them).
fn coalesce(segments: &[(ThreadId, u64)]) -> Vec<(ThreadId, u64)> {
    let mut out: Vec<(ThreadId, u64)> = Vec::with_capacity(segments.len());
    for &(tid, n) in segments {
        match out.last_mut() {
            Some((last, count)) if *last == tid => *count += n,
            _ => out.push((tid, n)),
        }
    }
    out
}

/// Shrinks `schedule` to a 1-minimal set of segments that still manifests
/// `target`, then re-records the winning run as an exact decision sequence.
///
/// Returns `None` when the input schedule does not manifest the race in
/// the first place (stale recording, wrong machine seed) — the caller
/// should keep the unminimized schedule in that case.
pub fn minimize_schedule(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    budget: u64,
    target: &StaticRaceKey,
    schedule: &Schedule,
) -> Option<MinimizeOutcome> {
    let machine_seed = schedule.seed;
    let probes = std::cell::Cell::new(0usize);
    let run = |segments: &[(ThreadId, u64)]| -> Option<Probe> {
        probes.set(probes.get() + 1);
        probe(
            prog,
            mir,
            seeds,
            plan,
            machine_seed,
            budget,
            target,
            segments,
        )
    };

    // The input must manifest under its own segment rendering, otherwise
    // there is nothing sound to minimize.
    let mut segments = coalesce(&schedule.runs());
    let mut best = run(&segments)?;
    if !best.manifested {
        return None;
    }
    let initial_preemptions = schedule.preemptions();

    // ddmin (Zeller & Hildebrandt 2002) over the segment list: try
    // removing ever-finer chunks; keep any candidate that still manifests.
    let mut n = 2usize;
    while segments.len() >= 2 && probes.get() < MAX_PROBES {
        let chunk = segments.len().div_ceil(n);
        let mut reduced = None;
        for i in 0..n {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(segments.len()));
            if lo >= hi {
                continue;
            }
            // Complement: everything except chunk i.
            let candidate: Vec<(ThreadId, u64)> = segments[..lo]
                .iter()
                .chain(&segments[hi..])
                .copied()
                .collect();
            let candidate = coalesce(&candidate);
            if candidate.is_empty() {
                continue;
            }
            if let Some(p) = run(&candidate) {
                if p.manifested {
                    reduced = Some((candidate, p));
                    break;
                }
            }
            if probes.get() >= MAX_PROBES {
                break;
            }
        }
        match reduced {
            Some((candidate, p)) => {
                segments = candidate;
                best = p;
                n = 2.max(n - 1);
            }
            None => {
                if n >= segments.len() {
                    break;
                }
                n = (n * 2).min(segments.len());
            }
        }
    }

    // Canonicalize: the committed schedule is the *executed* decision
    // sequence of the winning probe, so replay needs no segment semantics.
    let mut minimized = Schedule::new("ddmin", machine_seed, best.recorded);
    for (k, v) in &schedule.meta {
        minimized.set_meta(k, v);
    }
    let final_preemptions = minimized.preemptions();
    Some(MinimizeOutcome {
        schedule: minimized,
        probes: probes.get(),
        initial_preemptions,
        final_preemptions,
    })
}

/// Result of replaying a committed schedule.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Static keys of every race the passive detectors reported.
    pub keys: Vec<StaticRaceKey>,
    /// Decisions where the recorded thread was not runnable (a faithful
    /// replay reports 0).
    pub divergences: usize,
    /// Order-sensitive digest of the full event trace — byte-identity
    /// oracle for the regression suite.
    pub trace_digest: u64,
    /// Scheduling decisions consumed.
    pub decisions: usize,
}

impl ReplayOutcome {
    /// Whether the replay manifested the given race.
    pub fn manifests(&self, target: &StaticRaceKey) -> bool {
        self.keys.contains(target)
    }
}

/// Re-executes a plan under a recorded schedule (machine seeded from
/// [`Schedule::seed`]) with the passive detectors attached.
///
/// # Errors
///
/// Returns the setup error message when the plan cannot be materialized
/// (capture miss etc.) — a committed fixture failing here means the
/// synthesizer output drifted from the recording.
pub fn replay_schedule(
    prog: &Program,
    mir: &MirProgram,
    seeds: &[TestId],
    plan: &TestPlan,
    budget: u64,
    schedule: &Schedule,
) -> Result<ReplayOutcome, String> {
    let mut machine = Machine::new(
        prog,
        mir,
        MachineOptions {
            seed: schedule.seed,
            ..MachineOptions::default()
        },
    );
    let mut lockset = LocksetDetector::new();
    let mut hb = FastTrackDetector::new();
    let mut trace = VecSink::new();
    let mut detectors = TeeSink {
        a: &mut lockset,
        b: &mut hb,
    };
    let mut sink = TeeSink {
        a: &mut detectors,
        b: &mut trace,
    };
    let mut replay = ReplayScheduler::from_schedule(schedule);
    execute_plan(&mut machine, seeds, plan, &mut replay, &mut sink, budget)
        .map_err(|e| e.to_string())?;
    let mut keys: Vec<StaticRaceKey> = lockset
        .races()
        .iter()
        .chain(hb.races())
        .map(|r| r.static_key())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    Ok(ReplayOutcome {
        keys,
        divergences: replay.divergences(),
        trace_digest: trace_digest(&trace.events),
        decisions: schedule.len(),
    })
}
