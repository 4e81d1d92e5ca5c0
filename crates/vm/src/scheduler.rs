//! Thread schedulers for concurrent execution.
//!
//! The machine asks the scheduler which runnable thread should execute the
//! next instruction. Schedulers may inspect the machine (e.g. preview the
//! next access of each thread) — the RaceFuzzer-style confirmer in
//! `narada-detect` uses exactly this hook.

use crate::event::ThreadId;
use crate::machine::Machine;
use crate::rng::SplitMix64;
use crate::schedule::Schedule;

/// Chooses which runnable thread steps next.
pub trait Scheduler {
    /// Picks one element of `runnable` (guaranteed non-empty).
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "scheduler"
    }

    /// Priority-change points actually consumed so far. Only directed
    /// strategies (PCT) spend change points; everything else reports 0,
    /// which the exploration telemetry sums into
    /// `explore.change_points_probed`.
    fn change_points_probed(&self) -> u64 {
        0
    }
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        (**self).choose(machine, runnable)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn change_points_probed(&self) -> u64 {
        (**self).change_points_probed()
    }
}

/// Deterministic round-robin over runnable threads.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let pick = runnable[self.next % runnable.len()];
        self.next = self.next.wrapping_add(1);
        pick
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Uniformly random interleaving with an optional "stickiness" bias that
/// keeps running the same thread for short bursts, mimicking real
/// preemption granularity.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: SplitMix64,
    /// Probability (0–100) of staying on the previously chosen thread when
    /// it is still runnable.
    stay_percent: u8,
    last: Option<ThreadId>,
}

impl RandomScheduler {
    /// Creates a seeded uniform scheduler.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64::seed_from_u64(seed),
            stay_percent: 0,
            last: None,
        }
    }

    /// Creates a seeded scheduler that keeps the current thread running
    /// with the given probability (percent).
    pub fn with_stickiness(seed: u64, stay_percent: u8) -> Self {
        RandomScheduler {
            rng: SplitMix64::seed_from_u64(seed),
            stay_percent: stay_percent.min(100),
            last: None,
        }
    }
}

impl Scheduler for RandomScheduler {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        if let Some(last) = self.last {
            if runnable.contains(&last) && self.rng.gen_range(0..100) < self.stay_percent {
                return last;
            }
        }
        let pick = runnable[self.rng.gen_range(0..runnable.len())];
        self.last = Some(pick);
        pick
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// PCT — probabilistic concurrency testing (Burckhardt et al., ASPLOS
/// 2010): bounded-preemption priority scheduling. Every thread receives a
/// random high priority; `depth − 1` *priority-change points* are sampled
/// uniformly over an expected execution `horizon`; between change points
/// the highest-priority runnable thread runs uninterrupted, and at each
/// change point the currently favoured thread is demoted below every
/// other. For a bug of preemption depth `d`, one run manifests it with
/// probability ≥ 1/(n·kᵈ⁻¹) — far better than uniform random
/// interleaving, whose preemptions scatter over the whole run.
#[derive(Debug)]
pub struct PctScheduler {
    rng: SplitMix64,
    /// Sorted remaining change points (scheduling-decision indices).
    change_points: Vec<u64>,
    /// Demotion rank handed out at the next change point (0 = lowest).
    next_demotion: u64,
    /// Per-thread priority, lazily assigned; higher runs first. Demoted
    /// threads get values below `DEMOTED_BAND`.
    priorities: Vec<u64>,
    /// Scheduling decisions taken so far.
    step: u64,
    /// Change points consumed (popped at their decision index).
    probed: u64,
    depth: usize,
    horizon: u64,
}

/// Priorities at or above this value are "high" (initial random band);
/// demotions assign 0, 1, 2, … so earlier demotions sink deeper.
const DEMOTED_BAND: u64 = 1 << 32;

impl PctScheduler {
    /// Creates a PCT scheduler with `depth` (total priority budget, ≥ 1;
    /// `depth − 1` change points) over an expected run length of
    /// `horizon` scheduling decisions.
    pub fn new(seed: u64, depth: usize, horizon: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let horizon = horizon.max(1);
        let mut change_points: Vec<u64> = (0..depth.saturating_sub(1))
            .map(|_| rng.gen_range(0..horizon))
            .collect();
        change_points.sort_unstable();
        change_points.reverse(); // pop() yields the earliest
        PctScheduler {
            rng,
            change_points,
            next_demotion: 0,
            priorities: Vec::new(),
            step: 0,
            probed: 0,
            depth,
            horizon,
        }
    }

    /// The configured preemption depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured horizon (change-point sampling range).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    fn priority(&mut self, tid: ThreadId) -> u64 {
        let i = tid.index();
        while self.priorities.len() <= i {
            // Random distinct-with-high-probability priorities in the
            // high band; ties broken by thread id below.
            let p = DEMOTED_BAND + (self.rng.next_u64() >> 16);
            self.priorities.push(p);
        }
        self.priorities[i]
    }

    fn top(&mut self, runnable: &[ThreadId]) -> ThreadId {
        let mut best = runnable[0];
        let mut best_p = self.priority(best);
        for &t in &runnable[1..] {
            let p = self.priority(t);
            if p > best_p || (p == best_p && t.0 > best.0) {
                best = t;
                best_p = p;
            }
        }
        best
    }
}

impl Scheduler for PctScheduler {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let mut pick = self.top(runnable);
        // `while`: coinciding change points each demote the current top.
        while self.change_points.last() == Some(&self.step) {
            self.change_points.pop();
            self.probed += 1;
            // Demote the thread that *would* run now below every other.
            self.priorities[pick.index()] = self.next_demotion;
            self.next_demotion += 1;
            pick = self.top(runnable);
        }
        self.step += 1;
        pick
    }

    fn name(&self) -> &str {
        "pct"
    }

    fn change_points_probed(&self) -> u64 {
        self.probed
    }
}

/// Runs the first runnable thread to completion before the next — the
/// *serialized* schedule used as the ConTeGe baseline's oracle reference.
#[derive(Debug, Default)]
pub struct SerialScheduler;

impl SerialScheduler {
    /// Creates a serializing scheduler.
    pub fn new() -> Self {
        SerialScheduler
    }
}

impl Scheduler for SerialScheduler {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        runnable[0]
    }

    fn name(&self) -> &str {
        "serial"
    }
}

/// Wraps another scheduler, recording every choice so the exact
/// interleaving can be replayed later with [`ReplayScheduler`] — the
/// mechanism behind "automatically reproduced" races: once a schedule
/// manifests a race, it can be re-executed deterministically.
#[derive(Debug)]
pub struct RecordingScheduler<S> {
    inner: S,
    /// The recorded choices, in order.
    pub choices: Vec<ThreadId>,
}

impl<S: Scheduler> RecordingScheduler<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        RecordingScheduler {
            inner,
            choices: Vec::new(),
        }
    }

    /// The recorded schedule.
    pub fn into_schedule(self) -> Vec<ThreadId> {
        self.choices
    }

    /// Packages the recorded choices as a replayable [`Schedule`], named
    /// after the inner scheduler and stamped with the machine seed of the
    /// recorded run.
    pub fn to_schedule(&self, machine_seed: u64) -> Schedule {
        Schedule::new(self.inner.name(), machine_seed, self.choices.clone())
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let pick = self.inner.choose(machine, runnable);
        self.choices.push(pick);
        pick
    }

    fn name(&self) -> &str {
        "recording"
    }

    fn change_points_probed(&self) -> u64 {
        self.inner.change_points_probed()
    }
}

/// Wraps another scheduler, counting its decisions into the telemetry
/// registry: `sched.decisions` counts choices, `sched.preemptions` counts
/// choices that switched away from a still-runnable thread. A decision
/// bumps plain fields only; the totals are published to the registry
/// once, when the wrapper is dropped, so concurrent runs sharing one
/// registry never write the same atomics per decision. Both are
/// commutative counter sums, so totals are identical at any `--threads`
/// value.
#[derive(Debug)]
pub struct ObservedScheduler<S> {
    inner: S,
    decisions: u64,
    preemptions: u64,
    decisions_out: narada_obs::Counter,
    preemptions_out: narada_obs::Counter,
    last: Option<ThreadId>,
}

impl<S: Scheduler> ObservedScheduler<S> {
    /// Wraps `inner`, publishing into `metrics` when dropped.
    pub fn new(inner: S, metrics: &narada_obs::Metrics) -> Self {
        ObservedScheduler {
            inner,
            decisions: 0,
            preemptions: 0,
            decisions_out: metrics.counter("sched.decisions"),
            preemptions_out: metrics.counter("sched.preemptions"),
            last: None,
        }
    }

    /// Decisions taken so far (not yet published).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

impl<S> Drop for ObservedScheduler<S> {
    fn drop(&mut self) {
        self.decisions_out.add(self.decisions);
        self.preemptions_out.add(self.preemptions);
    }
}

impl<S: Scheduler> Scheduler for ObservedScheduler<S> {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let pick = self.inner.choose(machine, runnable);
        self.decisions += 1;
        if let Some(last) = self.last {
            if pick != last && runnable.contains(&last) {
                self.preemptions += 1;
            }
        }
        self.last = Some(pick);
        pick
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn change_points_probed(&self) -> u64 {
        self.inner.change_points_probed()
    }
}

/// Replays a recorded schedule step for step. When the recording is
/// exhausted (or the recorded thread is no longer runnable — which cannot
/// happen when replaying against the same deterministic program and seed),
/// it falls back to the first runnable thread.
#[derive(Debug)]
pub struct ReplayScheduler {
    schedule: Vec<ThreadId>,
    pos: usize,
    divergences: usize,
}

impl ReplayScheduler {
    /// Creates a replayer for a recorded schedule.
    pub fn new(schedule: Vec<ThreadId>) -> Self {
        ReplayScheduler {
            schedule,
            pos: 0,
            divergences: 0,
        }
    }

    /// Creates a replayer for a parsed [`Schedule`] log. The machine must
    /// be constructed with the same seed ([`Schedule::seed`]) for the
    /// replay to be byte-identical.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        Self::new(schedule.choices.clone())
    }

    /// True when every recorded choice was consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.schedule.len()
    }

    /// Number of decisions where the recorded thread was not runnable and
    /// the fallback was used. Non-zero means the replayed program or seed
    /// differs from the recording — a faithful replay reports 0.
    pub fn divergences(&self) -> usize {
        self.divergences
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        let recorded = self.schedule.get(self.pos).copied();
        self.pos += 1;
        match recorded {
            Some(t) if runnable.contains(&t) => t,
            _ => {
                self.divergences += 1;
                runnable[0]
            }
        }
    }

    fn name(&self) -> &str {
        "replay"
    }
}

/// Follows a sequence of `(thread, steps)` segments — the candidate
/// schedules ddmin minimization probes. A segment whose thread is no
/// longer runnable (finished, blocked, parked) is skipped; when all
/// segments are consumed the scheduler degenerates to serial execution.
/// Unlike [`ReplayScheduler`], infeasible candidates are tolerated rather
/// than diverging step counts: the point is to *search* schedules, not to
/// reproduce one exactly.
#[derive(Debug)]
pub struct SegmentScheduler {
    segments: Vec<(ThreadId, u64)>,
    pos: usize,
    used: u64,
}

impl SegmentScheduler {
    /// Creates a scheduler following `segments` in order.
    pub fn new(segments: Vec<(ThreadId, u64)>) -> Self {
        SegmentScheduler {
            segments,
            pos: 0,
            used: 0,
        }
    }
}

impl Scheduler for SegmentScheduler {
    fn choose(&mut self, _machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        while let Some(&(tid, len)) = self.segments.get(self.pos) {
            if self.used >= len || !runnable.contains(&tid) {
                self.pos += 1;
                self.used = 0;
                continue;
            }
            self.used += 1;
            return tid;
        }
        runnable[0]
    }

    fn name(&self) -> &str {
        "segments"
    }
}

/// A scheduler family selectable from configuration (the CLI's
/// `--strategy` flag): how the exploration engine interleaves threads
/// when hunting for a race manifestation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ScheduleStrategy {
    /// Uniformly random interleaving ([`RandomScheduler`]).
    #[default]
    Random,
    /// Random with a bias to keep running the current thread
    /// ([`RandomScheduler::with_stickiness`]).
    Sticky {
        /// Probability (percent) of staying on the current thread.
        stay_percent: u8,
    },
    /// PCT bounded-preemption priority scheduling ([`PctScheduler`]).
    Pct {
        /// Priority-change budget (`depth − 1` change points).
        depth: usize,
    },
    /// Deterministic round-robin ([`RoundRobin`]).
    RoundRobin,
}

impl ScheduleStrategy {
    /// Parses a `--strategy` value: `random`, `sticky[:PERCENT]`,
    /// `pct[:DEPTH]`, or `rr`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names or bad numbers.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let num = |default: u64| -> Result<u64, String> {
            match arg {
                None => Ok(default),
                Some(a) => a
                    .parse()
                    .map_err(|_| format!("bad strategy argument `{a}` in `{s}`")),
            }
        };
        match name {
            "random" => Ok(ScheduleStrategy::Random),
            "sticky" => Ok(ScheduleStrategy::Sticky {
                stay_percent: num(90)?.min(100) as u8,
            }),
            "pct" => Ok(ScheduleStrategy::Pct {
                depth: num(3)?.max(1) as usize,
            }),
            "rr" | "round-robin" => Ok(ScheduleStrategy::RoundRobin),
            _ => Err(format!(
                "unknown strategy `{s}` (expected pct[:DEPTH], random, sticky[:PERCENT], rr)"
            )),
        }
    }

    /// Overrides the PCT depth (no-op for other strategies).
    #[must_use]
    pub fn with_depth(self, depth: usize) -> Self {
        match self {
            ScheduleStrategy::Pct { .. } => ScheduleStrategy::Pct {
                depth: depth.max(1),
            },
            other => other,
        }
    }

    /// Instantiates the scheduler. `horizon` is the expected number of
    /// scheduling decisions of one run (PCT samples its change points in
    /// that range; other strategies ignore it).
    pub fn build(&self, seed: u64, horizon: u64) -> Box<dyn Scheduler> {
        match *self {
            ScheduleStrategy::Random => Box::new(RandomScheduler::new(seed)),
            ScheduleStrategy::Sticky { stay_percent } => {
                Box::new(RandomScheduler::with_stickiness(seed, stay_percent))
            }
            ScheduleStrategy::Pct { depth } => Box::new(PctScheduler::new(seed, depth, horizon)),
            ScheduleStrategy::RoundRobin => Box::new(RoundRobin::new()),
        }
    }

    /// The strategy's display name (matches [`Scheduler::name`] of the
    /// built scheduler, plus parameters).
    pub fn label(&self) -> String {
        match *self {
            ScheduleStrategy::Random => "random".into(),
            ScheduleStrategy::Sticky { stay_percent } => format!("sticky:{stay_percent}"),
            ScheduleStrategy::Pct { depth } => format!("pct:{depth}"),
            ScheduleStrategy::RoundRobin => "rr".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narada_lang::lower::lower_program;

    fn two_thread_machine(src: &str) -> (narada_lang::hir::Program, narada_lang::mir::MirProgram) {
        let prog = narada_lang::compile(src).expect("test program compiles");
        let mir = lower_program(&prog);
        (prog, mir)
    }

    const SRC: &str = r#"
        class C {
            int x;
            void bump() {
                var i = 0;
                while (i < 20) { this.x = this.x + 1; i = i + 1; }
            }
        }
        test seed { var c = new C(); c.bump(); }
    "#;

    /// Spawns two `bump` threads and runs them under `sched`, returning
    /// the recorded choice sequence.
    fn drive(sched: &mut dyn Scheduler, seed: u64) -> Vec<ThreadId> {
        let (prog, mir) = two_thread_machine(SRC);
        let mut m = crate::Machine::new(
            &prog,
            &mir,
            crate::MachineOptions {
                seed,
                ..Default::default()
            },
        );
        let mut sink = crate::NullSink;
        let c = m
            .heap
            .alloc_instance(&prog, prog.class_by_name("C").unwrap());
        let bump = prog.methods.iter().find(|mm| mm.name == "bump").unwrap().id;
        m.spawn_invoke(bump, Some(crate::Value::Ref(c)), vec![], &mut sink)
            .unwrap();
        m.spawn_invoke(bump, Some(crate::Value::Ref(c)), vec![], &mut sink)
            .unwrap();
        let mut rec = RecordingScheduler::new(sched);
        let outcome = m.run_threads(&mut rec, &mut sink, 100_000);
        assert_eq!(outcome, crate::RunOutcome::Completed);
        rec.into_schedule()
    }

    #[test]
    fn pct_is_deterministic_given_seed() {
        let a = drive(&mut PctScheduler::new(7, 3, 256), 1);
        let b = drive(&mut PctScheduler::new(7, 3, 256), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn pct_bounds_preemptions_by_depth() {
        // With d priority values there are at most d − 1 change points;
        // every other context switch can only come from thread completion
        // or blocking, of which this program has at most one per thread.
        for seed in 0..32u64 {
            let choices = drive(&mut PctScheduler::new(seed, 3, 256), seed);
            let sched = Schedule::new("pct", seed, choices);
            assert!(
                sched.preemptions() <= 2 + 2,
                "seed {seed}: {} preemptions exceed depth+completions budget",
                sched.preemptions()
            );
        }
    }

    #[test]
    fn pct_depth_one_is_priority_serial() {
        // No change points: the highest-priority thread runs to completion
        // before the other starts (one switch at thread exit).
        let choices = drive(&mut PctScheduler::new(3, 1, 256), 3);
        let sched = Schedule::new("pct", 3, choices);
        assert!(sched.preemptions() <= 1, "{:?}", sched.runs());
    }

    #[test]
    fn pct_counts_consumed_change_points() {
        // depth 1 → no change points, nothing to probe.
        let mut serialish = PctScheduler::new(3, 1, 256);
        drive(&mut serialish, 3);
        assert_eq!(serialish.change_points_probed(), 0);
        // depth 3 over a short horizon → both change points land inside
        // the run and are consumed; wrappers forward the count.
        let mut pct = PctScheduler::new(7, 3, 64);
        let mut rec = RecordingScheduler::new(&mut pct);
        drive(&mut rec, 1);
        assert_eq!(rec.change_points_probed(), 2);
        assert_eq!(pct.change_points_probed(), 2);
    }

    #[test]
    fn observed_scheduler_streams_decision_counters() {
        let metrics = narada_obs::Metrics::new();
        let mut obs = ObservedScheduler::new(RandomScheduler::new(99), &metrics);
        let choices = drive(&mut obs, 5);
        // Totals reach the registry once per run, when the wrapper drops.
        assert_eq!(obs.decisions(), choices.len() as u64);
        assert_eq!(metrics.counter("sched.decisions").get(), 0);
        drop(obs);
        assert_eq!(
            metrics.counter("sched.decisions").get(),
            choices.len() as u64
        );
        // True preemptions (switching off a still-runnable thread) are a
        // subset of all context switches.
        let switches = Schedule::new("random", 5, choices).preemptions() as u64;
        let preemptions = metrics.counter("sched.preemptions").get();
        assert!(preemptions <= switches, "{preemptions} > {switches}");
        assert!(
            preemptions > 0,
            "a random schedule of two contended threads preempts"
        );
        // And the wrapper is transparent to the recorded interleaving.
        let replayed = drive(&mut RandomScheduler::new(99), 5);
        let again = drive(
            &mut ObservedScheduler::new(RandomScheduler::new(99), &metrics),
            5,
        );
        assert_eq!(replayed, again);
    }

    #[test]
    fn replay_reproduces_recorded_run() {
        let choices = drive(&mut RandomScheduler::new(99), 5);
        let replayed = drive(&mut ReplayScheduler::new(choices.clone()), 5);
        assert_eq!(choices, replayed, "replay must follow the recording");
    }

    #[test]
    fn replay_counts_divergences() {
        // A schedule naming a thread that is never runnable diverges.
        let mut r = ReplayScheduler::new(vec![ThreadId(7); 4]);
        let _ = drive(&mut r, 5);
        assert!(r.divergences() > 0);
    }

    #[test]
    fn segment_scheduler_follows_then_falls_back_serial() {
        let choices = drive(
            &mut SegmentScheduler::new(vec![(ThreadId(1), 5), (ThreadId(2), 3), (ThreadId(1), 2)]),
            5,
        );
        assert_eq!(&choices[..5], &[ThreadId(1); 5]);
        assert_eq!(&choices[5..8], &[ThreadId(2); 3]);
        assert_eq!(&choices[8..10], &[ThreadId(1); 2]);
        // Tail is serial: lowest runnable thread first, no interleaving.
        let tail = Schedule::new("segments", 0, choices[10..].to_vec());
        assert!(tail.preemptions() <= 1, "{:?}", tail.runs());
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            ScheduleStrategy::parse("pct").unwrap(),
            ScheduleStrategy::Pct { depth: 3 }
        );
        assert_eq!(
            ScheduleStrategy::parse("pct:5").unwrap(),
            ScheduleStrategy::Pct { depth: 5 }
        );
        assert_eq!(
            ScheduleStrategy::parse("sticky:40").unwrap(),
            ScheduleStrategy::Sticky { stay_percent: 40 }
        );
        assert_eq!(
            ScheduleStrategy::parse("random").unwrap(),
            ScheduleStrategy::Random
        );
        assert_eq!(
            ScheduleStrategy::parse("rr").unwrap(),
            ScheduleStrategy::RoundRobin
        );
        assert!(ScheduleStrategy::parse("quantum").is_err());
        assert!(ScheduleStrategy::parse("pct:x").is_err());
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in ["pct:3", "sticky:90", "random", "rr"] {
            let parsed = ScheduleStrategy::parse(s).unwrap();
            assert_eq!(ScheduleStrategy::parse(&parsed.label()).unwrap(), parsed);
        }
    }
}
