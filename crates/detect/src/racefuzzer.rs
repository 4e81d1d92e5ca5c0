//! RaceFuzzer-style active race confirmation (Sen, PLDI 2008).
//!
//! Given a *potential* race — a pair of static access sites from a lockset
//! pre-pass (or straight from the Narada pair generator) — the directed
//! scheduler re-executes the test randomly, but when a thread is about to
//! perform one of the target accesses it is *postponed* until some other
//! thread reaches the matching access on the same concrete location. The
//! two accesses then execute back-to-back: the race is real ("reproduced"),
//! and the racing pair's values classify it as harmful or benign.

use crate::race::StaticRaceKey;
use narada_lang::Span;
use narada_vm::rng::SplitMix64;
use narada_vm::{FieldKey, Machine, ObjId, Schedule, Scheduler, ThreadId, Value};

/// Default number of scheduling decisions a thread may stay postponed
/// before the scheduler gives up on pairing it (prevents livelock when the
/// partner access never comes). Override per scheduler with
/// [`RaceFuzzerScheduler::with_postpone_budget`].
pub const DEFAULT_POSTPONE_BUDGET: u32 = 50_000;

/// A race confirmed by adjacent scheduling of its two accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmedRace {
    /// Static identity (source-site pair).
    pub key: StaticRaceKey,
    /// The concrete object raced on.
    pub obj: ObjId,
    /// The concrete location.
    pub field: FieldKey,
    /// Whether the triage judged the race benign (both orders leave the
    /// same observable value — e.g. two `reset`-style writes of identical
    /// values, the paper's C6 case).
    pub benign: bool,
    /// Kinds of the two accesses (`is_write` for postponed/partner).
    pub kinds: (bool, bool),
    /// Machine seed of the confirming run (stamped at confirmation time
    /// from the live machine).
    pub machine_seed: u64,
    /// Seed the directed scheduler was built with.
    pub sched_seed: u64,
    /// The replayable schedule of the confirming run. The scheduler itself
    /// cannot see its own recording wrapper, so this is `None` until the
    /// trial runner stamps it from the [`RecordingScheduler`].
    ///
    /// [`RecordingScheduler`]: narada_vm::RecordingScheduler
    pub schedule: Option<Schedule>,
    /// The static pre-screener's verdict on the synthesized pair, when a
    /// screener ran. The scheduler reports `None`; the CLI stamps it from
    /// `SynthesisOutput::verdicts`.
    pub static_verdict: Option<narada_core::StaticVerdict>,
}

#[derive(Debug, Clone, Copy)]
struct Postponed {
    tid: ThreadId,
    obj: ObjId,
    field: FieldKey,
    is_write: bool,
    span: Span,
    value: Option<Value>,
    age: u32,
}

/// The directed scheduler. Plug into [`Machine::run_threads`]; confirmed
/// races accumulate in [`RaceFuzzerScheduler::confirmed`].
#[derive(Debug)]
pub struct RaceFuzzerScheduler {
    /// Target source sites (both sides of the potential race).
    targets: [Span; 2],
    rng: SplitMix64,
    seed: u64,
    postponed: Option<Postponed>,
    postpone_budget: u32,
    /// Decisions where a postponement was abandoned because its budget ran
    /// out — the give-up path taken when the partner access never arrives.
    pub gave_up: usize,
    /// Races confirmed during the run.
    pub confirmed: Vec<ConfirmedRace>,
}

impl RaceFuzzerScheduler {
    /// Creates a scheduler targeting the given potential race.
    pub fn new(target: StaticRaceKey, seed: u64) -> Self {
        RaceFuzzerScheduler {
            targets: [target.span_a, target.span_b],
            rng: SplitMix64::seed_from_u64(seed),
            seed,
            postponed: None,
            postpone_budget: DEFAULT_POSTPONE_BUDGET,
            gave_up: 0,
            confirmed: Vec::new(),
        }
    }

    /// Overrides the postponement wait budget (scheduling decisions a
    /// thread may stay suspended waiting for its partner access).
    #[must_use]
    pub fn with_postpone_budget(mut self, budget: u32) -> Self {
        self.postpone_budget = budget;
        self
    }

    /// The configured postponement wait budget.
    pub fn postpone_budget(&self) -> u32 {
        self.postpone_budget
    }

    fn classify(
        machine: &Machine<'_>,
        obj: ObjId,
        field: FieldKey,
        a_write: bool,
        a_value: Option<Value>,
        b_write: bool,
        b_value: Option<Value>,
    ) -> bool {
        // benign ⇔ the conflicting values are indistinguishable.
        let current = match field {
            FieldKey::Field(f) => Some(machine.heap.get_field(obj, f)),
            FieldKey::Elem(i) => machine.heap.get_elem(obj, i),
        };
        match (a_write, b_write) {
            (true, true) => match (a_value, b_value) {
                (Some(x), Some(y)) => x.same(y),
                _ => false,
            },
            (true, false) => a_value
                .zip(current)
                .map(|(w, c)| w.same(c))
                .unwrap_or(false),
            (false, true) => b_value
                .zip(current)
                .map(|(w, c)| w.same(c))
                .unwrap_or(false),
            (false, false) => true, // cannot happen (no read-read races)
        }
    }
}

impl Scheduler for RaceFuzzerScheduler {
    fn choose(&mut self, machine: &Machine<'_>, runnable: &[ThreadId]) -> ThreadId {
        // Drop a postponement whose thread finished some other way.
        if let Some(p) = self.postponed {
            if !runnable.contains(&p.tid) {
                self.postponed = None;
            }
        }
        // Age out stale postponements.
        if let Some(p) = &mut self.postponed {
            p.age += 1;
            if p.age > self.postpone_budget {
                let tid = p.tid;
                self.postponed = None;
                self.gave_up += 1;
                return tid;
            }
        }

        // Find threads whose next step is a targeted access.
        for &t in runnable {
            let Some((preview, span)) = machine.preview_detail(t) else {
                continue;
            };
            if span != self.targets[0] && span != self.targets[1] {
                continue;
            }
            let Some((obj, field, is_write)) = preview.access() else {
                continue;
            };
            match self.postponed {
                None => {
                    // Postpone unless it is the only runnable thread.
                    if runnable.len() > 1 {
                        self.postponed = Some(Postponed {
                            tid: t,
                            obj,
                            field,
                            is_write,
                            span,
                            value: preview.written_value(),
                            age: 0,
                        });
                    } else {
                        return t;
                    }
                }
                Some(p) => {
                    if p.tid != t && p.obj == obj && p.field == field && (p.is_write || is_write) {
                        // Both threads poised at the same location: the
                        // race is real. Classify, then let them collide.
                        let benign = Self::classify(
                            machine,
                            obj,
                            field,
                            p.is_write,
                            p.value,
                            is_write,
                            preview.written_value(),
                        );
                        let key = crate::race::RaceReport {
                            obj,
                            field,
                            first: crate::race::RaceAccess {
                                tid: p.tid,
                                is_write: p.is_write,
                                span: p.span,
                            },
                            second: crate::race::RaceAccess {
                                tid: t,
                                is_write,
                                span,
                            },
                            provenance: None,
                            static_verdict: None,
                        }
                        .static_key();
                        if !self.confirmed.iter().any(|c| c.key == key) {
                            self.confirmed.push(ConfirmedRace {
                                key,
                                obj,
                                field,
                                benign,
                                kinds: (p.is_write, is_write),
                                machine_seed: machine.seed(),
                                sched_seed: self.seed,
                                schedule: None,
                                static_verdict: None,
                            });
                        }
                        self.postponed = None;
                        // Randomly pick which access goes first.
                        return if self.rng.gen_bool(0.5) { t } else { p.tid };
                    }
                }
            }
        }

        // Pick randomly among runnable threads that are not postponed,
        // counting and indexing them in `runnable` order.
        let held = self.postponed.map(|p| p.tid);
        let mut candidates = runnable.iter().copied().filter(|&t| Some(t) != held);
        let n = candidates.clone().count();
        if n == 0 {
            // Only the postponed thread remains: release it.
            let t = self.postponed.take().map(|p| p.tid).unwrap_or(runnable[0]);
            return t;
        }
        let pick = self.rng.gen_range(0..n);
        candidates.nth(pick).expect("pick < candidate count")
    }

    fn name(&self) -> &str {
        "racefuzzer"
    }
}
