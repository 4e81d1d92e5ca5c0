//! Compact, replayable schedule logs.
//!
//! A [`Schedule`] is the serializable record of one concurrent execution:
//! the machine seed, the producing scheduler, the VM version, and the
//! thread chosen at every scheduling decision. Because the machine is a
//! pure function of `(program, seed, schedule)`, feeding a recorded
//! schedule back through a [`ReplayScheduler`](crate::ReplayScheduler)
//! re-executes the run byte-identically — the mechanism that turns a
//! manifested race from a probabilistic event into a regression artifact.
//!
//! ## The `.sched` text format
//!
//! Line-oriented, human-diffable, stable across platforms:
//!
//! ```text
//! narada-sched v1
//! vm 0.1.0
//! scheduler pct
//! seed 0x2a
//! class C1              # free-form metadata (key value), preserved
//! schedule 0x12 1x5 0x3
//! ```
//!
//! The `schedule` line run-length encodes the choices as `TIDxCOUNT`
//! tokens (`0x12` = thread 0 for 12 consecutive decisions). Unknown keys
//! are collected into [`Schedule::meta`] so higher layers (the race
//! confirmer's fixtures) can round-trip their own metadata — target race
//! key, plan index, expected verdict — through the same file.

use crate::event::ThreadId;
use crate::rng::splitmix64;
use std::fmt;

/// Version string of the VM crate, embedded in every schedule log so a
/// replay can detect that it was recorded by an incompatible interpreter.
pub const VM_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Magic first line of the `.sched` format.
const HEADER: &str = "narada-sched v1";

/// The most decisions a `schedule` line may expand to: twice the
/// 2,000,000-step budget a detection trial runs under, and far above any
/// recorded fixture (tens of decisions once minimized). Run-length counts
/// are summed before anything is expanded, so a short file claiming
/// `u64::MAX` decisions is refused instead of exhausting memory.
pub const MAX_DECISIONS: u64 = 1 << 22;

/// A recorded thread interleaving plus everything needed to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Name of the scheduler that produced the interleaving.
    pub scheduler: String,
    /// Machine seed of the recorded run (drives `rand()`).
    pub seed: u64,
    /// VM version that recorded the schedule.
    pub vm_version: String,
    /// Free-form `key value` metadata, preserved by parse/serialize.
    pub meta: Vec<(String, String)>,
    /// The thread chosen at each scheduling decision, in order.
    pub choices: Vec<ThreadId>,
}

/// Why a `.sched` document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError(String);

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed schedule: {}", self.0)
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Creates a schedule recorded by `scheduler` under machine `seed`,
    /// stamped with the current [`VM_VERSION`].
    pub fn new(scheduler: impl Into<String>, seed: u64, choices: Vec<ThreadId>) -> Self {
        Schedule {
            scheduler: scheduler.into(),
            seed,
            vm_version: VM_VERSION.to_string(),
            meta: Vec::new(),
            choices,
        }
    }

    /// Attaches a metadata key (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_meta(key, value);
        self
    }

    /// Sets a metadata key, replacing any existing value.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.meta.push((key, value)),
        }
    }

    /// Looks up a metadata key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Number of scheduling decisions recorded.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Number of preemptions: decisions that switched away from the
    /// previously running thread. The quantity ddmin minimization drives
    /// toward zero.
    pub fn preemptions(&self) -> usize {
        self.choices.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Stable 64-bit identity of the schedule (scheduler, seed, and the
    /// full choice sequence). Two runs with the same id replay the same
    /// interleaving; rendered as `sched:0x…` in race reports.
    pub fn id(&self) -> u64 {
        let mut h = self.seed ^ (self.choices.len() as u64).rotate_left(17);
        for b in self.scheduler.bytes() {
            h = h.wrapping_mul(0x0100_0000_01b3) ^ u64::from(b);
        }
        for &t in &self.choices {
            h = h.wrapping_mul(0x0100_0000_01b3) ^ u64::from(t.0);
        }
        splitmix64(&mut h)
    }

    /// The run-length encoding `(thread, consecutive decisions)` of the
    /// choice sequence.
    pub fn runs(&self) -> Vec<(ThreadId, u64)> {
        let mut runs: Vec<(ThreadId, u64)> = Vec::new();
        for &t in &self.choices {
            match runs.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => runs.push((t, 1)),
            }
        }
        runs
    }

    /// Serializes to the `.sched` text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "vm {}", self.vm_version);
        let _ = writeln!(out, "scheduler {}", self.scheduler);
        let _ = writeln!(out, "seed {:#x}", self.seed);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "{k} {v}");
        }
        let tokens: Vec<String> = self
            .runs()
            .iter()
            .map(|(t, n)| format!("{}x{n}", t.0))
            .collect();
        let _ = writeln!(out, "schedule {}", tokens.join(" "));
        out
    }

    /// Parses the `.sched` text format.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] on a missing header, missing mandatory
    /// keys, a malformed run-length token, or a `schedule` line longer
    /// than [`MAX_DECISIONS`].
    pub fn parse(text: &str) -> Result<Schedule, ScheduleError> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        match lines.next() {
            Some(HEADER) => {}
            other => {
                return Err(ScheduleError(format!(
                    "expected `{HEADER}` header, got {other:?}"
                )))
            }
        }
        let mut scheduler = None;
        let mut seed = None;
        let mut vm_version = None;
        let mut meta = Vec::new();
        let mut choices = None;
        for line in lines {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .map(|(k, v)| (k, v.trim()))
                .unwrap_or((line, ""));
            match key {
                "vm" => vm_version = Some(value.to_string()),
                "scheduler" => scheduler = Some(value.to_string()),
                "seed" => seed = Some(parse_u64(value)?),
                "schedule" => {
                    let mut runs = Vec::new();
                    let mut total = 0u64;
                    for tok in value.split_whitespace() {
                        let (tid, count) = tok.split_once('x').ok_or_else(|| {
                            ScheduleError(format!("bad run token `{tok}` (want TIDxCOUNT)"))
                        })?;
                        let tid: u32 = tid
                            .parse()
                            .map_err(|_| ScheduleError(format!("bad thread id in `{tok}`")))?;
                        let count: u64 = count
                            .parse()
                            .map_err(|_| ScheduleError(format!("bad count in `{tok}`")))?;
                        total = total
                            .checked_add(count)
                            .filter(|&t| t <= MAX_DECISIONS)
                            .ok_or_else(|| {
                                ScheduleError(format!(
                                    "schedule expands past {MAX_DECISIONS} decisions"
                                ))
                            })?;
                        runs.push((ThreadId(tid), count as usize));
                    }
                    choices = Some(
                        runs.into_iter()
                            .flat_map(|(tid, count)| std::iter::repeat_n(tid, count))
                            .collect(),
                    );
                }
                _ => meta.push((key.to_string(), value.to_string())),
            }
        }
        Ok(Schedule {
            scheduler: scheduler.ok_or_else(|| ScheduleError("missing `scheduler`".into()))?,
            seed: seed.ok_or_else(|| ScheduleError("missing `seed`".into()))?,
            vm_version: vm_version.unwrap_or_else(|| "unknown".into()),
            meta,
            choices: choices.ok_or_else(|| ScheduleError("missing `schedule` line".into()))?,
        })
    }
}

fn parse_u64(s: &str) -> Result<u64, ScheduleError> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| ScheduleError(format!("bad number `{s}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule::new(
            "pct",
            0x2a,
            vec![
                ThreadId(0),
                ThreadId(0),
                ThreadId(1),
                ThreadId(1),
                ThreadId(1),
                ThreadId(0),
            ],
        )
        .with_meta("class", "C1")
        .with_meta("verdict", "harmful")
    }

    #[test]
    fn round_trips_through_text() {
        let s = sample();
        let parsed = Schedule::parse(&s.to_text()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.id(), s.id());
    }

    #[test]
    fn preemption_count() {
        assert_eq!(sample().preemptions(), 2);
        assert_eq!(Schedule::new("rr", 0, vec![]).preemptions(), 0);
    }

    #[test]
    fn id_depends_on_choices_and_scheduler() {
        let s = sample();
        let mut other = s.clone();
        other.choices.push(ThreadId(1));
        assert_ne!(s.id(), other.id());
        let mut renamed = s.clone();
        renamed.scheduler = "random".into();
        assert_ne!(s.id(), renamed.id());
    }

    #[test]
    fn meta_round_trip_and_overwrite() {
        let mut s = sample();
        assert_eq!(s.meta_get("class"), Some("C1"));
        s.set_meta("class", "C5");
        assert_eq!(s.meta_get("class"), Some("C5"));
        let parsed = Schedule::parse(&s.to_text()).unwrap();
        assert_eq!(parsed.meta_get("class"), Some("C5"));
        assert_eq!(parsed.meta_get("verdict"), Some("harmful"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Schedule::parse("not a schedule").is_err());
        assert!(Schedule::parse("narada-sched v1\nseed 1\nschedule 0x1").is_err());
        assert!(
            Schedule::parse("narada-sched v1\nscheduler r\nseed 1\nschedule zz").is_err(),
            "bad run token must be rejected"
        );
    }

    #[test]
    fn parse_refuses_schedules_past_the_decision_bound() {
        let line = |runs: &str| format!("narada-sched v1\nscheduler r\nseed 1\nschedule {runs}");
        let at = Schedule::parse(&line(&format!("0x{} 1x{}", MAX_DECISIONS - 1, 1))).unwrap();
        assert_eq!(at.choices.len() as u64, MAX_DECISIONS);
        // Counts that overflow u64 or add up past the bound are refused
        // before a single decision is expanded.
        for runs in [
            format!("0x{}", u64::MAX),
            format!("0x{} 1x{}", u64::MAX, u64::MAX),
            format!("0x{MAX_DECISIONS} 1x1"),
        ] {
            let err = Schedule::parse(&line(&runs)).unwrap_err();
            assert!(err.to_string().contains("decisions"), "{err}");
        }
    }

    #[test]
    fn parse_accepts_comments_and_hex() {
        let text = "narada-sched v1\n# comment\nscheduler random\nseed 0xff\nschedule 1x3 0x1\n";
        let s = Schedule::parse(text).unwrap();
        assert_eq!(s.seed, 255);
        assert_eq!(s.choices.len(), 4);
        assert_eq!(s.choices[3], ThreadId(0));
    }
}
