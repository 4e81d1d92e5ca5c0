//! The saturation cut: end a detection trial once its lone thread stops
//! feeding the detectors anything new.
//!
//! A trial whose racy invocations livelock (one thread finished, the
//! other spinning in a loop the race broke) would otherwise run to the
//! step budget, though the detectors reported all they ever will within
//! a few iterations. [`Machine::run_threads`] counts the decisions a
//! single live thread takes in a row; once that count reaches
//! [`SATURATION_WINDOW`] it arms this watch, which from then on counts
//! the events since the last *novel* one:
//!
//! * a `Read`/`Write` at a (thread, site) pair first seen since arming;
//! * any `Lock`, `Unlock`, `ThreadSpawn`, `ThreadFinish` or `ThreadFail`;
//! * any event after which either detector's race list grew.
//!
//! When both counts reach the window the run ends as
//! [`RunOutcome::Saturated`]. Nothing is tracked before arming, so
//! interleaved trials pay only the VM's one counter per decision.
//!
//! The cut is a heuristic, not a proof: after more than a window of quiet
//! decisions, the lone thread could still reach a location a finished
//! thread accessed, at a site it has already visited. The committed
//! race-list fixture is the evidence that no corpus trial does, and every
//! cut is counted as `trial.saturated`.
//!
//! [`Machine::run_threads`]: narada_vm::Machine::run_threads
//! [`RunOutcome::Saturated`]: narada_vm::RunOutcome::Saturated

use crate::fasttrack::FastTrackDetector;
use crate::fxhash::FxHashSet;
use crate::lockset::LocksetDetector;
use narada_lang::Span;
use narada_vm::{Event, EventKind, EventSink, ThreadId, SATURATION_WINDOW};

/// Feeds both passive detectors, like a `TeeSink` over them, and opts
/// the run into the saturation cut.
#[derive(Debug)]
pub struct SaturationWatch<'a> {
    lockset: &'a mut LocksetDetector,
    hb: &'a mut FastTrackDetector,
    armed: bool,
    /// Events since the last novel one (counted only while armed).
    quiet: u64,
    /// (thread, site) pairs accessed since arming.
    seen: FxHashSet<(ThreadId, Span)>,
}

impl<'a> SaturationWatch<'a> {
    /// Watches the detectors that see the trial's events.
    pub fn new(lockset: &'a mut LocksetDetector, hb: &'a mut FastTrackDetector) -> Self {
        SaturationWatch {
            lockset,
            hb,
            armed: false,
            quiet: 0,
            seen: FxHashSet::default(),
        }
    }

    fn race_count(&self) -> usize {
        self.lockset.races().len() + self.hb.races().len()
    }
}

impl EventSink for SaturationWatch<'_> {
    fn event(&mut self, ev: &Event) {
        if !self.armed {
            self.lockset.event(ev);
            self.hb.event(ev);
            return;
        }
        let races = self.race_count();
        self.lockset.event(ev);
        self.hb.event(ev);
        let novel = match ev.kind {
            EventKind::Read { .. } | EventKind::Write { .. } => self.seen.insert((ev.tid, ev.span)),
            EventKind::Lock { .. }
            | EventKind::Unlock { .. }
            | EventKind::ThreadSpawn { .. }
            | EventKind::ThreadFinish
            | EventKind::ThreadFail { .. } => true,
            _ => false,
        } || self.race_count() > races;
        self.quiet = if novel { 0 } else { self.quiet + 1 };
    }

    fn saturated(&mut self, lone: u64) -> bool {
        if lone == SATURATION_WINDOW {
            // A new lone stretch: (re)arm with a clean slate.
            self.armed = true;
            self.quiet = 0;
            self.seen.clear();
            return false;
        }
        self.quiet >= SATURATION_WINDOW
    }
}
