//! Eraser-style lockset race detection (Savage et al., TOCS 1997),
//! adapted to report *both* accesses of each race so that the
//! RaceFuzzer-style confirmer has concrete target sites.
//!
//! For every memory location we keep a bounded history of access summaries
//! `(thread, is_write, lockset, site)`; a new access races with a recorded
//! one when the threads differ, at least one side writes, and the held
//! locksets are disjoint — exactly the lockset discipline Narada inverts to
//! *generate* tests (paper §1: "while Eraser uses this property to detect
//! races, we apply the same property to generate race inducing tests").

use crate::fxhash::FxHashMap;
use crate::race::{RaceAccess, RaceReport};
use crate::rewind::{DetectorMark, Journal, RaceList};
use narada_lang::Span;
use narada_vm::{Event, EventKind, EventSink, FieldKey, Label, ObjId, ThreadId};

/// Bounded per-location access history.
const MAX_HISTORY: usize = 64;

#[derive(Debug, Clone)]
struct AccessSummary {
    tid: ThreadId,
    is_write: bool,
    locks: Vec<ObjId>,
    span: Span,
    label: Label,
}

/// The locks one thread holds, stamped with the undo epoch it was last
/// logged in.
#[derive(Debug, Default, Clone)]
struct Held {
    locks: Vec<ObjId>,
    epoch: u32,
}

/// One logged mutation (see [`crate::rewind`]).
#[derive(Debug, Clone)]
enum Undo {
    /// A thread's held locks before their first change in the epoch.
    Held(ThreadId, Vec<ObjId>),
    /// A location's history grew by one summary.
    Recorded((ObjId, FieldKey)),
    /// A thread's spawn point before it was (re)recorded.
    Spawned(ThreadId, Option<(ThreadId, Label)>),
}

/// The Eraser-style detector; implement [`EventSink`] and feed it a
/// concurrent execution.
///
/// A steady-state access allocates nothing: the location's history is
/// scanned in place against the borrowed held-lock slice, and a
/// summary's lockset is copied only when a new summary is recorded.
/// [`LocksetDetector::mark`] and [`LocksetDetector::rewind`] restore an
/// earlier state by undoing only what changed since (see
/// [`crate::rewind`]).
#[derive(Debug, Default, Clone)]
pub struct LocksetDetector {
    /// Locks currently held, per thread.
    held: FxHashMap<ThreadId, Held>,
    /// Access history per location; a missing entry and an empty one
    /// mean the same.
    history: FxHashMap<(ObjId, FieldKey), Vec<AccessSummary>>,
    /// Trace label at which each thread was spawned: accesses by the
    /// spawner before this point happen-before everything in the child
    /// (fork awareness — Eraser's exclusive-state analogue).
    spawned_at: FxHashMap<ThreadId, (ThreadId, Label)>,
    /// Distinct races found (deduplicated by static key).
    races: RaceList,
    journal: Journal<Undo>,
}

impl LocksetDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinct races detected so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races.races
    }

    /// Consumes the detector, returning its races.
    pub fn into_races(self) -> Vec<RaceReport> {
        self.races.races
    }

    /// Opens a new undo epoch and returns a mark that
    /// [`LocksetDetector::rewind`] restores. Logging stays on from the
    /// first mark for the detector's lifetime.
    pub fn mark(&mut self) -> DetectorMark {
        self.journal.mark(&self.races)
    }

    /// Restores the state at `mark`, a mark this detector took: every
    /// change logged since is undone, newest first. The mark stays valid.
    pub fn rewind(&mut self, mark: &DetectorMark) {
        let (held, history, spawned_at) = (&mut self.held, &mut self.history, &mut self.spawned_at);
        self.journal
            .rewind(mark, &mut self.races, |undo| match undo {
                Undo::Held(tid, locks) => {
                    if let Some(h) = held.get_mut(&tid) {
                        h.locks = locks;
                    }
                }
                Undo::Recorded(loc) => {
                    if let Some(h) = history.get_mut(&loc) {
                        h.pop();
                    }
                }
                Undo::Spawned(child, Some(at)) => {
                    spawned_at.insert(child, at);
                }
                Undo::Spawned(child, None) => {
                    spawned_at.remove(&child);
                }
            });
    }

    /// `tid`'s held locks, about to change: logs their pre-image on the
    /// first change in the epoch.
    fn held_mut(&mut self, tid: ThreadId) -> &mut Vec<ObjId> {
        let h = self.held.entry(tid).or_default();
        if self.journal.first_touch(&mut h.epoch) {
            self.journal.push(Undo::Held(tid, h.locks.clone()));
        }
        &mut h.locks
    }

    fn on_access(
        &mut self,
        tid: ThreadId,
        obj: ObjId,
        field: FieldKey,
        is_write: bool,
        span: Span,
        label: Label,
    ) {
        let locks: &[ObjId] = self.held.get(&tid).map_or(&[], |h| h.locks.as_slice());
        // `prev` happens-before this access through a fork edge.
        let spawn = self.spawned_at.get(&tid).copied();
        let fork_ordered = |prev: &AccessSummary| {
            spawn.is_some_and(|(spawner, at)| prev.tid == spawner && prev.label < at)
        };
        let history = self.history.entry((obj, field)).or_default();
        let mut dup = false;
        for prev in history.iter() {
            dup |= (prev.tid, prev.is_write, prev.span) == (tid, is_write, span)
                && prev.locks == locks;
            if prev.tid == tid {
                continue;
            }
            if !prev.is_write && !is_write {
                continue;
            }
            if prev.locks.iter().any(|l| locks.contains(l)) {
                continue; // common lock
            }
            if fork_ordered(prev) {
                continue; // ordered by thread creation
            }
            self.races.record(RaceReport {
                obj,
                field,
                first: RaceAccess {
                    tid: prev.tid,
                    is_write: prev.is_write,
                    span: prev.span,
                },
                second: RaceAccess {
                    tid,
                    is_write,
                    span,
                },
                provenance: None,
                static_verdict: None,
            });
        }
        if !dup && history.len() < MAX_HISTORY {
            history.push(AccessSummary {
                tid,
                is_write,
                locks: locks.to_vec(),
                span,
                label,
            });
            if self.journal.on() {
                self.journal.push(Undo::Recorded((obj, field)));
            }
        }
    }
}

#[cfg(test)]
impl LocksetDetector {
    /// Everything that decides future reports, in a canonical order:
    /// non-empty held locks and histories, spawn points, then the races.
    pub(crate) fn canonical(&self) -> String {
        let mut held: Vec<_> = self
            .held
            .iter()
            .filter(|(_, h)| !h.locks.is_empty())
            .map(|(t, h)| (t, &h.locks))
            .collect();
        held.sort_by_key(|(t, _)| **t);
        let mut history: Vec<_> = self.history.iter().filter(|(_, h)| !h.is_empty()).collect();
        history.sort_by_key(|(k, _)| format!("{k:?}"));
        let mut spawned: Vec<_> = self.spawned_at.iter().collect();
        spawned.sort_by_key(|(t, _)| **t);
        format!("{held:?}\n{history:?}\n{spawned:?}\n{:?}", self.races())
    }
}

impl EventSink for LocksetDetector {
    fn event(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::Lock { obj, .. } => {
                self.held_mut(ev.tid).push(*obj);
            }
            EventKind::Unlock { obj, .. } => {
                let held = self.held.get(&ev.tid).map_or(&[][..], |h| &h.locks);
                if let Some(pos) = held.iter().rposition(|l| l == obj) {
                    self.held_mut(ev.tid).remove(pos);
                }
            }
            EventKind::Read { obj, field, .. } => {
                self.on_access(ev.tid, *obj, *field, false, ev.span, ev.label);
            }
            EventKind::Write { obj, field, .. } => {
                self.on_access(ev.tid, *obj, *field, true, ev.span, ev.label);
            }
            EventKind::ThreadSpawn { child } => {
                let before = self.spawned_at.insert(*child, (ev.tid, ev.label));
                if self.journal.on() {
                    self.journal.push(Undo::Spawned(*child, before));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use narada_lang::mir::VarId;
    use narada_vm::{InvId, Label, Value};

    fn ev(label: u64, tid: u32, kind: EventKind) -> Event {
        Event {
            label: Label(label),
            tid: ThreadId(tid),
            span: Span::new(label as u32, label as u32 + 1),
            kind,
        }
    }

    fn write(label: u64, tid: u32, obj: u32) -> Event {
        ev(
            label,
            tid,
            EventKind::Write {
                inv: InvId(0),
                obj_var: VarId(0),
                obj: ObjId(obj),
                field: FieldKey::Elem(0),
                src_var: VarId(1),
                value: Value::Int(0),
            },
        )
    }

    fn read(label: u64, tid: u32, obj: u32) -> Event {
        ev(
            label,
            tid,
            EventKind::Read {
                inv: InvId(0),
                dst: VarId(0),
                obj_var: VarId(0),
                obj: ObjId(obj),
                field: FieldKey::Elem(0),
                value: Value::Int(0),
            },
        )
    }

    fn lock(label: u64, tid: u32, obj: u32) -> Event {
        ev(
            label,
            tid,
            EventKind::Lock {
                inv: InvId(0),
                var: None,
                obj: ObjId(obj),
            },
        )
    }

    fn unlock(label: u64, tid: u32, obj: u32) -> Event {
        ev(
            label,
            tid,
            EventKind::Unlock {
                inv: InvId(0),
                obj: ObjId(obj),
            },
        )
    }

    #[test]
    fn unlocked_write_write_races() {
        let mut d = LocksetDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&write(1, 2, 5));
        assert_eq!(d.races().len(), 1);
        assert!(d.races()[0].first.is_write && d.races()[0].second.is_write);
    }

    #[test]
    fn read_read_is_no_race() {
        let mut d = LocksetDetector::new();
        d.event(&read(0, 1, 5));
        d.event(&read(1, 2, 5));
        assert!(d.races().is_empty());
    }

    #[test]
    fn common_lock_suppresses() {
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 9));
        d.event(&write(1, 1, 5));
        d.event(&unlock(2, 1, 9));
        d.event(&lock(3, 2, 9));
        d.event(&write(4, 2, 5));
        d.event(&unlock(5, 2, 9));
        assert!(d.races().is_empty());
    }

    #[test]
    fn different_locks_race() {
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 8));
        d.event(&write(1, 1, 5));
        d.event(&unlock(2, 1, 8));
        d.event(&lock(3, 2, 9));
        d.event(&write(4, 2, 5));
        d.event(&unlock(5, 2, 9));
        assert_eq!(d.races().len(), 1, "disjoint locksets do not protect");
    }

    #[test]
    fn same_thread_never_races() {
        let mut d = LocksetDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&write(1, 1, 5));
        assert!(d.races().is_empty());
    }

    #[test]
    fn different_objects_never_race() {
        let mut d = LocksetDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&write(1, 2, 6));
        assert!(d.races().is_empty());
    }

    #[test]
    fn duplicate_dynamic_races_dedup() {
        let mut d = LocksetDetector::new();
        // Same static pair executed repeatedly.
        for i in 0..10 {
            let mut e1 = write(0, 1, 5);
            e1.label = Label(i * 2);
            let mut e2 = write(1, 2, 5);
            e2.label = Label(i * 2 + 1);
            d.event(&e1);
            d.event(&e2);
        }
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn fork_ordered_setup_does_not_race() {
        let mut d = LocksetDetector::new();
        // Main writes during setup, then spawns T2 which writes.
        d.event(&write(0, 0, 5));
        d.event(&ev(1, 0, EventKind::ThreadSpawn { child: ThreadId(2) }));
        d.event(&write(2, 2, 5));
        assert!(d.races().is_empty(), "spawn orders setup before child");
        // But a main write AFTER the spawn does race.
        d.event(&write(3, 0, 5));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn reentrant_acquire_still_held_after_one_release() {
        // MJ monitors are reentrant: lock(m); lock(m); unlock(m) leaves m
        // held (the multiset holds one remaining entry), so an access here
        // is still protected against a properly locked peer.
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 9));
        d.event(&lock(1, 1, 9));
        d.event(&unlock(2, 1, 9));
        d.event(&write(3, 1, 5));
        d.event(&unlock(4, 1, 9));
        d.event(&lock(5, 2, 9));
        d.event(&write(6, 2, 5));
        d.event(&unlock(7, 2, 9));
        assert!(
            d.races().is_empty(),
            "one release of a reentrant acquire keeps the lock"
        );
    }

    #[test]
    fn reentrant_acquire_fully_released_races() {
        // After matching releases for every acquire, the lock is truly gone.
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 9));
        d.event(&lock(1, 1, 9));
        d.event(&unlock(2, 1, 9));
        d.event(&unlock(3, 1, 9));
        d.event(&write(4, 1, 5));
        d.event(&lock(5, 2, 9));
        d.event(&write(6, 2, 5));
        d.event(&unlock(7, 2, 9));
        assert_eq!(d.races().len(), 1, "balanced releases drop the lock");
    }

    #[test]
    fn nested_distinct_locks_protect_while_held() {
        // lock(a); lock(b); access; unlock(b): the access holds {a, b} and
        // a peer holding either one is excluded.
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 8));
        d.event(&lock(1, 1, 9));
        d.event(&write(2, 1, 5));
        d.event(&unlock(3, 1, 9));
        d.event(&unlock(4, 1, 8));
        // Peer under only the inner lock: common lock, no race.
        d.event(&lock(5, 2, 9));
        d.event(&write(6, 2, 5));
        d.event(&unlock(7, 2, 9));
        assert!(d.races().is_empty(), "inner lock is common");
        // Peer under an unrelated lock: disjoint with both prior accesses
        // (T1 held {a, b}, T2 held {b}), so two distinct races appear.
        d.event(&lock(8, 3, 7));
        d.event(&write(9, 3, 5));
        d.event(&unlock(10, 3, 7));
        assert_eq!(d.races().len(), 2, "unrelated lock does not protect");
    }

    #[test]
    fn out_of_order_release_removes_innermost_matching_entry() {
        // lock(a); lock(b); unlock(a): only b remains held — an access
        // after the out-of-order release is unprotected w.r.t. a.
        let mut d = LocksetDetector::new();
        d.event(&lock(0, 1, 8));
        d.event(&lock(1, 1, 9));
        d.event(&unlock(2, 1, 8));
        d.event(&write(3, 1, 5));
        d.event(&unlock(4, 1, 9));
        d.event(&lock(5, 2, 8));
        d.event(&write(6, 2, 5));
        d.event(&unlock(7, 2, 8));
        assert_eq!(d.races().len(), 1, "a was already released at the access");
    }

    #[test]
    fn unmatched_release_is_ignored() {
        // A release of a lock the thread never acquired must not corrupt
        // the held multiset (the VM would reject it; the detector is
        // defensive about replayed partial traces).
        let mut d = LocksetDetector::new();
        d.event(&unlock(0, 1, 9));
        d.event(&lock(1, 1, 9));
        d.event(&write(2, 1, 5));
        d.event(&unlock(3, 1, 9));
        d.event(&lock(4, 2, 9));
        d.event(&write(5, 2, 5));
        d.event(&unlock(6, 2, 9));
        assert!(
            d.races().is_empty(),
            "spurious unlock must not unbalance holds"
        );
    }

    #[test]
    fn write_read_races_both_directions() {
        let mut d = LocksetDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&read(1, 2, 5));
        assert_eq!(d.races().len(), 1);

        let mut d = LocksetDetector::new();
        d.event(&read(3, 2, 5));
        d.event(&write(4, 1, 5));
        assert_eq!(d.races().len(), 1);
    }

    fn history_of(d: &LocksetDetector, obj: u32) -> &[AccessSummary] {
        &d.history[&(ObjId(obj), FieldKey::Elem(0))]
    }

    #[test]
    fn identical_accesses_are_recorded_once() {
        let mut d = LocksetDetector::new();
        for i in 0..5 {
            d.event(&write(7, 1, 5)); // same thread, kind, lockset, site
            let mut again = write(7, 1, 5);
            again.label = Label(100 + i); // labels do not split summaries
            d.event(&again);
        }
        assert_eq!(history_of(&d, 5).len(), 1);
        d.event(&read(7, 1, 5)); // kind differs
        d.event(&lock(8, 1, 9));
        d.event(&write(7, 1, 5)); // lockset differs
        d.event(&unlock(9, 1, 9));
        let h = history_of(&d, 5);
        assert_eq!(h.len(), 3);
        assert_eq!(h[2].locks, vec![ObjId(9)]);
        assert_eq!(h[0].label, Label(7), "the first occurrence is kept");
    }

    #[test]
    fn history_is_capped_at_max_history() {
        let mut d = LocksetDetector::new();
        for site in 0..(MAX_HISTORY as u64 + 10) {
            d.event(&write(site, 1, 5));
        }
        let h = history_of(&d, 5);
        assert_eq!(h.len(), MAX_HISTORY);
        assert_eq!(h[MAX_HISTORY - 1].span, Span::new(63, 64));
        // A conflicting access races with every recorded summary, and
        // only with those: sites past the cap were never recorded.
        d.event(&write(1000, 2, 5));
        assert_eq!(d.races().len(), MAX_HISTORY);
        assert!(d
            .races()
            .iter()
            .all(|r| r.first.span.start < MAX_HISTORY as u32));
        assert_eq!(history_of(&d, 5).len(), MAX_HISTORY, "still capped");
    }
}
