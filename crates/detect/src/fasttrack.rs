//! FastTrack-style happens-before race detection (Flanagan & Freund,
//! PLDI 2009).
//!
//! Thread clocks advance on lock releases and forks; locks carry the
//! release clock; every location keeps its last-write *epoch* (the
//! FastTrack compression: a totally ordered write history needs one
//! `(thread, clock)` pair, not a full vector) plus per-thread read entries.
//! Unlike the original, read entries always carry the access span so that
//! race reports name both source sites — the space optimization FastTrack
//! applies to read sets is irrelevant at our trace sizes.

use crate::fxhash::FxHashMap;
use crate::race::{RaceAccess, RaceReport};
use crate::rewind::{DetectorMark, Journal, RaceList};
use crate::vclock::{Epoch, VectorClock};
use narada_lang::Span;
use narada_vm::{Event, EventKind, EventSink, FieldKey, ObjId, ThreadId};

#[derive(Debug, Default, Clone)]
struct VarState {
    /// Last write, as an epoch plus its source site.
    write: Option<(Epoch, Span)>,
    /// Reads since the last write that "covers" them, in first-read
    /// order: per thread the read clock and site. At most one entry per
    /// thread, and only a handful of threads, so a scan beats a map and
    /// fixes the order in which a write reports its read races.
    reads: Vec<(ThreadId, u32, Span)>,
    /// Undo epoch this state was last logged in.
    epoch: u32,
}

/// A thread's or lock's vector clock, stamped with the undo epoch it was
/// last logged in.
#[derive(Debug, Default, Clone)]
struct Clock {
    vc: VectorClock,
    epoch: u32,
}

/// One logged pre-image (see [`crate::rewind`]).
#[derive(Debug, Clone)]
enum Undo {
    /// A thread's clock before its first touch in the epoch; `None` when
    /// the thread had none yet.
    Thread(ThreadId, Option<VectorClock>),
    /// A lock's release clock (a missing lock and an empty clock mean the
    /// same).
    Lock(ObjId, VectorClock),
    /// A location's state (a missing location and a default state mean
    /// the same).
    Var((ObjId, FieldKey), VarState),
}

/// The happens-before detector; feed it a concurrent execution.
///
/// A steady-state access allocates nothing: the accessing thread's clock
/// is borrowed, not copied, while its location's state is updated.
/// [`FastTrackDetector::mark`] and [`FastTrackDetector::rewind`] restore
/// an earlier state by undoing only what changed since (see
/// [`crate::rewind`]).
#[derive(Debug, Default, Clone)]
pub struct FastTrackDetector {
    threads: FxHashMap<ThreadId, Clock>,
    locks: FxHashMap<ObjId, Clock>,
    vars: FxHashMap<(ObjId, FieldKey), VarState>,
    races: RaceList,
    journal: Journal<Undo>,
}

/// `tid`'s clock, created at `⟨tid: 1⟩` on first use; its pre-image is
/// logged on the first touch in the epoch.
fn clock<'a>(
    threads: &'a mut FxHashMap<ThreadId, Clock>,
    journal: &mut Journal<Undo>,
    tid: ThreadId,
) -> &'a mut VectorClock {
    let mut created = false;
    let c = threads.entry(tid).or_insert_with(|| {
        created = true;
        let mut vc = VectorClock::new();
        vc.set(tid, 1);
        Clock { vc, epoch: 0 }
    });
    if journal.first_touch(&mut c.epoch) {
        journal.push(Undo::Thread(tid, (!created).then(|| c.vc.clone())));
    }
    &mut c.vc
}

/// `loc`'s state, about to change; its pre-image is logged on the first
/// touch in the epoch.
fn var<'a>(
    vars: &'a mut FxHashMap<(ObjId, FieldKey), VarState>,
    journal: &mut Journal<Undo>,
    loc: (ObjId, FieldKey),
) -> &'a mut VarState {
    let state = vars.entry(loc).or_default();
    if journal.first_touch(&mut state.epoch) {
        journal.push(Undo::Var(loc, state.clone()));
    }
    state
}

impl FastTrackDetector {
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
    /// [`FastTrackDetector::rewind`] restores. Logging stays on from the
    /// first mark for the detector's lifetime.
    pub fn mark(&mut self) -> DetectorMark {
        self.journal.mark(&self.races)
    }

    /// Restores the state at `mark`, a mark this detector took: every
    /// change logged since is undone, newest first. The mark stays valid.
    pub fn rewind(&mut self, mark: &DetectorMark) {
        let (threads, locks, vars) = (&mut self.threads, &mut self.locks, &mut self.vars);
        self.journal
            .rewind(mark, &mut self.races, |undo| match undo {
                Undo::Thread(tid, Some(vc)) => {
                    if let Some(c) = threads.get_mut(&tid) {
                        c.vc = vc;
                    }
                }
                Undo::Thread(tid, None) => {
                    threads.remove(&tid);
                }
                Undo::Lock(obj, vc) => {
                    if let Some(c) = locks.get_mut(&obj) {
                        c.vc = vc;
                    }
                }
                Undo::Var(loc, state) => {
                    if let Some(s) = vars.get_mut(&loc) {
                        *s = state;
                    }
                }
            });
    }

    fn on_read(&mut self, tid: ThreadId, obj: ObjId, field: FieldKey, span: Span) {
        let ct = clock(&mut self.threads, &mut self.journal, tid);
        let state = var(&mut self.vars, &mut self.journal, (obj, field));
        // Write-read race: last write not ordered before this read. The
        // read is recorded either way (FastTrack reports and continues),
        // so later writes race against the most recent read.
        if let Some((w, wspan)) = state.write {
            if w.tid != tid && !w.leq(ct) {
                let first = RaceAccess {
                    tid: w.tid,
                    is_write: true,
                    span: wspan,
                };
                let second = RaceAccess {
                    tid,
                    is_write: false,
                    span,
                };
                self.races.record(race(obj, field, first, second));
            }
        }
        let now = ct.get(tid);
        match state.reads.iter_mut().find(|(u, _, _)| *u == tid) {
            Some(entry) => *entry = (tid, now, span),
            None => state.reads.push((tid, now, span)),
        }
    }

    fn on_write(&mut self, tid: ThreadId, obj: ObjId, field: FieldKey, span: Span) {
        let ct = clock(&mut self.threads, &mut self.journal, tid);
        let me = Epoch::of(tid, ct);
        let state = var(&mut self.vars, &mut self.journal, (obj, field));
        // FastTrack fast path: same epoch as the last write. The stored
        // site still moves to the newest write so that race reports name
        // the access a later conflicting thread actually races with.
        if let Some((w, stored)) = &mut state.write {
            if *w == me {
                *stored = span;
                return;
            }
        }
        let second = RaceAccess {
            tid,
            is_write: true,
            span,
        };
        if let Some((w, wspan)) = state.write {
            if w.tid != tid && !w.leq(ct) {
                let first = RaceAccess {
                    tid: w.tid,
                    is_write: true,
                    span: wspan,
                };
                self.races.record(race(obj, field, first, second));
            }
        }
        for &(u, c, rspan) in &state.reads {
            if u != tid && c > ct.get(u) {
                let first = RaceAccess {
                    tid: u,
                    is_write: false,
                    span: rspan,
                };
                self.races.record(race(obj, field, first, second));
            }
        }
        state.write = Some((me, span));
        state.reads.retain(|&(u, c, _)| c > ct.get(u) && u != tid);
    }
}

#[cfg(test)]
impl FastTrackDetector {
    /// Everything that decides future reports, in a canonical order:
    /// clocks, non-empty lock clocks and non-default location states
    /// (undo tags excluded), then the races.
    pub(crate) fn canonical(&self) -> String {
        let mut threads: Vec<_> = self.threads.iter().map(|(t, c)| (t, &c.vc)).collect();
        threads.sort_by_key(|(t, _)| **t);
        let mut locks: Vec<_> = self
            .locks
            .iter()
            .filter(|(_, c)| c.vc != VectorClock::new())
            .map(|(o, c)| (o, &c.vc))
            .collect();
        locks.sort_by_key(|(o, _)| **o);
        let mut vars: Vec<_> = self
            .vars
            .iter()
            .filter(|(_, v)| v.write.is_some() || !v.reads.is_empty())
            .map(|(k, v)| (k, v.write, &v.reads))
            .collect();
        vars.sort_by_key(|(k, _, _)| format!("{k:?}"));
        format!("{threads:?}\n{locks:?}\n{vars:?}\n{:?}", self.races())
    }
}

/// The race `first`/`second` on `(obj, field)`.
fn race(obj: ObjId, field: FieldKey, first: RaceAccess, second: RaceAccess) -> RaceReport {
    RaceReport {
        obj,
        field,
        first,
        second,
        provenance: None,
        static_verdict: None,
    }
}

impl EventSink for FastTrackDetector {
    fn event(&mut self, ev: &Event) {
        let journal = &mut self.journal;
        match &ev.kind {
            EventKind::Lock { obj, .. } => {
                let ct = clock(&mut self.threads, journal, ev.tid);
                if let Some(l) = self.locks.get(obj) {
                    ct.join(&l.vc);
                }
            }
            EventKind::Unlock { obj, .. } => {
                let ct = clock(&mut self.threads, journal, ev.tid);
                let l = self.locks.entry(*obj).or_default();
                if journal.first_touch(&mut l.epoch) {
                    journal.push(Undo::Lock(*obj, l.vc.clone()));
                }
                l.vc.clone_from(ct);
                ct.tick(ev.tid);
            }
            EventKind::ThreadSpawn { child } => {
                let parent = clock(&mut self.threads, journal, ev.tid).clone();
                clock(&mut self.threads, journal, *child).join(&parent);
                clock(&mut self.threads, journal, ev.tid).tick(ev.tid);
            }
            EventKind::Read { obj, field, .. } => {
                self.on_read(ev.tid, *obj, *field, ev.span);
            }
            EventKind::Write { obj, field, .. } => {
                self.on_write(ev.tid, *obj, *field, ev.span);
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
            span: Span::new(label as u32 * 10, label as u32 * 10 + 1),
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

    fn spawn(label: u64, parent: u32, child: u32) -> Event {
        ev(
            label,
            parent,
            EventKind::ThreadSpawn {
                child: ThreadId(child),
            },
        )
    }

    #[test]
    fn concurrent_writes_race() {
        let mut d = FastTrackDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&write(1, 2, 5));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn lock_ordered_writes_do_not_race() {
        let mut d = FastTrackDetector::new();
        d.event(&lock(0, 1, 9));
        d.event(&write(1, 1, 5));
        d.event(&unlock(2, 1, 9));
        d.event(&lock(3, 2, 9));
        d.event(&write(4, 2, 5));
        d.event(&unlock(5, 2, 9));
        assert!(d.races().is_empty(), "release→acquire orders the writes");
    }

    #[test]
    fn fork_orders_parent_before_child() {
        let mut d = FastTrackDetector::new();
        d.event(&write(0, 0, 5)); // parent writes
        d.event(&spawn(1, 0, 1));
        d.event(&write(2, 1, 5)); // child writes after fork
        assert!(d.races().is_empty(), "fork edge orders the accesses");
    }

    #[test]
    fn sibling_threads_race() {
        let mut d = FastTrackDetector::new();
        d.event(&spawn(0, 0, 1));
        d.event(&spawn(1, 0, 2));
        d.event(&write(2, 1, 5));
        d.event(&write(3, 2, 5));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn read_write_race() {
        let mut d = FastTrackDetector::new();
        d.event(&read(0, 1, 5));
        d.event(&write(1, 2, 5));
        assert_eq!(d.races().len(), 1);
        let r = &d.races()[0];
        assert!(!r.first.is_write && r.second.is_write);
    }

    #[test]
    fn write_read_race() {
        let mut d = FastTrackDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&read(1, 2, 5));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn disjoint_locks_still_race() {
        // Eraser and HB agree here: different locks do not order accesses.
        let mut d = FastTrackDetector::new();
        d.event(&lock(0, 1, 8));
        d.event(&write(1, 1, 5));
        d.event(&unlock(2, 1, 8));
        d.event(&lock(3, 2, 9));
        d.event(&write(4, 2, 5));
        d.event(&unlock(5, 2, 9));
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn same_epoch_write_fast_path() {
        let mut d = FastTrackDetector::new();
        d.event(&write(0, 1, 5));
        d.event(&write(1, 1, 5)); // same thread, same epoch
        assert!(d.races().is_empty());
    }

    #[test]
    fn release_acquire_covers_earlier_read() {
        // t1's unlocked read is still ordered before t2's write by the
        // release→acquire edge, so happens-before reports nothing (this is
        // exactly the scheduling sensitivity that makes HB detectors need
        // racy schedules — and why the paper pairs with RaceFuzzer).
        let mut d = FastTrackDetector::new();
        d.event(&read(0, 1, 5));
        d.event(&lock(1, 1, 9));
        d.event(&unlock(2, 1, 9));
        d.event(&lock(3, 2, 9));
        d.event(&read(4, 2, 5));
        d.event(&write(5, 2, 5));
        assert!(d.races().is_empty());
    }

    fn span(label: u64) -> Span {
        Span::new(label as u32 * 10, label as u32 * 10 + 1)
    }

    fn reads_of(d: &FastTrackDetector, obj: u32) -> Vec<(ThreadId, u32, Span)> {
        d.vars[&(ObjId(obj), FieldKey::Elem(0))].reads.clone()
    }

    #[test]
    fn same_thread_reread_updates_in_place() {
        let mut d = FastTrackDetector::new();
        d.event(&read(0, 1, 5));
        d.event(&read(1, 2, 5));
        d.event(&lock(2, 1, 9));
        d.event(&unlock(3, 1, 9)); // t1 ticks to 2
        d.event(&read(4, 1, 5));
        assert_eq!(
            reads_of(&d, 5),
            vec![(ThreadId(1), 2, span(4)), (ThreadId(2), 1, span(1))],
            "t1's entry keeps its slot and takes the new clock and site"
        );
    }

    #[test]
    fn released_lock_clock_ignores_later_ticks() {
        let mut d = FastTrackDetector::new();
        d.event(&lock(0, 1, 9));
        d.event(&unlock(1, 1, 9));
        let released = d.locks[&ObjId(9)].vc.clone();
        assert_eq!(released.get(ThreadId(1)), 1);
        d.event(&lock(2, 1, 8));
        d.event(&unlock(3, 1, 8));
        d.event(&spawn(4, 1, 2));
        assert_eq!(d.threads[&ThreadId(1)].vc.get(ThreadId(1)), 4);
        assert_eq!(
            d.locks[&ObjId(9)].vc,
            released,
            "a release clock is a snapshot"
        );
        // Re-releasing reuses the entry and takes the current clock.
        d.event(&lock(5, 1, 9));
        d.event(&unlock(6, 1, 9));
        assert_eq!(d.locks[&ObjId(9)].vc.get(ThreadId(1)), 4);
    }

    #[test]
    fn write_reports_read_races_in_first_read_order() {
        let mut d = FastTrackDetector::new();
        d.event(&read(0, 3, 5));
        d.event(&read(1, 2, 5));
        d.event(&read(2, 3, 5)); // a re-read keeps t3 first
        d.event(&write(3, 1, 5));
        let firsts: Vec<(ThreadId, Span)> = d
            .races()
            .iter()
            .map(|r| (r.first.tid, r.first.span))
            .collect();
        assert_eq!(
            firsts,
            vec![(ThreadId(3), span(2)), (ThreadId(2), span(1))],
            "read races follow first-read order, not thread id or hash order"
        );
        assert!(d.races().iter().all(|r| r.second.tid == ThreadId(1)));
    }
}
