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

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::race::{RaceAccess, RaceReport, StaticRaceKey};
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
}

/// The happens-before detector; feed it a concurrent execution.
///
/// A steady-state access allocates nothing: the accessing thread's clock
/// is borrowed, not copied, while its location's state is updated.
#[derive(Debug, Default, Clone)]
pub struct FastTrackDetector {
    threads: FxHashMap<ThreadId, VectorClock>,
    locks: FxHashMap<ObjId, VectorClock>,
    vars: FxHashMap<(ObjId, FieldKey), VarState>,
    races: Vec<RaceReport>,
    seen: FxHashSet<StaticRaceKey>,
}

/// `tid`'s clock, created at `⟨tid: 1⟩` on first use.
fn clock(threads: &mut FxHashMap<ThreadId, VectorClock>, tid: ThreadId) -> &mut VectorClock {
    threads.entry(tid).or_insert_with(|| {
        let mut vc = VectorClock::new();
        vc.set(tid, 1);
        vc
    })
}

/// Records the race `first`/`second` on `(obj, field)` unless its static
/// key was already reported.
fn report(
    races: &mut Vec<RaceReport>,
    seen: &mut FxHashSet<StaticRaceKey>,
    obj: ObjId,
    field: FieldKey,
    first: RaceAccess,
    second: RaceAccess,
) {
    let r = RaceReport {
        obj,
        field,
        first,
        second,
        provenance: None,
        static_verdict: None,
    };
    if seen.insert(r.static_key()) {
        races.push(r);
    }
}

impl FastTrackDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinct races detected so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Consumes the detector, returning its races.
    pub fn into_races(self) -> Vec<RaceReport> {
        self.races
    }

    fn on_read(&mut self, tid: ThreadId, obj: ObjId, field: FieldKey, span: Span) {
        let ct = clock(&mut self.threads, tid);
        let state = self.vars.entry((obj, field)).or_default();
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
                report(&mut self.races, &mut self.seen, obj, field, first, second);
            }
        }
        let now = ct.get(tid);
        match state.reads.iter_mut().find(|(u, _, _)| *u == tid) {
            Some(entry) => *entry = (tid, now, span),
            None => state.reads.push((tid, now, span)),
        }
    }

    fn on_write(&mut self, tid: ThreadId, obj: ObjId, field: FieldKey, span: Span) {
        let ct = clock(&mut self.threads, tid);
        let me = Epoch::of(tid, ct);
        let state = self.vars.entry((obj, field)).or_default();
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
                report(&mut self.races, &mut self.seen, obj, field, first, second);
            }
        }
        for &(u, c, rspan) in &state.reads {
            if u != tid && c > ct.get(u) {
                let first = RaceAccess {
                    tid: u,
                    is_write: false,
                    span: rspan,
                };
                report(&mut self.races, &mut self.seen, obj, field, first, second);
            }
        }
        state.write = Some((me, span));
        state.reads.retain(|&(u, c, _)| c > ct.get(u) && u != tid);
    }
}

impl EventSink for FastTrackDetector {
    fn event(&mut self, ev: &Event) {
        match &ev.kind {
            EventKind::Lock { obj, .. } => {
                let ct = clock(&mut self.threads, ev.tid);
                if let Some(lvc) = self.locks.get(obj) {
                    ct.join(lvc);
                }
            }
            EventKind::Unlock { obj, .. } => {
                let ct = clock(&mut self.threads, ev.tid);
                self.locks.entry(*obj).or_default().clone_from(ct);
                ct.tick(ev.tid);
            }
            EventKind::ThreadSpawn { child } => {
                let parent = clock(&mut self.threads, ev.tid).clone();
                clock(&mut self.threads, *child).join(&parent);
                clock(&mut self.threads, ev.tid).tick(ev.tid);
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
        let released = d.locks[&ObjId(9)].clone();
        assert_eq!(released.get(ThreadId(1)), 1);
        d.event(&lock(2, 1, 8));
        d.event(&unlock(3, 1, 8));
        d.event(&spawn(4, 1, 2));
        assert_eq!(d.threads[&ThreadId(1)].get(ThreadId(1)), 4);
        assert_eq!(
            d.locks[&ObjId(9)],
            released,
            "a release clock is a snapshot"
        );
        // Re-releasing reuses the entry and takes the current clock.
        d.event(&lock(5, 1, 9));
        d.event(&unlock(6, 1, 9));
        assert_eq!(d.locks[&ObjId(9)].get(ThreadId(1)), 4);
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
