//! Nested marks for the passive detectors: the heap's copy-on-write
//! discipline (`narada_vm::Heap::mark`) applied to detector state.
//!
//! A detection trial forks from a point where the detectors have already
//! seen the test's sequential prefix. Instead of cloning that state per
//! trial, [`LocksetDetector`] and [`FastTrackDetector`] keep an undo log:
//! [`mark`] opens a new epoch and returns a [`DetectorMark`]; the first
//! mutation of a map entry inside an epoch logs the entry's pre-image,
//! and [`rewind`] pops the log back to the mark, restoring only what was
//! changed since. Marks nest, so the capture walk can hold one mark per
//! capture-sequence node and one per fork point. Until the first mark
//! the log is off (`epoch == 0`) and logging costs one branch.
//!
//! The race list rewinds by truncation: a detector records a race only
//! when its static key is new, so every race past the mark took exactly
//! one key with it.
//!
//! [`LocksetDetector`]: crate::LocksetDetector
//! [`FastTrackDetector`]: crate::FastTrackDetector
//! [`mark`]: crate::LocksetDetector::mark
//! [`rewind`]: crate::LocksetDetector::rewind

use crate::fxhash::FxHashSet;
use crate::race::{RaceReport, StaticRaceKey};

/// A point in a detector's history that its `rewind` restores; returned
/// by its `mark`. Rewinding does not consume the mark, and rewinding to
/// an outer mark also undoes everything an inner one saw. A mark is
/// valid only on the detector that took it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorMark {
    log: usize,
    races: usize,
}

/// A detector's undo log of `U` entries, newest last.
#[derive(Debug, Clone)]
pub(crate) struct Journal<U> {
    /// Current epoch; `0` until the first mark, which turns logging on.
    epoch: u32,
    log: Vec<U>,
}

impl<U> Default for Journal<U> {
    fn default() -> Self {
        Journal {
            epoch: 0,
            log: Vec::new(),
        }
    }
}

impl<U> Journal<U> {
    /// Whether mutations are being logged.
    pub(crate) fn on(&self) -> bool {
        self.epoch != 0
    }

    /// Whether an entry last stamped `tag` must log its pre-image before
    /// its next mutation; stamps it with the current epoch if so.
    pub(crate) fn first_touch(&self, tag: &mut u32) -> bool {
        let fresh = self.epoch != 0 && *tag != self.epoch;
        if fresh {
            *tag = self.epoch;
        }
        fresh
    }

    /// Appends an entry (callers check [`Journal::on`] or
    /// [`Journal::first_touch`] first).
    pub(crate) fn push(&mut self, entry: U) {
        self.log.push(entry);
    }

    /// Opens a new epoch and returns the mark of the current state.
    pub(crate) fn mark(&mut self, races: &RaceList) -> DetectorMark {
        self.epoch += 1;
        DetectorMark {
            log: self.log.len(),
            races: races.races.len(),
        }
    }

    /// Pops the entries logged since `mark`, newest first, handing each
    /// to `undo`; truncates `races` to the mark and opens a new epoch so
    /// that the next mutation of any entry logs again.
    ///
    /// # Panics
    ///
    /// Panics if `mark` came from a different history (it is ahead of
    /// the current log).
    pub(crate) fn rewind(
        &mut self,
        mark: &DetectorMark,
        races: &mut RaceList,
        mut undo: impl FnMut(U),
    ) {
        assert!(
            mark.log <= self.log.len() && mark.races <= races.races.len(),
            "detector mark from a different history"
        );
        while self.log.len() > mark.log {
            undo(self.log.pop().expect("undo entry"));
        }
        races.truncate(mark.races);
        self.epoch += 1;
    }
}

/// The distinct races a detector found, in discovery order.
#[derive(Debug, Default, Clone)]
pub(crate) struct RaceList {
    pub(crate) races: Vec<RaceReport>,
    seen: FxHashSet<StaticRaceKey>,
}

impl RaceList {
    /// Records `report` unless a race with its static key was already
    /// recorded.
    pub(crate) fn record(&mut self, report: RaceReport) {
        if self.seen.insert(report.static_key()) {
            self.races.push(report);
        }
    }

    /// Forgets every race past the first `len`.
    fn truncate(&mut self, len: usize) {
        for r in self.races.drain(len..) {
            self.seen.remove(&r.static_key());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{FastTrackDetector, LocksetDetector};
    use narada_lang::mir::VarId;
    use narada_lang::Span;
    use narada_vm::rng::SplitMix64;
    use narada_vm::{Event, EventKind, EventSink, FieldKey, InvId, Label, ObjId, ThreadId, Value};

    /// Random events over four threads, three objects with two fields
    /// each, and two locks; spawns are rare.
    struct Gen {
        rng: SplitMix64,
        label: u64,
    }

    impl Gen {
        fn event(&mut self) -> Event {
            self.label += 1;
            let tid = ThreadId(self.rng.gen_range(0..4u32));
            let obj = ObjId(self.rng.gen_range(0..3u32));
            let field = FieldKey::Elem(self.rng.gen_range(0..2i64));
            let lock = ObjId(10 + self.rng.gen_range(0..2u32));
            let site = self.rng.gen_range(0..6u32);
            let kind = match self.rng.gen_range(0..10u32) {
                0 => EventKind::Lock {
                    inv: InvId(0),
                    var: None,
                    obj: lock,
                },
                1 => EventKind::Unlock {
                    inv: InvId(0),
                    obj: lock,
                },
                2 if self.rng.gen_bool(0.2) => EventKind::ThreadSpawn {
                    child: ThreadId(self.rng.gen_range(1..4u32)),
                },
                3..=5 => EventKind::Read {
                    inv: InvId(0),
                    dst: VarId(0),
                    obj_var: VarId(0),
                    obj,
                    field,
                    value: Value::Int(0),
                },
                _ => EventKind::Write {
                    inv: InvId(0),
                    obj_var: VarId(0),
                    obj,
                    field,
                    src_var: VarId(1),
                    value: Value::Int(0),
                },
            };
            Event {
                label: Label(self.label),
                tid,
                span: Span::new(site * 10, site * 10 + 1),
                kind,
            }
        }

        fn feed(&mut self, n: usize, sinks: &mut [&mut dyn EventSink]) {
            for _ in 0..n {
                let ev = self.event();
                for s in sinks.iter_mut() {
                    s.event(&ev);
                }
            }
        }
    }

    /// A detector that can be marked, rewound and cloned, with its state
    /// rendered canonically for comparison.
    trait Rewindable: EventSink + Clone {
        fn mark(&mut self) -> super::DetectorMark;
        fn rewind(&mut self, mark: &super::DetectorMark);
        fn shown(&self) -> String;
    }

    impl Rewindable for LocksetDetector {
        fn mark(&mut self) -> super::DetectorMark {
            LocksetDetector::mark(self)
        }
        fn rewind(&mut self, mark: &super::DetectorMark) {
            LocksetDetector::rewind(self, mark)
        }
        fn shown(&self) -> String {
            self.canonical()
        }
    }

    impl Rewindable for FastTrackDetector {
        fn mark(&mut self) -> super::DetectorMark {
            FastTrackDetector::mark(self)
        }
        fn rewind(&mut self, mark: &super::DetectorMark) {
            FastTrackDetector::rewind(self, mark)
        }
        fn shown(&self) -> String {
            self.canonical()
        }
    }

    /// Demands that `rewound` equal `reference` (a clone taken at the
    /// mark), then feeds both a continuation and demands the same again,
    /// leaving `rewound` dirty for the next rewind.
    fn same_future<D: Rewindable>(rewound: &mut D, reference: &D, seed: u64) {
        assert_eq!(rewound.shown(), reference.shown(), "seed {seed}");
        let mut reference = reference.clone();
        let mut gen = Gen {
            rng: SplitMix64::seed_from_u64(seed),
            label: 1_000_000,
        };
        gen.feed(300, &mut [rewound, &mut reference]);
        assert_eq!(rewound.shown(), reference.shown(), "seed {seed}");
    }

    /// Nested marks: rewinding to either mark, any number of times,
    /// behaves exactly like a clone taken at that mark.
    fn nested_marks_behave_like_clones<D: Rewindable>(mut d: D) {
        for round in 0..20u64 {
            let mut gen = Gen {
                rng: SplitMix64::seed_from_u64(round),
                label: 0,
            };
            gen.feed(50, &mut [&mut d]);
            let outer = d.mark();
            let at_outer = d.clone();
            gen.feed(50, &mut [&mut d]);
            let inner = d.mark();
            let at_inner = d.clone();
            for probe in 0..3 {
                d.rewind(&inner);
                same_future(&mut d, &at_inner, round * 10 + probe);
            }
            d.rewind(&outer);
            same_future(&mut d, &at_outer, round * 10 + 5);
            d.rewind(&outer);
            assert_eq!(d.shown(), at_outer.shown());
        }
    }

    #[test]
    fn lockset_rewind_matches_a_clone() {
        nested_marks_behave_like_clones(LocksetDetector::new());
    }

    #[test]
    fn fasttrack_rewind_matches_a_clone() {
        nested_marks_behave_like_clones(FastTrackDetector::new());
    }
}
