//! Vector clocks and epochs, the timestamps behind the happens-before
//! detectors (Djit⁺/FastTrack style).

use narada_vm::ThreadId;
use std::cmp::Ordering;
use std::fmt;

/// A vector clock: one logical clock per thread.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct VectorClock {
    clocks: Vec<u32>,
}

impl Clone for VectorClock {
    fn clone(&self) -> Self {
        VectorClock {
            clocks: self.clocks.clone(),
        }
    }

    /// Copies `source` into the existing buffer: no allocation once it
    /// has grown to the thread count (a lock's release clock).
    fn clone_from(&mut self, source: &Self) {
        self.clocks.clone_from(&source.clocks);
    }
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The component for one thread.
    pub fn get(&self, tid: ThreadId) -> u32 {
        self.clocks.get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the component for one thread.
    pub fn set(&mut self, tid: ThreadId, value: u32) {
        if self.clocks.len() <= tid.index() {
            self.clocks.resize(tid.index() + 1, 0);
        }
        self.clocks[tid.index()] = value;
    }

    /// Increments one component.
    pub fn tick(&mut self, tid: ThreadId) {
        let v = self.get(tid);
        self.set(tid, v + 1);
    }

    /// Pointwise maximum (join).
    pub fn join(&mut self, other: &VectorClock) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), 0);
        }
        for (i, &c) in other.clocks.iter().enumerate() {
            if self.clocks[i] < c {
                self.clocks[i] = c;
            }
        }
    }

    /// True when `self ⊑ other` pointwise (self happens-before-or-equals
    /// other).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.clocks
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.clocks.get(i).copied().unwrap_or(0))
    }

    /// Partial order comparison.
    pub fn partial_cmp_vc(&self, other: &VectorClock) -> Option<Ordering> {
        let le = self.leq(other);
        let ge = other.leq(self);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.clocks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// A FastTrack epoch: one `(thread, clock)` pair — the compressed
/// representation for totally ordered access histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Owning thread.
    pub tid: ThreadId,
    /// Clock value.
    pub clock: u32,
}

impl Epoch {
    /// The current epoch of `tid` in `vc`.
    pub fn of(tid: ThreadId, vc: &VectorClock) -> Epoch {
        Epoch {
            tid,
            clock: vc.get(tid),
        }
    }

    /// `self ⪯ vc` — the epoch happens-before (or equals) the clock.
    pub fn leq(self, vc: &VectorClock) -> bool {
        self.clock <= vc.get(self.tid)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn tick_and_get() {
        let mut vc = VectorClock::new();
        assert_eq!(vc.get(t(3)), 0);
        vc.tick(t(3));
        vc.tick(t(3));
        assert_eq!(vc.get(t(3)), 2);
        assert_eq!(vc.get(t(0)), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.set(t(0), 5);
        a.set(t(1), 1);
        let mut b = VectorClock::new();
        b.set(t(1), 7);
        a.join(&b);
        assert_eq!(a.get(t(0)), 5);
        assert_eq!(a.get(t(1)), 7);
    }

    #[test]
    fn leq_and_concurrent() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(0), 2);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        let mut c = VectorClock::new();
        c.set(t(1), 1);
        assert_eq!(a.partial_cmp_vc(&c), None, "concurrent clocks");
        assert_eq!(a.partial_cmp_vc(&b), Some(Ordering::Less));
        assert_eq!(a.partial_cmp_vc(&a.clone()), Some(Ordering::Equal));
    }

    #[test]
    fn epoch_leq() {
        let mut vc = VectorClock::new();
        vc.set(t(2), 4);
        let e = Epoch {
            tid: t(2),
            clock: 3,
        };
        assert!(e.leq(&vc));
        let e2 = Epoch {
            tid: t(2),
            clock: 5,
        };
        assert!(!e2.leq(&vc));
        let e3 = Epoch {
            tid: t(1),
            clock: 1,
        };
        assert!(!e3.leq(&vc), "different thread with clock 0");
    }
}
