//! Verdict types for the static race pre-screener.
//!
//! The screener itself lives in the `narada-screen` crate (it analyzes
//! MIR, which the synthesis pipeline otherwise never inspects); only the
//! *interface* lives here so that `SynthesisOutput` and the detect
//! crate's provenance records can carry verdicts without a
//! dependency cycle. The pipeline accepts any [`ScreenerFn`];
//! `narada_serve::synthesize` passes the `narada-screen` one.
//!
//! Soundness contract (argued in DESIGN.md §5): a screener may only
//! *discharge* pairs — `MustNotRace` promises that no synthesized context
//! can make the two accesses race, so filtering on it never loses a
//! dynamically-confirmable pair. `MayRace` makes no promise either way;
//! its score is a heuristic rank, higher = more suspicious.

use narada_lang::mir::MirProgram;
use std::fmt;

/// Why the screener believes a pair can never be made to race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScreenReason {
    /// Both accesses must hold the owner object's own monitor when they
    /// execute, so the two threads can never be poised inside their
    /// critical sections simultaneously.
    OwnerMonitorHeld,
    /// The accessed owner is a fresh allocation that never escapes its
    /// allocating invocation; no second thread can reach it.
    ThreadLocalOwner,
    /// No derivable sharing context exists: every candidate anchor either
    /// forces the two calls onto a common lock or cannot be installed
    /// through the observed setter/builder summaries, so the Context
    /// Deriver can only emit a non-racing (`expects_race = false`) plan.
    NoRacyContext,
}

impl fmt::Display for ScreenReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScreenReason::OwnerMonitorHeld => "owner-monitor-held",
            ScreenReason::ThreadLocalOwner => "thread-local-owner",
            ScreenReason::NoRacyContext => "no-racy-context",
        })
    }
}

/// The screener's judgement on one generated pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticVerdict {
    /// Proven non-racy; safe to prune under `--static-filter`.
    MustNotRace {
        /// The discharge argument that applied.
        reason: ScreenReason,
    },
    /// Not discharged; `score` ranks suspicion (higher = try earlier).
    MayRace {
        /// Digest-style suspicion score, always ≥ 1.
        score: u32,
    },
}

impl StaticVerdict {
    /// `true` unless the pair was proven non-racy.
    pub fn may_race(&self) -> bool {
        matches!(self, StaticVerdict::MayRace { .. })
    }

    /// Rank key: discharged pairs score 0, survivors their suspicion.
    pub fn score(&self) -> u32 {
        match *self {
            StaticVerdict::MustNotRace { .. } => 0,
            StaticVerdict::MayRace { score } => score,
        }
    }
}

impl fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticVerdict::MustNotRace { reason } => write!(f, "must-not-race({reason})"),
            StaticVerdict::MayRace { score } => write!(f, "may-race({score})"),
        }
    }
}

/// A static pre-screener: one verdict per pair of the given
/// [`crate::pairs::PairSet`], in pair order.
///
/// A `&dyn Fn` rather than a plain `fn` pointer so callers can close
/// over pre-built analysis state — the serve cache passes a closure
/// capturing its memoized whole-program summaries
/// (`narada_screen::screen_pairs_with`), while plain functions like
/// `narada_screen::screen_pairs` still coerce at every call site.
pub type ScreenerFn<'a> =
    &'a (dyn Fn(&MirProgram, &crate::pairs::PairSet) -> Vec<StaticVerdict> + Sync);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors_and_display() {
        let v = StaticVerdict::MustNotRace {
            reason: ScreenReason::NoRacyContext,
        };
        assert!(!v.may_race());
        assert_eq!(v.score(), 0);
        assert_eq!(v.to_string(), "must-not-race(no-racy-context)");
        let m = StaticVerdict::MayRace { score: 70 };
        assert!(m.may_race());
        assert_eq!(m.score(), 70);
        assert_eq!(m.to_string(), "may-race(70)");
        assert_eq!(
            ScreenReason::OwnerMonitorHeld.to_string(),
            "owner-monitor-held"
        );
        assert_eq!(
            ScreenReason::ThreadLocalOwner.to_string(),
            "thread-local-owner"
        );
    }
}
