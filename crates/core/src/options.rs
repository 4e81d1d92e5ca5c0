//! Tuning knobs for the synthesis pipeline, including the ablation flags
//! called out in DESIGN.md.

use narada_vm::ScheduleStrategy;

/// Options controlling pair generation, context derivation, and synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// **A1** — when `true`, an access is considered unprotected only when
    /// *no* lock at all is held. The paper's default (`false`) is the
    /// conservative choice: any access whose owner's monitor is not held is
    /// unprotected, even if some other lock guards it (§4).
    pub strict_unprotected: bool,
    /// **A2** — attempt prefix sharing when the full owner path cannot be
    /// installed (§4). Disabling drops the 0-race tests of Fig. 14.
    pub prefix_fallback: bool,
    /// **A3** — reject sharings that force the two racy accesses to hold a
    /// common lock (§3.3's "receivers must be distinct" reasoning).
    /// Disabling makes lock-on-receiver pairs unconfirmable.
    pub lockset_aware: bool,
    /// Upper bound on racing pairs per field group, to keep degenerate
    /// classes from exploding (the paper reports no such cap; ours is high
    /// enough to never bind on the corpus).
    pub max_pairs_per_key: usize,
    /// Maximum recursion depth for the `Q` setter derivation.
    pub max_setter_depth: usize,
    /// Worker threads for the sharded pipeline stages (`0` = one per
    /// core). Results are identical at any value — see
    /// [`crate::parallel`] — so this is purely a throughput knob.
    pub threads: usize,
    /// Drop pairs the static pre-screener proves can never race
    /// (`MustNotRace`) before context derivation. Off by default: the
    /// paper's pipeline derives every generated pair.
    pub static_filter: bool,
    /// Order pairs by descending static suspicion score before context
    /// derivation, so the most race-prone tests come first in the suite.
    /// Off by default (pairs stay in generation order).
    pub static_rank: bool,
    /// Replace the program's own `test` declarations with a generated
    /// seed suite before synthesis (`narada synth --generate-seeds`;
    /// see [`crate::pipeline::synthesize_generated`]). Off by default —
    /// the paper's pipeline consumes hand-written seed tests.
    pub generate_seeds: bool,
    /// Kept only so that struct literals naming `engine` (the
    /// repository benchmark's) still compile; nothing reads it. Tree-walk
    /// is the only interpreter.
    pub engine: (),
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            strict_unprotected: false,
            prefix_fallback: true,
            lockset_aware: true,
            max_pairs_per_key: 256,
            max_setter_depth: 4,
            threads: 0,
            static_filter: false,
            static_rank: false,
            generate_seeds: false,
            engine: (),
        }
    }
}

/// Options for the schedule-exploration engine: how synthesized tests are
/// *executed* concurrently (as opposed to how they are derived).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Scheduler family for exploration runs (the CLI's `--strategy`).
    pub strategy: ScheduleStrategy,
    /// PCT change-point sampling horizon (expected scheduling decisions
    /// per run; ignored by the other strategies).
    pub pct_horizon: u64,
    /// Base seed; each run derives its own from `(seed, test index)`.
    pub seed: u64,
    /// Step budget per concurrent run.
    pub budget: u64,
    /// Worker threads for sharded demonstration runs (`0` = one per
    /// core); results are identical at any value.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            strategy: ScheduleStrategy::Random,
            pct_horizon: 1_000,
            seed: 0xdecaf,
            budget: 2_000_000,
            threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_defaults() {
        let e = ExploreOptions::default();
        assert_eq!(e.strategy, ScheduleStrategy::Random);
        assert!(e.pct_horizon > 0);
    }

    #[test]
    fn defaults_match_paper() {
        let o = SynthesisOptions::default();
        assert!(!o.strict_unprotected, "paper is conservative by default");
        assert!(o.prefix_fallback);
        assert!(o.lockset_aware);
        assert!(
            !o.static_filter && !o.static_rank,
            "static screening is opt-in; the paper derives every pair"
        );
    }
}
