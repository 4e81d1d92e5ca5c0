//! Cross-checks the screener against the Context Deriver on the whole
//! corpus, without any dynamic exploration: a `MustNotRace` verdict
//! promises that no synthesized context can manifest the race — so every
//! test plan covering such a pair must itself have been derived with
//! `expects_race == false`. (The stronger check against races that
//! actually *manifest* under the scheduler lives in the workspace-level
//! `screener_agreement` property.)

use narada_core::{synthesize_observed, StaticVerdict, SynthesisOptions};
use narada_lang::lower::lower_program;
use narada_obs::Obs;
use narada_screen::screen_pairs;

#[test]
fn must_not_race_pairs_never_yield_race_expecting_plans() {
    for e in narada_corpus::all() {
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        let verdicts = screen_pairs(&mir, &out.pairs);
        assert_eq!(verdicts.len(), out.pairs.pairs.len());
        let mut expects = vec![false; out.pairs.pairs.len()];
        for t in &out.tests {
            for &pi in &t.covered_pairs {
                expects[pi] |= t.plan.expects_race;
            }
        }
        for (pi, v) in verdicts.iter().enumerate() {
            if let StaticVerdict::MustNotRace { reason } = v {
                assert!(
                    !expects[pi],
                    "{}: pair {pi} discharged ({reason}) but the deriver \
                     produced a race-expecting plan for it",
                    e.id
                );
            }
        }
    }
}

#[test]
fn screener_discharges_pairs_on_lock_heavy_classes() {
    // The screener must actually *do* something where there is something
    // to do: C2 (SynchronizedCollection), C3 (CharArrayWriter) and C5
    // (BufferedInputStream) all contain fully monitor-protected pair
    // populations whose derived plans cannot race.
    for id in ["C2", "C3", "C5"] {
        let e = narada_corpus::by_id(id).expect("known id");
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        let verdicts = screen_pairs(&mir, &out.pairs);
        let pruned = verdicts.iter().filter(|v| !v.may_race()).count();
        assert!(pruned > 0, "{id}: expected at least one discharged pair");
    }
}

#[test]
fn ranking_scores_are_positive_and_bounded() {
    for e in narada_corpus::all() {
        let prog = e.compile().expect("corpus compiles");
        let mir = lower_program(&prog);
        let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
        for v in screen_pairs(&mir, &out.pairs) {
            match v {
                StaticVerdict::MayRace { score } => {
                    assert!((1..=101).contains(&score), "{}: score {score}", e.id)
                }
                StaticVerdict::MustNotRace { .. } => assert_eq!(v.score(), 0),
            }
        }
    }
}
