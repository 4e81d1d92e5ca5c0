//! Workspace-level differential-corpus tests: the generator lattice, the
//! sweep determinism contract, and the committed fixture regression
//! suite (programs promoted from shrunk soundness disagreements).

use narada::difftest::{check_agreement, run_sweep, ClassSpec, DiffConfig, Outcome};
use narada::Obs;
use std::path::Path;

fn fast_cfg() -> DiffConfig {
    DiffConfig {
        threads: 0,
        schedule_trials: 4,
        confirm_trials: 3,
        ..DiffConfig::default()
    }
}

/// One pass over the whole 36-point lattice: no screener-soundness
/// disagreement anywhere, and both oracles non-vacuous.
#[test]
fn lattice_sweep_agrees() {
    let cfg = DiffConfig {
        count: 36,
        ..fast_cfg()
    };
    let sweep = run_sweep(&cfg, &Obs::new());
    let sound = sweep.soundness();
    assert!(
        sound.is_empty(),
        "soundness disagreements:\n{}\n\nfirst source:\n{}",
        sound
            .iter()
            .map(|r| r.summary())
            .collect::<Vec<_>>()
            .join("\n"),
        sound[0].source
    );
    assert!(sweep.discharged() > 0, "screener discharged nothing");
    assert!(sweep.confirmed() > 0, "scheduler confirmed nothing");
}

/// The sweep digest is a pure function of `(generator version, seed,
/// count)` — same at any worker count, different under a different base
/// seed.
#[test]
fn sweep_digest_depends_only_on_seed_and_count() {
    let cfg = DiffConfig {
        count: 9,
        threads: 1,
        ..fast_cfg()
    };
    let a = run_sweep(&cfg, &Obs::new());
    let b = run_sweep(
        &DiffConfig {
            threads: 3,
            ..cfg.clone()
        },
        &Obs::new(),
    );
    assert_eq!(a.digest, b.digest, "digest varies with thread count");
    let c = run_sweep(
        &DiffConfig {
            seed: cfg.seed + 1,
            ..cfg
        },
        &Obs::new(),
    );
    assert_ne!(a.digest, c.digest, "digest ignores the base seed");
}

/// Every committed fixture — a program that once exposed a screener
/// soundness bug — must now agree. A reappearing disagreement means the
/// fixed bug regressed.
#[test]
fn promoted_fixtures_stay_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/difftest");
    let mut checked = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mj"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        let prog = narada::compile(&src)
            .unwrap_or_else(|e| panic!("{}: fixture no longer compiles: {e}", path.display()));
        // Fixture seeds don't matter for soundness (any confirmed race
        // with a MustNotRace verdict is a bug at every seed), so a fixed
        // one keeps the regression run reproducible.
        let check = check_agreement(&prog, 0xf1f7, &fast_cfg());
        assert!(
            check.disagreements.is_empty(),
            "{}: fixed disagreement reappeared: {:?}",
            path.display(),
            check.disagreements
        );
        checked += 1;
    }
    // No fixtures yet is fine (none promoted); the walk itself is the
    // guard once they land.
    println!("checked {checked} promoted fixture(s)");
}

/// The fault-injection self test end to end at workspace level: an
/// unsound screener must surface as a Soundness outcome.
#[test]
fn injected_unsoundness_is_always_caught() {
    let cfg = DiffConfig {
        count: 4,
        inject_unsound: true,
        ..fast_cfg()
    };
    let sweep = run_sweep(&cfg, &Obs::new());
    assert!(
        !sweep.soundness().is_empty(),
        "inject-unsound sweep found nothing: {}",
        sweep.summary()
    );
    for r in sweep.soundness() {
        let Outcome::Soundness(ds) = &r.outcome else {
            unreachable!()
        };
        assert!(!ds.is_empty());
    }
}

/// Spec enumeration is stable across calls and processes (pure
/// arithmetic over the base seed).
#[test]
fn spec_enumeration_is_stable() {
    let a = ClassSpec::enumerate(0xd1ff, 40);
    let b = ClassSpec::enumerate(0xd1ff, 40);
    assert_eq!(a, b);
}
