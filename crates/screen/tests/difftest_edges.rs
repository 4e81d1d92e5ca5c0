//! Screener edge cases the differential corpus generator is built to
//! hit, pinned as unit tests. Each program here is the shrunk form of a
//! generator emission (every noise member dropped via
//! `emit_retained`), so the assertions survive emitter evolution only
//! consciously: if the generator's shape changes, these tests change
//! with it — under review.
//!
//! The three traps:
//! 1. **Reentrant monitor on a wrong lock** — both accesses hold *a*
//!    lock (twice, even: `read` → `readLocked` re-acquires it), but not
//!    the owner's monitor. Discharging via `OwnerMonitorHeld` here
//!    would be unsound.
//! 2. **Array-element writes under mixed guarding** — writes hold the
//!    owner's monitor, reads run bare. The read/write element pair must
//!    survive; only the write/write self-pair may be discharged.
//! 3. **Constructor-escaped `this`** — the owner arrives through the
//!    subject's constructor (which also writes `x.owner = this`), so it
//!    is client-reachable and must not be classified `ThreadLocalOwner`.

use narada_core::{synthesize_observed, RaceKey, ScreenReason, StaticVerdict, SynthesisOptions};
use narada_difftest::{emit_retained, ClassSpec, Discipline, FieldKind, Sharing};
use narada_lang::hir::Program;
use narada_lang::lower::lower_program;
use narada_obs::Obs;
use narada_screen::screen_pairs;
use std::collections::BTreeSet;

/// Emits the shrunk (noise-free) program for the first sweep spec
/// matching the given lattice point.
fn shrunk_program(
    kind: FieldKind,
    discipline: Discipline,
    sharing: Sharing,
) -> (ClassSpec, Program) {
    let spec = ClassSpec::enumerate(0xd1ff, 36)
        .into_iter()
        .find(|s| s.field_kind == kind && s.discipline == discipline && s.sharing == sharing)
        .expect("36 specs cover the lattice");
    let full = narada_difftest::emit(spec);
    let dropped: BTreeSet<String> = full.removable.iter().cloned().collect();
    let gen = emit_retained(spec, &dropped);
    let prog = gen
        .program
        .compile()
        .unwrap_or_else(|e| panic!("{}: {e}\n{}", spec.label(), gen.source()));
    (spec, prog)
}

/// Screens a program and returns `(pairs-with-verdicts, prog)` keyed for
/// the assertions below.
fn screened(
    kind: FieldKind,
    discipline: Discipline,
    sharing: Sharing,
) -> (Program, Vec<(RaceKey, bool, bool, StaticVerdict)>) {
    let (spec, prog) = shrunk_program(kind, discipline, sharing);
    let mir = lower_program(&prog);
    let out = synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
    let verdicts = screen_pairs(&mir, &out.pairs);
    assert_eq!(verdicts.len(), out.pairs.pairs.len(), "{}", spec.label());
    assert!(
        !out.pairs.pairs.is_empty(),
        "{}: no pairs generated",
        spec.label()
    );
    let rows = out
        .pairs
        .pairs
        .iter()
        .zip(&verdicts)
        .map(|(p, v)| {
            let (a, b) = out.pairs.accesses_of(p);
            (p.key, a.is_write, b.is_write, *v)
        })
        .collect();
    (prog, rows)
}

/// The leaf field's id in `Inner` (`val`, `arr`, or `ref`).
fn leaf_field(prog: &Program, name: &str) -> narada_lang::hir::FieldId {
    let inner = prog
        .classes
        .iter()
        .find(|c| c.name == "Inner")
        .expect("generated Inner class");
    *inner
        .own_fields
        .iter()
        .find(|f| prog.field(**f).name == name)
        .expect("leaf field")
}

#[test]
fn reentrant_wrong_lock_is_never_discharged_as_owner_monitor() {
    let (prog, rows) = screened(
        FieldKind::Scalar,
        Discipline::WrongLock,
        Sharing::EscapingField,
    );
    let val = leaf_field(&prog, "val");
    let mut leaf_pairs = 0usize;
    for (key, _, _, verdict) in &rows {
        // No pair anywhere in a wrong-lock class holds the owner's
        // monitor; an OwnerMonitorHeld discharge would be unsound.
        assert!(
            !matches!(
                verdict,
                StaticVerdict::MustNotRace {
                    reason: ScreenReason::OwnerMonitorHeld
                }
            ),
            "wrong-lock pair {key:?} discharged as OwnerMonitorHeld"
        );
        if matches!(key, RaceKey::Field(f) if *f == val) {
            leaf_pairs += 1;
            assert!(
                verdict.may_race(),
                "wrong-lock leaf pair {key:?} wrongly discharged: {verdict}"
            );
        }
    }
    assert!(leaf_pairs > 0, "no pair on the wrong-lock leaf");
}

#[test]
fn mixed_guarding_keeps_bare_array_element_reads_racy() {
    let (prog, rows) = screened(FieldKind::Array, Discipline::Mixed, Sharing::EscapingField);
    let arr = leaf_field(&prog, "arr");
    let on_elem = |key: &RaceKey| matches!(key, RaceKey::ElemVia(f) if *f == arr);
    // The bare read × guarded write pair must survive screening.
    let surviving_rw = rows
        .iter()
        .any(|(key, w1, w2, verdict)| on_elem(key) && (*w1 != *w2) && verdict.may_race());
    assert!(
        surviving_rw,
        "mixed-guarded array element: the read/write pair did not survive:\n{rows:?}"
    );
    // A write/write self-pair may be discharged, but only with a sound
    // argument: both sides hold the owner's monitor, or every derivable
    // sharing forces a lock collision. The object escapes through a
    // setter, so thread-locality would be flatly wrong.
    for (key, w1, w2, verdict) in &rows {
        if on_elem(key) && *w1 && *w2 {
            if let StaticVerdict::MustNotRace { reason } = verdict {
                assert_ne!(
                    *reason,
                    ScreenReason::ThreadLocalOwner,
                    "escaping array owner discharged as thread-local"
                );
            }
        }
    }
}

#[test]
fn ctor_captured_owner_is_not_thread_local() {
    let (prog, rows) = screened(
        FieldKind::Scalar,
        Discipline::Unguarded,
        Sharing::CtorCaptured,
    );
    let val = leaf_field(&prog, "val");
    let mut leaf_pairs = 0usize;
    for (key, _, _, verdict) in &rows {
        assert!(
            !matches!(
                verdict,
                StaticVerdict::MustNotRace {
                    reason: ScreenReason::ThreadLocalOwner
                }
            ),
            "ctor-captured owner classified thread-local for pair {key:?}"
        );
        if matches!(key, RaceKey::Field(f) if *f == val) {
            leaf_pairs += 1;
            assert!(
                verdict.may_race(),
                "unguarded leaf pair {key:?} wrongly discharged: {verdict}"
            );
        }
    }
    assert!(leaf_pairs > 0, "no pair on the captured unguarded leaf");
}

/// The same traps across every sharing shape. For almost every
/// under-locked lattice point the exposed leaf must survive screening.
/// The one exception is itself worth pinning: under
/// `WrongLock`/`ReturnedAlias` with all noise removed, the only
/// installable sharing is a single shared `Subject`, where every access
/// serializes on the same (wrong) guard — a lock collision, so
/// `NoRacyContext` is the *correct* discharge and the dynamic side
/// agrees the class is race-free.
#[test]
fn exposed_leaf_survives_screening_across_all_sharings() {
    for sharing in Sharing::ALL {
        for discipline in [
            Discipline::Unguarded,
            Discipline::WrongLock,
            Discipline::Mixed,
        ] {
            let (prog, rows) = screened(FieldKind::Scalar, discipline, sharing);
            let val = leaf_field(&prog, "val");
            let leaf_rows: Vec<_> = rows
                .iter()
                .filter(|(key, ..)| matches!(key, RaceKey::Field(f) if *f == val))
                .collect();
            assert!(
                !leaf_rows.is_empty(),
                "{discipline:?}/{sharing:?}: no pair on the exposed leaf"
            );
            if discipline == Discipline::WrongLock && sharing == Sharing::ReturnedAlias {
                // Single-subject sharing only: common guard on every
                // access, so the discharge must cite the lock collision
                // (no racy context), never monitor- or escape-based
                // arguments that do not hold here.
                for (key, _, _, verdict) in &leaf_rows {
                    assert_eq!(
                        *verdict,
                        StaticVerdict::MustNotRace {
                            reason: ScreenReason::NoRacyContext
                        },
                        "expected lock-collision discharge for {key:?}, got {verdict}"
                    );
                }
            } else {
                let survivors = leaf_rows.iter().filter(|(.., v)| v.may_race()).count();
                assert!(
                    survivors > 0,
                    "{:?}/{:?}: exposed leaf fully discharged:\n{rows:?}",
                    discipline,
                    sharing
                );
            }
        }
    }
}
