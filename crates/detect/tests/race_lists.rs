//! Race-list fixture: the ordered `races()` output of both passive
//! detectors, pinned for every detection trial of C1–C9 at the `narada
//! detect` defaults (6 random schedules per test, seed 42, 2M-step
//! budget, tree-walk engine).
//!
//! Each line of `fixtures/race_lists.txt` names one trial and carries,
//! per detector, the number of races and an FNV-1a digest of the ordered
//! list. A race contributes its static key, both thread ids, both
//! read/write kinds, the object and the field, so any change to what a
//! detector reports, or to the order it reports it in, moves a digest.
//!
//! Trials run under the detection pass's [`SaturationWatch`], so the
//! fixture, recorded with every trial run to the full step budget, also
//! pins that the saturation cut drops no race.
//!
//! Quick mode checks a slice: the first three tests of every class plus
//! C1 test 60, whose trials 1, 3 and 4 livelock and are cut. Set
//! `NARADA_RACELIST_FULL=1` for every trial (the CI release leg), and
//! `UPDATE_GOLDEN=1` to rewrite the fixture from the current detectors.

use narada_core::digest::Fnv1a;
use narada_core::synth::execute_plan;
use narada_core::{synthesize_source, SynthesisOptions};
use narada_detect::{FastTrackDetector, LocksetDetector, RaceReport, SaturationWatch};
use narada_vm::rng::derive_seed;
use narada_vm::{Machine, MachineOptions, ScheduleStrategy};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `narada detect` defaults.
const SEED: u64 = 42;
const SCHEDULES: u64 = 6;
const BUDGET: u64 = 2_000_000;
/// The detection pass's seed-derivation stage tags (`report.rs`).
const STAGE_DETECT_MACHINE: u64 = 1;
const STAGE_DETECT_SCHED: u64 = 2;
/// Tests per class in the quick slice, plus the runaway-trial test.
const SLICE_TESTS: usize = 3;
const SLICE_EXTRA: (&str, usize) = ("C1", 60);

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/race_lists.txt")
}

/// Count and digest of one detector's ordered race list.
fn digest(races: &[RaceReport]) -> String {
    let mut h = Fnv1a::new();
    for r in races {
        let k = r.static_key();
        for v in [k.span_a.start, k.span_a.end, k.span_b.start, k.span_b.end] {
            h.write_u64(v as u64);
        }
        h.write_u64(k.elem as u64);
        for a in [&r.first, &r.second] {
            h.write_u64(a.tid.0 as u64);
            h.write_u64(a.is_write as u64);
        }
        h.write_str(&r.obj.to_string());
        h.write_str(&r.field.to_string());
    }
    format!("{} {:016x}", races.len(), h.finish())
}

/// One fixture line per detection trial of `entry`'s synthesized suite,
/// keyed `(test, trial)`, restricted to the tests `keep` accepts.
fn class_lines(
    entry: &narada_corpus::CorpusEntry,
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<(usize, u64), String> {
    let (prog, mir, out) = synthesize_source(
        entry.source,
        &SynthesisOptions {
            threads: 1,
            ..SynthesisOptions::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: synthesis failed: {e:?}", entry.id));
    let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
    let mut lines = BTreeMap::new();
    for (i, test) in out.tests.iter().enumerate().filter(|(i, _)| keep(*i)) {
        for trial in 0..SCHEDULES {
            let machine_seed = derive_seed(SEED, &[STAGE_DETECT_MACHINE, i as u64, trial]);
            let sched_seed = derive_seed(SEED, &[STAGE_DETECT_SCHED, i as u64, trial]);
            let opts = MachineOptions {
                seed: machine_seed,
                ..MachineOptions::default()
            };
            let mut machine = Machine::new(&prog, &mir, opts);
            let mut lockset = LocksetDetector::new();
            let mut hb = FastTrackDetector::new();
            let mut sink = SaturationWatch::new(&mut lockset, &mut hb);
            let mut sched = ScheduleStrategy::Random.build(sched_seed, 1_000);
            let run = execute_plan(
                &mut machine,
                &seeds,
                &test.plan,
                &mut *sched,
                &mut sink,
                BUDGET,
            );
            let body = match run {
                Ok(_) => format!(
                    "lockset {} fasttrack {}",
                    digest(lockset.races()),
                    digest(hb.races())
                ),
                Err(e) => format!("error {e}"),
            };
            lines.insert(
                (i, trial),
                format!("{} test {i} trial {trial}: {body}", entry.id),
            );
        }
    }
    lines
}

#[test]
fn race_lists_match_fixture() {
    let update = env_on("UPDATE_GOLDEN");
    let full = update || env_on("NARADA_RACELIST_FULL");
    let mut got: Vec<String> = Vec::new();
    for entry in narada_corpus::all() {
        let keep = |i: usize| full || i < SLICE_TESTS || (entry.id, i) == SLICE_EXTRA;
        got.extend(class_lines(&entry, keep).into_values());
    }
    let path = fixture_path();
    if update {
        let mut doc = String::from(
            "# Ordered race lists per detection trial at the `narada detect` defaults.\n\
             # Regenerate: UPDATE_GOLDEN=1 cargo test --release -p narada-detect --test race_lists\n",
        );
        for line in &got {
            doc.push_str(line);
            doc.push('\n');
        }
        std::fs::write(&path, doc).expect("write race-list fixture");
        return;
    }
    let fixture = std::fs::read_to_string(&path).expect("read race-list fixture");
    let want: BTreeMap<&str, &str> = fixture
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(": "))
        .collect();
    let slice_line = format!("{} test {} trial 1", SLICE_EXTRA.0, SLICE_EXTRA.1);
    assert!(
        got.iter().any(|l| l.starts_with(&slice_line)),
        "the slice must cover {slice_line}"
    );
    if full {
        assert_eq!(
            got.len(),
            want.len(),
            "trial count differs from the fixture"
        );
    }
    for line in &got {
        let (key, body) = line.split_once(": ").expect("fixture line shape");
        assert_eq!(
            want.get(key).copied(),
            Some(body),
            "{key}: race list differs from the fixture"
        );
    }
}
