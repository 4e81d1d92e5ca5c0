//! Golden replay of the committed `.sched` fixtures: every minimized racy
//! schedule under `tests/fixtures/` must re-manifest its race
//! deterministically — byte-identical trace, zero schedule divergence —
//! and the directed confirmer must reproduce the recorded verdict.
//!
//! Fixtures are produced by `narada corpus <ID> --record tests/fixtures`
//! (detection → RaceFuzzer confirmation → ddmin minimization). A failure
//! here means the VM, the synthesizer, or a detector changed semantics in
//! a way that breaks replayability of recorded races.

use narada::core::execute_plan_fresh;
use narada::detect::{replay_schedule, RaceFuzzerScheduler, StaticRaceKey};
use narada::lang::hir::Program;
use narada::lang::lower::lower_program;
use narada::lang::mir::MirProgram;
use narada::vm::{MachineOptions, Schedule};
use narada::{synthesize_observed, Obs, SynthesisOptions, SynthesisOutput};
use std::collections::HashMap;
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn load_fixtures() -> Vec<(String, Schedule)> {
    let mut fixtures: Vec<(String, Schedule)> = std::fs::read_dir(fixture_dir())
        .expect("tests/fixtures exists")
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? != "sched" {
                return None;
            }
            let text = std::fs::read_to_string(&path).ok()?;
            let name = path.file_name()?.to_string_lossy().into_owned();
            let sched = Schedule::parse(&text)
                .unwrap_or_else(|err| panic!("{name}: unparseable fixture: {err}"));
            Some((name, sched))
        })
        .collect();
    fixtures.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        fixtures.len() >= 4,
        "expected the committed C1/C5 fixture set, found {}",
        fixtures.len()
    );
    fixtures
}

/// Re-synthesizes the suite a fixture was recorded against (cached per
/// corpus class: synthesis is deterministic).
struct Suites(HashMap<String, (Program, MirProgram, SynthesisOutput)>);

impl Suites {
    fn get(&mut self, class: &str) -> &(Program, MirProgram, SynthesisOutput) {
        self.0.entry(class.to_string()).or_insert_with(|| {
            let entry = narada::corpus::by_id(&class.to_uppercase())
                .unwrap_or_else(|| panic!("fixture names unknown corpus class `{class}`"));
            let prog = entry.compile().expect("corpus class compiles");
            let mir = lower_program(&prog);
            let out =
                synthesize_observed(&prog, &mir, &SynthesisOptions::default(), None, &Obs::new());
            (prog, mir, out)
        })
    }
}

#[test]
fn fixtures_replay_byte_identically() {
    let mut suites = Suites(HashMap::new());
    for (name, sched) in load_fixtures() {
        let class = sched
            .meta_get("class")
            .unwrap_or_else(|| panic!("{name}: missing `class` metadata"))
            .to_string();
        let (prog, mir, out) = suites.get(&class);
        let index: usize = sched
            .meta_get("plan-index")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name}: missing `plan-index`"));
        let test = &out.tests[index];
        assert_eq!(
            sched.meta_get("plan").expect("plan key recorded"),
            test.plan.dedup_key(),
            "{name}: synthesized plan {index} drifted from the recording"
        );

        let target = StaticRaceKey::parse_meta(sched.meta_get("target").expect("target recorded"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        let want = u64::from_str_radix(
            sched
                .meta_get("trace-digest")
                .expect("digest recorded")
                .trim_start_matches("0x"),
            16,
        )
        .expect("digest parses");

        let outcome = replay_schedule(prog, mir, &seeds, &test.plan, 2_000_000, &sched)
            .unwrap_or_else(|e| panic!("{name}: replay setup failed: {e}"));
        assert_eq!(outcome.divergences, 0, "{name}: replay left the recording");
        assert!(
            outcome.manifests(&target),
            "{name}: target race {target} did not re-manifest (got {:?})",
            outcome.keys
        );
        assert_eq!(
            outcome.trace_digest, want,
            "{name}: replayed trace is not byte-identical to the recording"
        );
    }
}

#[test]
fn fixtures_reproduce_recorded_verdicts() {
    let mut suites = Suites(HashMap::new());
    for (name, sched) in load_fixtures() {
        let class = sched.meta_get("class").expect("class recorded").to_string();
        let (prog, mir, out) = suites.get(&class);
        let index: usize = sched.meta_get("plan-index").unwrap().parse().unwrap();
        let test = &out.tests[index];
        let target =
            StaticRaceKey::parse_meta(sched.meta_get("target").unwrap()).expect("target parses");
        let sched_seed = u64::from_str_radix(
            sched
                .meta_get("sched-seed")
                .expect("confirmation seed recorded")
                .trim_start_matches("0x"),
            16,
        )
        .expect("seed parses");

        // Re-run the directed confirmation with the recorded seeds: the
        // same race must confirm with the same harmful/benign verdict.
        let mut fuzzer = RaceFuzzerScheduler::new(target, sched_seed);
        let seeds: Vec<_> = prog.tests.iter().map(|t| t.id).collect();
        execute_plan_fresh(
            prog,
            mir,
            &seeds,
            &test.plan,
            &mut fuzzer,
            &mut narada::vm::NullSink,
            MachineOptions {
                seed: sched.seed,
                ..MachineOptions::default()
            },
            2_000_000,
        )
        .unwrap_or_else(|e| panic!("{name}: confirmation setup failed: {e}"));
        let confirmed = fuzzer
            .confirmed
            .iter()
            .find(|c| c.key == target)
            .unwrap_or_else(|| panic!("{name}: race {target} no longer confirms"));
        let want_benign = sched.meta_get("verdict") == Some("benign");
        assert_eq!(
            confirmed.benign, want_benign,
            "{name}: detector verdict flipped vs the recorded report"
        );
        assert_eq!(confirmed.machine_seed, sched.seed, "{name}: seed stamping");
        assert_eq!(confirmed.sched_seed, sched_seed, "{name}: seed stamping");
    }
}
