//! Report-digest gate: `narada detect <class> --threads 2 --report-out`
//! must write, for every corpus class, a `narada-report/1` document whose
//! FNV-1a digest equals the repository benchmark's corpus-detect golden.
//! Any change to a verdict, a race line or the report's shape moves a
//! digest, so this pins end-to-end detection output in CI rather than
//! only in benchmark runs.
//!
//! The same run's `--manifest` pins the work behind those verdicts: its
//! scheduler, confirmation and trial-outcome counters must equal
//! `tests/fixtures/work_counters.txt`. A change that shifts one RNG draw
//! or one scheduling decision but leaves every verdict alone fails here.
//!
//! Quick mode checks C1, the class whose runaway trials the saturation
//! cut ends. Set `NARADA_DIGEST_FULL=1` for C1–C9 (the CI release leg).
//! The golden file belongs to the benchmark and is only read here.

use narada::core::Fnv1a;
use narada::obs::MetricValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// `C<n> <digest>` lines of the corpus-detect golden file.
fn goldens() -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/src/bin/benchmark/goldens/corpus-detect.txt");
    let text = std::fs::read_to_string(&path).expect("read corpus-detect goldens");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(class, digest)| (class.to_string(), digest.trim().to_string()))
        .collect()
}

/// Manifest counters the work-counter fixture pins, besides `trial.*`.
const PINNED: [&str; 4] = [
    "sched.decisions",
    "sched.confirm_decisions",
    "sched.preemptions",
    "detect.confirm_trials",
];

/// Whether the work-counter fixture pins manifest counter `key`.
fn pinned(key: &str) -> bool {
    PINNED.contains(&key) || key.starts_with("trial.")
}

/// `<class> <counter> <value>` lines of the work-counter fixture, grouped
/// by class.
fn work_counters() -> BTreeMap<String, BTreeMap<String, u64>> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/work_counters.txt");
    let text = std::fs::read_to_string(&path).expect("read work-counter fixture");
    let mut out: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let [class, key, value] = line.split(' ').collect::<Vec<_>>()[..] else {
            panic!("malformed fixture line `{line}`");
        };
        assert!(pinned(key), "fixture pins unexpected counter `{key}`");
        let value = value.parse().expect("counter value");
        out.entry(class.to_string())
            .or_default()
            .insert(key.to_string(), value);
    }
    out
}

#[test]
fn detect_reports_match_benchmark_goldens() {
    let full = env_on("NARADA_DIGEST_FULL");
    let goldens = goldens();
    assert_eq!(goldens.len(), 9, "one golden per corpus class");
    let counters = work_counters();
    assert_eq!(counters.len(), 9, "one counter set per corpus class");
    let dir = std::env::temp_dir().join(format!("narada-report-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (class, want) in goldens.iter().filter(|(c, _)| full || *c == "C1") {
        let report = dir.join(format!("{class}.report"));
        let manifest = dir.join(format!("{class}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_narada"))
            .args(["detect", class, "--threads", "2", "--report-out"])
            .arg(&report)
            .arg("--manifest")
            .arg(&manifest)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{class}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&report).expect("report written");
        let got = format!("{:016x}", Fnv1a::digest(&bytes));
        assert_eq!(&got, want, "{class}: report digest differs from the golden");
        let text = std::fs::read_to_string(&manifest).expect("manifest written");
        let m = narada::RunManifest::parse(&text).expect("manifest parses");
        let work: BTreeMap<String, u64> = m
            .metrics
            .iter()
            .filter(|(key, _)| pinned(key))
            .map(|(key, v)| match v {
                MetricValue::Counter(n) => (key.clone(), *n),
                other => panic!("{class}: {key} is not a counter: {other:?}"),
            })
            .collect();
        assert_eq!(
            &work, &counters[class],
            "{class}: work counters differ from tests/fixtures/work_counters.txt"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
