//! Report-digest gate: `narada detect <class> --threads 2 --report-out`
//! must write, for every corpus class, a `narada-report/1` document whose
//! FNV-1a digest equals the repository benchmark's corpus-detect golden.
//! Any change to a verdict, a race line or the report's shape moves a
//! digest, so this pins end-to-end detection output in CI rather than
//! only in benchmark runs.
//!
//! Quick mode checks C1, the class whose runaway trials the saturation
//! cut ends. Set `NARADA_DIGEST_FULL=1` for C1–C9 (the CI release leg).
//! The golden file belongs to the benchmark and is only read here.

use narada::core::Fnv1a;
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

#[test]
fn detect_reports_match_benchmark_goldens() {
    let full = env_on("NARADA_DIGEST_FULL");
    let goldens = goldens();
    assert_eq!(goldens.len(), 9, "one golden per corpus class");
    let dir = std::env::temp_dir().join(format!("narada-report-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (class, want) in goldens.iter().filter(|(c, _)| full || *c == "C1") {
        let report = dir.join(format!("{class}.report"));
        let out = Command::new(env!("CARGO_BIN_EXE_narada"))
            .args(["detect", class, "--threads", "2", "--report-out"])
            .arg(&report)
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
    }
    std::fs::remove_dir_all(&dir).ok();
}
