#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from anywhere; always operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release

echo "==> benchmark package builds against this tree (locked)"
# The repository benchmark is a package of its own with a committed
# Cargo.lock; a public-API change it uses, or a new dependency edge that
# would rewrite its lock file, fails here instead of in the benchmark.
cargo build --release --offline --locked \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> static screener suite"
cargo test -q -p narada-screen

echo "==> screener/scheduler agreement (full corpus sweep)"
NARADA_AGREEMENT_FULL=1 cargo test -q --release --test properties screener_agreement

echo "==> replay regression suite (release)"
cargo test -q --release --test replay_fixtures

echo "==> record -> replay round trip (release, C1 and C5)"
# `--record` confirms every race, minimizes its schedule and stamps the
# replayed trace digest; a schedule that no longer manifests its race is
# skipped with a warning, which fails this step. Every written `.sched`
# must then replay through `--replay` to the stamped digest.
REC_DIR="$(mktemp -d)"
NARADA="${CARGO_TARGET_DIR:-target}/release/narada"
for c in C1 C5; do
    "$NARADA" corpus "$c" --record "$REC_DIR" > "$REC_DIR/$c.out"
    if grep "does not replay cleanly" "$REC_DIR/$c.out" >&2; then
        echo "corpus $c --record wrote a schedule that does not replay" >&2; exit 1
    fi
done
n_sched=0
for f in "$REC_DIR"/*.sched; do
    c="$(basename "$f" | cut -d- -f1 | tr '[:lower:]' '[:upper:]')"
    "$NARADA" detect "$c" --replay "$f" | grep "trace digest matches the recording" > /dev/null \
        || { echo "$f does not replay to its recorded trace digest" >&2; exit 1; }
    n_sched=$((n_sched + 1))
done
[ "$n_sched" -gt 0 ] || { echo "--record wrote no schedules" >&2; exit 1; }
rm -rf "$REC_DIR"

echo "==> detector race-list fixture suite (release, every C1-C9 detection trial)"
# Each detector's ordered race list per detection trial at the `narada
# detect` defaults must equal the committed fixture.
NARADA_RACELIST_FULL=1 cargo test -q --release -p narada-detect --test race_lists

echo "==> report-digest gate (release, narada detect C1-C9 vs the corpus-detect goldens)"
# Each class's `narada detect --threads 2 --report-out` document must hash
# to the repository benchmark's golden digest: no verdict or race line moves.
NARADA_DIGEST_FULL=1 cargo test -q --release --test report_digests

echo "==> narada detect C1-C9 reports at --threads 1, 2 and 8 (byte-identical)"
# The capture walk splits a class's plans into units of their capture
# trie, finer the more workers there are, and hands them to the worker
# pool; every class's `--report-out`
# document must not depend on how many workers took them (the digest
# gate above runs at --threads 2 only).
THREADS_DIR="$(mktemp -d)"
for c in C1 C2 C3 C4 C5 C6 C7 C8 C9; do
    for t in 1 2 8; do
        "$NARADA" detect "$c" --threads "$t" --report-out "$THREADS_DIR/$c-t$t.report" > /dev/null
    done
    cmp "$THREADS_DIR/$c-t1.report" "$THREADS_DIR/$c-t2.report" \
        && cmp "$THREADS_DIR/$c-t1.report" "$THREADS_DIR/$c-t8.report" \
        || { echo "narada detect $c --report-out differs across --threads 1/2/8" >&2; exit 1; }
done
rm -rf "$THREADS_DIR"

echo "==> detector_shootout example smoke test"
cargo run -q --release --example detector_shootout > /dev/null

echo "==> seed-generation smoke (fixed seed, thread-count determinism)"
# `narada gen` output must be byte-identical at any worker count.
GEN_DIR="$(mktemp -d)"
cargo run -q --release --bin narada -- gen C1 --budget 256 --seed 7 --threads 1 \
    > "$GEN_DIR/t1.mj"
cargo run -q --release --bin narada -- gen C1 --budget 256 --seed 7 --threads 8 \
    > "$GEN_DIR/t8.mj"
cmp "$GEN_DIR/t1.mj" "$GEN_DIR/t8.mj" \
    || { echo "gen output differs between --threads 1 and 8" >&2; exit 1; }
rm -rf "$GEN_DIR"

echo "==> differential corpus sweep (fixed seed, thread-count determinism)"
# 64 generated classes through screener + dynamic pipeline; any screener
# soundness disagreement exits 3 and fails the gate (set -e). The sweep
# output must also be byte-identical at any worker count.
DIFF_DIR="$(mktemp -d)"
for t in 1 2 8; do
    cargo run -q --release --bin narada -- difftest --seed 53759 --count 64 \
        --threads "$t" > "$DIFF_DIR/t$t.out"
done
cmp "$DIFF_DIR/t1.out" "$DIFF_DIR/t2.out" && cmp "$DIFF_DIR/t1.out" "$DIFF_DIR/t8.out" \
    || { echo "difftest output differs across --threads 1/2/8" >&2; exit 1; }
rm -rf "$DIFF_DIR"

echo "==> fork explorer differential (release, C1-C9 per-trial oracle + fallback classes)"
# Every fork probe against a fresh-start run of the same trial
# in-process: outcomes, recorded schedules, race lists and RaceFuzzer
# verdicts on every forking plan of C1-C9; verdicts and manifests at
# threads 1/2/8; the difftest slice at several thread counts; and the
# two classes that must fall back to fresh starts.
NARADA_FORK_FULL=1 cargo test -q --release -p narada-detect --test fork_differential

echo "==> serve smoke (byte-identity with batch, warm cache, clean shutdown)"
# A resident server must return the same bytes as `narada detect
# --report-out`, hit the artifact cache on resubmission, and drain
# cleanly on `narada shutdown`.
SERVE_DIR="$(mktemp -d)"
cargo run -q --release --bin narada -- serve --addr 127.0.0.1:0 --threads 2 \
    --port-file "$SERVE_DIR/port" --state-dir "$SERVE_DIR/state" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/port" ] || { echo "serve never wrote its port file" >&2; exit 1; }
ADDR="127.0.0.1:$(cat "$SERVE_DIR/port")"
cargo run -q --release --bin narada -- detect C1 --schedules 3 --confirms 2 \
    --report-out "$SERVE_DIR/batch.report" > /dev/null
for pass in cold warm; do
    JOB="$(cargo run -q --release --bin narada -- submit C1 --addr "$ADDR" \
        --schedules 3 --confirms 2 | awk '{print $2}')"
    cargo run -q --release --bin narada -- fetch "$JOB" --addr "$ADDR" \
        --wait --quiet --out "$SERVE_DIR/$pass.report" > /dev/null
    cmp "$SERVE_DIR/batch.report" "$SERVE_DIR/$pass.report" \
        || { echo "$pass served report differs from batch" >&2; exit 1; }
done
cargo run -q --release --bin narada -- jobs --addr "$ADDR" --stats \
    | grep -q '"program_hits":[1-9]' \
    || { echo "warm resubmission produced no program-cache hit" >&2; exit 1; }
cargo run -q --release --bin narada -- shutdown --addr "$ADDR" > /dev/null
wait "$SERVE_PID" || { echo "serve exited non-zero" >&2; exit 1; }
cmp "$SERVE_DIR/batch.report" "$SERVE_DIR/state/job-0.report" \
    || { echo "state-dir flushed report differs from batch" >&2; exit 1; }
rm -rf "$SERVE_DIR"

echo "==> bench manifests (BENCH_synth / BENCH_explore / BENCH_screen / BENCH_gen / BENCH_difftest / BENCH_serve)"
# Each bench bin must emit a run manifest; `narada report` re-parses it
# and fails on any missing required field (schema, git_rev, metrics, ...).
MANIFEST_DIR="$(mktemp -d)"
trap 'rm -rf "$MANIFEST_DIR"' EXIT
NARADA_MANIFEST_DIR="$MANIFEST_DIR" \
    cargo run -q --release -p narada-bench --bin synth > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_REPS=2 NARADA_MAX_TRIALS=8 NARADA_MAX_PLANS=3 \
    cargo run -q --release -p narada-bench --bin explore > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" \
    cargo run -q --release -p narada-bench --bin screen > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_GEN_BUDGET=256 \
    cargo run -q --release -p narada-bench --bin gen > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" \
    cargo run -q --release -p narada-bench --bin difftest > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_SERVE_REPS=1 NARADA_SERVE_CLIENTS=2 \
    NARADA_SERVE_JOBS=1 NARADA_SERVE_SCHEDULES=3 NARADA_SERVE_CONFIRMS=2 \
    cargo run -q --release -p narada-bench --bin serve > /dev/null
for name in synth explore screen gen difftest serve; do
    manifest="$MANIFEST_DIR/BENCH_$name.json"
    [ -f "$manifest" ] || { echo "missing $manifest" >&2; exit 1; }
    cargo run -q --release --bin narada -- report "$manifest" > /dev/null
done

echo "==> perf-regression trend gate (fresh runs vs committed baselines)"
# Deterministic counters gate at zero tolerance; wall-clock metrics stay
# informational (host-dependent timings must not fail CI). The committed
# baselines under results/ were generated with exactly the env knobs the
# bench invocations above use — any config drift is itself a breach.
cargo run -q --release --bin narada -- report --trend \
    results/BENCH_serve.json "$MANIFEST_DIR/BENCH_serve.json" --tolerance 0 \
    || { echo "trend gate breached for BENCH_serve" >&2; exit 1; }

# Fault injection: an inflated deterministic counter must trip the gate
# with its dedicated exit code — proof the gate actually gates.
sed 's/"serve.cache.program_hits": [0-9]*/"serve.cache.program_hits": 999999/' \
    "$MANIFEST_DIR/BENCH_serve.json" > "$MANIFEST_DIR/BENCH_serve.injected.json"
if cargo run -q --release --bin narada -- report --trend \
    results/BENCH_serve.json "$MANIFEST_DIR/BENCH_serve.injected.json" \
    --tolerance 0 > /dev/null; then
    echo "trend gate failed to trip on injected regression" >&2; exit 1
fi
rm -f "$MANIFEST_DIR/BENCH_serve.injected.json"

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> CI green"
