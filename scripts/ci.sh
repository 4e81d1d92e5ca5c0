#!/usr/bin/env bash
# Full CI gate: release build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from anywhere; always operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (warnings are errors)"
RUSTFLAGS="-D warnings" cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> static screener suite"
cargo test -q -p narada-screen

echo "==> screener/scheduler agreement (full corpus sweep)"
NARADA_AGREEMENT_FULL=1 cargo test -q --release --test properties screener_agreement

echo "==> replay regression suite (release)"
cargo test -q --release --test replay_fixtures

echo "==> engine differential suite (release, full 64-class lattice)"
# Tree-walk vs bytecode: byte-identical trace digests, heap outcomes,
# and race reports across the corpus, the replay fixtures, and the
# seeded difftest lattice at threads 1/2/8.
NARADA_ENGINE_FULL=1 cargo test -q --release -p narada-vm --test engine_differential

echo "==> detector race-list fixture suite (release, every C1-C9 detection trial)"
# Each detector's ordered race list per detection trial at the `narada
# detect` defaults must equal the committed fixture.
NARADA_RACELIST_FULL=1 cargo test -q --release -p narada-detect --test race_lists

echo "==> report-digest gate (release, narada detect C1-C9 vs the corpus-detect goldens)"
# Each class's `narada detect --threads 2 --report-out` document must hash
# to the repository benchmark's golden digest: no verdict or race line moves.
NARADA_DIGEST_FULL=1 cargo test -q --release --test report_digests

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
    cargo run -q --release --bin narada -- difftest --seed 53759 --count 64 \
        --threads "$t" --engine bytecode > "$DIFF_DIR/bc-t$t.out"
done
cmp "$DIFF_DIR/t1.out" "$DIFF_DIR/t2.out" && cmp "$DIFF_DIR/t1.out" "$DIFF_DIR/t8.out" \
    || { echo "difftest output differs across --threads 1/2/8" >&2; exit 1; }
cmp "$DIFF_DIR/bc-t1.out" "$DIFF_DIR/bc-t2.out" && cmp "$DIFF_DIR/bc-t1.out" "$DIFF_DIR/bc-t8.out" \
    || { echo "difftest --engine bytecode output differs across --threads 1/2/8" >&2; exit 1; }
cmp "$DIFF_DIR/t1.out" "$DIFF_DIR/bc-t1.out" \
    || { echo "difftest output differs between engines" >&2; exit 1; }
rm -rf "$DIFF_DIR"

echo "==> fork-vs-rerun explorer differential (release, full C1-C9 matrix + fallback classes)"
# The default explorer (fork) against the rerun oracle in-process:
# verdicts, setup errors and manifests on C1-C9 at threads 1/2/8, both
# engines, the difftest slice, and the two classes that must fall back.
NARADA_FORK_FULL=1 cargo test -q --release -p narada-detect --test fork_differential

echo "==> fork-vs-rerun explorer differential (binaries: C1-C9 at the defaults, C1-C5 + difftest slice, threads 1/2/8)"
# The snapshot-forking explorer must be observably identical to the
# re-execution explorer: same verdict lines on the manual corpus and the
# same sweep digest on a generated-lattice slice, at every worker count.
FORK_DIR="$(mktemp -d)"
for c in C1 C2 C3 C4 C5 C6 C7 C8 C9; do
    cargo run -q --release --bin narada -- detect "$c" --explore rerun > "$FORK_DIR/$c.oracle"
    for t in 1 2 8; do
        cargo run -q --release --bin narada -- detect "$c" --threads "$t" > "$FORK_DIR/$c.default"
        cmp "$FORK_DIR/$c.oracle" "$FORK_DIR/$c.default" \
            || { echo "detect $c (default explorer) diverges from --explore rerun at --threads $t" >&2; exit 1; }
    done
done
for c in C1 C2 C3 C4 C5; do
    cargo run -q --release --bin narada -- detect "$c" --schedules 4 --confirms 3 \
        --explore rerun > "$FORK_DIR/$c.rerun"
    for t in 1 2 8; do
        cargo run -q --release --bin narada -- detect "$c" --schedules 4 --confirms 3 \
            --explore fork --threads "$t" > "$FORK_DIR/$c.fork"
        cmp "$FORK_DIR/$c.rerun" "$FORK_DIR/$c.fork" \
            || { echo "detect $c --explore fork diverges from rerun at --threads $t" >&2; exit 1; }
    done
done
cargo run -q --release --bin narada -- difftest --seed 53759 --count 32 \
    --explore rerun > "$FORK_DIR/diff.rerun"
for t in 1 2 8; do
    cargo run -q --release --bin narada -- difftest --seed 53759 --count 32 \
        --explore fork --threads "$t" > "$FORK_DIR/diff.fork"
    cmp "$FORK_DIR/diff.rerun" "$FORK_DIR/diff.fork" \
        || { echo "difftest --explore fork diverges from rerun at --threads $t" >&2; exit 1; }
done
rm -rf "$FORK_DIR"

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

echo "==> bench manifests (BENCH_synth / BENCH_explore / BENCH_screen / BENCH_gen / BENCH_difftest / BENCH_vm / BENCH_serve / BENCH_fork)"
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
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_BENCH_REPS=2 \
    cargo run -q --release -p narada-bench --bin vm > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_SERVE_REPS=1 NARADA_SERVE_CLIENTS=2 \
    NARADA_SERVE_JOBS=1 NARADA_SERVE_SCHEDULES=3 NARADA_SERVE_CONFIRMS=2 \
    cargo run -q --release -p narada-bench --bin serve > /dev/null
NARADA_MANIFEST_DIR="$MANIFEST_DIR" NARADA_REPS=2 \
    cargo run -q --release -p narada-bench --bin fork > /dev/null
for name in synth explore screen gen difftest vm serve fork; do
    manifest="$MANIFEST_DIR/BENCH_$name.json"
    [ -f "$manifest" ] || { echo "missing $manifest" >&2; exit 1; }
    cargo run -q --release --bin narada -- report "$manifest" > /dev/null
done

echo "==> perf-regression trend gate (fresh runs vs committed baselines)"
# Deterministic counters gate at zero tolerance; wall-clock metrics stay
# informational (host-dependent timings must not fail CI). The committed
# baselines under results/ were generated with exactly the env knobs the
# bench invocations above use — any config drift is itself a breach.
for name in vm serve fork; do
    cargo run -q --release --bin narada -- report --trend \
        "results/BENCH_$name.json" "$MANIFEST_DIR/BENCH_$name.json" --tolerance 0 \
        || { echo "trend gate breached for BENCH_$name" >&2; exit 1; }
done

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
