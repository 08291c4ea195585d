#!/usr/bin/env bash
# Tier-1 verification — the CI entry point.
#
#   scripts/check.sh [build-dir]
#
# Runs: configure (with -DTAWA_WERROR=ON so library warnings fail the
# build), build, ctest, and the exhaustive fp16 check (every fp16 rounding
# span variant the host runs against the scalar form on all 2^32 inputs).
# Timings are not CI's job: they come from the repository benchmark
# (python3 perfbench/run.py).
#
# Then exercises the disk program cache: the test suite runs again with
# TAWA_CACHE_DIR pointing at a fresh temp dir (cold — populates it), and
# once more against the populated dir (warm — compiled kernels load from
# disk), asserting both runs report identical test results. A serializer
# defect that changes observable behavior fails here even if every
# individual test passes.
#
# Then runs the sweep-driver smoke on all six figure sweeps, fig8_gemm
# through fig13_splitk (the grouped, attention, persistent, ablation and
# split-K / MoE points among them). One shell function runs each
# twice against its own fresh TAWA_CACHE_DIR — cold (prewarm compiles +
# serializes every kernel) and warm (prewarm loads everything from disk)
# — asserting that neither run phase compiled, that the warm prewarm
# performed ZERO compiles, and that the per-point JSON records are
# byte-identical (docs/reproducing-figures.md).
#
# Then checks the documentation tree: every relative .md link and every
# source-file path mentioned in docs/, README.md and the verify skill must
# exist in the repo, every ./<binary> they tell a reader to run must
# have a source file, every TAWA_* name they mention must be one the tree
# reads or sets, every .md a source comment names must exist, and no
# ROADMAP item is cited by its number, so docs cannot silently rot as
# files move, knobs go or the ROADMAP is renumbered.
#
# Then runs the differential fuzz smoke: tawa-fuzz sweeps seeded kernel
# configurations across all seven engine x worker combos (docs/fuzzing.md)
# under a time budget, and every committed tests/corpus/*.tawa regression
# file is replayed.
#
# Then runs the serving smoke: tawa-serve is started on a scratch unix
# socket, serve_load fires a closed-loop request mix against it (writing
# $BUILD_DIR/BENCH_serve.json), and SIGTERM must drain gracefully — the
# daemon exits 0 with every request answered (docs/serving.md). The chaos
# drill after it starts its daemon through the same readiness function.
#
# Then runs the whole test suite once more with TAWA_NO_FUSE=1 (the
# peephole superinstruction pass disabled), so the unfused engine passes
# every test the fused one does.
#
# Then builds the whole tree a second time with ThreadSanitizer
# (-DTAWA_TSAN=ON -> -fsanitize=thread) into $BUILD_DIR-tsan and runs the
# test suite under it — including the runCtaBatch timing-sampler fan-out
# and the fused bytecode executor (fusion is on by default, so every
# parallel grid/batch test races the superinstruction handlers) — so data
# races in the CTA worker pool / per-worker arenas fail the check.
# Set TAWA_SKIP_TSAN=1 to skip that leg (e.g. on hosts without TSan
# runtime support).
#
# Then a third build with AddressSanitizer + UBSan + libstdc++ assertions
# (-DTAWA_ASAN=ON) into $BUILD_DIR-asan, running the full suite — including the fault-injection
# tests, whose whole point is to drive the error/containment paths
# (injected cache corruption, allocation failure, worker-task crashes)
# where leaks and lifetime bugs hide. Set TAWA_SKIP_ASAN=1 to skip.
#
# Finally a coverage build (-DTAWA_COVERAGE=ON -> --coverage/gcov) into
# $BUILD_DIR-cov runs the whole suite instrumented and prints per-directory
# line coverage. Set TAWA_SKIP_COVERAGE=1 to skip.
#
# Smoke invocations run under timeout(1): a livelocked engine fails the
# check after the deadline instead of wedging CI (ctest tests carry their
# own TIMEOUT property from CMakeLists.txt).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
TSAN_DIR="${BUILD_DIR}-tsan"
ASAN_DIR="${BUILD_DIR}-asan"
# Watchdog for non-ctest smoke runs (seconds).
SMOKE_TIMEOUT="${TAWA_SMOKE_TIMEOUT:-600}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DTAWA_WERROR=ON >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j

echo "== ctest =="
(cd "$BUILD_DIR" && ctest --output-on-failure --no-tests=error -j "$(nproc)")

echo "== fp16 span variants on all 2^32 inputs (fp16_exhaustive) =="
# Every fp16 span variant the host runs (src/sim/TileKernels.h) against the
# scalar form, bit for bit. Not a ctest entry: the sanitizer legs skip it.
(cd "$BUILD_DIR" && timeout "$SMOKE_TIMEOUT" ./fp16_exhaustive)

echo "== differential fuzz smoke (tawa-fuzz) =="
# Fixed-seed by default (seed base 0, 200 configs); the wall-clock budget
# bounds slow/sanitized hosts. Exits non-zero on any divergence or
# prepare failure.
(cd "$BUILD_DIR" && timeout "$SMOKE_TIMEOUT" ./tawa-fuzz \
  --budget-ms $(( SMOKE_TIMEOUT * 500 )))
# Every committed corpus regression file must load from its textual form
# and agree across all seven combos (also a ctest entry, so the sanitizer
# legs replay the corpus too).
(cd "$BUILD_DIR" && timeout "$SMOKE_TIMEOUT" ./tawa-fuzz \
  --replay-all "$REPO_ROOT/tests/corpus")

# Starts tawa-serve on a fresh socket and waits for its readiness line
# before anything fires load; sets DAEMON_PID. Fails the check when the
# daemon exits or never comes up.
start_daemon() { # <label> <socket> <log> [tawa-serve flags...]
  local LABEL="$1" SOCK="$2" LOG="$3"
  shift 3
  rm -f "$SOCK"
  "$BUILD_DIR/tawa-serve" --socket "$SOCK" "$@" >"$LOG" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    if grep -q "listening on" "$LOG" 2>/dev/null; then
      return 0
    fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
      break
    fi
    sleep 0.1
  done
  echo "FAIL: tawa-serve ($LABEL) did not come up"
  cat "$LOG"
  kill "$DAEMON_PID" 2>/dev/null || true
  exit 1
}

echo "== serve smoke (tawa-serve + serve_load + SIGTERM drain) =="
SERVE_SOCK="$BUILD_DIR/tawa-serve-smoke.sock"
SERVE_LOG="$BUILD_DIR/serve-smoke.log"
start_daemon smoke "$SERVE_SOCK" "$SERVE_LOG"
SERVE_PID=$DAEMON_PID
if ! (cd "$BUILD_DIR" && timeout "$SMOKE_TIMEOUT" ./serve_load \
      --connect "$SERVE_SOCK" --requests 32 --concurrency 4 \
      --out "$BUILD_DIR/BENCH_serve.json" >/dev/null); then
  echo "FAIL: serve_load run against the daemon failed"
  cat "$SERVE_LOG"
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "FAIL: tawa-serve exited non-zero after SIGTERM"
  cat "$SERVE_LOG"
  exit 1
fi
grep -q '"schema": "tawa-serve-load-v1"' "$BUILD_DIR/BENCH_serve.json" || {
  echo "FAIL: BENCH_serve.json missing or wrong schema"
  exit 1
}
grep -q '"transport_errors": 0' "$BUILD_DIR/BENCH_serve.json" || {
  echo "FAIL: serve smoke saw transport errors (dropped responses)"
  exit 1
}
grep -q '"answered": 32' "$BUILD_DIR/BENCH_serve.json" || {
  echo "FAIL: serve smoke did not answer every request"
  exit 1
}
rm -f "$SERVE_SOCK"
echo "serve smoke OK: daemon drained cleanly, all requests answered"

echo "== serve chaos drill (SIGKILL a sandbox mid-run, crash dump) =="
# Sandboxed load with per-request sleeps keeps tawa-sandbox children busy;
# kill -9 lands mid-request, the supervisor respawns, retries absorb the
# lost attempt, and the flight recorder flushes a crash dump. Hard
# requirements: serve_load exits 0 (every request answered with a
# structured response), the daemon drains to exit 0, and a well-formed
# dump directory exists.
CHAOS_SOCK="$BUILD_DIR/tawa-serve-chaos.sock"
CHAOS_LOG="$BUILD_DIR/serve-chaos.log"
CHAOS_CRASH_DIR="$BUILD_DIR/serve-chaos-crash"
rm -rf "$CHAOS_CRASH_DIR"
start_daemon chaos "$CHAOS_SOCK" "$CHAOS_LOG" --crash-dir "$CHAOS_CRASH_DIR"
CHAOS_PID=$DAEMON_PID
(cd "$BUILD_DIR" && timeout "$SMOKE_TIMEOUT" ./serve_load \
  --connect "$CHAOS_SOCK" --requests 24 --concurrency 2 \
  --sandbox --sleep-ms 200 \
  --out "$BUILD_DIR/BENCH_serve_chaos.json" >/dev/null) &
CHAOS_LOAD_PID=$!
# Keep SIGKILLing sandbox children until a crash dump appears (a kill that
# lands between requests is absorbed silently by the respawn path, so one
# shot is not guaranteed to dump).
while kill -0 "$CHAOS_LOAD_PID" 2>/dev/null; do
  if compgen -G "$CHAOS_CRASH_DIR/dump-*/MANIFEST.json" >/dev/null; then
    break
  fi
  SBX_PID="$(pgrep -P "$CHAOS_PID" tawa-sandbox | head -1 || true)"
  if [[ -n "$SBX_PID" ]]; then
    kill -9 "$SBX_PID" 2>/dev/null || true
  fi
  sleep 0.2
done
if ! wait "$CHAOS_LOAD_PID"; then
  echo "FAIL: chaos serve_load failed (unanswered request or transport error)"
  cat "$CHAOS_LOG"
  kill "$CHAOS_PID" 2>/dev/null || true
  exit 1
fi
kill -TERM "$CHAOS_PID"
if ! wait "$CHAOS_PID"; then
  echo "FAIL: tawa-serve (chaos) exited non-zero after SIGTERM"
  cat "$CHAOS_LOG"
  exit 1
fi
grep -q '"transport_errors": 0' "$BUILD_DIR/BENCH_serve_chaos.json" || {
  echo "FAIL: chaos drill saw transport errors (dropped responses)"
  exit 1
}
grep -q '"answered": 24' "$BUILD_DIR/BENCH_serve_chaos.json" || {
  echo "FAIL: chaos drill did not answer every request"
  exit 1
}
CHAOS_DUMP="$(compgen -G "$CHAOS_CRASH_DIR/dump-*" | head -1 || true)"
if [[ -z "$CHAOS_DUMP" ]]; then
  echo "FAIL: sandbox kill produced no crash dump in $CHAOS_CRASH_DIR"
  cat "$CHAOS_LOG"
  exit 1
fi
grep -q '"schema": "tawa-crash-dump-v1"' "$CHAOS_DUMP/MANIFEST.json" || {
  echo "FAIL: crash dump manifest missing or wrong schema"
  exit 1
}
if ! compgen -G "$CHAOS_DUMP/req-*.json" >/dev/null; then
  echo "FAIL: crash dump carries no request artifacts"
  exit 1
fi
grep -q 'sandbox_crashes=' "$CHAOS_LOG" || {
  echo "FAIL: daemon stats line missing sandbox counters"
  exit 1
}
rm -f "$CHAOS_SOCK"
echo "chaos drill OK: daemon survived sandbox SIGKILL, dump at $CHAOS_DUMP"

echo "== fusion off: ctest (TAWA_NO_FUSE=1) =="
# The whole suite must pass with the peephole fusion pass disabled (the
# unfused bytecode engine is the middle leg of the three-way differential
# the BytecodeDiff tests run).
(cd "$BUILD_DIR" && TAWA_NO_FUSE=1 ctest --output-on-failure \
  --no-tests=error -j "$(nproc)")

echo "== ctest (program cache, cold) =="
CACHE_DIR="$(mktemp -d)"
SWEEP_CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR" "$SWEEP_CACHE_DIR"' EXIT
(cd "$BUILD_DIR" && TAWA_CACHE_DIR="$CACHE_DIR" ctest --output-on-failure \
  --no-tests=error -j "$(nproc)") | tee "$BUILD_DIR/ctest-cache-cold.log"

echo "== ctest (program cache, warm) =="
# The dir is now populated: compiled kernels deserialize instead of
# compiling. Results must be identical to the cold run.
(cd "$BUILD_DIR" && TAWA_CACHE_DIR="$CACHE_DIR" ctest --output-on-failure \
  --no-tests=error -j "$(nproc)") | tee "$BUILD_DIR/ctest-cache-warm.log"

COLD_SUMMARY="$(grep -E '^[0-9]+% tests passed' "$BUILD_DIR/ctest-cache-cold.log")"
WARM_SUMMARY="$(grep -E '^[0-9]+% tests passed' "$BUILD_DIR/ctest-cache-warm.log")"
if [[ "$COLD_SUMMARY" != "$WARM_SUMMARY" || -z "$COLD_SUMMARY" ]]; then
  echo "FAIL: cold/warm cache test results differ:"
  echo "  cold: $COLD_SUMMARY"
  echo "  warm: $WARM_SUMMARY"
  exit 1
fi
echo "cache cold/warm results identical: $COLD_SUMMARY"

# Sweep driver cold/warm smoke. Cold: prewarm compiles every distinct
# kernel of the grid and serializes it; the run phase must already be
# compile-free. Warm: a fresh process prewarm-loads everything from disk
# — zero compiles end to end. The per-point records — axes, results,
# per-point cache statistics — must be byte-identical whether the kernels
# were compiled or disk-loaded. (The benches themselves exit non-zero
# when their run phase compiled; the explicit checks keep set -e from
# aborting before the diagnostic.)
extract_points() { sed -n '/^  "points": \[$/,/^  \],$/p' "$1"; }
sweep_cold_warm() { # <bench> <short name: BENCH_<name>.json>
  local BENCH="$1" NAME="$2" LABEL
  local DIR="$SWEEP_CACHE_DIR/$NAME"
  mkdir -p "$DIR"
  for LABEL in cold warm; do
    if ! (cd "$BUILD_DIR" &&
          TAWA_CACHE_DIR="$DIR" timeout "$SMOKE_TIMEOUT" "./$BENCH" \
            >/dev/null); then
      echo "FAIL: $BENCH ($LABEL) exited non-zero — run phase compiled" \
           "or the sweep errored"
      exit 1
    fi
    mv "$BUILD_DIR/BENCH_$NAME.json" "$BUILD_DIR/$NAME-sweep-$LABEL.json"
    grep -q '"run_compiles": 0' "$BUILD_DIR/$NAME-sweep-$LABEL.json" || {
      echo "FAIL: $LABEL $NAME sweep compiled during the run phase"
      exit 1
    }
  done
  grep -q '"prewarm_compiles": 0' "$BUILD_DIR/$NAME-sweep-warm.json" || {
    echo "FAIL: warm $NAME sweep compiled kernels (disk cache not used)"
    exit 1
  }
  if ! diff <(extract_points "$BUILD_DIR/$NAME-sweep-cold.json") \
            <(extract_points "$BUILD_DIR/$NAME-sweep-warm.json") >/dev/null
  then
    echo "FAIL: cold/warm $NAME sweep JSON point values differ:"
    diff <(extract_points "$BUILD_DIR/$NAME-sweep-cold.json") \
         <(extract_points "$BUILD_DIR/$NAME-sweep-warm.json") | head -20
    exit 1
  fi
  # grep -c exits 1 on zero matches; '|| true' keeps set -e from killing
  # the script before the empty-extraction diagnostic below can fire.
  local POINTS
  POINTS="$(extract_points "$BUILD_DIR/$NAME-sweep-cold.json" |
    grep -c '"tflops":' || true)"
  if [[ "$POINTS" -eq 0 ]]; then
    echo "FAIL: $NAME sweep JSON point extraction found no records"
    exit 1
  fi
  echo "$NAME cold/warm identical ($POINTS points), warm pass" \
       "performed zero compiles"
}

for FIG in fig8_gemm fig9_gemm_variants fig10_mha fig11_hyperparam \
           fig12_ablation fig13_splitk; do
  echo "== sweep driver cold/warm smoke ($FIG) =="
  sweep_cold_warm "$FIG" "${FIG%%_*}"
done

echo "== docs link check =="
DOCS_FAIL=0
for DOC in "$REPO_ROOT"/docs/*.md "$REPO_ROOT"/README.md \
           "$REPO_ROOT"/.claude/skills/verify/SKILL.md; do
  DOC_DIR="$(dirname "$DOC")"
  DOC_NAME="${DOC#"$REPO_ROOT"/}"
  # 1) Relative markdown links: [text](target). External URLs and pure
  #    anchors are skipped; anchors on relative links are stripped.
  while IFS= read -r LINK; do
    case "$LINK" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    TARGET="${LINK%%#*}"
    [[ -z "$TARGET" ]] && continue
    if [[ ! -e "$DOC_DIR/$TARGET" ]]; then
      echo "broken link in $DOC_NAME: ($LINK)"
      DOCS_FAIL=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$DOC" | sed -E 's/^\]\(//; s/\)$//')
  # 2) Repo-relative source paths mentioned anywhere in the text.
  while IFS= read -r P; do
    if [[ ! -e "$REPO_ROOT/$P" ]]; then
      echo "missing path in $DOC_NAME: $P"
      DOCS_FAIL=1
    fi
  done < <(grep -oE '\b(src|bench|tests|examples|scripts|docs|tools)/[A-Za-z0-9_/.-]+\.(cpp|h|md|sh)\b' \
           "$DOC" | sort -u)
  # 3) Bare source-file mentions (Foo.cpp / Foo.h) must exist somewhere
  #    in the tree. ({h,cpp} brace forms are covered by rule 2's paths.)
  while IFS= read -r BASE; do
    if ! find "$REPO_ROOT/src" "$REPO_ROOT/bench" "$REPO_ROOT/tests" \
         "$REPO_ROOT/examples" "$REPO_ROOT/tools" \
         -name "$BASE" -print -quit | grep -q .; then
      echo "unknown source file in $DOC_NAME: $BASE"
      DOCS_FAIL=1
    fi
  done < <(grep -oE '\b[A-Za-z][A-Za-z0-9_]*\.(cpp|h)\b' "$DOC" | sort -u)
  # 4) Binaries a reader is told to run (./<name>, not a path or a file
  #    with an extension) must be built from <name>.cpp, or the same with
  #    '-' as '_', under bench/, tests/, tools/ or examples/.
  while IFS= read -r BIN; do
    if ! find "$REPO_ROOT/bench" "$REPO_ROOT/tests" "$REPO_ROOT/tools" \
         "$REPO_ROOT/examples" \
         \( -name "$BIN.cpp" -o -name "${BIN//-/_}.cpp" \) \
         -print -quit | grep -q .; then
      echo "unknown binary in $DOC_NAME: ./$BIN"
      DOCS_FAIL=1
    fi
  done < <(grep -oP '(?<![\w./-])\./\K\w[\w-]*(?![\w/-]|\.\w)' "$DOC" |
           sort -u)
done
# 5) Every *.md a source comment names (a // comment in src/, tools/,
#    tests/, bench/ or examples/) must exist, as a path from the repo root.
while IFS= read -r MD; do
  if [[ ! -e "$REPO_ROOT/$MD" ]]; then
    echo "missing doc named in a source comment: $MD"
    DOCS_FAIL=1
  fi
done < <(grep -rhoE '//.*' --include='*.cpp' --include='*.h' \
           "$REPO_ROOT/src" "$REPO_ROOT/tools" "$REPO_ROOT/tests" \
           "$REPO_ROOT/bench" "$REPO_ROOT/examples" |
         grep -oE '[A-Za-z0-9_./-]+\.md\b' | sort -u)
# 6) Every TAWA_* name in docs/, README.md or the verify skill must be one
#    the tree uses: quoted in a .cpp or .h under src/, tools/ or tests/
#    (a getenv name), or named in this script, CMakeLists.txt or
#    perfbench/run.py (a CI, build or benchmark setting).
KNOWN_TAWA_NAMES="$(
  { grep -rhoE '"TAWA_[A-Z0-9_]+"' --include='*.cpp' --include='*.h' \
      "$REPO_ROOT/src" "$REPO_ROOT/tools" "$REPO_ROOT/tests" | tr -d '"'
    grep -hoE 'TAWA_[A-Z0-9_]+' "$REPO_ROOT/scripts/check.sh" \
      "$REPO_ROOT/CMakeLists.txt" "$REPO_ROOT/perfbench/run.py"; } |
    sort -u)"
while IFS= read -r NAME; do
  if ! grep -qxF "$NAME" <<<"$KNOWN_TAWA_NAMES"; then
    echo "unknown TAWA_* name in the docs: $NAME"
    DOCS_FAIL=1
  fi
done < <(grep -hoE 'TAWA_[A-Z0-9_]+' "$REPO_ROOT"/docs/*.md \
           "$REPO_ROOT/README.md" "$REPO_ROOT/.claude/skills/verify/SKILL.md" |
         sort -u)
# 7) No ROADMAP item is cited by number in docs/, README.md, the verify
#    skill or a // comment in src/, tools/, tests/, bench/ or examples/:
#    the items are renumbered at every re-anchor of ROADMAP.md.
while IFS= read -r HIT; do
  echo "ROADMAP item cited by number: ${HIT#"$REPO_ROOT"/}"
  DOCS_FAIL=1
done < <({ grep -nE 'ROADMAP items? [0-9]+' "$REPO_ROOT"/docs/*.md \
             "$REPO_ROOT/README.md" "$REPO_ROOT/.claude/skills/verify/SKILL.md"
           grep -rnE '//.*ROADMAP items? [0-9]+' --include='*.cpp' \
             --include='*.h' "$REPO_ROOT/src" "$REPO_ROOT/tools" \
             "$REPO_ROOT/tests" "$REPO_ROOT/bench" "$REPO_ROOT/examples"; } ||
         true)
if [[ "$DOCS_FAIL" != 0 ]]; then
  echo "FAIL: docs link check"
  exit 1
fi
echo "docs link check OK"

if [[ "${TAWA_SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan configure =="
  cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DTAWA_WERROR=ON -DTAWA_TSAN=ON \
    >/dev/null
  echo "== tsan build =="
  cmake --build "$TSAN_DIR" -j
  echo "== tsan ctest =="
  # TSAN_OPTIONS makes any reported race a hard failure; --no-tests=error
  # keeps this gate from passing vacuously if GTest went missing.
  (cd "$TSAN_DIR" &&
    TSAN_OPTIONS="halt_on_error=1" ctest --output-on-failure \
      --no-tests=error -j "$(nproc)")
else
  echo "== tsan leg skipped (TAWA_SKIP_TSAN=1) =="
fi

if [[ "${TAWA_SKIP_ASAN:-0}" != "1" ]]; then
  echo "== asan configure =="
  cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DTAWA_WERROR=ON -DTAWA_ASAN=ON \
    >/dev/null
  echo "== asan build =="
  cmake --build "$ASAN_DIR" -j
  echo "== asan ctest =="
  # halt_on_error turns the first report into a hard failure;
  # detect_leaks covers the contained-crash paths (an exception that
  # unwinds past a raw allocation leaks — exactly what the
  # fault-injection tests are meant to catch).
  (cd "$ASAN_DIR" &&
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --output-on-failure --no-tests=error -j "$(nproc)")
else
  echo "== asan leg skipped (TAWA_SKIP_ASAN=1) =="
fi

if [[ "${TAWA_SKIP_COVERAGE:-0}" != "1" ]]; then
  echo "== coverage configure (-DTAWA_COVERAGE=ON) =="
  COV_DIR="${BUILD_DIR}-cov"
  cmake -B "$COV_DIR" -S "$REPO_ROOT" -DTAWA_COVERAGE=ON >/dev/null
  echo "== coverage build + ctest =="
  cmake --build "$COV_DIR" -j
  (cd "$COV_DIR" && ctest --output-on-failure --no-tests=error \
    -j "$(nproc)" >/dev/null)
  echo "== line coverage by directory =="
  # gcov -n prints, per source file, "File '<path>'" followed by
  # "Lines executed:<pct>% of <total>"; aggregate over repo directories.
  COV_REPORT="$(cd "$COV_DIR" && find . -name '*.gcda' -print0 |
    xargs -0 gcov -n 2>/dev/null |
    awk -v root="$REPO_ROOT/" '
      /^File / {
        f = $2; gsub(/\x27/, "", f); sub(root, "", f); next
      }
      /^Lines executed:/ {
        split($0, a, ":"); split(a[2], b, "% of ")
        if (f ~ /^(src|tests|bench|tools)\//) {
          d = f; sub(/\/[^\/]*$/, "", d)
          hit[d] += b[1] / 100 * b[2]; tot[d] += b[2]
        }
      }
      END {
        for (d in tot)
          printf "  %-24s %6.1f%%  (%d lines)\n", d,
                 100 * hit[d] / tot[d], tot[d]
      }' | sort)"
  if [[ -z "$COV_REPORT" ]]; then
    echo "FAIL: coverage run produced no gcov data"
    exit 1
  fi
  echo "$COV_REPORT"
else
  echo "== coverage leg skipped (TAWA_SKIP_COVERAGE=1) =="
fi

echo "check.sh: OK"
