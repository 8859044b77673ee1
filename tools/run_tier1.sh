#!/usr/bin/env sh
# Tier-1 verify: configure + build + ctest, fail-fast.
# CI and humans run this identical path; it is the scripted form of
#   cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
# Run from anywhere; the repo root is derived from this script's location.
#
# Options:
#   --bench-smoke  After ctest, build every bench driver and run each one
#                  with OMNIBOOST_BENCH_SMOKE=1 (tiny campaigns, shared
#                  smoke-only estimator cache, JSON export into
#                  <build>/bench-smoke/). Catches bench bit-rot in tier-1
#                  instead of at the next real experiment run. Every driver
#                  runs even after a failure (all failures are reported at
#                  once) and ANY failure fails the script; the emitted
#                  BENCH_*.json set is then validated by
#                  tools/check_bench_json.py. Finally runs
#                  perfbench/test_perfbench.py, which builds the repo
#                  benchmark's harness into <repo>/.bench_build/ — a change
#                  that drops API the harness compiles against fails here.
#   --require-simd Implies nothing extra at build time, but after the bench
#                  JSON guard asserts BENCH_runtime_overhead_kernels.json
#                  carries a populated "simd (ms)" column (the kernels table
#                  must include the runtime-dispatched SIMD path). Use on
#                  hosts known to matter for the kernels comparison; without
#                  the flag a bench that silently dropped the simd column
#                  would still pass. Requires --bench-smoke.
#   --tsan         Run only the ThreadSanitizer lane instead of the steps
#                  above: build the concurrent surfaces (daemon_test,
#                  protocol_test, util_parallel_test, parallel_mcts_test and
#                  omniboost_cli, which daemon_test drives) with
#                  -fsanitize=thread in their own build directory
#                  (<build>-tsan) and run those four suites. CI runs it as
#                  its own matrix entry.
#
# Environment:
#   OMNIBOOST_BUILD_DIR    build directory (default <repo>/build)
#   OMNIBOOST_JOBS         parallel build/test jobs (default nproc)
#   OMNIBOOST_CMAKE_FLAGS  extra configure flags, word-split on purpose —
#                          e.g. "-DOMNIBOOST_SANITIZE=ON -DOMNIBOOST_WERROR=ON"
#                          (how the CI matrix selects its flavors)
set -eu

bench_smoke=0
require_simd=0
tsan=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --require-simd) require_simd=1 ;;
    --tsan) tsan=1 ;;
    *) echo "run_tier1.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [ "$require_simd" -eq 1 ] && [ "$bench_smoke" -eq 0 ]; then
  echo "run_tier1.sh: --require-simd requires --bench-smoke" >&2
  exit 2
fi
if [ "$tsan" -eq 1 ] && [ "$bench_smoke" -eq 1 ]; then
  echo "run_tier1.sh: --tsan runs alone; drop --bench-smoke" >&2
  exit 2
fi

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${OMNIBOOST_BUILD_DIR:-$root/build}"
jobs="${OMNIBOOST_JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "== layering lint =="
sh "$root/tools/check_layering.sh"

if [ "$tsan" -eq 1 ]; then
  tsan_dir="$build_dir-tsan"
  tsan_tests="daemon_test protocol_test util_parallel_test parallel_mcts_test"
  echo "== ThreadSanitizer lane ($tsan_dir) =="
  # shellcheck disable=SC2086
  cmake -B "$tsan_dir" -S "$root" -DOMNIBOOST_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOMNIBOOST_BUILD_BENCH=OFF \
    -DOMNIBOOST_BUILD_EXAMPLES=OFF ${OMNIBOOST_CMAKE_FLAGS:-}
  # shellcheck disable=SC2086
  cmake --build "$tsan_dir" -j "$jobs" --target omniboost_cli $tsan_tests
  # halt_on_error: the first race fails its suite instead of scrolling by.
  (cd "$tsan_dir" &&
    TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ctest --output-on-failure -j "$jobs" \
      -R "^($(echo $tsan_tests | tr ' ' '|'))\$")
  echo "== tier-1 TSan lane PASS =="
  exit 0
fi

echo "== configure =="
# Unquoted on purpose: OMNIBOOST_CMAKE_FLAGS is a word-split flag list.
# shellcheck disable=SC2086
cmake -B "$build_dir" -S "$root" ${OMNIBOOST_CMAKE_FLAGS:-}

echo "== build ($jobs jobs) =="
cmake --build "$build_dir" -j "$jobs"

echo "== ctest =="
(cd "$build_dir" && ctest --output-on-failure -j "$jobs")

# The property/fuzz suites are cheap and catch the widest class of
# regressions; re-running the lane standalone keeps a crisp signal (a
# property failure is reported as its own tier-1 step, not buried in the
# full matrix) and exercises the ctest label wiring itself.
echo "== property lane =="
(cd "$build_dir" && ctest --output-on-failure --label-regex property -j "$jobs")

# Chaos lane: randomized fault scenarios against a fleet (failover, shedding,
# throttle refresh, recovery rebalance) asserting stream conservation and
# byte-identical reruns. Standalone for the same crisp-signal reason, and so
# the sanitizer matrix flavors visibly exercise the fault paths.
echo "== chaos lane =="
(cd "$build_dir" && ctest --output-on-failure --label-regex chaos -j "$jobs")

# Daemon smoke: boot the live serving daemon on an ephemeral loopback port at
# x100 wall-clock pacing, drive it with the client (arrive/fail/depart), save
# the recorded trace, shut down, then replay the trace offline and assert the
# daemon's `conservation:` accounting line reproduces verbatim. This is the
# shell-level double of tests/daemon_test.cpp: it additionally pins the CLI
# surface itself (flag names, banner format, client exit codes).
if [ -x "$build_dir/omniboost_cli" ]; then
  echo "== daemon smoke =="
  smoke_out="$build_dir/daemon-smoke"
  mkdir -p "$smoke_out"
  "$build_dir/omniboost_cli" serve --listen 0 --boards 2 --scheduler greedy \
    --time-scale 100 > "$smoke_out/daemon.log" 2>&1 &
  daemon_pid=$!
  port=""
  tries=0
  while [ -z "$port" ] && [ "$tries" -lt 100 ]; do
    port=$(sed -n 's/^listening on //p' "$smoke_out/daemon.log")
    [ -n "$port" ] || { tries=$((tries + 1)); sleep 0.1; }
  done
  if [ -z "$port" ]; then
    echo "run_tier1.sh: daemon never printed its port" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
  fi
  cli() { "$build_dir/omniboost_cli" client "localhost:$port" "$@"; }
  cli arrive MobileNet slo 100
  cli arrive AlexNet
  cli fail board 0
  cli depart MobileNet
  cli status > "$smoke_out/status.txt"
  cli save-trace "$smoke_out/live.trace"
  cli shutdown
  wait "$daemon_pid"
  live=$(grep '^conservation:' "$smoke_out/status.txt")
  "$build_dir/omniboost_cli" serve --scenario "$smoke_out/live.trace" \
    --boards 2 --scheduler greedy > "$smoke_out/replay.txt" 2>&1
  offline=$(grep '^conservation:' "$smoke_out/replay.txt")
  if [ "$live" != "$offline" ]; then
    echo "run_tier1.sh: daemon/offline conservation mismatch" >&2
    echo "  live:    $live" >&2
    echo "  offline: $offline" >&2
    exit 1
  fi
  echo "daemon smoke: $live"
fi

if [ "$bench_smoke" -eq 1 ]; then
  echo "== bench smoke =="
  cmake --build "$build_dir" -j "$jobs" --target bench_all
  smoke_dir="$build_dir/bench-smoke"
  mkdir -p "$smoke_dir"
  OMNIBOOST_BENCH_SMOKE=1
  OMNIBOOST_ESTIMATOR_CACHE="$smoke_dir/estimator.bin"
  OMNIBOOST_BENCH_JSON_DIR="$smoke_dir"
  export OMNIBOOST_BENCH_SMOKE OMNIBOOST_ESTIMATOR_CACHE OMNIBOOST_BENCH_JSON_DIR
  # Run EVERY driver even after a failure (one broken bench must not hide
  # another), then propagate a single non-zero exit for the whole loop.
  smoke_failures=""
  for bench in "$build_dir"/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name=$(basename "$bench")
    printf -- '-- %s ... ' "$name"
    if "$bench" > "$smoke_dir/$name.log" 2>&1; then
      echo "ok"
    else
      echo "FAILED"
      echo "run_tier1.sh: bench smoke failed: $name" >&2
      echo "--- last 30 log lines ($smoke_dir/$name.log) ---" >&2
      tail -n 30 "$smoke_dir/$name.log" >&2
      smoke_failures="$smoke_failures $name"
    fi
  done
  if [ -n "$smoke_failures" ]; then
    echo "run_tier1.sh: bench smoke FAILED:$smoke_failures" >&2
    exit 1
  fi

  echo "== bench JSON guard =="
  if command -v python3 > /dev/null 2>&1; then
    python3 "$root/tools/check_bench_json.py" "$smoke_dir"
    if [ "$require_simd" -eq 1 ]; then
      # The kernels table must carry the SIMD column with real timings in
      # every row (a host without the ISA still produces numbers — the path
      # silently degrades to gemm — so an absent/empty column means the
      # bench driver itself regressed, not the machine).
      python3 - "$smoke_dir/BENCH_runtime_overhead_kernels.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if "simd (ms)" not in doc["columns"]:
    sys.exit("require-simd: no 'simd (ms)' column in the kernels table")
bad = [r for r in doc["rows"] if not str(r.get("simd (ms)", "")).strip()]
if bad:
    sys.exit(f"require-simd: {len(bad)} kernels row(s) have an empty simd entry")
print(f"require-simd: OK ({len(doc['rows'])} rows with simd timings)")
PYEOF
    fi
  else
    # CI always has python3; only a bare local box lands here.
    echo "run_tier1.sh: WARNING: python3 not found, skipping the" \
         "BENCH_*.json artifact guard" >&2
    if [ "$require_simd" -eq 1 ]; then
      echo "run_tier1.sh: --require-simd needs python3" >&2
      exit 1
    fi
  fi
  echo "== repo benchmark tests =="
  if command -v python3 > /dev/null 2>&1; then
    (cd "$root" && python3 perfbench/test_perfbench.py)
  else
    echo "run_tier1.sh: WARNING: python3 not found, skipping" \
         "perfbench/test_perfbench.py" >&2
  fi
  echo "== bench smoke PASS =="
fi

echo "== tier-1 PASS =="
