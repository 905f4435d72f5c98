#!/usr/bin/env bash
# Repo verification driver.
#
#   tools/check.sh            tier-1 verify (configure, build, ctest) plus
#                             the trace smoke test
#   tools/check.sh smoke BIN  trace smoke test only, against an existing
#                             gofree binary (this is what the trace_smoke
#                             ctest entry runs, so plain ctest covers it)
#   tools/check.sh tsan       ThreadSanitizer pass: configure a separate
#                             build-tsan tree with -DGOFREE_SANITIZE=thread
#                             and run the concurrency suite (ctest label
#                             tsan_smoke) under it
#   tools/check.sh ubsan      UndefinedBehaviorSanitizer pass: configure a
#                             separate build-ubsan tree with
#                             -DGOFREE_SANITIZE=undefined, run the full test
#                             suite and a 100-seed fuzz slice under it (the
#                             int64 wrap/boundary arithmetic of both engines
#                             must be UB-free by construction)
#   tools/check.sh asan       AddressSanitizer pass: configure a separate
#                             build-asan tree with -DGOFREE_SANITIZE=address,
#                             run the full test suite and a 100-seed fuzz
#                             slice under it (with a 256 MiB C stack: the
#                             3000-frame tree-walker test overflows the
#                             default 8 MiB under ASan's larger frames).
#                             Leak checking is off: the compile-scoped
#                             arenas (support/Arena.h) never run their
#                             nodes' destructors by design, so leaks are
#                             not checked by this mode
#   tools/check.sh fuzz       differential fuzzing pass: a 200-seed corpus
#                             with the regular build, then a shorter corpus
#                             with the ThreadSanitizer build (the fuzz legs
#                             include an N-thread leg, so this races real
#                             mutator threads under TSan)
#   tools/check.sh gc         GC-focused pass: the collector-backend
#                             conformance set (ctest label gc_backends) with
#                             the regular build, the parallel-mark /
#                             lazy-sweep / write-barrier torture tests under
#                             ThreadSanitizer, then a 100-seed fuzz slice
#                             whose legs cover both backends (gofree-par
#                             runs --gc=workers=4, gofree-rc the rc
#                             collector) with heap verification on every leg
#   tools/check.sh conc       concurrent-mark pass: the tricolor pointer-
#                             churn torture test under ThreadSanitizer
#                             (mutators store through the Dijkstra barrier
#                             while mark workers drain gray and assists
#                             steal batches), then a 200-seed fuzz run whose
#                             gofree-conc leg runs --gc=workers=2,conc=1,
#                             chaos=7 with heap verification (including the
#                             tricolor check at both flips) on every leg
#   tools/check.sh bench      benchmarks: runs bench_gc_pause, bench_vm and
#                             bench_mt_contention and writes
#                             BENCH_gc_pause.json / BENCH_vm.json /
#                             BENCH_mt_contention.json at the repo root. On a
#                             host with >= 4 hardware threads it fails when
#                             the 4-thread alloc+tcfree aggregate is below 2x
#                             the 1-thread figure (mutators serializing on
#                             shared state); smaller hosts print "scaling not
#                             checked"
#   tools/check.sh server     serving-workload pass: the fixed-seed
#                             serve-sim smoke suite (ctest label
#                             server_smoke) with the regular build and again
#                             under ThreadSanitizer (real worker threads
#                             race the collector), a deterministic
#                             fixed-request serve-sim run through the CLI,
#                             then bench_server --json into
#                             BENCH_server.json at the repo root (the
#                             {go, gofree} x {marksweep conc off, marksweep
#                             conc on, rc} matrix)
#
# The smoke test runs examples/quickstart.minigo under --trace-out, once
# on one mutator thread and once on two, and asserts each trace is valid
# JSON-lines containing at least one GC event, one tcfree outcome with a
# give-up reason, and per-pass compiler timings. It also checks that
# `run` rejects a non-integer program argument (exit 2) and that
# serve-sim rejects --rps=nan, --rps=-1 and --theta=nan.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"

fail() { echo "check.sh: FAIL: $*" >&2; exit 1; }

# check_trace FILE LABEL: FILE is valid JSON-lines with at least one GC
# event, one tcfree outcome with a give-up reason and per-pass timings.
check_trace() {
  local t="$1" label="$2"
  [ -s "$t" ] || fail "trace file is empty ($label)"

  # Every line must parse as a JSON object.
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$t" <<'PYEOF' || fail "trace is not valid JSON-lines ($label)"
import json, sys
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        obj = json.loads(line)
        assert isinstance(obj, dict) and "ev" in obj, f"line {n}: not an event object"
PYEOF
  else
    # Fallback shape check: one {"..."} object per line.
    if grep -qv '^{"[a-z]*":.*}$' "$t"; then
      fail "trace has lines that do not look like JSON objects ($label)"
    fi
  fi

  grep -q '"ev":"gc-pace-trigger"' "$t" || fail "no GC pace-trigger event ($label)"
  grep -q '"ev":"gc-cycle-end"' "$t" || fail "no GC cycle event ($label)"
  grep -q '"ev":"tcfree","outcome":"freed"' "$t" || fail "no tcfree freed event ($label)"
  grep -q '"outcome":"give-up","reason":"' "$t" || fail "no tcfree give-up with a reason ($label)"
  grep -q '"ev":"pass","pass":"escape-solve"' "$t" || fail "no pass timing events ($label)"
  grep -q '"ev":"trace-end"' "$t" || fail "no trace-end record ($label)"
  grep -q '"dropped":0' "$t" || echo "check.sh: note: trace dropped events ($label)" >&2
}

smoke() {
  local gofree="$1"
  [ -x "$gofree" ] || fail "gofree binary not found at $gofree"
  local tmp
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$tmp'" EXIT

  # Every thread count takes the same trace route (one sink per mutator,
  # merged by a hub), so the default run and a 2-thread run must both
  # carry every event family.
  "$gofree" --trace-out="$tmp/t1.jsonl" --trace-summary --stats \
    run "$ROOT/examples/quickstart.minigo" 2000 > "$tmp/run.out" \
    || fail "traced run exited non-zero"
  check_trace "$tmp/t1.jsonl" "default threads"
  "$gofree" --num-threads=2 --trace-out="$tmp/t2.jsonl" --trace-summary \
    --stats run "$ROOT/examples/quickstart.minigo" 2000 > "$tmp/run.out" \
    || fail "traced 2-thread run exited non-zero"
  check_trace "$tmp/t2.jsonl" "2 threads"

  # Program arguments must be integers; anything else is a usage error.
  local rc=0
  "$gofree" run "$ROOT/examples/quickstart.minigo" abc > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "run with argument 'abc' exited $rc, want 2"

  # serve-sim must refuse rates that are not a finite non-negative number.
  local rps
  for rps in nan -1; do
    if "$gofree" serve-sim --requests=1 --rps="$rps" > /dev/null 2>&1; then
      fail "serve-sim accepted --rps=$rps"
    fi
  done

  # The Zipf skew must be a number strictly inside (0, 1).
  if "$gofree" serve-sim --requests=1 --theta=nan > /dev/null 2>&1; then
    fail "serve-sim accepted --theta=nan"
  fi

  echo "check.sh: trace smoke OK ($(wc -l < "$tmp/t1.jsonl") + $(wc -l < "$tmp/t2.jsonl") lines)"
}

case "$MODE" in
smoke)
  smoke "${2:?usage: check.sh smoke <gofree-binary>}"
  ;;
all)
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j
  (cd "$ROOT/build" && ctest --output-on-failure -j)
  smoke "$ROOT/build/tools/gofree"
  ;;
tsan)
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target concurrency_test
  (cd "$ROOT/build-tsan" && ctest -L tsan_smoke --output-on-failure)
  echo "check.sh: tsan smoke OK"
  ;;
ubsan)
  # UBSan halts on the first report (-fno-sanitize-recover is set by the
  # top-level CMakeLists), so a clean run proves the wrap arithmetic, the
  # slice-growth overflow guards and both execution engines are UB-free.
  cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DGOFREE_SANITIZE=undefined
  cmake --build "$ROOT/build-ubsan" -j
  # Instrumentation inflates native frames ~4x; the MaxFrames=4096 recursion
  # guard tests need more than the default 8 MiB C stack to reach the guard.
  (cd "$ROOT/build-ubsan" && ulimit -s 65536 && ctest --output-on-failure -j)
  (ulimit -s 65536 && "$ROOT/build-ubsan/tools/gofree" fuzz --seed=1 --count=100) \
    || fail "differential fuzz corpus failed under UBSan"
  echo "check.sh: ubsan pass OK (full suite + 100-seed fuzz)"
  ;;
asan)
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DGOFREE_SANITIZE=address
  cmake --build "$ROOT/build-asan" -j
  export ASAN_OPTIONS="detect_leaks=0${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
  (cd "$ROOT/build-asan" && ulimit -s 262144 && ctest --output-on-failure -j)
  (ulimit -s 262144 && "$ROOT/build-asan/tools/gofree" fuzz --seed=1 --count=100) \
    || fail "differential fuzz corpus failed under AddressSanitizer"
  echo "check.sh: asan pass OK (full suite + 100-seed fuzz)"
  ;;
fuzz)
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j --target gofree
  "$ROOT/build/tools/gofree" fuzz --seed=1 --count=200 \
    || fail "differential fuzz corpus failed (regular build)"
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target gofree
  "$ROOT/build-tsan/tools/gofree" fuzz --seed=1 --count=40 \
    || fail "differential fuzz corpus failed under ThreadSanitizer"
  echo "check.sh: fuzz corpus OK (200 seeds regular, 40 seeds tsan)"
  ;;
gc)
  # Backend conformance with the regular build: cross-backend observable
  # equivalence, ZCT semantics, tcfree interop.
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j
  (cd "$ROOT/build" && ctest -L gc_backends --output-on-failure) \
    || fail "gc_backends conformance tests failed"
  # Parallel mark + lazy sweep + write-barrier torture under TSan: real
  # mutator threads race the mark workers, the concurrent sweep entry
  # points, and the concurrent-mark Dijkstra barrier.
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target concurrency_test
  "$ROOT/build-tsan/tests/concurrency_test" \
    --gtest_filter='ConcurrencyGcWorkersTest.*:ConcurrencyTortureTest.*:ConcurrencyConcMarkTest.*' \
    || fail "GC torture tests failed under ThreadSanitizer"
  # Fuzz slice: gofree-par runs --gc=workers=4, gofree-rc the rc collector;
  # DiffOptions.Verify (on by default) adds --gc=verify=1 to every leg.
  "$ROOT/build/tools/gofree" fuzz --seed=1 --count=100 \
    || fail "GC fuzz slice failed (parallel/rc legs, heap verify)"
  echo "check.sh: gc pass OK (conformance + tsan torture + 100-seed fuzz)"
  ;;
conc)
  # Concurrent-mark torture under TSan: mutator threads splice and sever
  # linked chains through the write barrier while JobFlip1/JobDrain/JobFinal
  # run on the worker pool and allocation debt triggers mutator assists.
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target concurrency_test
  "$ROOT/build-tsan/tests/concurrency_test" \
    --gtest_filter='ConcurrencyConcMarkTest.*' \
    || fail "concurrent-mark torture failed under ThreadSanitizer"
  # Fuzz slice: the gofree-conc leg forces concurrent full cycles with two
  # mark workers and chaos-forced tcfree give-ups; every leg runs with heap
  # verification, which includes the tricolor invariant check at each flip.
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j --target gofree
  "$ROOT/build/tools/gofree" fuzz --seed=1 --count=200 \
    || fail "concurrent-mark fuzz slice failed (gofree-conc leg)"
  echo "check.sh: conc pass OK (tsan torture + 200-seed fuzz)"
  ;;
bench)
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j --target bench_gc_pause --target bench_vm \
    --target bench_mt_contention
  "$ROOT/build/bench/bench_gc_pause" --json > "$ROOT/BENCH_gc_pause.json" \
    || fail "bench_gc_pause failed"
  "$ROOT/build/bench/bench_gc_pause" --quick
  "$ROOT/build/bench/bench_vm" --json > "$ROOT/BENCH_vm.json" \
    || fail "bench_vm failed"
  "$ROOT/build/bench/bench_vm"
  "$ROOT/build/bench/bench_mt_contention" --json \
    > "$ROOT/BENCH_mt_contention.json" || fail "bench_mt_contention failed"
  # Scaling gate: each cache counts into its own stat shard, so mutators on
  # separate caches share nothing on the alloc/tcfree fast paths.
  python3 - "$ROOT/BENCH_mt_contention.json" <<'PYEOF' || fail "bench_mt_contention: 4 threads below 2x the 1-thread throughput"
import json, sys
d = json.load(open(sys.argv[1]))
ops = {t["threads"]: t["ops_per_sec"] for t in d["throughput"]}
ratio = ops[4] / ops[1]
if not d["scaling_valid"]:
    print("check.sh: bench_mt_contention: %d hardware threads, scaling not "
          "checked (4 threads / 1 thread = %.2fx)" % (d["hardware_threads"], ratio))
    sys.exit(0)
print("check.sh: bench_mt_contention: 4 threads / 1 thread = %.2fx (need >= 2x)"
      % ratio)
sys.exit(0 if ratio >= 2.0 else 1)
PYEOF
  echo "check.sh: bench OK (wrote BENCH_gc_pause.json, BENCH_vm.json, BENCH_mt_contention.json)"
  ;;
server)
  # Serving-harness smoke with the regular build: determinism, percentile
  # math, stall attribution, request trace events (ctest label server_smoke).
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j
  (cd "$ROOT/build" && ctest -L server_smoke --output-on-failure) \
    || fail "server_smoke suite failed"
  # TSan variant: the same suite with real worker threads racing the
  # collector's safepoints, assists and write barriers.
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target server_test
  (cd "$ROOT/build-tsan" && ctest -L server_smoke --output-on-failure) \
    || fail "server_smoke suite failed under ThreadSanitizer"
  # Deterministic fixed-seed CLI run: a fixed request count must come back
  # ok with the request count echoed (the checksum is pinned by ctest; here
  # we check the end-to-end plumbing).
  out="$("$ROOT/build/tools/gofree" --json serve-sim \
        --seed=11 --requests=200 --workers=2)" \
    || fail "gofree serve-sim exited non-zero"
  echo "$out" | grep -q '"requests":200' || fail "serve-sim lost requests: $out"
  echo "$out" | grep -q '"ok":true' || fail "serve-sim run not ok: $out"
  # The headline artifact: the {go,gofree} x {marksweep conc off, marksweep
  # conc on, rc} matrix with tail-latency SLO metrics.
  "$ROOT/build/bench/bench_server" --json > "$ROOT/BENCH_server.json" \
    || fail "bench_server failed (cell error or checksum mismatch)"
  echo "check.sh: server OK (smoke + tsan + wrote BENCH_server.json)"
  ;;
*)
  fail "unknown mode '$MODE' (expected 'all', 'smoke', 'tsan', 'ubsan', 'asan', 'fuzz', 'gc', 'conc', 'bench', or 'server')"
  ;;
esac
