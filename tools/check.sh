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
#                             LeakSanitizer is on: arena payloads must be
#                             trivially destructible (support/Arena.h), so
#                             a compilation frees everything it allocated
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
#                             gofree-conc leg runs 3 real mutators over
#                             --gc=workers=2,conc=1 (the others store and
#                             tcfree while one collects) with heap
#                             verification (including the tricolor check at
#                             the end of every mark) on every leg
#   tools/check.sh vmprof     VM op profile pass: configure a separate
#                             build-vmprof tree with -DGOFREE_VM_PROFILE=ON,
#                             run bench_vm once per subject, a quickstart
#                             run and a 500-seed fuzz slice, check that each
#                             `vm.ops` table's dispatch total equals the
#                             steps the runs reported, and that the fuzz
#                             corpus executes every op but missing.ret
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
#                             conc on} matrix)
#
# The smoke test runs examples/quickstart.minigo under --trace-out, once
# on one mutator thread and once on two, and asserts each trace is valid
# JSON-lines containing at least one GC event, one tcfree outcome with a
# give-up reason, and per-pass compiler timings. On one mutator the trace
# must have no concurrent mark window (no gc-stw-flip or gc-conc-mark) and
# the --json run record one pause per cycle (gc.pauses ==
# gc.major_cycles). It checks that the --stats
# counters report has the give-up, free-source and pass rows, that
# --trace-summary is rejected (exit 2), and that --json compare and
# --json serve-sim print only v3 run records. It also checks that
# `run` rejects a non-integer program argument (exit 2), that `run` and
# `serve-sim` refuse rc with several mutators (exit 2, naming rc and the
# count), that `run` exits 1
# with the diagnostic on an overflowing integer literal and on an
# unterminated block comment, and that serve-sim rejects --rps=nan,
# --rps=-1 and --theta=nan, that GoFree matches Go on a `_ := f(x)` fixture
# and that `dump` lists moved-to-heap variables in declaration order.
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
  "$gofree" --trace-out="$tmp/t1.jsonl" --stats \
    run "$ROOT/examples/quickstart.minigo" 2000 > "$tmp/run1.out" \
    || fail "traced run exited non-zero"
  check_trace "$tmp/t1.jsonl" "default threads"
  # One mutator has no one to run in a concurrent mark window, so every
  # cycle is one pause: no flips, no window, one pause per cycle.
  if grep -Eq '"ev":"gc-(stw-flip|conc-mark)"' "$tmp/t1.jsonl"; then
    fail "the one-mutator trace has a concurrent mark window"
  fi
  "$gofree" --json run "$ROOT/examples/quickstart.minigo" 2000 > "$tmp/run1.json" \
    || fail "--json run exited non-zero"
  python3 - "$tmp/run1.json" <<'PYEOF' || fail "one-mutator gc.pauses != gc.major_cycles"
import json, sys
gc = json.loads(open(sys.argv[1]).read())["gc"]
assert gc["major_cycles"] > 0 and gc["pauses"] == gc["major_cycles"], gc
PYEOF
  "$gofree" --num-threads=2 --trace-out="$tmp/t2.jsonl" \
    --stats run "$ROOT/examples/quickstart.minigo" 2000 > "$tmp/run2.out" \
    || fail "traced 2-thread run exited non-zero"
  check_trace "$tmp/t2.jsonl" "2 threads"

  # --stats is the counters report: quickstart's per-round double free,
  # its map-growth frees and the pass times must be in it.
  local row
  for row in 'give-up double-free +2000$' 'freed map-grow-old +4000 ' \
    '^pass escape-solve '; do
    grep -Eq -- "$row" "$tmp/run1.out" || fail "--stats report has no '$row' row"
  done

  # Reports come from the counters only; no flag folds the trace.
  local rc=0
  "$gofree" --trace-summary run "$ROOT/examples/quickstart.minigo" 20 \
    > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "--trace-summary exited $rc, want 2"

  # Under --json every command prints run records and nothing else.
  "$gofree" --json compare "$ROOT/examples/quickstart.minigo" 200 \
    > "$tmp/compare.json" || fail "--json compare exited non-zero"
  "$gofree" --json serve-sim --requests=50 > "$tmp/serve.json" \
    || fail "--json serve-sim exited non-zero"
  python3 - "$tmp/compare.json" "$tmp/serve.json" <<'PYEOF' || fail "--json printed a line that is not a v3 run record"
import json, sys
for path in sys.argv[1:]:
    lines = open(path).read().splitlines()
    assert lines, path + ": no output"
    for line in lines:
        assert json.loads(line)["v"] == 3, line
PYEOF

  # Program arguments must be integers; anything else is a usage error.
  rc=0
  "$gofree" run "$ROOT/examples/quickstart.minigo" abc > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "run with argument 'abc' exited $rc, want 2"

  # Lexical errors are program faults: exit 1 with the diagnostic.
  local src want out
  for src in overflow comment; do
    case "$src" in
    overflow)
      printf 'func main(n int) {\n\tx := 99999999999999999999\n\tsink(x)\n}\n' \
        > "$tmp/$src.minigo"
      want="2:7: error: integer literal 99999999999999999999 overflows int" ;;
    comment)
      printf 'func main(n int) {\n\tsink(n)\n}\n/* unterminated\n' \
        > "$tmp/$src.minigo"
      want="4:1: error: comment not terminated" ;;
    esac
    rc=0
    out="$("$gofree" run "$tmp/$src.minigo" 1 2>&1)" || rc=$?
    [ "$rc" -eq 1 ] || fail "run of the $src fixture exited $rc, want 1"
    grep -qF "$want" <<< "$out" || fail "run of the $src fixture did not print '$want'"
  done

  # rc serves exactly one mutator; asking for two is a usage error.
  rc=0
  out="$("$gofree" --gc=rc --num-threads=2 run "$ROOT/examples/quickstart.minigo" 10 2>&1)" || rc=$?
  [ "$rc" -eq 2 ] || fail "--gc=rc --num-threads=2 exited $rc, want 2"
  want="the rc collector serves exactly one mutator, not 2"
  grep -qF "$want" <<< "$out" || fail "--gc=rc --num-threads=2 did not print '$want'"
  rc=0
  "$gofree" --gc=rc serve-sim --requests=1 > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "--gc=rc serve-sim on 4 workers exited $rc, want 2"

  # A dropped call result still runs the call: stash stores s into h, so
  # s outlives its block and freeing it would let t overwrite h.s[0].
  cat > "$tmp/blank.minigo" <<'EOF'
type H struct { s []int; }
func stash(h *H, s []int) int { h.s = s; return 0 }
func main(n int) {
	h := &H{}
	{ s := make([]int, n); s[0] = n; _ := stash(h, s) }
	t := make([]int, n); t[0] = 7
	sink(h.s[0])
}
EOF
  "$gofree" compare "$tmp/blank.minigo" 5 | grep -x 'checksums match' > /dev/null \
    || fail "compare of the blank-initializer fixture did not print 'checksums match'"

  # The dump lists moved-to-heap variables in declaration order.
  cat > "$tmp/moved.minigo" <<'EOF'
func keep(n int) *int { a := n; return &a }
func pair(n int) (*int, *int) { b := n; c := n + 1; return &b, &c }
func main(n int) { p := keep(n); q, r := pair(n); sink(*p + *q + *r) }
EOF
  "$gofree" dump "$tmp/moved.minigo" | grep -x 'moved to heap: a b c ' > /dev/null \
    || fail "dump of the moved fixture did not print 'moved to heap: a b c '"

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
  # Instrumentation inflates native frames ~4x; the recursion guard tests
  # (interp::MaxFrames, 4096 frames in both engines) need more than the
  # default 8 MiB C stack to reach the guard.
  (cd "$ROOT/build-ubsan" && ulimit -s 65536 && ctest --output-on-failure -j)
  (ulimit -s 65536 && "$ROOT/build-ubsan/tools/gofree" fuzz --seed=1 --count=100) \
    || fail "differential fuzz corpus failed under UBSan"
  echo "check.sh: ubsan pass OK (full suite + 100-seed fuzz)"
  ;;
asan)
  cmake -B "$ROOT/build-asan" -S "$ROOT" -DGOFREE_SANITIZE=address
  cmake --build "$ROOT/build-asan" -j
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
  # linked chains through the write barrier while JobFlip1/JobDrain/JobFull
  # run on the worker pool and allocation debt triggers mutator assists.
  cmake -B "$ROOT/build-tsan" -S "$ROOT" -DGOFREE_SANITIZE=thread
  cmake --build "$ROOT/build-tsan" -j --target concurrency_test
  "$ROOT/build-tsan/tests/concurrency_test" \
    --gtest_filter='ConcurrencyConcMarkTest.*' \
    || fail "concurrent-mark torture failed under ThreadSanitizer"
  # Fuzz slice: the gofree-conc leg runs 3 real mutators over concurrent
  # full cycles with two mark workers, so the mutators that are not
  # collecting store through the barrier and take tcfree's gc-running
  # give-up inside the window; every leg runs with heap verification, which
  # includes the tricolor invariant check at each flip.
  cmake -B "$ROOT/build" -S "$ROOT"
  cmake --build "$ROOT/build" -j --target gofree
  "$ROOT/build/tools/gofree" fuzz --seed=1 --count=200 \
    || fail "concurrent-mark fuzz slice failed (gofree-conc: 3 real mutators, conc=1)"
  echo "check.sh: conc pass OK (tsan torture + 200-seed fuzz)"
  ;;
vmprof)
  cmake -B "$ROOT/build-vmprof" -S "$ROOT" -DGOFREE_VM_PROFILE=ON
  cmake --build "$ROOT/build-vmprof" -j 4 --target bench_vm --target gofree
  tmp="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$tmp'" EXIT
  GOFREE_BENCH_RUNS=1 "$ROOT/build-vmprof/bench/bench_vm" > "$tmp/bench.out" \
    || fail "bench_vm failed in the profile build"
  "$ROOT/build-vmprof/tools/gofree" --stats run \
    "$ROOT/examples/quickstart.minigo" 200 > "$tmp/run.out" \
    || fail "gofree --stats run failed in the profile build"
  "$ROOT/build-vmprof/tools/gofree" --stats fuzz --seed=1 --count=500 \
    > "$tmp/fuzz.out" || fail "500-seed fuzz corpus failed in the profile build"
  python3 - "$tmp/bench.out" "$tmp/run.out" "$tmp/fuzz.out" <<'PYEOF' || fail "vm.ops profile check failed"
import re, sys
def table(path):
    text = open(path).read()
    total = int(re.search(r"^--- vm.ops: (\d+) dispatches ---$", text, re.M).group(1))
    ops = {m.group(1): int(m.group(2))
           for m in re.finditer(r"^op (\S+) +(\d+) ", text, re.M)}
    assert sum(ops.values()) == total, path + ": op counts do not sum to the total"
    steps = re.search(r"^vm.steps (\d+)$", text, re.M)
    return total, ops, int(steps.group(1)) if steps else None
for path in sys.argv[1:3]:
    total, _, steps = table(path)
    assert total == steps, "%s: %d dispatches counted, %d steps run" % (path, total, steps)
    print("check.sh: vmprof: %s: %d dispatches = steps" % (path.rsplit("/", 1)[1], total))
_, ops, _ = table(sys.argv[3])
idle = sorted(op for op, n in ops.items() if n == 0 and op != "missing.ret")
assert not idle, "ops the 500-seed fuzz corpus never executes: " + " ".join(idle)
print("check.sh: vmprof: the fuzz corpus executes all %d ops but missing.ret" % (len(ops) - 1))
PYEOF
  echo "check.sh: vmprof OK (profile totals = steps; fuzz corpus runs every op)"
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
  # ok with the request count echoed in the run record's serve object (the
  # checksum is pinned by ctest; here we check the end-to-end plumbing).
  out="$("$ROOT/build/tools/gofree" --json serve-sim \
        --seed=11 --requests=200 --workers=2)" \
    || fail "gofree serve-sim exited non-zero"
  python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(0 if r["serve"]["requests"] == 200 else 1)' "$out" \
    || fail "serve-sim lost requests: $out"
  echo "$out" | grep -q '"ok":true' || fail "serve-sim run not ok: $out"
  # The headline artifact: the {go,gofree} x {marksweep conc off, marksweep
  # conc on} matrix with tail-latency SLO metrics.
  "$ROOT/build/bench/bench_server" --json > "$ROOT/BENCH_server.json" \
    || fail "bench_server failed (cell error or checksum mismatch)"
  echo "check.sh: server OK (smoke + tsan + wrote BENCH_server.json)"
  ;;
*)
  fail "unknown mode '$MODE' (expected 'all', 'smoke', 'tsan', 'ubsan', 'asan', 'fuzz', 'gc', 'conc', 'vmprof', 'bench', or 'server')"
  ;;
esac
