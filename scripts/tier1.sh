#!/usr/bin/env bash
# Tier-1 verification: one command runs the whole correctness stack.
#
#   1. Main build at the -Werror warning floor (-Wconversion -Wshadow
#      -Wextra-semi on the library target) + full ctest suite.
#   2. ThreadSanitizer over the concurrent components (thread network,
#      thread driver, metric shards, solver pool, preprocessing task pool)
#      so data races in the mailbox/metrics/worker-pool/job-layer paths
#      fail CI on day one.
#   3. AddressSanitizer over the distance-kernel / candidate-list / tour /
#      LK / construction paths that index raw SoA and CSR arrays, and over
#      the runtime, whose pipelined simulator must join in-flight compute
#      phases before the nodes they touch are destroyed.
#   4. UndefinedBehaviorSanitizer (signed overflow, shifts, bounds,
#      float-cast-overflow; abort on first report) over the kernel, tour
#      structures, LK, construction, codec, parser, and metrics tests —
#      the code where the int64 distance arithmetic and double->int
#      rounding live.
#   5. Invariant audit build (-DDISTCLK_AUDIT=ON under ASan): structural
#      self-checks compiled into Tour/BigTour/TwoLevelList/CandidateLists/
#      NodeRunner mutation paths, exercised by test_audit.
#   6. Clang thread-safety analysis build (tsa preset): compiles the whole
#      tree with -Werror=thread-safety so the capability annotations on the
#      sync:: wrappers are PROVEN, not just documented. Skipped with a
#      visible notice when clang++ is not installed (the attributes are
#      no-ops under GCC, so a GCC build would verify nothing).
#   7. Determinism/portability lint over src/ (scripts/lint.sh), plus two
#      lock-discipline guards: DISTCLK_NO_THREAD_SAFETY_ANALYSIS must not
#      appear outside util/sync.h, and the threading allowlist must not
#      grow past its budget (7 entries) without a justified review.
#   8. Instrumented smoke run: the pinned churn fixture with causal tracing
#      and live metrics on, then trace_report --validate over the captured
#      trace (schema + causal invariants) and a non-empty Prometheus
#      snapshot check. Catches tracer/schema drift the unit tests miss.
#   9. Service smoke run: distclk_serve with one worker over a wall-clock
#      blocker, a job cancelled while queued, and a job whose deadline
#      expires behind the blocker — all three terminal states must appear
#      in the response stream, the shared multi-run trace must validate,
#      and the Prometheus snapshot must carry the svc job metrics.
#  10. Prep-parallelism smoke: a 10^5-city context built at
#      --prep-threads 4 must report the same construction tour length as
#      the serial build (byte-identical preprocessing, DESIGN.md §13), and
#      concurrent same-key jobs through distclk_serve must cost exactly
#      one context build (cache_builds:1). A 10^6-city build at 1 and 4
#      prep threads must report the pinned construction length 848449473
#      (the kd-tree fragment stitcher keeps this to seconds).
#
# See DESIGN.md §7 for what each layer is expected to catch.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDISTCLK_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== instrumented smoke run (trace + metrics) and trace validation"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./build/examples/distclk_cli --algo dist --gen uniform --n 120 --gen-seed 42 \
  --nodes 8 --seconds 6 --modeled-work 1e5 --seed 2026 --join 5:0.4 \
  --fail 2:0.5 --metrics-interval 1 --trace "$SMOKE/run.jsonl" \
  --metrics-out "$SMOKE/metrics.prom"
./build/tools/trace_report "$SMOKE/run.jsonl" --validate
test -s "$SMOKE/metrics.prom"
grep -q '^distclk_snapshot_time_seconds' "$SMOKE/metrics.prom"

echo "== service smoke run (cancel + deadline + completion through the pool)"
cat > "$SMOKE/jobs.jsonl" <<'JOBS'
{"id":"blocker","gen":"uniform","n":400,"gen_seed":7,"candidates":8,"nodes":2,"seconds":0.5,"seed":1,"runtime":"threads"}
{"id":"hold","gen":"uniform","n":120,"gen_seed":42,"candidates":8,"nodes":8,"seconds":6,"seed":2026,"modeled_work":100000,"priority":1}
{"id":"doomed","gen":"uniform","n":120,"gen_seed":42,"candidates":8,"nodes":8,"seconds":6,"seed":2026,"modeled_work":100000,"deadline_seconds":0.05}
{"cancel":"hold"}
JOBS
./build/tools/distclk_serve --jobs "$SMOKE/jobs.jsonl" --workers 1 \
  --out "$SMOKE/serve.jsonl" --trace "$SMOKE/serve_trace.jsonl" \
  --metrics-out "$SMOKE/serve.prom"
grep -q '"id":"blocker".*"state":"completed"' "$SMOKE/serve.jsonl"
grep -q '"id":"hold".*"state":"cancelled"' "$SMOKE/serve.jsonl"
grep -q '"id":"doomed".*"state":"expired"' "$SMOKE/serve.jsonl"
./build/tools/trace_report "$SMOKE/serve_trace.jsonl" --validate
./build/tools/trace_report "$SMOKE/serve_trace.jsonl" --jobs
grep -q '^distclk_svc_jobs_completed' "$SMOKE/serve.prom"
grep -q '^distclk_svc_jobs_cancelled' "$SMOKE/serve.prom"
grep -q '^distclk_svc_jobs_expired' "$SMOKE/serve.prom"

echo "== prep-parallelism smoke (byte-identical context at --prep-threads 4)"
# A 10^5-city context built serially and with 4 prep threads must report
# the same construction length (byte-identical preprocessing, DESIGN.md
# §13); the prep phase line must be present in both.
./build/examples/distclk_cli --gen uniform --n 100000 --gen-seed 1 \
  --prep-only > "$SMOKE/prep1.txt"
./build/examples/distclk_cli --gen uniform --n 100000 --gen-seed 1 \
  --prep-threads 4 --prep-only > "$SMOKE/prep4.txt"
grep -q '^prep ' "$SMOKE/prep1.txt"
grep -q 'threads=4' "$SMOKE/prep4.txt"
diff <(grep '^result' "$SMOKE/prep1.txt") <(grep '^result' "$SMOKE/prep4.txt")
# Million-city smoke: both thread counts reproduce the pinned construction
# length of the uniform n=10^6, gen-seed 1 instance (EXPERIMENTS.md).
for t in 1 4; do
  ./build/examples/distclk_cli --gen uniform --n 1000000 --gen-seed 1 \
    --prep-threads "$t" --prep-only > "$SMOKE/prep_1m_$t.txt"
  grep -q '^result   : construction 848449473 ' "$SMOKE/prep_1m_$t.txt"
done
# Concurrent same-key jobs through the pool still cost exactly one context
# build (the cache builds under its lock; prepThreads is not in the key).
cat > "$SMOKE/prep_jobs.jsonl" <<'JOBS'
{"id":"prep-a","gen":"uniform","n":5000,"gen_seed":3,"candidates":8,"prep_threads":4,"nodes":2,"seconds":0.2,"seed":1,"modeled_work":1000000}
{"id":"prep-b","gen":"uniform","n":5000,"gen_seed":3,"candidates":8,"prep_threads":1,"nodes":2,"seconds":0.2,"seed":1,"modeled_work":1000000}
{"id":"prep-c","gen":"uniform","n":5000,"gen_seed":3,"candidates":8,"nodes":2,"seconds":0.2,"seed":1,"modeled_work":1000000}
JOBS
./build/tools/distclk_serve --jobs "$SMOKE/prep_jobs.jsonl" --workers 2 \
  --prep-threads 4 --out "$SMOKE/prep_serve.jsonl" > /dev/null
grep -q '"cache_builds":1' "$SMOKE/prep_serve.jsonl"

cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDISTCLK_SAN=thread
cmake --build build-tsan -j "$JOBS" \
  --target test_sync test_thread_network test_thread_driver test_runtime \
           test_obs_metrics test_lk_workspace test_svc test_prep_parallel
for t in test_sync test_thread_network test_thread_driver test_runtime \
         test_obs_metrics test_lk_workspace test_svc test_prep_parallel; do
  echo "== TSan: $t"
  ./build-tsan/tests/"$t"
done

cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDISTCLK_SAN=address
cmake --build build-asan -j "$JOBS" \
  --target test_dist_kernel test_neighbors test_tour test_lk \
           test_lk_workspace test_prep_parallel test_construct test_runtime
for t in test_dist_kernel test_neighbors test_tour test_lk \
         test_lk_workspace test_prep_parallel test_construct test_runtime; do
  echo "== ASan: $t"
  ./build-asan/tests/"$t"
done

UBSAN_TESTS=(test_dist_kernel test_tour test_twolevel test_big_tour test_lk
             test_lk_workspace test_chained_lk test_message
             test_tsplib test_metrics test_prep_parallel test_construct)
cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDISTCLK_SAN=undefined
cmake --build build-ubsan -j "$JOBS" --target "${UBSAN_TESTS[@]}"
for t in "${UBSAN_TESTS[@]}"; do
  echo "== UBSan: $t"
  ./build-ubsan/tests/"$t"
done

cmake -B build-audit -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDISTCLK_SAN=address -DDISTCLK_AUDIT=ON
cmake --build build-audit -j "$JOBS" --target test_audit test_sync
echo "== Audit (ASan): test_audit"
./build-audit/tests/test_audit
echo "== Audit (ASan): test_sync (lock-rank death tests)"
./build-audit/tests/test_sync

# Thread-safety analysis needs the Clang frontend; the attributes compile
# to nothing under GCC, so skipping is honest while silence would not be.
# The proof targets the production tree (library + tools + examples):
# test_sync's death tests violate the discipline ON PURPOSE to check the
# runtime audit, so they cannot be analysis-clean by construction.
SUMMARY="tier-1 OK"
if command -v clang++ >/dev/null 2>&1; then
  echo "== Clang thread-safety analysis (-Werror=thread-safety)"
  cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ -DDISTCLK_TSA=ON
  cmake --build build-tsa -j "$JOBS" \
    --target distclk calibrate trace_report distclk_serve \
             quickstart distributed_solve tsplib_tool kick_playground distclk_cli
else
  echo "NOTICE: clang++ not found; skipping thread-safety analysis build (tsa preset)"
  SUMMARY="tier-1 OK (skipped: tsa — no clang++)"
fi

scripts/lint.sh

echo "== lock-discipline guards"
# The analysis escape hatch is reserved for the wrapper internals; an
# occurrence anywhere else means a contract was suppressed, not proven.
if grep -rn --include='*.h' --include='*.cpp' 'DISTCLK_NO_THREAD_SAFETY_ANALYSIS' \
     src tools tests examples bench | grep -v 'src/util/sync\.h'; then
  echo "FAIL: DISTCLK_NO_THREAD_SAFETY_ANALYSIS used outside src/util/sync.h" >&2
  exit 1
fi
# Threading allowlist budget: 7 entries. Growth needs a justification in
# tools/lint_allowlist.txt AND a bump here with review — not a drive-by.
THREADING_ENTRIES=$(grep -c '^threading |' tools/lint_allowlist.txt || true)
if [ "$THREADING_ENTRIES" -gt 7 ]; then
  echo "FAIL: threading allowlist has $THREADING_ENTRIES entries (budget 7)" >&2
  exit 1
fi
echo "lock-discipline guards OK (threading allowlist: $THREADING_ENTRIES/7)"

echo "$SUMMARY"
