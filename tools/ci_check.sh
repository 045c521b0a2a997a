#!/bin/sh
# CI gate: build Release and a sanitized Debug, run the full test suite in both.
#
#   tools/ci_check.sh [sanitizer]       # sanitizer: address (default) or thread
#
# Build trees go to build-ci-release/, build-ci-ucontext/, and build-ci-<sanitizer>/ next to
# the source tree; override with BUILD_RELEASE / BUILD_UCONTEXT / BUILD_SANITIZED. The
# sanitized pass catches memory errors the virtual-time runtime can otherwise hide (fiber
# stacks are mmap'd, so plain runs rarely crash); the fiber-switch annotations in
# src/pcr/fiber.cc keep ASan correct across both the assembly and ucontext switch paths.
#
# One failing leg does not hide the rest: every leg runs, and the script ends by naming the
# legs that failed and exiting nonzero if there are any.
set -u

ROOT=$(cd "$(dirname "$0")/.." && pwd)
SANITIZER=${1:-address}
BUILD_RELEASE=${BUILD_RELEASE:-"$ROOT/build-ci-release"}
BUILD_SANITIZED=${BUILD_SANITIZED:-"$ROOT/build-ci-$SANITIZER"}
JOBS=$(nproc 2> /dev/null || echo 2)

LEG=""
FAILED=""
leg() {
  LEG=$1
  echo "== $LEG"
}
# Records the current leg as failed and lets the script go on. Legs run in order, so a leg
# that is already recorded is the last entry.
fail() {
  echo "!! failed in leg: $LEG"
  case "$FAILED" in
    *"  $LEG") ;;
    *) FAILED="$FAILED
  $LEG" ;;
  esac
}

leg "Release build"
cmake -B "$BUILD_RELEASE" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release > /dev/null || fail
cmake --build "$BUILD_RELEASE" -j"$JOBS" || fail
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS") || fail

# Parallel-exploration gates: the explore suite and the full scenario sweep must behave
# identically on a multi-worker pool, and bench_explore must report serial == parallel (it
# exits nonzero on divergence). bench_explore also gates on throughput: --require-speedup=2
# fails unless every parallel run beats serial by 2x (skipped below 4 hardware cores).
leg "Explore suite at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L explore) || fail
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 || fail
leg "bench_explore smoke (+speedup gate, auto-skipped below 4 cores)"
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --require-speedup=2) || fail

# From-zero fallback leg: --no-checkpoint forces every schedule to replay from event zero —
# the path used when pcr::Checkpoint is unsupported (ucontext fibers, sanitizers) or a body is
# not checkpoint-safe. The scenario sweep must reach the same verdicts and bench_explore must
# still report serial == parallel, so the fallback cannot rot while checkpoint-and-branch is
# the everyday default. (The checkpoint ctest label covers byte-identical equivalence of the
# two modes; these legs cover the fallback end to end through the CLI and bench.)
leg "From-zero fallback (--no-checkpoint)"
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --no-checkpoint || fail
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=100 --no-checkpoint) || fail

# Sleep-set fallback leg: --no-dpor disables pre-execution leaf pruning (sleep sets and
# drain-tail splicing), mirroring the --no-checkpoint sweep above. The dpor ctest label holds
# findings/hashes/repros byte-identical across full-pruning, --no-dpor, and --no-checkpoint;
# these legs cover the flag end to end through the CLI and bench.
leg "Pruning-off fallback (--no-dpor)"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L dpor) || fail
"$BUILD_RELEASE/tools/pcrcheck" --all --workers=4 --no-dpor || fail
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=100 --no-dpor) || fail

# Fault-injection gates: the fault suite (ctest -L fault) covers fork-failure policies, the
# watchdog, monitor poisoning, and X reconnect; the bench_explore run sweeps fault x schedule
# space and exits nonzero unless serial == parallel, so seeded fault plans are provably
# worker-count independent.
leg "Fault suite + fault-plan determinism at workers=4"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L fault) || fail
(cd "$BUILD_RELEASE" && bench/bench_explore --workers=4 --budget=200 \
  --fault-plan="f1,rate=0.05,sites=notify-lost+timer-skew,seed=5") || fail

# Overload-robustness gates: the load suite (ctest -L load) covers admission control,
# backpressure, brown-out, and the backlog watchdog over the open-loop service world;
# bench_service_load sweeps offered load x paradigm and exits nonzero if a re-run diverges.
# The latencies themselves are virtual-time quantities, pinned exactly by the perfbench
# service goldens below. The pcrsim line smokes the CLI load path end to end.
leg "Load suite + service-world sweep"
(cd "$BUILD_RELEASE" && ctest --output-on-failure -j"$JOBS" -L load) || fail
(cd "$BUILD_RELEASE" && bench/bench_service_load > /dev/null) || fail
(cd "$BUILD_RELEASE" && tools/pcrsim --load-scenario=overload --duration 2 > /dev/null) || fail

# Campaign replay gate: every committed corpus entry must still decode, replay
# deterministically (each input is run twice and the trace hashes compared), and every entry
# under tests/corpus/crashes/ must still fail — a crash repro that stops failing means a bug
# was fixed without retiring its corpus entry. rounds=0 puts the campaign in read-only replay
# mode: no mutation, no corpus writes, so the committed corpus is never modified by CI. The
# 60s timeout is a hang backstop; the replay itself takes well under a second.
leg "Campaign corpus replay gate (read-only)"
timeout 60 "$BUILD_RELEASE/tools/pcrcheck" --campaign="$ROOT/tests/corpus" \
  --campaign-rounds=0 --campaign-status-json="$BUILD_RELEASE/ci_campaign_status.json" || fail
python3 -m json.tool "$BUILD_RELEASE/ci_campaign_status.json" > /dev/null || fail

# Context-switch gate: the assembly fast path must stay at least 5x faster than raw
# swapcontext (it measures ~12x on the reference machine; 5x leaves room for host noise). On
# builds where the fiber backend is ucontext the gate auto-skips.
leg "bench_fiber_switch (>=5x vs ucontext)"
(cd "$BUILD_RELEASE" && bench/bench_fiber_switch --require-speedup=5) || fail

# Observability gates: the Chrome-trace and metrics exports must be valid JSON end to end, and
# both tracing and metrics instrumentation must stay within their hot-path overhead budgets
# (the bench exits nonzero past either threshold).
leg "Observability exports + trace-overhead budget"
(cd "$BUILD_RELEASE" \
  && tools/pcrsim --scenario keyboard --duration 5 \
       --chrome-trace=ci_chrome_trace.json --metrics-json=ci_metrics.json \
  && python3 -m json.tool ci_chrome_trace.json > /dev/null \
  && python3 -m json.tool ci_metrics.json > /dev/null \
  && bench/bench_trace_overhead) || fail

# Streaming-export equivalence: the bounded-memory streaming sink must produce byte-for-byte
# the file the buffered exporter writes — first over a full pcrsim world run, then over a
# pcrcheck failing-schedule repro (the two CLI paths that drive ChromeTraceWriter). cmp, not a
# JSON-level diff: the contract is byte identity, so golden traces stay pinnable either way.
leg "Streamed vs buffered Chrome export (byte identity)"
(cd "$BUILD_RELEASE" \
  && tools/pcrsim --scenario keyboard --duration 5 --chrome-trace=ci_chrome_buffered.json \
  && tools/pcrsim --scenario keyboard --duration 5 --chrome-stream=ci_chrome_streamed.json \
  && cmp ci_chrome_buffered.json ci_chrome_streamed.json) || fail
rm -rf "$BUILD_RELEASE/ci_ct_buffered" "$BUILD_RELEASE/ci_ct_streamed"
(cd "$BUILD_RELEASE" \
  && tools/pcrcheck --scenario=buggy_monitor --require-bug \
       --chrome-trace-on-failure=ci_ct_buffered --chrome-stream-on-failure=ci_ct_streamed) || fail
for f in "$BUILD_RELEASE"/ci_ct_buffered/*.json; do
  cmp "$f" "$BUILD_RELEASE/ci_ct_streamed/$(basename "$f")" || fail
done

# Repo benchmark gate: perfbench/run.py builds its own Release tree from src/ (under
# $BUILD_RELEASE, so the checkout stays clean), runs its arithmetic self-test, then one short
# pass of every workload with all output checks: goldens pinned by trace hash at seed 1,
# pass-to-pass identity, workers-1-vs-N agreement. Host-time metrics are not gated here; they
# are compared parent-vs-change against the bounds in BENCHMARK.json. run.py exits 0 even when
# checks fail, so the gate reads the summary line it prints last, which keys its metrics by
# workload (a per-workload result line would not name all four).
leg "perfbench self-test + all-workload checks"
(cd "$ROOT" && CARGO_TARGET_DIR="$BUILD_RELEASE" python3 perfbench/run.py --selftest) || fail
(cd "$ROOT" && CARGO_TARGET_DIR="$BUILD_RELEASE" python3 perfbench/run.py --seconds 1) \
  > "$BUILD_RELEASE/ci_perfbench.out" || fail
tail -n 1 "$BUILD_RELEASE/ci_perfbench.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
workloads = {name.split(".")[0] for name in r["metrics"]}
print("perfbench: %s, %d checks, %d failed" % (sorted(workloads), r["attempted"], r["failed"]))
ok = workloads == {"tables", "explore", "campaign", "service"}
sys.exit(0 if ok and r["correct"] is True and r["failed"] == 0 and r["attempted"] > 0 else 1)' || fail

# Portable-fallback leg: the ucontext fiber path must keep passing the explore suite (which
# exercises fibers hardest: thousands of schedules, stack recycling, determinism at several
# worker counts) so it cannot rot while the assembly path is the everyday default.
BUILD_UCONTEXT=${BUILD_UCONTEXT:-"$ROOT/build-ci-ucontext"}
leg "Release build with -DPCR_FIBER_UCONTEXT=ON"
cmake -B "$BUILD_UCONTEXT" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
  -DPCR_FIBER_UCONTEXT=ON > /dev/null || fail
cmake --build "$BUILD_UCONTEXT" -j"$JOBS" || fail
(cd "$BUILD_UCONTEXT" && ctest --output-on-failure -j"$JOBS" -L explore) || fail
(cd "$BUILD_UCONTEXT" && bench/bench_fiber_switch --require-speedup=5) || fail  # prints the auto-skip

leg "Debug build with -fsanitize=$SANITIZER"
cmake -B "$BUILD_SANITIZED" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
  -DPCR_SANITIZE="$SANITIZER" > /dev/null || fail
cmake --build "$BUILD_SANITIZED" -j"$JOBS" || fail
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS") || fail
# Re-run the fault suite by label under the sanitizer: injected thread death and monitor
# poisoning unwind fibers on exceptional paths, exactly where stale ASan shadow or a missed
# release would hide in a plain build.
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L fault) || fail
# And the load suite: the service world churns thousands of heap-allocated requests through
# bounded queues, brown-out purges, and retry re-offers — use-after-free bait a plain build
# would shrug off.
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L load) || fail
# The dpor equivalence label and the --no-dpor sweep again under the sanitizer: pruning
# copies outcomes instead of executing fibers, exactly the kind of shortcut where a dangling
# read into a rewound buffer would hide in a plain build. (Checkpointing is unsupported under
# sanitizers, so this leg also proves pruning composes with the from-zero fallback.)
(cd "$BUILD_SANITIZED" && ctest --output-on-failure -j"$JOBS" -L dpor) || fail
"$BUILD_SANITIZED/tools/pcrcheck" --all --workers=4 --no-dpor || fail
# And the corpus replay gate: the committed repros drive injected faults through the
# runtime's exceptional unwind paths, which is where the sanitizer earns its keep.
timeout 60 "$BUILD_SANITIZED/tools/pcrcheck" --campaign="$ROOT/tests/corpus" \
  --campaign-rounds=0 --campaign-status-json="$BUILD_SANITIZED/ci_campaign_status.json" || fail
python3 -m json.tool "$BUILD_SANITIZED/ci_campaign_status.json" > /dev/null || fail

if [ -n "$FAILED" ]; then
  echo "== ci_check: failed legs (Release + $SANITIZER):$FAILED"
  exit 1
fi
echo "== ci_check: all green (Release + $SANITIZER)"
