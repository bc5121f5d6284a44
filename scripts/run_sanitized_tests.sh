#!/usr/bin/env sh
# Extra ctest configurations: build in separate trees with sanitizers on and
# run the tier-1 suite under them (minus the `bench` label: the benchmark
# smoke run drives fixed-rate load that a sanitized build cannot keep up
# with).
#
#   scripts/run_sanitized_tests.sh [mode] [build-dir]
#
#   mode: address (default)  AddressSanitizer + UndefinedBehaviorSanitizer
#         thread             ThreadSanitizer (races in yollo::serve and the
#                            intra-op parallel_for pool; the kernel-heavy
#                            suites are re-run with YOLLO_NUM_THREADS=4 so
#                            the pool actually partitions work, and the obs
#                            suites with YOLLO_OBS=1 so the profiling hooks
#                            are live rather than compiled-out branches)
#         both               address tree, then thread tree
set -eu

MODE="${1:-address}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

run_mode() {
  mode="$1"
  dir="$2"
  case "$mode" in
    address) sanitize="address;undefined" ;;
    thread) sanitize="thread" ;;
    *)
      echo "unknown mode '$mode' (expected address, thread, or both)" >&2
      exit 2
      ;;
  esac
  cmake -B "$dir" -S "$SRC_DIR" \
    -DYOLLO_SANITIZE="$sanitize" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j"$(nproc)" -LE bench
  if [ "$mode" = thread ]; then
    # Default YOLLO_NUM_THREADS is 1, which makes parallel_for a direct
    # call; re-run the suites that drive the GEMM/conv/elementwise kernels
    # with a real worker pool so TSan watches the job hand-off and the
    # disjoint-range writes.
    echo "re-running kernel suites with YOLLO_NUM_THREADS=4 under TSan ..."
    for t in tensor_test gemm_test nn_test infer_engine_test plan_test; do
      echo "  YOLLO_NUM_THREADS=4 $t"
      YOLLO_NUM_THREADS=4 "$dir/tests/$t"
    done
    # Observability: the metrics registry and the trace ring buffers are
    # written from every worker thread, and the serve counters now live on
    # the registry. Re-run those suites with the profiling hooks live so
    # TSan watches the span records and counter merges, not no-ops.
    echo "re-running obs suites with YOLLO_NUM_THREADS=4 YOLLO_OBS=1 ..."
    for t in obs_test serve_test router_test; do
      echo "  YOLLO_NUM_THREADS=4 YOLLO_OBS=1 $t"
      YOLLO_NUM_THREADS=4 YOLLO_OBS=1 "$dir/tests/$t"
    done
    # Continuous batching + feature cache: batch formation mutates scheduler
    # state under the service lock while workers note forward outcomes, and
    # the shared cache is hit/inserted/evicted from every worker (plus an
    # invalidating thread). Re-run both suites with a real worker pool so
    # TSan watches the EWMA updates, the LRU splices, and the pinned-view
    # handoff between eviction and a concurrent reader.
    echo "re-running batching + cache suites with YOLLO_NUM_THREADS=4 ..."
    for t in serve_batch_test feature_cache_test; do
      echo "  YOLLO_NUM_THREADS=4 YOLLO_OBS=1 $t"
      YOLLO_NUM_THREADS=4 YOLLO_OBS=1 "$dir/tests/$t"
    done
    # Cancellation + supervision: checkpoints fire from pool workers while
    # arm()/cancel()/the watchdog write from other threads, and the
    # watchdog reap races worker settlement. Re-run with a real worker
    # pool so TSan watches every edge of that protocol (the ExecContext
    # atomics, the CancelToken attach/detach handshake, the settled
    # exchange, and the reap/replace path).
    echo "re-running supervision suite with YOLLO_NUM_THREADS=4 under TSan ..."
    YOLLO_NUM_THREADS=4 YOLLO_OBS=1 "$dir/tests/supervision_test"
    # Router chaos under TSan, fault-injecting configuration: the
    # RouterChaosTest suite arms per-shard *scoped* FaultInjector instances
    # itself (kill / poison a shard mid-run) — the YOLLO_FAULT_* env vars
    # arm only the process-global injector, which sharded routers
    # deliberately bypass. YOLLO_ROUTER_CHAOS_PER_THREAD raises the
    # injected-fault load well past the default so TSan watches routing,
    # failover, and drain/probe under sustained concurrent faults.
    echo "re-running router chaos suite with heavier injected faults ..."
    YOLLO_NUM_THREADS=4 YOLLO_OBS=1 YOLLO_ROUTER_CHAOS_PER_THREAD=60 \
      "$dir/tests/router_test" --gtest_filter='RouterChaosTest.*'
  fi
}

case "$MODE" in
  both)
    run_mode address "${2:-build-asan}"
    run_mode thread "${3:-build-tsan}"
    ;;
  address)
    run_mode address "${2:-build-asan}"
    ;;
  thread)
    run_mode thread "${2:-build-tsan}"
    ;;
  *)
    echo "usage: $0 [address|thread|both] [build-dir]" >&2
    exit 2
    ;;
esac
