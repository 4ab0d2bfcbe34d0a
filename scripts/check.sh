#!/usr/bin/env bash
#
# CI check: build + full test suite in the default configuration,
# rebuild the concurrency-sensitive tests with ThreadSanitizer
# (SCAMV_ENABLE_TSAN) and run them under a real multi-thread pool,
# then run the full suite under Address+UB Sanitizer
# (SCAMV_ENABLE_ASAN).
#
# Usage: scripts/check.sh [build-dir] [tsan-build-dir] [asan-build-dir]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
GENERATOR=()
command -v ninja > /dev/null && GENERATOR=(-G Ninja)
JOBS="$(nproc 2> /dev/null || echo 2)"

echo "== tier-1: configure + build + ctest (${BUILD_DIR}) =="
cmake -B "$BUILD_DIR" -S . "${GENERATOR[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== TSan: thread pool + pipeline tests (${TSAN_DIR}) =="
cmake -B "$TSAN_DIR" -S . "${GENERATOR[@]}" -DSCAMV_ENABLE_TSAN=ON
cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_thread_pool test_pipeline test_metrics test_qcache \
    test_cover test_svc test_eval test_alloc

# Force a real multi-thread pool even on single-core CI runners so
# TSan observes genuine cross-thread interleavings.
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_thread_pool
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_pipeline \
    --gtest_filter='Pipeline.ThreadCount*:Pipeline.Deterministic*'
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_metrics \
    --gtest_filter='Metrics.Concurrent*:Metrics.Scoped*:MetricsPipeline.*'
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_qcache \
    --gtest_filter='Campaign.*:Cache.*'
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_cover \
    --gtest_filter='CoverPipeline.*:CoverFaultCampaign.*'
# Campaign service: worker fleet + merger thread + socket server.
SCAMV_THREADS=4 "$TSAN_DIR"/tests/test_svc \
    --gtest_filter='SvcTest.*'
# The evaluator's per-thread memo, from two threads at once, and the
# allocation gate under the sanitizer's allocator.
"$TSAN_DIR"/tests/test_eval
"$TSAN_DIR"/tests/test_alloc

echo "== ASan/UBSan: full test suite (${ASAN_DIR}) =="
cmake -B "$ASAN_DIR" -S . "${GENERATOR[@]}" -DSCAMV_ENABLE_ASAN=ON
cmake --build "$ASAN_DIR" -j "$JOBS"
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS"

echo "== all checks passed =="
