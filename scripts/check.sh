#!/usr/bin/env bash
# Pre-merge check, shared verbatim by local runs and the CI matrix.
#
#   scripts/check.sh            # all configs serially (local pre-merge)
#   scripts/check.sh default    # build + full tests + chaos determinism
#   scripts/check.sh asan       # ASan+UBSan build + full tests + chaos run
#   scripts/check.sh tsan       # TSan build + sharded tests + sharded chaos
#
# The compiler comes from the usual CC/CXX environment (the CI matrix sets
# clang/clang++ on its clang legs). ccache is picked up automatically when
# installed.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
CONFIG="${1:-all}"

CMAKE_EXTRA=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_EXTRA+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

do_default() {
  echo "== configure + build (default) =="
  cmake -B build -S . ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build -j "$JOBS"

  echo "== tests (default) =="
  ctest --test-dir build --output-on-failure -j "$JOBS"

  echo "== chaos matrix (determinism check) =="
  ./build/bench/bench_chaos_matrix --seeds 2 | tee /tmp/chaos_matrix.1
  ./build/bench/bench_chaos_matrix --seeds 2 >/tmp/chaos_matrix.2
  diff -u /tmp/chaos_matrix.1 /tmp/chaos_matrix.2
  echo "chaos matrix deterministic"
}

do_asan() {
  echo "== configure + build (ASan+UBSan) =="
  cmake -B build-asan -S . -DVNET_SANITIZE=ON \
    ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build-asan -j "$JOBS"

  echo "== tests (ASan+UBSan) =="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "== chaos matrix (ASan) =="
  ./build-asan/bench/bench_chaos_matrix --seeds 1 >/dev/null
}

do_tsan() {
  echo "== configure + build (TSan) =="
  cmake -B build-tsan -S . -DVNET_SANITIZE=TSAN \
    ${CMAKE_EXTRA[@]+"${CMAKE_EXTRA[@]}"} >/dev/null
  cmake --build build-tsan -j "$JOBS"

  echo "== sharded-engine tests (TSan) =="
  # The Shard* suites exercise the worker-thread scheduler (threaded window
  # execution, cross-shard routing, the 1000-host smoke run) — the code
  # paths TSan exists to judge. The rest of the suite is single-threaded by
  # construction and already covered by the asan/default legs.
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R "Shard"

  echo "== sharded chaos matrix (TSan) =="
  ./build-tsan/bench/bench_chaos_matrix --shards 2 --seeds 1 >/dev/null
}

case "$CONFIG" in
  default) do_default ;;
  asan) do_asan ;;
  tsan) do_tsan ;;
  all)
    do_default
    do_asan
    do_tsan
    ;;
  *)
    echo "usage: $0 [default|asan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "ALL CHECKS PASSED ($CONFIG)"
