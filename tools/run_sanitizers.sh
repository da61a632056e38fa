#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under a sanitizer and runs their
# tests. The threaded trees (src/ctree/) and the experiment runner
# (src/runner/) are the only genuinely multi-threaded code in the repo, so
# those suites are what a sanitizer can catch regressions in.
#
#   tools/run_sanitizers.sh            # thread sanitizer (the default)
#   tools/run_sanitizers.sh address    # address sanitizer
#   tools/run_sanitizers.sh thread address   # both, sequentially
#   tools/run_sanitizers.sh address+undefined  # ASan+UBSan in one build
#
# Each sanitizer gets its own build tree (build-tsan/, build-asan/, ...) so
# repeated runs are incremental.

set -euo pipefail

cd "$(dirname "$0")/.."

# Any sanitizer report fails the run, even when the tests themselves pass.
export TSAN_OPTIONS="${TSAN_OPTIONS:-}:exitcode=1"
export ASAN_OPTIONS="${ASAN_OPTIONS:-}:exitcode=1"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-}:halt_on_error=1"

sanitizers=("${@:-thread}")
# Tests that exercise threads / the runner; everything else is covered by
# the regular tier-1 run. obs_test stresses the sharded metrics registry
# from many threads; net_server_test and net_shard_test cross the
# event-loop / WAL-writer / client thread boundaries of the TCP service (a
# writer posts durable acks to a loop's inbox; only the loop touches the
# connection) — exactly what TSAN should vet. net_proto_fuzz_test decodes mutated frames
# from exactly-sized heap buffers, which is what ASan red-zones exist for.
# net_stats_test races the stats ticker, the admin plane, and the Prometheus
# listener against concurrent client load. epoch_test and olc_tree_test are
# the OLC battery: latch-free readers racing writers (TSAN's job) and
# epoch-deferred frees (ASan's job — a premature free is a use-after-free
# in the torture tests, a missed one is a leak at exit). The wal battery:
# wal_test races concurrent appenders against the group-commit writer
# thread and the durability waiters (TSAN), wal_fuzz_test decodes mutated
# frames from exactly-sized heap buffers (ASan red-zones), and
# wal_recovery_test replays logs into live trees — recovery must come up
# LeakSanitizer-clean.
test_targets=(ctree_test runner_test runner_experiment_test obs_test
              net_server_test net_shard_test net_proto_fuzz_test
              net_stats_test epoch_test olc_tree_test
              wal_test wal_recovery_test wal_fuzz_test)

for sanitizer in "${sanitizers[@]}"; do
  case "$sanitizer" in
    thread) build="build-tsan" ;;
    address) build="build-asan" ;;
    undefined) build="build-ubsan" ;;
    address+undefined) build="build-asan-ubsan" ;;
    *) echo "unknown sanitizer '$sanitizer'" \
            "(thread|address|undefined|address+undefined)" >&2
       exit 2 ;;
  esac

  echo "=== $sanitizer sanitizer -> $build/ ==="
  cmake -B "$build" -S . \
        -DCBTREE_SANITIZE="$sanitizer" \
        -DCBTREE_BUILD_BENCHMARKS=OFF \
        -DCBTREE_BUILD_EXAMPLES=OFF \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" --target "${test_targets[@]}" -j "$(nproc)"

  for target in "${test_targets[@]}"; do
    echo "--- $target ($sanitizer) ---"
    "$build/tests/$target"
  done

  case "$sanitizer" in
    address|address+undefined)
      # Serve-shutdown leak check: a delete-heavy OLC drive unlinks leaves
      # into the epoch manager mid-serve; LeakSanitizer at the server's
      # SIGINT exit proves teardown frees every node, pending or live.
      echo "--- serve-drive olc leak check ($sanitizer) ---"
      cmake --build "$build" --target cbtree_cli -j "$(nproc)"
      python3 tools/check_serve_drive.py "$build/tools/cbtree" \
              --protocol=olc --lambda=1000 --shards=2 --loops=2 \
              --qs=0.2 --qi=0.4 --qd=0.4
      # WAL replay leak check: SIGKILL mid-load leaves a live log; the
      # restart replays it into a fresh tree and must exit (SIGINT drain)
      # with LeakSanitizer finding nothing — recovery owns every node and
      # buffer it allocates.
      echo "--- crash-restart wal replay leak check ($sanitizer) ---"
      python3 tools/check_crash_restart.py "$build/tools/cbtree" \
              --protocol=olc --fsync=data --recovery=leaf
      ;;
  esac
done

echo "all sanitizer runs passed"
