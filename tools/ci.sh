#!/usr/bin/env bash
# Full pre-PR gate: builds and tests every preset (default, tsan, asan),
# re-runs the crash/fault torture suite standalone under asan, and lints
# the metrics catalog and crash-point coverage against the docs/tests.
#
# Usage: tools/ci.sh [preset ...]
#   With no arguments all three presets run. Pass a subset (e.g.
#   `tools/ci.sh default`) for a quicker local loop.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default tsan asan)
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset" >/dev/null
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] test ==="
  ctest --preset "$preset" -j "$jobs"
done

# The torture tests already run inside each preset's ctest pass; re-run
# them standalone under asan so a crash-recovery regression fails loudly
# even when someone trims the main test pass, and so the label stays wired.
for preset in "${presets[@]}"; do
  if [ "$preset" = "asan" ]; then
    echo "=== [asan] crash/fault torture ==="
    ctest --preset asan -L torture --output-on-failure
  fi
done

# M4-LSM reuses scratch buffers across spans and copies raw page iterator
# ranges, so a stale-buffer or out-of-range bug there shows under asan first.
for preset in "${presets[@]}"; do
  if [ "$preset" = "asan" ]; then
    echo "=== [asan] m4 executor ==="
    ctest --preset asan -L m4 --output-on-failure
  fi
done

# The page codecs and the CRC32C checksum load unaligned 64-bit words
# through raw pointers, so an out-of-range or misaligned load shows under
# asan first.
for preset in "${presets[@]}"; do
  if [ "$preset" = "asan" ]; then
    echo "=== [asan] codecs ==="
    ctest --preset asan -L codec --output-on-failure
  fi
done

# Same idea for the network subsystem: the event loop, worker pool, and
# backpressure paths are where data races would live, so the net tests get
# a dedicated standalone pass under tsan.
for preset in "${presets[@]}"; do
  if [ "$preset" = "tsan" ]; then
    echo "=== [tsan] net subsystem ==="
    ctest --preset tsan -L net --output-on-failure
  fi
done

# The sharded series catalog's concurrency hammer (creates/drops/listings/
# maintenance ticks racing across shards) only bites with the race detector
# on, so the catalog label gets the same standalone tsan pass.
for preset in "${presets[@]}"; do
  if [ "$preset" = "tsan" ]; then
    echo "=== [tsan] sharded catalog ==="
    ctest --preset tsan -L catalog --output-on-failure
  fi
done

# Replication: the relay workers, applier thread, heartbeat and client
# reads all race, so the repl label gets a standalone tsan pass; the
# fork-kill replication torture additionally carries the torture label, so
# the asan torture rerun above covers its crash-recovery paths too.
for preset in "${presets[@]}"; do
  if [ "$preset" = "tsan" ]; then
    echo "=== [tsan] replication ==="
    ctest --preset tsan -L repl --output-on-failure
  fi
done

echo "=== metrics catalog lint ==="
python3 tools/check_metrics.py

echo "=== crash-point coverage lint ==="
python3 tools/check_crashpoints.py

echo "=== span taxonomy lint ==="
python3 tools/check_spans.py

echo "ci.sh: all green (${presets[*]})"
