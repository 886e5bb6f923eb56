#!/usr/bin/env bash
# One-command CI gate: the tier-1 configure/build/ctest line from ROADMAP.md
# (with warnings as errors), two loopback smokes against the real binaries,
# the repository benchmark's own tests, then the sanitizer presets from
# CMakePresets.json. Each suite runs once per preset:
#   * tsan  — `ctest --preset tsan` runs every suite labelled `tsan`: the
#     parallel search, the session server, the epoll reactor (net), the
#     warm cache, the shard coordinator, the data kernels, and
#     chaos_tests_nokill (fault injection, journal recovery, shedding — the
#     subprocess-free chaos subset; SIGKILLing children under tsan is noise);
#   * asan  — `ctest --preset asan` runs the full suite, including the chaos
#     tests that SIGKILL a real --listen server mid-session and the
#     coordinator failover tests that kill real workers;
#   * ubsan — the batched scoring kernels with the ranking and baseline
#     code built on them, the LP engine with the MILP search over it, and
#     the core and math suites (spatial search, indicator fixing, box
#     geometry) (`ctest -L 'kernels|lp|search'`). The build passes
#     -fno-sanitize-recover=undefined, so any UBSan report fails its test;
#   * native — the same labelled suites in a -DRANKHOW_NATIVE=ON build, so
#     -march=native (FMA, wider vectors) keeps every bit-identity and
#     work-count golden.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: default build + full ctest =="
# Warnings (-Wall -Wextra) fail the build here, so none slips back in
# unnoticed. CMAKE_COMPILE_WARNING_AS_ERROR is CMake's own (3.24+).
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== loopback-TCP smoke: rankhow_cli --listen over /dev/tcp =="
bash scripts/smoke_listen.sh build

echo "== coordinator smoke: rankhow_coord fronting 2 workers =="
# Two real worker processes behind the shard coordinator, two clients on
# two pinned shards; proven results must equal serial --session replays
# and the aggregated stats line must carry the coord_* breakdown.
bash scripts/smoke_coord.sh build

echo "== perfbench: the repository benchmark's tiny-mode tests =="
# perfbench builds all of src/ through its own CMake project (into
# .bench_build), so this is also the only gate that compiles it.
python3 perfbench/test_perfbench.py

echo "== tsan: thread-sanitized build + ctest -L tsan =="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset tsan

echo "== asan: address-sanitized build + full ctest =="
cmake --preset asan
cmake --build --preset asan -j
ctest --preset asan

echo "== ubsan: UB-sanitized build + ctest -L 'kernels|lp|search' =="
# The batched scoring kernels (src/data/kernels.cc) lean on blocked FP
# accumulation, branch-free integer masks and slot arithmetic, the
# incremental LP's row-sparse elimination indexes the tableau through a
# gathered list of column pairs, and the spatial search refines each box
# from its parent's int32 free-pair lists; the ubsan preset runs the data,
# ranking, baselines, LP, MILP, core and math suites to catch signed
# overflow / bad shifts / invalid casts that -Wall cannot see.
cmake --preset ubsan
cmake --build --preset ubsan -j
ctest --preset ubsan

echo "== native: -march=native build + ctest -L 'kernels|lp|search' =="
# RANKHOW_NATIVE=ON lets the compiler use the machine's widest vector units
# and, on most x86-64 machines, FMA. The kernel bit-identity tests, the LP
# equivalence suites and the work-count goldens must hold there too.
cmake -B build-native -S . -DRANKHOW_NATIVE=ON
cmake --build build-native -j
(cd build-native && ctest --output-on-failure -L 'kernels|lp|search')

echo "check.sh: all gates passed"
