#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cold_spatial --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt into
.bench_build (or $CARGO_TARGET_DIR); later runs rebuild incrementally.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The lines before it print every metric with its unit and sample count.
The full self-describing record (runner output plus git SHA, hardware,
build and load metadata) is appended to .bench_results/records.jsonl
(or to $PERFBENCH_RECORDS), which perfbench/compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_runner")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args, load_at_start):
    """What a result record says about where and how it was measured."""
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "hardware_concurrency": len(os.sched_getaffinity(0)),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version,
        "rankhow_native": cmake_cache("RANKHOW_NATIVE"),
        "load_avg_at_start": list(load_at_start),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances, for the benchmark's own tests")
    parser.add_argument("--expect-error", type=int, default=None,
                        help="test hook: a deliberately wrong expected answer")
    parser.add_argument("--corrupt-ack", action="store_true",
                        help="test hook: perturb one served ack")
    args = parser.parse_args()
    load_at_start = os.getloadavg()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        applies = json.load(f)["per_layer"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("unknown workload %r" % args.workload)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    try:
        runner = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("build failed: %s" % e)

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.tiny:
        cmd.append("--tiny")
    if args.expect_error is not None:
        cmd += ["--expect-error", str(args.expect_error)]
    if args.corrupt_ack:
        cmd.append("--corrupt-ack")
    budget = max(10, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit("runner exceeded %.0f s" % budget)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("runner failed with exit code %d" % done.returncode)
    result = json.loads(lines[-1])

    # Every metric BENCHMARK.json names for this mode, with its declared
    # unit. A per-layer metric of a layer this workload does not exercise
    # reads 0; anything else missing, or in another unit, is a failure.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    problems = []
    print("%s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if args.trace and args.workload not in applies[name]["workloads"]:
                metrics[name] = {"value": 0.0, "unit": unit}
                print("  %-34s %14s %-8s (not exercised)" % (name, "0", unit))
                continue
            problems.append("metric %s missing" % name)
            got = {"value": 0.0, "unit": unit, "samples": 0}
        elif got["unit"] != unit:
            problems.append("metric %s in %s, declared %s"
                            % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
        print("  %-34s %14.6g %-8s (n=%d)"
              % (name, got["value"], unit, got["samples"]))
    for failure in result["failures"]:
        print("  failure: %s" % failure)
    for problem in problems:
        print("  failure: %s" % problem)

    record = {"metadata": metadata(args, load_at_start), "result": result,
              "problems": problems}
    records = os.environ.get("PERFBENCH_RECORDS") or os.path.join(
        ROOT, ".bench_results", "records.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(records)), exist_ok=True)
    with open(records, "a") as f:
        f.write(json.dumps(record) + "\n")

    failed = result["failed"] + len(problems)
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
