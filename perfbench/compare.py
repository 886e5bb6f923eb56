#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

Two modes:

    # Run N pairs, alternating which side runs first, then report. Both
    # checkouts must hold the same perfbench/ and BENCHMARK.json.
    python3 perfbench/compare.py run PARENT_CHECKOUT CHANGE_CHECKOUT \
        --pairs 10 [--workloads cold_spatial,serve_edits] [--seed 100]

    # Report on records run.py already wrote (.bench_results/records.jsonl).
    python3 perfbench/compare.py report PARENT_RECORDS CHANGE_RECORDS

For every end-to-end metric x workload the report gives each side's
median and quartiles, the change's win fraction over the pairs (ties
count for neither side), and a verdict:

    improved     the change wins >= 90 % of pairs and the medians differ
                 by more than the parent's own quartile spread;
    regressed    the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json;
    unresolved   the parent's own spread is wider than the bound, so a
                 regression of that size could hide in the noise (unless
                 every change run beats, or loses to, every parent run);
    unchanged    none of the above.

Exits 1 if any metric regressed, any change run was incorrect, or the
failed fraction (failed / attempted) rose on any workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_records(path, trace=0):
    """{workload: [record, ...]} of untraced records, in file order."""
    by_workload = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            meta = record["metadata"]
            if meta.get("trace") != trace or meta.get("tiny"):
                continue
            by_workload.setdefault(meta["workload"], []).append(record)
    return by_workload


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_frac(records):
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] + len(r.get("problems", []))
                 for r in records)
    return failed / attempted if attempted else 1.0


def verdict(parent, change, better, bound):
    """Label one metric x workload; also returns the change's win fraction."""
    pairs = list(zip(parent, change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm == 0:
        worse = sign * (cm - pm) < 0
        rel_change = 0.0 if cm == pm else float("inf")
    else:
        rel_change = sign * (cm - pm) / abs(pm)
        worse = rel_change < 0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if worse and -rel_change > bound:
        return "regressed", win_frac
    if spread > bound:
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return "improved", win_frac
        return "unresolved", win_frac
    if win_frac >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "improved", win_frac
    return "unchanged", win_frac


def report(parent_path, change_path, benchmark):
    parent = load_records(parent_path)
    change = load_records(change_path)
    ok = True
    print("%-14s %-12s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent_med", "parent_q1..q3", "change_med",
        "change_q1..q3", "win", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        ps, cs = parent.get(workload, []), change.get(workload, [])
        if not ps or not cs:
            print("%-14s missing on one side" % workload)
            ok = False
            continue
        if any(not r["result"]["correct"] for r in cs):
            print("%-14s a change run was incorrect" % workload)
            ok = False
        pf, cf = failed_frac(ps), failed_frac(cs)
        if cf > pf:
            print("%-14s failed fraction rose: %.6f -> %.6f" % (workload, pf, cf))
            ok = False
        n = min(len(ps), len(cs))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in ps[:n]
                  if name in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][name]["value"] for r in cs[:n]
                  if name in r["result"]["metrics"]]
            if not pv or not cv:
                continue
            label, win = verdict(pv, cv, metric["better"], metric["bound"])
            if label == "regressed":
                ok = False
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print("%-14s %-12s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g "
                  "%5.2f  %s" % (workload, name, pm, p1, p3, cm, c1, c3, win,
                                 label))
    return ok


def run_pairs(args, benchmark):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in benchmark["workloads"]])
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    records = {side: os.path.join(path, ".bench_results",
                                  "compare-%s.jsonl" % stamp)
               for side, path in sides.items()}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                cmd = ["python3", "perfbench/run.py", "--workload", workload,
                       "--seed", str(args.seed + i)]
                if args.seconds:
                    cmd += ["--seconds", str(args.seconds)]
                env = dict(os.environ, PERFBENCH_RECORDS=records[side])
                done = subprocess.run(cmd, cwd=sides[side], text=True,
                                      capture_output=True, env=env)
                last = done.stdout.strip().splitlines()[-1:] or ["<none>"]
                print("pair %d %s %s: %s" % (i, side, workload, last[0][:120]),
                      file=sys.stderr)
    return records["parent"], records["change"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run alternating pairs, then report")
    run.add_argument("parent")
    run.add_argument("change")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--workloads", default="")
    run.add_argument("--seed", type=int, default=100)
    run.add_argument("--seconds", type=float, default=0)
    rep = sub.add_parser("report", help="compare two records files")
    rep.add_argument("parent_records")
    rep.add_argument("change_records")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    if args.mode == "run":
        parent_path, change_path = run_pairs(args, benchmark)
    else:
        parent_path, change_path = args.parent_records, args.change_records
    sys.exit(0 if report(parent_path, change_path, benchmark) else 1)


if __name__ == "__main__":
    main()
