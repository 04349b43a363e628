#!/usr/bin/env python3
"""perfgate.py — fail CI when the current tree's benchmarks regress.

Usage: perfgate.py BASELINE.json CURRENT.json [max_ratio]

Compares the committed BENCH_janus.json against a fresh scripts/bench.sh
run of the same tree:

  * every BenchmarkCegarEngine/* ns_per_op, and
  * the whole-search wall clock of every BenchmarkSharedSearch instance
    (the "search" block's ns column),

failing when current/baseline exceeds max_ratio (default 1.2, i.e. a
>20% wall-clock regression). Benchmarks present only on one side are
reported but not fatal — renaming an instance shouldn't brick CI, and a
new instance has no baseline yet. The ratio can be loosened via the
PERF_GATE_RATIO environment variable for known-noisy runners.

A baseline recorded while the search still had several engines has no
"search" block; its shared_vs_fresh shared_ns column timed the search
forced onto the shared pool, which is the search that remains, so the
gate compares against that column.
"""
import json
import os
import sys


def cegar_rows(doc):
    return {
        b["name"]: float(b["ns_per_op"])
        for b in doc.get("benchmarks", [])
        if b["name"].startswith("BenchmarkCegarEngine/") and b.get("ns_per_op")
    }


def search_rows(doc):
    rows = {}
    if "search" in doc:
        block, col = doc["search"], "ns"
    else:
        block, col = doc.get("shared_vs_fresh", {}), "shared_ns"
    for inst, r in block.items():
        if isinstance(r, dict) and r.get(col):
            rows[f"{inst}/search_ns"] = float(r[col])
    return rows


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    base = json.load(open(sys.argv[1]))
    cur = json.load(open(sys.argv[2]))
    ratio = float(sys.argv[3]) if len(sys.argv) > 3 else float(
        os.environ.get("PERF_GATE_RATIO", "1.2"))

    failures, checked = [], 0
    for label, get in (("cegar", cegar_rows), ("search", search_rows)):
        b, c = get(base), get(cur)
        for name in sorted(b):
            if name not in c:
                print(f"note: {label} {name} missing from current run")
                continue
            checked += 1
            r = c[name] / b[name]
            status = "FAIL" if r > ratio else "ok"
            print(f"{status}: {name}: {b[name]:.0f} -> {c[name]:.0f} ns ({r:.2f}x)")
            if r > ratio:
                failures.append(f"{name} regressed {r:.2f}x (limit {ratio:.2f}x)")
        for name in sorted(set(c) - set(b)):
            print(f"note: {label} {name} has no baseline")

    if checked == 0:
        sys.exit("perfgate: nothing compared — baseline/current mismatch?")
    if failures:
        sys.exit("perfgate: " + "; ".join(failures))
    print(f"perfgate: {checked} benchmarks within {ratio:.2f}x")


if __name__ == "__main__":
    main()
