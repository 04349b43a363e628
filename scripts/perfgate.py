#!/usr/bin/env python3
"""perfgate.py — fail when a change slows the per-layer benchmarks.

Usage: scripts/perfgate.py PARENT_REV

Builds the root package's test binary twice on this machine: from
PARENT_REV, extracted with git archive into a temporary directory, and
from the working tree. It then runs BenchmarkSharedSearch (the dichotomic
search over lattice sizes) and BenchmarkCegarEngine (one lattice-mapping
decision) in alternating pairs: pair i runs the parent first when i is
even and the change first when i is odd. Each side runs its own
bench_test.go.

A row fails when the change is slower in at least LOSSES of the PAIRS
pairs and its median ns/op exceeds the parent's by more than BOUND.
Rows found on one side only are printed but not fatal, so a renamed
instance cannot block CI; a run that compares no row fails.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

PAIRS = 10
LOSSES = 9
BOUND = 1.2
BENCH = "BenchmarkSharedSearch|BenchmarkCegarEngine"
BENCHTIME = "300ms"
ROW = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op")


def run(binary, src):
    out = subprocess.run(
        [binary, "-test.run", "^$", "-test.bench", BENCH, "-test.benchtime", BENCHTIME,
         "-test.timeout", "10m"],
        cwd=src, check=True, capture_output=True, text=True).stdout
    return {m[1]: float(m[2]) for m in map(ROW.match, out.splitlines()) if m}


def quartiles(xs):
    """Nearest-rank p25, p50 and p75, as perfbench reports them."""
    s = sorted(xs)
    return [s[(pm * len(s) + 99) // 100 - 1] for pm in (25, 50, 75)]


def ms(qs):
    return " / ".join(f"{q / 1e6:.2f}" for q in qs)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          check=True, capture_output=True, text=True).stdout.strip()
    tmp = tempfile.mkdtemp(prefix="perfgate-")
    try:
        parent_src = os.path.join(tmp, "parent")
        os.mkdir(parent_src)
        archive = subprocess.Popen(["git", "archive", sys.argv[1]], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", parent_src], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            sys.exit(f"perfgate: git archive {sys.argv[1]} failed")
        sides = {"parent": (parent_src, os.path.join(tmp, "parent.test")),
                 "change": (root, os.path.join(tmp, "change.test"))}
        for src, binary in sides.values():
            subprocess.run(["go", "test", "-c", "-o", binary, "."], cwd=src, check=True)

        runs = {"parent": [], "change": []}
        start = time.monotonic()
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(sides[side][1], sides[side][0]))
        elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(tmp)

    parent_rows = set.intersection(*(set(r) for r in runs["parent"]))
    change_rows = set.intersection(*(set(r) for r in runs["change"]))
    failures, checked = [], 0
    print(f"{PAIRS} pairs at -benchtime {BENCHTIME} in {elapsed:.0f} s;"
          " ms/op as p25 / median / p75")
    for row in sorted(parent_rows | change_rows):
        if row not in parent_rows or row not in change_rows:
            print(f"note: {row} runs on the {'parent' if row in parent_rows else 'change'} only")
            continue
        checked += 1
        p = [r[row] for r in runs["parent"]]
        c = [r[row] for r in runs["change"]]
        lost = sum(ci > pi for pi, ci in zip(p, c))
        qp, qc = quartiles(p), quartiles(c)
        ratio = qc[1] / qp[1]
        fail = lost >= LOSSES and ratio > BOUND
        print(f"{'FAIL' if fail else 'ok'}: {row}: parent {ms(qp)}  change {ms(qc)}"
              f"  ratio {ratio:.2f}  lost {lost}/{PAIRS}")
        if fail:
            failures.append(f"{row} {ratio:.2f}x, slower in {lost}/{PAIRS} pairs")

    if checked == 0:
        sys.exit("perfgate: no row ran on both sides")
    if failures:
        sys.exit(f"perfgate: over {BOUND:.1f}x and slower in at least {LOSSES}/{PAIRS} pairs: "
                 + "; ".join(failures))
    print(f"perfgate: {checked} rows pass (fail: over {BOUND:.1f}x and slower in "
          f"at least {LOSSES}/{PAIRS} pairs)")


if __name__ == "__main__":
    main()
