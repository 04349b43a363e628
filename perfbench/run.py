#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

It builds janusd, janusfront and the benchmark program from this checkout
into .bench_build/bin, keeping the Go build cache under .bench_build as
well, then replaces itself with the benchmark program, passing every
argument through. The benchmark prints a human-readable record and, as the
last line of standard output, one JSON result. See perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "janusd"))
            and os.path.isdir(os.path.join(root, "perfbench"))):
        sys.stderr.write("perfbench: run from the root of a janus checkout "
                         "(go.mod, cmd/janusd and perfbench/ are needed)\n")
        return 2
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    for d in (bindir, os.path.join(build, "tmp")):
        os.makedirs(d, exist_ok=True)
    # Everything the go command writes (build cache, temp files, module
    # path, its config and telemetry counters) stays under .bench_build.
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOTMPDIR=os.path.join(build, "tmp"),
               GOPATH=os.path.join(build, "gopath"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOPROXY="off",
               CGO_ENABLED="0")
    steps = [
        (root, ["go", "build", "-o", bindir + os.sep, "./cmd/janusd", "./cmd/janusfront"]),
        (os.path.join(root, "perfbench"), ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    prog = os.path.join(bindir, "perfbench")
    sys.stdout.flush()
    os.execv(prog, [prog, "--bindir", bindir,
                    "--workdir", os.path.join(build, "run")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
