#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that builds against
the checkout's source through a directory replace. Build cache, binary,
spill segments, sockets and trace files all go under .bench_build in the
checkout. The last line of standard output is the result object.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for need in ("go.mod", os.path.join("internal", "kvstore"), os.path.join("internal", "smd")):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write("perfbench: %s has no %s; run from the root of a softmem checkout\n" % (root, need))
            return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode
    args = [binary] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
