#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan_mix --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench program (see main.go). The build
and everything the run leaves behind go to the directory named by
CARGO_TARGET_DIR, or .bench_build, inside the checkout: the Go build cache,
the binary, the workloads' scratch directories and the traced run's spans.
The program's last line of output is the result object; the exit code is
the program's, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    args = ["--work", os.path.join(build, "work"), "--spans", os.path.join(build, "spans")]
    return subprocess.run([binary] + args + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
