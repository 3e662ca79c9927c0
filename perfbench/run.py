#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload search-gpt3-2.6b --seed 1 --seconds 25 --trace 0

The Go build cache, temporary files and the binary all go under
.bench_build/ in the current directory, so nothing is written outside the
checkout. A failed build exits non-zero without printing a result line.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
