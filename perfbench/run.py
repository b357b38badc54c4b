#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload net-light --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/main.go). The build
and the Go toolchain's caches live under .bench_build/ in the repository,
so nothing is read or written outside it. The exit code is the binary's,
or non-zero without a result line when the build fails or the run
overstays its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        run = subprocess.run(
            [binary] + sys.argv[1:],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
