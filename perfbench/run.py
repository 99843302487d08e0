#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload paper-xorator --seed 42 --seconds 20 --trace 0

The program is compiled from the checkout's sources on every call; the Go
build cache, the binary and all scratch files live under .bench_build (or
$CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
The last line of standard output is the JSON result. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        CARGO_TARGET_DIR=build,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
