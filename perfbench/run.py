#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv-read-heavy --seed 1 --seconds 15 --trace 0

It builds the Go program in this directory (a module of its own that
replaces the repository module with the parent directory) into
.bench_build/, keeping the Go build cache there too, then runs it. The
program's standard output passes through unchanged; its last line is the
JSON result. The exit code is the program's, or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed (run from a full checkout of the repository)", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--outdir", build]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
