#!/usr/bin/env python3
"""Build the video-store benchmark from source and run it.

Run from the root of a checkout:

    python3 vbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Every build cache, the binary, the journals and the reports stay under
.bench_build/ in the checkout (or $CARGO_TARGET_DIR when set). Arguments
are passed through to the benchmark; see vbench/main.go. A failed build
exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="-mod=readonly",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    for d in ("gotmp", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "vbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("vbench: build failed", file=sys.stderr)
        return built.returncode
    args = [binary, "--tmp", os.path.join(build, "tmp"), "--out", os.path.join(build, "results")]
    return subprocess.run(args + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
