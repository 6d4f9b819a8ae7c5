#!/usr/bin/env python3
"""Build the randfill benchmark from source and run it.

Run from the root of a checkout:

    python3 _perfbench/run.py --workload security --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see main.go). The binary,
the Go build cache and the benchmark's scratch files live under the build
directory: $CARGO_TARGET_DIR if set, else .bench_build, relative to the
checkout root. Nothing is read or written outside the checkout except the
Go toolchain itself.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One benchmark run must end within 180 s; the first run in a checkout
# also builds.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run cmd to completion; kill it and wait if it outlives timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOCACHE=os.path.join(build, "go-cache"),
        GOMODCACHE=os.path.join(build, "go-mod"),
        GOPATH=os.path.join(build, "go-path"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    rc = run(
        ["go", "build", "-o", binary, "."],
        BUILD_TIMEOUT_S,
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
    )
    if rc != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return rc or 1
    args = [
        binary,
        "-workdir", os.path.join(build, "perfbench"),
        "-digests", os.path.join(HERE, "digests.json"),
    ] + sys.argv[1:]
    return run(args, RUN_TIMEOUT_S, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
