#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload model-curves --seed 1 --seconds 10 --trace 0

The Go harness in this directory is built into .bench_build/ with every
Go cache kept there, then run with the same arguments. Its last line of
standard output is the result; the exit code is non-zero when the build
fails, the run fails, or a correctness check fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "bin"), exist_ok=True)
    binary = os.path.join(BUILD, "bin", "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    build = subprocess.run(["go", "build", "-o", tmp, "."], cwd=BENCH, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    os.replace(tmp, binary)
    args = [binary] + sys.argv[1:] + [
        "--workdir", os.path.join(BUILD, "work"),
        "--results", os.path.join(BUILD, "results"),
    ]
    proc = subprocess.Popen(args, cwd=ROOT)

    def stop(signum, frame):
        proc.terminate()
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: the benchmark did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
