#!/usr/bin/env python3
"""Build the perfbench Go module and run it with this script's arguments.

Run from the repository root:

    python3 perfbench/run.py --workload skew-hot --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and every temporary file live under
.bench_build/ in the repository, so the benchmark reads and writes nothing
outside it. The benchmark's last line of standard output is its JSON result;
the exit status is the benchmark's own, or 1 when the build fails or the run
overruns its time limit.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    home = os.path.join(build, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        child = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    except OSError as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run overran its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
