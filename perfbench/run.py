#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp|hotspot|chaos --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe with dune (into the checkout's _build, with the
shared dune cache off so nothing is written outside the checkout), then
runs it with the same arguments.  Build output goes to stderr; the last
line on stdout is the benchmark's JSON result.  Exits non-zero, without a
result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
