#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mewc checkout. The build (dune, release profile)
goes to the directory named by CARGO_TARGET_DIR, else `.bench_build`; its
log goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the checkout holds no mewc
sources to build.

The benchmark runs pinned to one CPU. On a shared host each CPU's share
drifts on its own; pinned, the host-speed kernel the benchmark times runs
on the very CPU the operations get, and the async runtime's domains
time-share it instead of waiting on a second CPU the kernel never sees.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a mewc checkout", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", build_dir, "./perfbench/bench.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
