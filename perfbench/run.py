#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload partition|search|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Builds perfbench/perfbench.exe with dune from the repository root (the
first build compiles the libraries it links), then runs the benchmark.
Its last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. Exit code 0 means every output check passed; 1
means a check failed; 2 means a bad invocation or a failed build.

--all runs every workload untraced and traced, printing every end-to-end
and per-layer metric with its unit, and fails if any run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["partition", "search", "serve"]


def option(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def main():
    os.chdir(ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # One CPU for the benchmark and the daemon it forks: client, daemon and
    # the calibration probes then share one core's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    args = sys.argv[1:]
    if "--all" not in args:
        sys.stdout.flush()
        os.execv(EXE, [EXE] + args)
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "30")
    worst = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code = subprocess.run(
                [EXE, "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", trace]
            ).returncode
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
