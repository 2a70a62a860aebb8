#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr,
so the last line of stdout is the run's JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oo7-blended", "star-planning", "federation-faults")


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time; a finished build makes the next call a no-op.
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", build_dir, "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
