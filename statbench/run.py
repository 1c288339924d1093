#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 statbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
statfi libraries and the harness in Release mode under .bench_build/ (about
40 s on 4 cores); later calls find the build current in under a second. Then it runs the harness, whose last
line of standard output is the JSON result. Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "statbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "statbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "statbench")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"statbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT, "--commit", commit()]
    if args.seed == reference["seed"] and args.workload in reference["digests"]:
        cmd += ["--expect-digest", reference["digests"][args.workload]]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
