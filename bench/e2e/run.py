#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 bench/e2e/run.py --workload offline_1m --seed 7 --seconds 10 --trace 0
    python3 bench/e2e/run.py --seed 42          # every workload
    python3 bench/e2e/run.py --smoke            # ctest smoke check

The package in this directory is configured and built in .bench_build/
(an incremental no-op once built). The benchmark's result object is the
last line of standard output; a failed build or a failed correctness
check exits non-zero. --smoke runs every workload untraced and traced on
small inputs and fails when a metric named in BENCHMARK.json is missing
from a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench", "bench_e2e")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr)


def git_sha():
    # Only the checkout's own repository: a checkout that is not one must
    # not report the sha of a repository around it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return ""
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def run(binary, args):
    env = dict(os.environ)
    env.setdefault("DISTINCT_GIT_SHA", git_sha())
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    # A run that died leaves its corpus and catalogs behind (~0.3 GB at 1M
    # references); runs in one checkout are sequential, so clear them.
    work_dir = os.path.join(BUILD_DIR, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary] + args + [
        "--work-dir=" + work_dir,
        "--out-dir=" + out_dir]
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {metric["name"]: metric["unit"] for metric in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            result = run(binary, ["--workload", name, "--seed", "42",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--smoke"])
            sys.stdout.write(result.stdout)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                failures.append(f"{name} trace={trace}: exit "
                                f"{result.returncode}")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            for metric, unit in expected.items():
                if metrics.get(metric, {}).get("unit") != unit:
                    failures.append(f"{name} trace={trace}: {metric} "
                                    f"({unit}) missing from the result")
            for metric in metrics:
                if metric not in expected:
                    failures.append(f"{name} trace={trace}: {metric} is "
                                    f"not in BENCHMARK.json {key}")
    for failure in failures:
        print("SMOKE FAILURE: " + failure, file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", default="",
                        help="use this bench_e2e instead of building one")
    args = parser.parse_args()

    binary = args.binary
    if not binary:
        try:
            build()
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"bench_e2e build failed: {error}", file=sys.stderr)
            return 1
        binary = BINARY
    if args.smoke:
        return smoke(binary)
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    if args.workload:
        flags = ["--workload", args.workload] + flags
    result = run(binary, flags)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
