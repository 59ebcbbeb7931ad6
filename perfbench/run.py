#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (and the
router sources it includes) into .bench_build/ (or $CARGO_TARGET_DIR when
set), runs one workload, and passes its output through. The last stdout
line is the result object; it is printed only when the run succeeded and
reported exactly the metrics BENCHMARK.json declares for the mode. Build
output goes to stderr. Exit status is non-zero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target_dir):
    """Configure on first use, then (re)build the perfbench binary."""
    if not (target_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(target_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(target_dir), "--target", "perfbench", "-j4"],
        check=True, stdout=sys.stderr)
    return target_dir / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """The result line must carry every declared metric with its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    expected = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, wrong unit %s" % (missing, extra, wrong))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small circuit and short streams (self-check)")
    args = parser.parse_args()

    target_dir = build_dir()
    try:
        binary = build(target_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               # AF_UNIX paths are short: keep the socket path relative.
               "--socket-dir", os.path.relpath(target_dir, ROOT)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
