#!/usr/bin/env python3
"""Self-check of the benchmark: every workload path, small circuit.

    python3 perfbench/selfcheck.py        (or: ctest --test-dir .bench_build)

Runs each workload of BENCHMARK.json with --smoke (a 200-net circuit and
short streams) in both modes and checks that the result line reports every
declared metric with its unit and a finite value, that every operation
passed the benchmark's correctness checks, and that malformed invocations
fail without printing a result. Exit status 0 when everything holds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def check_workload(name, trace):
    proc = run("--workload", name, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    where = "%s --trace %d" % (name, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    errors = []
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correctness checks failed: %s" % (where, result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted = %r" % (where, result["attempted"]))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        errors.append("%s: metric names differ from BENCHMARK.json" % where)
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append("%s: %s unit %r, declared %r"
                          % (where, m["name"], got["unit"], m["unit"]))
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, m["name"], value))
    if not trace and metrics.get("ok_pct", {}).get("value") != 100:
        errors.append("%s: ok_pct %r" % (where, metrics.get("ok_pct")))
    return errors


def check_rejects_bad_invocation():
    proc = run("--workload", "no_such_workload", "--seed", "1",
               "--seconds", "1", "--trace", "0", "--smoke")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["unknown workload: exit %d, stdout %r"
                % (proc.returncode, proc.stdout[-200:])]
    return []


def main():
    errors = check_rejects_bad_invocation()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            errors += check_workload(workload["name"], trace)
            print("checked %s --trace %d" % (workload["name"], trace),
                  flush=True)
    for error in errors:
        print("FAIL: " + error)
    print("selfcheck: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
