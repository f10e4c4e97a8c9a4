#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, and `inmem_accuracy` (which the
benchmark runs by hand only, see README.md), at `--scale tiny` through
run.py, untraced and traced, and checks that

* the run exits 0 and its last line is the JSON result with exactly the
  keys correct, attempted, failed and metrics;
* every end-to-end metric (untraced) or per-layer metric (traced) named
  in BENCHMARK.json is printed once, as a number, with its unit;
* a corrupted input makes the run fail: exit code non-zero, `correct`
  false and `failed` above zero, so error_rate rises above zero.

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--scale", "tiny"]


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace)] + TINY + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def check_result(result, expected, label, failures):
    if result is None:
        failures.append(f"{label}: no result line")
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
        return
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        failures.append(f"{label}: attempted {result['attempted']!r}")
    printed = result["metrics"]
    if sorted(printed) != sorted(expected):
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        failures.append(f"{label}: missing metrics {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = printed.get(name)
        if m is None:
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            failures.append(f"{label}: {name} value {v!r}")
        if m.get("unit") != unit:
            failures.append(f"{label}: {name} unit {m.get('unit')!r}, expected {unit!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for w in [w["name"] for w in spec["workloads"]] + ["inmem_accuracy"]:
        for trace, expected in ((0, e2e), (1, layers)):
            label = f"{w} --trace {trace}"
            code, result = bench(w, trace)
            if code != 0:
                failures.append(f"{label}: exit code {code}")
            check_result(result, expected, label, failures)
            if result is not None and (not result.get("correct") or result.get("failed")):
                failures.append(f"{label}: correct {result.get('correct')}, "
                                f"failed {result.get('failed')}")
            print(f"ok? {label}: exit {code}", flush=True)
        label = f"{w} --corrupt"
        code, result = bench(w, 0, "--corrupt")
        check_result(result, e2e, label, failures)
        if code == 0 or result is None or result.get("correct") or not result.get("failed"):
            failures.append(f"{label}: the corrupted input was not caught "
                            f"(exit {code}, result {result and result.get('failed')} failed)")
        else:
            rate = result["failed"] / result["attempted"]
            print(f"ok? {label}: exit {code}, error_rate {rate:.4g}", flush=True)
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
