#!/usr/bin/env python3
"""Entry point of the RDX repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package twice from
source -- an untraced build for end-to-end metrics and a traced build
(`--features traced`, rdx-metrics probes compiled in) for per-layer
metrics -- under $CARGO_TARGET_DIR (default `.bench_build`), then runs
one workload. With `--trace 1` it first runs the untraced build on the
same seed so the traced run can report `tracing_overhead`.

Extra flags (`--scale tiny`, `--corrupt`) pass through
to the benchmark binary; the self-test uses them.

The last line of standard output is the run's JSON result. The exit
code is non-zero when the build fails (nothing is printed then) or when
any operation or correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "rdx-perfbench"


def target_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(traced):
    """Builds one variant in its own target directory; returns the binary."""
    target = os.path.join(target_root(), "perfbench", "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, "--target-dir", target]
    if traced:
        cmd += ["--features", "traced"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", BINARY)


def run(binary, argv):
    """Runs the binary from the repository root; returns (code, stdout)."""
    done = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    # Build both variants every time: after the first run both are
    # fresh and this costs a second, and no later run pays a build.
    plain, traced = build(False), build(True)
    if plain is None or traced is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(target_root(), "perfbench-work", f"{args.workload}-{os.getpid()}")
    # A path relative to the root keeps the Unix socket path short.
    work = os.path.relpath(work, ROOT)
    common = ["--workload", args.workload, "--seed", args.seed,
              "--seconds", args.seconds, "--workdir", work] + extra
    try:
        if args.trace == "0":
            code, out = run(plain, common + ["--trace", "0"])
            sys.stdout.write(out)
            return code
        code, out = run(plain, common + ["--trace", "0"])
        lines = out.strip().splitlines()
        try:
            base = json.loads(lines[-1])["metrics"]["accesses_per_s"]["value"]
        except (IndexError, KeyError, ValueError):
            print("perfbench: the untraced baseline run printed no result", file=sys.stderr)
            return 1
        print(f"untraced baseline: accesses_per_s {base} (exit {code})")
        code, out = run(traced, common + ["--trace", "1", "--baseline-rate", repr(base)])
        sys.stdout.write(out)
        return code
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
