#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

usage (from the repository root):
  python3 perfbench/run.py --workload analytics|ingest|flashcrowd \
      --seed N --seconds S --trace 0|1

Builds perfbench (perfbench/CMakeLists.txt, which compiles the library
from src/) into .bench_build, runs one workload there, and passes the
driver's report through. Before the result line is printed, the metric
names and units in it are checked against BENCHMARK.json: end_to_end
with --trace 0, per_layer with --trace 1. The last line of stdout is the
result JSON; the exit code is non-zero when the build, a correctness
check or the name check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(BUILD, "run")
RUN_LIMIT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", DATA]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S)
    finally:
        # Page files and WAL segments are scratch; the span trace stays.
        for scratch in ("store", "blackbox.telem"):
            shutil.rmtree(os.path.join(DATA, scratch), ignore_errors=True)
        # Wait for the filesystem to commit the deletion (and discard the
        # freed blocks) here rather than inside the next run's timing.
        if os.path.isdir(DATA):
            fd = os.open(DATA, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("driver printed no result (exit %d)" % proc.returncode)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units), 3)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
