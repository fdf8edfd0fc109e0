#!/usr/bin/env python3
"""Builds the xee benchmark from source and runs one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only rebuild what changed. The
last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output and diagnostics go to standard error. Exit status is 0 when a
result was printed, non-zero (with no result) when the benchmark could
not be built or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "xee_perfbench")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
WORKLOADS = ("warm_zipf", "cold_compile", "batch_fanout", "live_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs `cmd` in its own process group, so that on a timeout the whole
    group (make and its compilers, say) is killed and reaped. Returns
    (status, captured stdout or None)."""
    env = dict(os.environ, TMPDIR=TMP_DIR)  # compilers' scratch files too
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                env=env, text=True, start_new_session=True)
    except OSError as e:
        die("%s: %s" % (cmd[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s timed out after %d s" % (" ".join(cmd), timeout))
    return proc.returncode, out


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; dies on failure."""
    status, _ = run(cmd, timeout, sys.stderr)
    if status != 0:
        die("%s failed with status %d" % (" ".join(cmd), status))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no xee sources next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "xee_perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    status, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    if status != 0 or not lines:
        die("benchmark exited with status %d" % status)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not a result object: %r" % lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result object has keys %s" % sorted(result))
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
