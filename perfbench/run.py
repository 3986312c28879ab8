#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--program NAME]

Run from the root of a checkout. The first run configures and builds the
library, the daemon and the runner from source under .bench_build/; later
runs only re-check the build. Build output goes to standard error, so the
last line of standard output is the JSON result. Temporary files (daemon
sockets and caches, traces) live under .bench_out/.

The metric names and units are declared once, in BENCHMARK.json. The
runner reports bare values; this script attaches the units, rejects a
metric the file does not declare or an end-to-end metric the runner left
out, and reports 0 for a per-layer metric the workload does not exercise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("spec06-serial", "whole-program-4t", "daemon-edits")
# Longest a run may take once built; the runner is killed past it.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "merge", "MergeDriver.h")):
        fail("no SalSSA sources next to perfbench/ (run from a checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "perfbench", "salssad"],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    """(name, unit) of every metric the run must report, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def with_units(result, trace):
    declared = declared_metrics(trace)
    names = {name for name, _ in declared}
    values = result["metrics"]
    unknown = sorted(set(values) - names)
    if unknown:
        fail("the runner reported undeclared metrics: " + ", ".join(unknown))
    missing = sorted(names - set(values))
    if missing and not trace:
        fail("the runner left out end-to-end metrics: " + ", ".join(missing))
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in declared}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--program", default="",
                        help="run one program of the workload only")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    os.makedirs(OUT, exist_ok=True)

    # The work directory is passed relative to the checkout root, where
    # the runner starts: daemon sockets live under it, and a Unix socket
    # path may not exceed 107 bytes however deep the checkout is.
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--bin-dir", BUILD, "--work-dir", os.path.relpath(OUT, ROOT)]
    if args.program:
        cmd += ["--program", args.program]
    # Own process group, so a timeout also takes down any daemon the
    # runner started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the runner's last line is not JSON: " + lines[-1])
    print(json.dumps(with_units(result, args.trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
