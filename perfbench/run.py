#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
program's libraries and the perfbench harness into .bench_build/; later
runs only rebuild what changed. Each run gets a fresh work directory under
.bench_work/ (corpus, report, socket), removed afterwards. A traced run
writes its Chrome trace to .bench_traces/. The last line of standard output
is the result JSON; see perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
TRACES = os.path.join(ROOT, ".bench_traces")
WORKLOADS = ("x10-spill", "stream-epochs")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources at src/ in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        built = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        # The harness runs in its work directory, so every path it writes
        # (including the daemon's socket) is relative and short.
        child = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    output = child.stdout.rstrip("\n")
    if child.returncode != 0:
        sys.stderr.write(output + "\n")
        sys.exit("perfbench: harness exited with %d" % child.returncode)
    print(output, flush=True)


if __name__ == "__main__":
    main()
