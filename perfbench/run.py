#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from the repository root) into
.bench_build/ with CMake; later runs only check that the build is current.
Build output goes to standard error, so the benchmark's result stays the
last line of standard output. Traced runs also write their spans and a
summary under .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nse_perfbench")
TRACE_DIR = os.path.join(BUILD, "traces")
WORKLOADS = ["oltp_2pl", "certify_pwsr", "audit_log", "theorem_search"]
# A run must end within 180 s; the binary bounds its own passes, this is
# the backstop.
RUN_TIMEOUT_S = 175


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "nse_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("build failed: " + " ".join(step))


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(argv):
    # Own process group, so a timeout stops the pass processes too.
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("benchmark timed out after %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="every workload on tiny inputs, all checks")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.self_test:
        sys.exit(run([BINARY, "--self-test"]))
    sys.exit(run([BINARY, "--workload", args.workload,
                  "--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--commit", git_commit(),
                  "--trace-dir", TRACE_DIR]))


if __name__ == "__main__":
    main()
