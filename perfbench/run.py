#!/usr/bin/env python3
"""Builds the phls benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload synth_1k --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  The first run configures and builds
perfbench/ in Release under .bench_build/perfbench (later runs rebuild only
what changed).  The workload runs in its own process group under a hard
timeout; its output is passed through, and the last line printed is the
workload's JSON result.  A build failure, a failed run or a missing result
ends with a non-zero exit code and no result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("synth_1k", "sweep_plane", "serve_jobs", "tasks_mix")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark and the phls CLI."""
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "phls", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    return result.returncode == 0


def run(binary, args):
    """Runs the workload in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s; stopped")
        out = ""
    finally:
        # The workload may have started a server; stop the whole group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("repro",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    base = ".bench_build"
    build_dir = os.path.join(base, "perfbench")
    try:
        if not build(root, build_dir):
            log("build failed")
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1

    work_dir = os.path.join(base, f"run-{os.getpid()}")
    trace_dir = os.path.join(base, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    cmd = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-file",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        code, out = run(binary, cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        if lines:
            print(lines[-1])
        log(f"workload {args.workload} failed (exit code {code})")
        return code if code and code > 0 else 1
    if args.workload != "repro":
        try:
            json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            log("the workload printed no result")
            return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
