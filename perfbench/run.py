#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and relays its output. The last
stdout line is the JSON result. See perfbench/README.md for the workloads
and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_cold", "batch_edit", "daemon_low", "daemon_high", "fuzz")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seconds is None):
        fail("--workload and --seconds are required")
    if args.seed < 0:
        fail("--seed must be non-negative")

    # The benchmark measures the repository it sits in: without the library
    # sources and the LU workload there is nothing to build or run.
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "engine.hpp")) or not os.path.isdir(
        os.path.join(ROOT, "workloads", "lu")
    ):
        fail(f"no OpenARA sources (src/, workloads/lu) under {ROOT}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--repo", ROOT, "--seed", str(args.seed)]
    if args.self_test:
        sys.exit(subprocess.run(cmd + ["--self-test"]).returncode)
    work = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(out)
        fail(f"perfbench exited with code {proc.returncode}", proc.returncode or 2)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        fail("perfbench printed no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
