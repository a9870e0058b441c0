#!/usr/bin/env python3
"""Time-to-solution benchmark of the library: builds perfbench from the
checkout's sources (incrementally) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The build tree is $CARGO_TARGET_DIR if set,
else .bench_build.  The program's standard output passes through unchanged;
its last line is the JSON result.  Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170  # the run must end within 180 s


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found next to perfbench/; run from a "
             "checkout of the repository")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def clean_env():
    # Numerics-changing policies stay at their lossless defaults and no tune
    # cache is read or written: drop every LQCD_* setting of the caller.
    return {k: v for k, v in os.environ.items() if not k.startswith("LQCD_")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                                env=clean_env()).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    build_dir = build(["perfbench"])
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        # run() kills and reaps the child when the timeout expires.
        rc = subprocess.run(cmd, env=clean_env(), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(rc)


if __name__ == "__main__":
    main()
