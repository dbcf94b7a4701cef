#!/usr/bin/env python3
"""weakrace benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a weakrace checkout.  Builds the benchmark and the
reference kernel from source with dune (into _perfbench_build/), runs one
workload, and passes the benchmark's output through: its last line is
the JSON result.  Exits non-zero without a result when the checkout
holds no weakrace sources to build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = "_perfbench_build"
WORKLOADS = ("postmortem-racy", "stream-ring", "verify-random")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected-dir", default=os.path.join(HERE, "expected"),
                    help="committed per-input verdict digests")
    ap.add_argument("--write-expected", default="",
                    help="also write this seed's digests into DIR, checking "
                    "batch == stream on stream-ring")
    ap.add_argument("--kernel-heap-check", action="store_true",
                    help="only check that the benchmark's heap does not move "
                    "the reference kernel")
    args = ap.parse_args()
    if not (args.workload or args.kernel_heap_check):
        ap.error("--workload is required")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.exit("run.py: no weakrace sources here; run from a checkout root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    exes = ["./perfbench/bench.exe", "./perfbench/refkernel.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release"] + exes,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.exit("run.py: build failed")

    def exe(name):
        return os.path.join(root, BUILD_DIR, "default", "perfbench", name)

    # The benchmark and its reference kernel share one CPU: they never run
    # at the same time, and a slowdown of that CPU reaches both.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.kernel_heap_check:
        sys.stdout.flush()
        sys.exit(subprocess.run(
            [exe("bench.exe"), "--kernel-heap-check",
             "--kernel", exe("refkernel.exe")]).returncode)
    cmd = [exe("bench.exe"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--kernel", exe("refkernel.exe"),
           "--expected-dir", args.expected_dir]
    if args.write_expected:
        cmd += ["--write-expected", args.write_expected]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
