#!/usr/bin/env python3
"""End-to-end benchmark of larserved: build from source, then measure.

Run from the root of the repository:

    python3 perfbench/run.py --workload repeat-queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --regen-oracle     # rewrite perfbench/oracle/z3_expect.json

The first call configures and builds `larserved` with the repository's own
CMake project (its default, tier-1 build type) and the `larbench` driver
linked against the same libraries, under `.bench_build/`. Later calls only
rebuild what changed. The last line of stdout is the result object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
EXPECT = os.path.join(HERE, "oracle", "z3_expect.json")
WORKLOADS = ["repeat-queries", "cold-variations", "whatif-session"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def step(cmd, log):
    with open(log, "ab") as out:
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            with open(log, "rb") as f:
                sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
            fail("command failed: " + " ".join(cmd))


def build():
    """Builds larserved and larbench; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "larserved.cpp"))):
        fail("no lar source tree at " + ROOT + "; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    lar = os.path.join(BUILD, "lar")
    bench = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(lar, "build.ninja")):
        step(["cmake", "-S", ROOT, "-B", lar, "-G", "Ninja"], log)
    step(["ninja", "-C", lar, "-j", jobs, "larserved"], log)
    if not os.path.isfile(os.path.join(bench, "build.ninja")):
        step(["cmake", "-S", HERE, "-B", bench, "-G", "Ninja",
              "-DLAR_SOURCE_DIR=" + ROOT, "-DLAR_BUILD_DIR=" + lar], log)
    step(["ninja", "-C", bench, "-j", jobs], log)
    return os.path.join(lar, "tools", "larserved"), os.path.join(bench, "larbench")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--regen-oracle", action="store_true",
                   help="recompute the Z3 expectation file (takes minutes)")
    p.add_argument("--threads", type=int, default=3, help="Z3 workers for --regen-oracle")
    args = p.parse_args()
    if not args.regen_oracle and args.workload is None:
        p.error("--workload is required")

    larserved, larbench = build()
    if args.regen_oracle:
        cmd = [larbench, "regen", "--expect", EXPECT, "--threads", str(args.threads)]
        timeout = None
    else:
        cmd = [larbench, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--server", larserved, "--expect", EXPECT,
               "--log", os.path.join(BUILD, "larserved.log")]
        timeout = 170
    try:
        sys.exit(subprocess.run(cmd, timeout=timeout).returncode)
    except subprocess.TimeoutExpired:
        fail("larbench did not finish within %d s" % timeout)


if __name__ == "__main__":
    main()
