#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload N times with a different seed each time, alternating
the workload order from one pass to the next, and prints for each
end-to-end metric the median, the quartiles (statistics.quantiles, n=4) and
the interquartile spread as a share of the median, against the metric's
bound in BENCHMARK.json. A spread is steady when it stays below a third of
its bound and too noisy when it exceeds the bound; the script exits 1 when
any metric, setup_s included, is too noisy or any run failed.

    python3 perfbench/steady.py --runs 10            # the full check
    python3 perfbench/steady.py --smoke              # every workload + oracle, briefly
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
    return p.returncode, result, lines


def smoke(spec):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, lines = run(w["name"], 1, 2, trace)
            good = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            ok = ok and good
            print("%-16s trace=%d  %s  attempted=%s" % (
                w["name"], trace, "ok" if good else "FAILED",
                result and result["attempted"]))
            if trace and result:
                for name, m in sorted(result["metrics"].items()):
                    print("    %-26s %12.4f %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=100)
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.smoke:
        sys.exit(smoke(spec))

    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    shares = {w: set() for w in names}
    failures = 0
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = args.seed_base + i
            code, result, _ = run(w, seed, spec["run_seconds"], 0)
            if code != 0 or result is None:
                failures += 1
                continue
            shares[w].add(result["failed"] / result["attempted"])
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print("run %2d %-16s seed %4d  %s" % (i, w, seed, "  ".join(
                "%s %.4g" % (m, result["metrics"][m]["value"]) for m in bounds)), flush=True)

    print()
    print("%-16s %-15s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    steady = True
    for w in names:
        for m, bound in bounds.items():
            v = values[w][m]
            if len(v) < 4:
                steady = False
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, steady = "TOO NOISY", False
            print("%-16s %-15s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%  %s" % (
                w, m, med, q1, q3, 100 * spread, 100 * bound, verdict))
        print("%-16s failed share of attempted: %s" % (w, sorted(shares[w])))
    if failures:
        print("%d runs failed" % failures)
    sys.exit(0 if steady and not failures else 1)


if __name__ == "__main__":
    main()
