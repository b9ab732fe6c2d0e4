#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds N]
    python3 perfbench/spread.py --self-test

Runs perfbench/run.py once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs and the distance between their
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median. A metric is steady when its spread is below a third of its
bound in BENCHMARK.json, and too wide above the bound.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def spread(values):
    """Interquartile distance of `values` over their median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(s, bound):
    return "steady" if s < bound / 3 else "within" if s <= bound else "TOO WIDE"


def self_test():
    # Quartiles by the exclusive method: q1 and q3 sit at ranks (n + 1) / 4
    # and 3 (n + 1) / 4, interpolated. Sorted, the first case is 97 98 99 100
    # 100 100 100 101 102 103: q1 = 98.75, q3 = 101.25, median 100.
    cases = [
        ([100, 102, 98, 101, 99, 100, 103, 97, 100, 100], 0.025),
        ([5, 1, 4, 2, 3], (4.5 - 1.5) / 3),
        ([10, 20], (22.5 - 7.5) / 15),
        ([2.0] * 10, 0.0),
    ]
    failures = 0
    for values, want in cases:
        got = spread(values)
        if abs(got - want) > 1e-12:
            print("FAIL: spread(%s) = %r, want %r" % (values, got, want))
            failures += 1
    for s, bound, want in [(0.01, 0.09, "steady"), (0.03, 0.09, "within"),
                           (0.09, 0.09, "within"), (0.0901, 0.09, "TOO WIDE")]:
        if verdict(s, bound) != want:
            print("FAIL: verdict(%r, %r) = %r, want %r" % (s, bound, verdict(s, bound), want))
            failures += 1
    if failures == 0:
        print("spread.py self-tests passed")
    return 1 if failures else 0


def seeds_from(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv):
    if argv == ["--self-test"]:
        sys.exit(self_test())
    args = {"--workload": None, "--seeds": "1-10", "--seconds": None}
    if len(argv) % 2 or any(a not in args for a in argv[::2]):
        sys.exit(__doc__)
    args.update(dict(zip(argv[::2], argv[1::2])))
    if args["--workload"] is None:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args["--seconds"] or str(spec["run_seconds"])
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_from(args["--seeds"]):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args["--workload"], "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        if not result["correct"]:
            sys.exit("seed %d: %d of %d checks failed" % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %-4d %6.1f s  %s" % (seed, time.monotonic() - t0, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    print("%-20s %14s %10s %8s %8s" % ("metric", "median", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        s = spread(v)
        print("%-20s %14.6g %9.2f%% %7.1f%% %s" % (
            m["name"], statistics.median(v), 100 * s, 100 * m["bound"], verdict(s, m["bound"])))


if __name__ == "__main__":
    main(sys.argv[1:])
