#!/usr/bin/env python3
"""CI gates: the same-runner perfbench A/B and the chaos win conditions.

  ab PARENT CHANGE
      PARENT and CHANGE are checkout roots. Each builds perfbench into its
      own ROOT/.bench_build. For pair k = 1..PAIRS the gate runs
      `python3 perfbench/run.py --workload all --seed k --seconds
      RUN_SECONDS` in both roots, and the side that runs first alternates
      from pair to pair, so a drift in host speed falls on both sides.
      Any CHANGE run that reports "correct": false or "failed" > 0 fails
      the gate. Then, for every end-to-end metric in PARENT's
      BENCHMARK.json and every workload, it compares the two sides'
      medians in the metric's `better` direction and fails when CHANGE is
      worse by more than the metric's `bound`. It prints one row per
      (workload, metric) and exits 0 or 1.

  chaos CHAOS_JSON [--tput-factor 0.95] [--delay-factor 1.10]
           [--clean-factor 0.98]
      Gate the hybrid win conditions on the Part-3 matrix bench_fault
      emits via --chaos-json (records keyed by fault_profile + algo,
      schema_version 1). Per chaos profile the hybrid must reach
      TPUT_FACTOR x the best single estimator's throughput at
      DELAY_FACTOR x PBE's P95 delay; on the clean profile ("none") it
      must stay within CLEAN_FACTOR of PBE. The conditions are re-derived
      here from the raw records, independent of the C++ assertions — a
      bench binary that silently stopped enforcing them still fails CI.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Five alternating pairs of 5 s runs: two runs of the parent against an
# identical copy of it pass, and a change that slows endpoint's noise or
# every stepped tick fails (see README "Benchmarking").
PAIRS = 5
RUN_SECONDS = 5


def load_records(path):
    with open(path) as f:
        records = json.load(f)
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return records


def perfbench_run(root, seed):
    """One `run.py --workload all` in ROOT; returns (result, wall s)."""
    # An inherited CARGO_TARGET_DIR would build both sides into one tree.
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", "all", "--seed", str(seed),
           "--seconds", str(RUN_SECONDS)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {root} exited with code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1]), wall


def cmd_ab(args):
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {"parent": [], "change": []}
    incorrect = 0
    start = time.monotonic()
    for k in range(1, PAIRS + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        walls = {}
        for side in order:
            result, walls[side] = perfbench_run(roots[side], k)
            runs[side].append(result)
            if side == "change" and (result["correct"] is not True
                                     or result["failed"] > 0):
                print(f"  INCORRECT change, seed {k}: correct="
                      f"{result['correct']} failed={result['failed']}")
                incorrect += 1
        print(f"pair {k}/{PAIRS} (seed {k}, {order[0]} first): parent "
              f"{walls['parent']:.0f} s, change {walls['change']:.0f} s",
              flush=True)

    print(f"{'workload':10s} {'metric':17s} {'parent':>12s} "
          f"{'change':>12s} {'ratio':>6s} {'bound':>6s}")
    worse = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = f"{workload}:{metric['name']}"
            med = {side: statistics.median(r["metrics"][key]["value"]
                                           for r in runs[side])
                   for side in runs}
            ratio = (med["change"] / med["parent"] if med["parent"]
                     else 1.0 if med["change"] == med["parent"]
                     else float("inf"))
            bound = metric["bound"]
            if metric["better"] == "higher":
                ok = ratio >= 1.0 - bound
            else:
                ok = ratio <= 1.0 + bound
            print(f"{workload:10s} {metric['name']:17s} "
                  f"{med['parent']:12.6g} {med['change']:12.6g} "
                  f"{ratio:6.3f} {bound:6.2f}{'' if ok else '  WORSE'}")
            if not ok:
                worse.append(key)
    print(f"{PAIRS} pairs of {RUN_SECONDS} s runs in "
          f"{time.monotonic() - start:.0f} s")
    if incorrect:
        print(f"{incorrect} change run(s) failed a correctness check")
    if worse:
        print(f"{len(worse)} metric(s) worse than their bound: "
              f"{', '.join(worse)}")
    if incorrect or worse:
        return 1
    print("ab gate passed")
    return 0


def cmd_chaos(args):
    records = [r for r in load_records(args.chaos)
               if r.get("part") == "chaos"]
    if not records:
        raise SystemExit(f"{args.chaos}: no part=chaos records")
    matrix = {}
    for r in records:
        matrix.setdefault(r["fault_profile"], {})[r["algo"]] = r
    failures = []
    for profile, algos in sorted(matrix.items()):
        missing = {"pbe", "bbr", "hybrid"} - set(algos)
        if missing:
            print(f"  INCOMPLETE {profile}: missing {sorted(missing)}")
            failures.append(profile)
            continue
        pbe, bbr, hyb = algos["pbe"], algos["bbr"], algos["hybrid"]
        if profile == "none":
            need = args.clean_factor * pbe["tput_mbps"]
            ok = hyb["tput_mbps"] >= need
            print(f"  {'ok' if ok else 'FAIL':5s}{profile:16s} hybrid "
                  f"{hyb['tput_mbps']:.2f} vs pbe {pbe['tput_mbps']:.2f} "
                  f"Mbit/s (need >= {need:.2f})")
        else:
            need_tput = args.tput_factor * max(pbe["tput_mbps"],
                                               bbr["tput_mbps"])
            need_p95 = args.delay_factor * pbe["p95_delay_ms"]
            ok = (hyb["tput_mbps"] >= need_tput
                  and hyb["p95_delay_ms"] <= need_p95)
            print(f"  {'ok' if ok else 'FAIL':5s}{profile:16s} hybrid "
                  f"{hyb['tput_mbps']:.2f} Mbit/s (need >= {need_tput:.2f}), "
                  f"p95 {hyb['p95_delay_ms']:.1f} ms "
                  f"(need <= {need_p95:.1f})")
        if not ok:
            failures.append(profile)
    if failures:
        print(f"{len(failures)} chaos profile(s) failed the hybrid win "
              f"conditions: {', '.join(failures)}")
        return 1
    print(f"chaos gate passed ({len(matrix)} profiles)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    ab = sub.add_parser("ab")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.set_defaults(fn=cmd_ab)

    ch = sub.add_parser("chaos")
    ch.add_argument("chaos")
    ch.add_argument("--tput-factor", type=float, default=0.95)
    ch.add_argument("--delay-factor", type=float, default=1.10)
    ch.add_argument("--clean-factor", type=float, default=0.98)
    ch.set_defaults(fn=cmd_chaos)

    args = p.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
