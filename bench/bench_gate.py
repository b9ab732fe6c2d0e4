#!/usr/bin/env python3
"""Merge bench --json outputs and gate CI on throughput regressions.

Every bench binary accepts `--json <path>` (see bench/bench_common.h) and
writes a JSON array of records:

  {"bench": ..., "config": ..., "wall_ms": ..., "subframes_per_sec": ...,
   "decode_attempts": ..., "threads": ...}

Subcommands:

  merge OUT IN [IN...]
      Concatenate the record arrays from the IN files into OUT (the
      BENCH.json artifact the CI bench-smoke job uploads). Inputs that do
      not exist are skipped with a warning — a bench that did not run in
      this smoke must not crash the merge.

  compare BENCH BASELINE [--threshold 0.25] [--strict]
      Fail (exit 1) if any (bench, config) record present in both files
      regressed by more than THRESHOLD in subframes_per_sec. Records the
      baseline lacks are reported as new; baseline records absent from the
      run are a warning by default (the bench may simply not have run) —
      with --strict they fail the gate, for jobs that are supposed to have
      produced every baselined record (a bench binary that silently
      crashed or was dropped from the merge must not pass); records with a
      zero baseline throughput are skipped (wall-clock-only records).

  speedup BENCH --bench NAME --base CONFIG --test CONFIG [--min-ratio 2.0]
      Gate a required improvement rather than the absence of a regression:
      find the NAME/CONFIG base and test records in BENCH and fail unless
      the test record's subframes_per_sec is at least MIN_RATIO x the base
      record's. The two configs must simulate the identical scenario (for
      bench_shard the determinism suite pins that); the CI bench-smoke job
      holds bench_shard's 4-shard config to >= 2.5x the 1-shard config
      this way.

  write-baseline BENCH BASELINE
      Rewrite BASELINE from BENCH, dropping fields that should not be
      pinned (wall_ms varies with the machine; subframes_per_sec is the
      gated signal).

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
import sys


def load_records(path):
    with open(path) as f:
        records = json.load(f)
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    return records


def cmd_merge(args):
    merged = []
    for path in args.inputs:
        try:
            merged.extend(load_records(path))
        except FileNotFoundError:
            print(f"warning: {path} not found, skipping (bench not run?)",
                  file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {len(merged)} records from {len(args.inputs)} files "
          f"into {args.out}")
    return 0


def key(rec):
    return (rec["bench"], rec["config"])


def cmd_compare(args):
    new = {key(r): r for r in load_records(args.bench)}
    base = {key(r): r for r in load_records(args.baseline)}
    failures = []
    missing = []
    for k, b in sorted(base.items()):
        base_sps = b.get("subframes_per_sec", 0.0)
        if base_sps <= 0:
            continue  # wall-clock-only record: nothing to gate
        n = new.get(k)
        if n is None:
            print(f"  MISSING  {k[0]}/{k[1]} (in baseline, not in run)")
            missing.append(k)
            continue
        sps = n.get("subframes_per_sec", 0.0)
        ratio = sps / base_sps
        status = "ok" if ratio >= 1.0 - args.threshold else "REGRESSED"
        print(f"  {status:10s}{k[0]}/{k[1]}: {sps:.0f} vs baseline "
              f"{base_sps:.0f} subframes/s ({ratio:.2f}x)")
        if status != "ok":
            failures.append(k)
    for k in sorted(set(new) - set(base)):
        print(f"  NEW      {k[0]}/{k[1]} (not in baseline)")
    if missing:
        if args.strict:
            print(f"{len(missing)} baseline record(s) absent from the run "
                  f"— failing (--strict)", file=sys.stderr)
            return 1
        print(f"warning: {len(missing)} baseline record(s) absent from the "
              f"run (bench not executed?) — not gating on them",
              file=sys.stderr)
    if failures:
        print(f"{len(failures)} record(s) regressed more than "
              f"{100 * args.threshold:.0f}% vs {args.baseline}")
        return 1
    print("bench gate passed")
    return 0


def cmd_speedup(args):
    records = [r for r in load_records(args.bench_file)
               if r.get("bench") == args.bench]
    by_config = {r["config"]: r for r in records}
    for cfg in (args.base, args.test):
        if cfg not in by_config:
            raise SystemExit(
                f"{args.bench_file}: no {args.bench}/{cfg} record")
    base_rate = by_config[args.base].get("subframes_per_sec", 0.0)
    test_rate = by_config[args.test].get("subframes_per_sec", 0.0)
    if base_rate <= 0 or test_rate <= 0:
        raise SystemExit(f"{args.bench}: subframes_per_sec missing or zero")
    ratio = test_rate / base_rate
    ok = ratio >= args.min_ratio
    print(f"  {'ok' if ok else 'TOO SLOW':9s}{args.bench}: {args.test} "
          f"{test_rate:.0f} vs {args.base} {base_rate:.0f} subframes/s "
          f"({ratio:.2f}x, need >= {args.min_ratio:.2f}x)")
    if not ok:
        return 1
    print("speedup gate passed")
    return 0


def cmd_write_baseline(args):
    records = load_records(args.bench)
    slim = [
        {
            "bench": r["bench"],
            "config": r["config"],
            "subframes_per_sec": round(r.get("subframes_per_sec", 0.0), 1),
            "decode_attempts": r.get("decode_attempts", 0),
            "threads": r.get("threads", 1),
        }
        for r in records
    ]
    with open(args.baseline, "w") as f:
        json.dump(slim, f, indent=2)
        f.write("\n")
    print(f"wrote {len(slim)} baseline records to {args.baseline}")
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

    m = sub.add_parser("merge")
    m.add_argument("out")
    m.add_argument("inputs", nargs="+")
    m.set_defaults(fn=cmd_merge)

    c = sub.add_parser("compare")
    c.add_argument("bench")
    c.add_argument("baseline")
    c.add_argument("--threshold", type=float, default=0.25)
    c.add_argument("--strict", action="store_true")
    c.set_defaults(fn=cmd_compare)

    s = sub.add_parser("speedup")
    s.add_argument("bench_file")
    s.add_argument("--bench", required=True)
    s.add_argument("--base", required=True)
    s.add_argument("--test", required=True)
    s.add_argument("--min-ratio", type=float, default=2.0)
    s.set_defaults(fn=cmd_speedup)

    w = sub.add_parser("write-baseline")
    w.add_argument("bench")
    w.add_argument("baseline")
    w.set_defaults(fn=cmd_write_baseline)

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
