#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. It builds the pbecc library and the
benchmark driver from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and prints a table followed, as the last
line of standard output, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. perfbench/README.md explains the workloads.
"""

import fcntl
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("endpoint", "replay_nr", "city")
# On top of --seconds, a workload's set-up, the overrun of its last round
# and a traced run's extra passes take well under this. At the default 20 s
# a run ends within 180 s.
SETUP_ALLOWANCE_S = 150
USAGE = """usage: run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]
       run.py --self-test
  --workload  endpoint | replay_nr | city | all
  --seed      workload seed, 0 .. 18446744073709551615 (default 1)
  --seconds   measured wall time per run, 1 .. 120 (default 20)
  --trace     0 = end-to-end metrics, 1 = per-layer metrics (default 0)
"""
LIMITS = {"--seed": (0, 2**64 - 1), "--seconds": (1, 120), "--trace": (0, 1)}


def fail(msg, code=2):
    sys.stderr.write("run.py: %s\n" % msg)
    if code == 2:
        sys.stderr.write(USAGE)
    sys.exit(code)


def parse(argv):
    opts = {"--seed": 1, "--seconds": 20, "--trace": 0}
    if argv == ["--self-test"]:
        return None
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        sys.exit(0 if argv else 2)
    seen = set()
    for i in range(0, len(argv), 2):
        flag = argv[i]
        if flag not in ("--workload",) + tuple(LIMITS):
            fail("unknown argument %r" % flag)
        if flag in seen:
            fail("%s given twice" % flag)
        seen.add(flag)
        if i + 1 >= len(argv):
            fail("%s needs a value" % flag)
        value = argv[i + 1]
        if flag == "--workload":
            if value not in WORKLOADS + ("all",):
                fail("unknown workload %r (valid: %s, all)" % (value, ", ".join(WORKLOADS)))
            opts[flag] = value
            continue
        lo, hi = LIMITS[flag]
        if not re.fullmatch(r"[0-9]+", value):
            fail("%s expects a whole number, got %r" % (flag, value))
        if not lo <= int(value) <= hi:
            fail("%s %s is out of range %d .. %d" % (flag, value, lo, hi))
        opts[flag] = int(value)
    if "--workload" not in opts:
        fail("--workload is required")
    return opts


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no pbecc sources at %s; run from the root of a checkout"
             % os.path.join(ROOT, "src"), 1)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s is not installed" % tool, 1)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Runs started together in one checkout build once, one at a time.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build step failed: %s" % " ".join(step), 1)
    return out, os.path.join(build_dir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, out, workload, opts):
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(opts["--seed"]),
           "--seconds", str(opts["--seconds"]), "--trace", str(opts["--trace"]),
           "--work-dir", work]
    if opts["--trace"]:
        cmd += ["--spans", os.path.join(work, "%s-seed%d.spans.tsv" % (workload, opts["--seed"]))]
    timeout = SETUP_ALLOWANCE_S + opts["--seconds"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, timeout), 1)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(opts["--trace"])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("%s reported metrics that do not match BENCHMARK.json: %s"
             % (workload, sorted(set(got.items()) ^ set(want.items()))), 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result


def main():
    opts = parse(sys.argv[1:])
    if opts is None:
        _, binary = build("perfbench_selftest")
        codes = [subprocess.run([binary]).returncode,
                 subprocess.run([sys.executable, os.path.join(BENCH_DIR, "spread.py"),
                                 "--self-test"]).returncode]
        sys.exit(max(codes))
    out, binary = build("perfbench")
    if opts["--workload"] != "all":
        result = run_one(binary, out, opts["--workload"], opts)
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print("== %s" % workload)
        result = run_one(binary, out, workload, opts)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s:%s" % (workload, name)] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
